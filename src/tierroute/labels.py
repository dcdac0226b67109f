"""Soft consistency labels: similarity/augmentation fusion and cloud-edge blending.

For each record, the device answer is compared against the cloud and edge
answers. The similarity score comes from the trace; the augmentation signal is
a hard rule when reference correctness is available (0 only when the device is
wrong while the stronger tier is right) and an opaque judge score otherwise.
The building blocks work elementwise on scalars and arrays alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import MissingScoreError
from .formats import write_table
from .trace import TierId, Trace


@dataclass(frozen=True)
class LabelConfig:
    alpha: float = 0.5  # similarity weight inside each pairwise label
    beta: float = 0.5   # cloud weight inside the fused label

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha={self.alpha} outside [0, 1]")
        if not (0.0 <= self.beta <= 1.0):
            raise ValueError(f"beta={self.beta} outside [0, 1]")


@dataclass
class ConsistencyLabels:
    """Per-record label components, aligned with ``ids``."""

    ids: list[str]
    sim_cloud: np.ndarray
    sim_edge: np.ndarray
    aug_cloud: np.ndarray
    aug_edge: np.ndarray
    s_cloud: np.ndarray
    s_edge: np.ndarray
    s_fused: np.ndarray

    def to_csv(self, path: str | Path) -> None:
        names = ("sim_cloud", "sim_edge", "aug_cloud", "aug_edge", "s_cloud", "s_edge", "s_fused")
        write_table(path, {"id": self.ids, **{name: getattr(self, name) for name in names}})


def aug_with_reference(device_correct, other_correct):
    """Hard augmentation: 0 only when the device is wrong and the stronger tier right."""
    return np.where(np.logical_and(np.logical_not(device_correct), other_correct), 0.0, 1.0)


def aug_without_reference(judge_score):
    """Judge-based augmentation is an opaque pass-through in [0, 1]."""
    if judge_score is None or np.any(np.isnan(judge_score)):
        raise MissingScoreError("judge score absent for a record without references")
    return np.asarray(judge_score, dtype=np.float64)


def fuse_label(sim, aug, alpha: float):
    """Blend similarity and augmentation: alpha*sim + (1-alpha)*aug."""
    return alpha * sim + (1.0 - alpha) * aug


def _first_missing(trace: Trace, missing: np.ndarray, what: str) -> None:
    if missing.any():
        raise MissingScoreError(f"record {trace.ids[np.argmax(missing)]!r}: {what}")


def _augmentation(trace: Trace, other: TierId, judge: np.ndarray) -> np.ndarray:
    # The reference rule takes precedence wherever a record has references.
    ref = trace.has_reference
    _first_missing(trace, ~ref & np.isnan(judge),
                   f"no reference and no judge score for tier {other.label}")
    aug = aug_with_reference(trace.correct[:, TierId.DEVICE] == 1, trace.correct[:, other] == 1)
    aug[~ref] = aug_without_reference(judge[~ref])
    return aug


def build_labels(trace: Trace, cfg: LabelConfig = LabelConfig()) -> ConsistencyLabels:
    """Compute per-record cloud/edge labels and their fused training target."""
    _first_missing(trace, np.isnan(trace.sim_cloud) | np.isnan(trace.sim_edge),
                   "missing sim_cloud or sim_edge")
    aug_cloud = _augmentation(trace, TierId.CLOUD, trace.judge_cloud)
    aug_edge = _augmentation(trace, TierId.EDGE, trace.judge_edge)
    s_cloud = fuse_label(trace.sim_cloud, aug_cloud, cfg.alpha)
    s_edge = fuse_label(trace.sim_edge, aug_edge, cfg.alpha)
    return ConsistencyLabels(
        ids=list(trace.ids), sim_cloud=trace.sim_cloud.copy(), sim_edge=trace.sim_edge.copy(),
        aug_cloud=aug_cloud, aug_edge=aug_edge,
        s_cloud=s_cloud, s_edge=s_edge, s_fused=fuse_label(s_cloud, s_edge, cfg.beta),
    )
