"""Trace schema, line-delimited serialization, and synthetic trace generation.

A trace replaces live model / reranker / judge calls with recorded outcomes:
per-tier correctness, token counts, compute times, and agreement scores.

File format (UTF-8, one JSON object per line):
  line 1    header: {"embedding_dim": int, "prompt_text": str, "metadata": {...}}
  line 2..  one record per line with the field names of QueryRecord; absent
            optional scores are simply omitted. Floats use Python's shortest
            round-trip representation (well above 6 significant digits).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

import numpy as np

from .errors import TraceFormatError, TraceValidationError

BYTES_PER_TOKEN = 4  # UTF-8 proxy used when byte sizes are not given explicitly

DEFAULT_SYNTHETIC_PROMPT = "synthetic probe prompt (embeddings generated directly; no LLM involved)"


class TierId(IntEnum):
    """Serving tiers, totally ordered by ascending capability."""

    DEVICE = 0
    EDGE = 1
    CLOUD = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> TierId:
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown tier {label!r}") from None


TIERS: tuple[TierId, TierId, TierId] = (TierId.DEVICE, TierId.EDGE, TierId.CLOUD)


@dataclass(frozen=True)
class TierResponseInfo:
    """Measured outcome of serving one query on one tier."""

    generated_tokens: int
    compute_seconds: float
    prompt_tokens: int = 0
    correct: bool | None = None
    request_bytes: int | None = None
    response_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.generated_tokens < 1:
            raise TraceValidationError("generated_tokens must be >= 1 for a produced response")
        if self.prompt_tokens < 0:
            raise TraceValidationError("prompt_tokens must be >= 0")
        if self.compute_seconds < 0:
            raise TraceValidationError("compute_seconds must be >= 0")
        if self.request_bytes is None:
            object.__setattr__(self, "request_bytes", BYTES_PER_TOKEN * self.prompt_tokens)
        if self.response_bytes is None:
            object.__setattr__(self, "response_bytes", BYTES_PER_TOKEN * self.generated_tokens)
        if self.request_bytes < 0 or self.response_bytes < 0:
            raise TraceValidationError("byte counts must be >= 0")

    def to_json_obj(self) -> dict:
        obj: dict = {
            "generated_tokens": self.generated_tokens,
            "compute_seconds": self.compute_seconds,
            "prompt_tokens": self.prompt_tokens,
            "request_bytes": self.request_bytes,
            "response_bytes": self.response_bytes,
        }
        if self.correct is not None:
            obj["correct"] = self.correct
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> TierResponseInfo:
        return cls(
            generated_tokens=int(obj["generated_tokens"]),
            compute_seconds=float(obj["compute_seconds"]),
            prompt_tokens=int(obj.get("prompt_tokens", 0)),
            correct=_json_bool(obj, "correct", default=None, nullable=True),
            request_bytes=obj.get("request_bytes"),
            response_bytes=obj.get("response_bytes"),
        )


def _json_bool(obj: dict, key: str, default: bool | None,
               nullable: bool = False) -> bool | None:
    """A JSON true/false field; an absent key gives ``default``, null only if nullable."""
    value = obj.get(key, default)
    if isinstance(value, bool) or (nullable and value is None):
        return value
    allowed = "true, false or null" if nullable else "true or false"
    raise TraceValidationError(f"{key} must be {allowed}; got {value!r}")


_SCORE_FIELDS = ("sim_cloud", "sim_edge", "judge_cloud", "judge_edge")


@dataclass
class QueryRecord:
    """One trace entry: embedding plus per-tier outcomes and agreement scores."""

    id: str
    embedding: np.ndarray
    tier_info: dict[TierId, TierResponseInfo]
    sim_cloud: float | None = None
    sim_edge: float | None = None
    judge_cloud: float | None = None
    judge_edge: float | None = None
    has_reference: bool = False

    def validate(self, embedding_dim: int) -> None:
        if len(self.embedding) != embedding_dim:
            raise TraceValidationError(
                f"record {self.id!r}: embedding has length {len(self.embedding)}, "
                f"expected {embedding_dim}"
            )
        if not np.all(np.isfinite(self.embedding)):
            raise TraceValidationError(f"record {self.id!r}: embedding has non-finite values")
        for name in _SCORE_FIELDS:
            value = getattr(self, name)
            if value is not None and not (0.0 <= value <= 1.0):
                raise TraceValidationError(
                    f"record {self.id!r}: {name}={value} outside [0, 1]"
                )
        if self.has_reference:
            for tier in TIERS:
                info = self.tier_info.get(tier)
                if info is None or info.correct is None:
                    raise TraceValidationError(
                        f"record {self.id!r}: has_reference requires a correct bit "
                        f"for tier {tier.label}"
                    )

    def to_json_obj(self) -> dict:
        obj: dict = {
            "id": self.id,
            "embedding": [float(v) for v in self.embedding],
            "tier_info": {t.label: info.to_json_obj() for t, info in self.tier_info.items()},
            "has_reference": self.has_reference,
        }
        for name in _SCORE_FIELDS:
            value = getattr(self, name)
            if value is not None:
                obj[name] = float(value)
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> QueryRecord:
        rid = str(obj["id"])
        tier_info = {}
        for label, sub in obj["tier_info"].items():
            try:
                tier_info[TierId.from_label(label)] = TierResponseInfo.from_json_obj(sub)
            except TraceValidationError as exc:
                raise TraceValidationError(f"record {rid!r}: tier {label}: {exc}") from exc
        try:
            has_reference = _json_bool(obj, "has_reference", default=False)
        except TraceValidationError as exc:
            raise TraceValidationError(f"record {rid!r}: {exc}") from exc
        return cls(
            id=rid,
            embedding=np.asarray(obj["embedding"], dtype=np.float64),
            tier_info=tier_info,
            sim_cloud=obj.get("sim_cloud"),
            sim_edge=obj.get("sim_edge"),
            judge_cloud=obj.get("judge_cloud"),
            judge_edge=obj.get("judge_edge"),
            has_reference=has_reference,
        )


@dataclass
class Trace:
    """An ordered, validated sequence of query records."""

    records: list[QueryRecord]
    embedding_dim: int
    prompt_text: str = DEFAULT_SYNTHETIC_PROMPT
    metadata: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.embedding_dim <= 0:
            raise TraceValidationError("embedding_dim must be positive")
        seen: set[str] = set()
        for rec in self.records:
            if rec.id in seen:
                raise TraceValidationError(f"duplicate record id {rec.id!r}")
            seen.add(rec.id)
            rec.validate(self.embedding_dim)

    def __len__(self) -> int:
        return len(self.records)

    def embeddings_matrix(self) -> np.ndarray:
        """All embeddings stacked as an (n, d) float64 matrix."""
        if not self.records:
            return np.zeros((0, self.embedding_dim))
        return np.stack([r.embedding for r in self.records]).astype(np.float64)

    def correctness_matrix(self) -> np.ndarray:
        """Per-record, per-tier correct bits as an (n, 3) float array.

        Raises if any record lacks a correct bit for any tier.
        """
        out = np.empty((len(self.records), 3))
        for i, rec in enumerate(self.records):
            for tier in TIERS:
                info = rec.tier_info.get(tier)
                if info is None or info.correct is None:
                    raise TraceValidationError(
                        f"record {rec.id!r}: missing correct bit for tier {tier.label}"
                    )
                out[i, tier] = float(info.correct)
        return out


def save_trace(trace: Trace, path: str | Path) -> None:
    """Write a trace in the line-delimited format described in the module docstring."""
    path = Path(path)
    header = {
        "embedding_dim": trace.embedding_dim,
        "prompt_text": trace.prompt_text,
        "metadata": trace.metadata,
    }
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in trace.records:
            fh.write(json.dumps(rec.to_json_obj(), sort_keys=True) + "\n")


def load_trace(path: str | Path) -> Trace:
    """Parse and validate a trace file; errors name the offending line or record."""
    path = Path(path)
    records: list[QueryRecord] = []
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise TraceFormatError(f"{path}: empty trace file (missing header line)")
    try:
        header = json.loads(lines[0])
        embedding_dim = int(header["embedding_dim"])
        prompt_text = str(header.get("prompt_text", ""))
        metadata = dict(header.get("metadata", {}))
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: line 1: bad header ({exc})") from exc
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            records.append(QueryRecord.from_json_obj(obj))
        except TraceValidationError as exc:
            raise TraceValidationError(f"{path}: line {lineno}: {exc}") from exc
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: line {lineno}: malformed record ({exc})") from exc
    trace = Trace(records=records, embedding_dim=embedding_dim,
                  prompt_text=prompt_text, metadata=metadata)
    trace.validate()
    return trace


def concat_traces(first: Trace, second: Trace) -> Trace:
    """Concatenate two compatible traces, disambiguating ids of the second."""
    if first.embedding_dim != second.embedding_dim:
        raise TraceValidationError(
            f"cannot concatenate traces with dims {first.embedding_dim} and "
            f"{second.embedding_dim}"
        )
    existing = {r.id for r in first.records}
    merged = list(first.records)
    for rec in second.records:
        rid = rec.id if rec.id not in existing else f"{rec.id}+"
        while rid in existing:
            rid += "+"
        existing.add(rid)
        merged.append(QueryRecord(
            id=rid, embedding=rec.embedding, tier_info=rec.tier_info,
            sim_cloud=rec.sim_cloud, sim_edge=rec.sim_edge,
            judge_cloud=rec.judge_cloud, judge_edge=rec.judge_edge,
            has_reference=rec.has_reference,
        ))
    return Trace(records=merged, embedding_dim=first.embedding_dim,
                 prompt_text=first.prompt_text, metadata=dict(first.metadata))


# ---------------------------------------------------------------------------
# Synthetic traces with a known consistency oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyntheticConfig:
    """Generator settings for oracle-backed synthetic traces.

    ``tier_accuracy_profile`` holds one (device, edge, cloud) success-probability
    triple per latent cluster; probabilities must be nondecreasing from device
    to cloud within each cluster. ``token_mean_profile`` holds one per-tier
    triple of mean generated-token counts per cluster.
    """

    n_queries: int
    embedding_dim: int = 64
    n_latent_clusters: int = 4
    seed: int = 0
    noise_sigma: float = 0.05
    tier_accuracy_profile: tuple[tuple[float, float, float], ...] | None = None
    token_mean_profile: tuple[tuple[int, int, int], ...] | None = None
    token_jitter: float = 0.2
    prompt_token_range: tuple[int, int] = (30, 120)
    tier_tokens_per_second: tuple[float, float, float] = (40.0, 30.0, 25.0)
    cluster_std: float = 1.0
    cluster_separation: float = 12.0
    reference_fraction: float = 1.0

    def resolved_accuracy_profile(self) -> np.ndarray:
        if self.tier_accuracy_profile is not None:
            prof = np.asarray(self.tier_accuracy_profile, dtype=np.float64)
        else:
            k = self.n_latent_clusters
            dev = np.linspace(0.3, 0.9, k) if k > 1 else np.array([0.7])
            edge = dev + 0.6 * (0.96 - dev)
            cloud = np.full(k, 0.96)
            prof = np.stack([dev, edge, cloud], axis=1)
        if prof.shape != (self.n_latent_clusters, 3):
            raise ValueError(
                f"tier_accuracy_profile must have shape ({self.n_latent_clusters}, 3)"
            )
        if np.any(prof < 0) or np.any(prof > 1):
            raise ValueError("success probabilities must lie in [0, 1]")
        if np.any(np.diff(prof, axis=1) < 0):
            raise ValueError("success probabilities must be nondecreasing device->cloud")
        return prof

    def resolved_token_profile(self) -> np.ndarray:
        if self.token_mean_profile is not None:
            prof = np.asarray(self.token_mean_profile, dtype=np.float64)
        else:
            prof = np.tile(np.array([80.0, 100.0, 120.0]), (self.n_latent_clusters, 1))
        if prof.shape != (self.n_latent_clusters, 3):
            raise ValueError(
                f"token_mean_profile must have shape ({self.n_latent_clusters}, 3)"
            )
        if np.any(prof < 1):
            raise ValueError("mean token counts must be >= 1")
        return prof

    def validate(self) -> None:
        if self.n_queries <= 0 or self.embedding_dim <= 0 or self.n_latent_clusters <= 0:
            raise ValueError("n_queries, embedding_dim, n_latent_clusters must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")
        if not (0.0 <= self.reference_fraction <= 1.0):
            raise ValueError("reference_fraction must lie in [0, 1]")
        self.resolved_accuracy_profile()
        self.resolved_token_profile()


@dataclass(frozen=True)
class GroundTruth:
    """Latent quantities underlying a synthetic trace, for oracle-based tests."""

    cluster_of: np.ndarray          # (n,) latent cluster index per record
    centers: np.ndarray             # (k, d) latent cluster centers
    tier_probs: np.ndarray          # (k, 3) success probabilities
    consistency_edge: np.ndarray    # (n,) P(device answer agrees with edge)
    consistency_cloud: np.ndarray   # (n,) P(device answer agrees with cloud)


def agreement_probability(p_device: np.ndarray, p_other: np.ndarray) -> np.ndarray:
    """P(device and the other tier are both right or both wrong), independently."""
    return p_device * p_other + (1.0 - p_device) * (1.0 - p_other)


def _separated_centers(rng: np.random.Generator, k: int, dim: int,
                       std: float, separation: float) -> np.ndarray:
    # Gaussian centers, resampled until pairwise distances clear the separation
    # floor; converges immediately for desk-scale k and dim.
    min_dist = separation * std
    for _ in range(1000):
        centers = rng.normal(0.0, separation, size=(k, dim))
        if k == 1:
            return centers
        diffs = centers[:, None, :] - centers[None, :, :]
        dists = np.sqrt((diffs ** 2).sum(axis=2))
        np.fill_diagonal(dists, np.inf)
        if dists.min() >= min_dist:
            return centers
    raise RuntimeError("failed to place separated cluster centers; lower the separation")


def generate_synthetic_trace(cfg: SyntheticConfig) -> tuple[Trace, GroundTruth]:
    """Generate a deterministic synthetic trace plus its latent ground truth."""
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    n, dim, k = cfg.n_queries, cfg.embedding_dim, cfg.n_latent_clusters
    acc = cfg.resolved_accuracy_profile()
    tokens_mean = cfg.resolved_token_profile()
    speeds = np.asarray(cfg.tier_tokens_per_second, dtype=np.float64)

    centers = _separated_centers(rng, k, dim, cfg.cluster_std, cfg.cluster_separation)
    cluster_of = rng.integers(0, k, size=n)
    embeddings = centers[cluster_of] + rng.normal(0.0, cfg.cluster_std, size=(n, dim))

    correct = rng.random((n, 3)) < acc[cluster_of]

    lo = 1.0 - cfg.token_jitter
    hi = 1.0 + cfg.token_jitter
    gen_tokens = np.maximum(
        1, np.rint(tokens_mean[cluster_of] * rng.uniform(lo, hi, size=(n, 3))).astype(int)
    )
    p_lo, p_hi = cfg.prompt_token_range
    prompt_tokens = rng.integers(p_lo, p_hi + 1, size=n)

    cons_edge = agreement_probability(acc[cluster_of, 0], acc[cluster_of, 1])
    cons_cloud = agreement_probability(acc[cluster_of, 0], acc[cluster_of, 2])
    noise = rng.normal(0.0, 1.0, size=(n, 4)) * cfg.noise_sigma
    sim_cloud = np.clip(cons_cloud + noise[:, 0], 0.0, 1.0)
    sim_edge = np.clip(cons_edge + noise[:, 1], 0.0, 1.0)
    judge_cloud = np.clip(cons_cloud + noise[:, 2], 0.0, 1.0)
    judge_edge = np.clip(cons_edge + noise[:, 3], 0.0, 1.0)

    has_ref = rng.random(n) < cfg.reference_fraction

    width = len(str(max(n - 1, 1)))
    records: list[QueryRecord] = []
    for i in range(n):
        tier_info = {
            tier: TierResponseInfo(
                generated_tokens=int(gen_tokens[i, tier]),
                compute_seconds=float(gen_tokens[i, tier] / speeds[tier]),
                prompt_tokens=int(prompt_tokens[i]),
                correct=bool(correct[i, tier]),
            )
            for tier in TIERS
        }
        records.append(QueryRecord(
            id=f"q{i:0{width}d}",
            embedding=embeddings[i],
            tier_info=tier_info,
            sim_cloud=float(sim_cloud[i]),
            sim_edge=float(sim_edge[i]),
            judge_cloud=float(judge_cloud[i]),
            judge_edge=float(judge_edge[i]),
            has_reference=bool(has_ref[i]),
        ))

    trace = Trace(
        records=records,
        embedding_dim=dim,
        prompt_text=DEFAULT_SYNTHETIC_PROMPT,
        metadata={"generator": "synthetic", "seed": cfg.seed,
                  "n_latent_clusters": k, "noise_sigma": cfg.noise_sigma},
    )
    trace.validate()
    truth = GroundTruth(
        cluster_of=cluster_of,
        centers=centers,
        tier_probs=acc,
        consistency_edge=cons_edge,
        consistency_cloud=cons_cloud,
    )
    return trace, truth
