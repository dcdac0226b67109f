"""Per-query, per-tier cost, latency, and utility accounting on trace columns.

Cost is activated model parameters (billions) times generated tokens. Utility
is lambda1 * correctness - lambda2 * latency - lambda3 * cost, with latency and
cost normalized by cloud-only trace means so the weights stay dimensionless
across traces. Per-tier results are (n, 3) matrices in TierId order.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ConfigError
from .network import NetworkScenario, round_trip_latency, scenario_link
from .trace import TIER_LABELS, TierId, Trace


@dataclass(frozen=True)
class CostModel:
    """Activated parameters per tier, in billions; the fields are in TierId order."""

    device: float
    edge: float
    cloud: float

    def __post_init__(self) -> None:
        for label, params in zip(TIER_LABELS, astuple(self)):
            if not params > 0:
                raise ValueError(f"{label} activated parameters must be positive; got {params}")


# Qwen3 tier sizes: 1.7B device, 14B edge, 32B cloud.
QWEN3_COST_MODEL = CostModel(device=1.7, edge=14.0, cloud=32.0)


@dataclass(frozen=True)
class UtilityWeights:
    lambda1: float = 1.0
    lambda2: float = 0.2
    lambda3: float = 0.2

    def __post_init__(self) -> None:
        if not all(0 < lam < math.inf for lam in (self.lambda1, self.lambda2, self.lambda3)):
            raise ValueError("all lambda weights must be positive and finite")

    @classmethod
    def from_kappas(cls, kappa1: float, kappa2: float) -> UtilityWeights:
        """kappa1 = lambda1/lambda2 and kappa2 = lambda1/lambda3, with lambda1 = 1."""
        if not min(kappa1, kappa2) > 0:
            raise ValueError(f"kappas must be positive; got {kappa1}, {kappa2}")
        return cls(lambda1=1.0, lambda2=1.0 / kappa1, lambda3=1.0 / kappa2)


@dataclass(frozen=True)
class CloudBaselines:
    """Cloud-only trace means used to normalize latency and cost."""

    mean_latency_s: float
    mean_cost: float

    def __post_init__(self) -> None:
        if self.mean_latency_s <= 0 or self.mean_cost <= 0:
            raise ValueError("cloud baselines must be positive")


def tier_cost(trace: Trace, model: CostModel) -> np.ndarray:
    """Billion-parameter-tokens each tier's response consumes."""
    if np.any(trace.generated_tokens < 0):
        raise ValueError("generated_tokens must be >= 0")
    return trace.generated_tokens * np.array(astuple(model))


def tier_latency(trace: Trace, scenario: NetworkScenario, windows) -> np.ndarray:
    """Compute time plus, for offloaded tiers, the round trip over the link in
    force at each query's stream window (an index or one per query)."""
    latency = trace.compute_s.copy()
    switch = scenario.switch_at
    for tier in (TierId.EDGE, TierId.CLOUD):
        req, resp = trace.request_bytes[:, tier], trace.response_bytes[:, tier]
        if switch is None:
            latency[:, tier] += round_trip_latency(scenario_link(scenario, tier, 0), req, resp)
        else:  # windows before the switch use the first link, the rest the second
            before = round_trip_latency(scenario_link(scenario, tier, switch - 1), req, resp)
            after = round_trip_latency(scenario_link(scenario, tier, switch), req, resp)
            latency[:, tier] += np.where(np.asarray(windows) >= switch, after, before)
    return latency


def utility_matrix(correct, latency, cost, weights: UtilityWeights,
                   cloud_baselines: CloudBaselines):
    """lambda1 * I[correct] - lambda2 * latency - lambda3 * cost (normalized by cloud means).
    Weights that overflow it, or the sum of its squares, are a ConfigError: that
    sum bounds every spread of the utilities that the GP fit standardizes by."""
    latency = latency / cloud_baselines.mean_latency_s
    cost = cost / cloud_baselines.mean_cost
    with np.errstate(over="ignore", invalid="ignore"):
        utility = weights.lambda1 * correct - weights.lambda2 * latency - weights.lambda3 * cost
        if not np.isfinite(np.square(utility).sum()):
            raise ConfigError(
                f"weights lambda1={weights.lambda1!r}, lambda2={weights.lambda2!r} and "
                f"lambda3={weights.lambda3!r} overflow the utility of this trace")
    return utility


def cloud_reference_means(trace: Trace, scenario: NetworkScenario,
                          cost_model: CostModel) -> CloudBaselines:
    """Mean cloud-tier latency and cost over the trace, used as normalization scales."""
    if len(trace) == 0:
        raise ValueError("cannot compute cloud baselines on an empty trace")
    latency = tier_latency(trace, scenario, 0)[:, TierId.CLOUD]
    cost = tier_cost(trace, cost_model)[:, TierId.CLOUD]
    return CloudBaselines(mean_latency_s=float(np.mean(latency)),
                          mean_cost=float(np.mean(cost)))
