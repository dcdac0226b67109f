"""GP-based Bayesian optimization of routing threshold pairs under tau1 > tau2.

An exact GP regression with a squared-exponential kernel models utility over
the constrained triangle {0 <= tau2 < tau1 <= 1}; Expected Improvement over a
seeded random candidate pool proposes the next pair. Utilities are
standardized (zero mean, unit variance over the observation set) before
fitting and inverse-transformed for prediction, so the fixed kernel
hyperparameters stay usable across utility scalings.

The linear algebra is NumPy's (Rasmussen & Williams 2006, Algorithm 2.1).
Each fit factors K + diag(noise / counts) = L L^T with ``np.linalg.cholesky``
and inverts L once, so ``alpha = L^-T (L^-1 z_bar)`` and each ``predict``
takes ``v = L^-1 k_*^T`` in one matrix product. The normal CDF in Expected
Improvement is Phi(z) = erfc(-z / sqrt(2)) / 2, from ``math.erfc``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GpFitError

_SQRT_2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ThresholdPair:
    """Cluster-specific cut points; scores above tau1 stay on device, above tau2 go to edge."""

    tau1: float
    tau2: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.tau2 < self.tau1 <= 1.0):
            raise ValueError(
                f"threshold pair must satisfy 0 <= tau2 < tau1 <= 1; got "
                f"({self.tau1}, {self.tau2})"
            )


@dataclass(frozen=True)
class GpHyperparameters:
    length_scale: float = 0.2
    signal_variance: float = 1.0
    noise_variance: float = 1e-4

    def __post_init__(self) -> None:
        if min(self.length_scale, self.signal_variance, self.noise_variance) <= 0:
            raise ValueError("GP hyperparameters must be positive")


DEFAULT_OFFLINE_HYPERS = GpHyperparameters(noise_variance=1e-4)
# Streaming utilities are stochastic samples of the cluster utility, so the
# online surrogate assumes a larger observation noise.
DEFAULT_ONLINE_HYPERS = GpHyperparameters(noise_variance=1e-2)


@dataclass(frozen=True)
class BoConfig:
    offline_budget: int = 30
    online_steps_per_refresh: int = 2
    candidate_pool_size: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.offline_budget <= 0 or self.candidate_pool_size <= 0:
            raise ValueError("offline_budget and candidate_pool_size must be positive")
        if self.online_steps_per_refresh < 0:
            raise ValueError("online_steps_per_refresh must be >= 0")


class ObservationSet:
    """Bounded history, oldest evicted first: ``pairs`` rows [tau1, tau2], ``utilities``."""

    def __init__(self, capacity: int = 512):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.pairs = np.empty((0, 2))
        self.utilities = np.empty(0)

    def __len__(self) -> int:
        return len(self.utilities)

    @property
    def points(self) -> list[tuple[ThresholdPair, float]]:
        # Records made from the columns, only for the benchmark's gp_fit probe.
        return [(ThresholdPair(*pair), u)
                for pair, u in zip(self.pairs.tolist(), self.utilities.tolist())]

    def append(self, pair: ThresholdPair, utility: float) -> None:
        self.extend(pair, [utility])

    def extend(self, pair: ThresholdPair, utilities) -> None:
        """Append one observation of ``pair`` per utility, in order."""
        utilities = np.asarray(utilities, dtype=np.float64)[-self.capacity:]
        if not np.all(np.isfinite(utilities)):
            raise ValueError(f"utility must be finite; got {utilities}")
        drop = max(len(self) + len(utilities) - self.capacity, 0)
        rows = np.full((len(utilities), 2), (pair.tau1, pair.tau2), dtype=np.float64)
        self.pairs = np.concatenate([self.pairs[drop:], rows])
        self.utilities = np.concatenate([self.utilities[drop:], utilities])

    def best(self) -> tuple[ThresholdPair, float]:
        if not len(self):
            raise ValueError("observation set is empty")
        i = int(np.argmax(self.utilities))
        return ThresholdPair(*self.pairs[i].tolist()), float(self.utilities[i])


@dataclass
class GpSurrogate:
    """Exact GP posterior over the 2-D threshold space, on standardized targets."""

    hypers: GpHyperparameters
    x_train: np.ndarray       # distinct pairs, in order of first appearance
    y_mean: float
    y_std: float
    chol_inv: np.ndarray      # inverse of the lower Cholesky factor of K + diag(noise / counts)
    alpha: np.ndarray         # (K + diag(noise / counts))^-1 z_bar
    jitter_used: float = 0.0

    def predict(self, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation, in original utility units."""
        candidates = np.atleast_2d(candidates)
        k_star = _kernel(self.hypers, candidates, self.x_train)
        mu_z = k_star @ self.alpha
        v = self.chol_inv @ k_star.T
        var_z = np.maximum(self.hypers.signal_variance - np.sum(v * v, axis=0), 0.0)
        mu = self.y_mean + self.y_std * mu_z
        sigma = self.y_std * np.sqrt(var_z)
        return mu, sigma


def _kernel(hypers: GpHyperparameters, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
    return hypers.signal_variance * np.exp(-d2 / (2.0 * hypers.length_scale ** 2))


def gp_fit(obs: ObservationSet, hypers: GpHyperparameters = DEFAULT_OFFLINE_HYPERS,
           max_jitter: float = 1e-4) -> GpSurrogate:
    """Fit the surrogate on all observations; escalates diagonal jitter on failure.

    Replicated pairs collapse to their mean standardized target with noise
    scaled by 1/count. The per-pair mean is a sufficient statistic, so the
    posterior equals the fit on every replicate (Binois, Gramacy & Ludkovski
    2018) while the factorized matrix shrinks to the distinct pairs.
    """
    if len(obs) < 1:
        raise ValueError("gp_fit needs at least one observation")
    y_mean = float(obs.utilities.mean())
    y_std = float(obs.utilities.std())
    if y_std < 1e-12:
        y_std = 1.0
    z = (obs.utilities - y_mean) / y_std
    # One complex number per row makes the pairs 1-D for np.unique; it compares
    # them as floats, so -0.0 and 0.0 are one pair, the first one seen.
    _, first, inverse = np.unique(obs.pairs.view(np.complex128).ravel(),
                                  return_index=True, return_inverse=True)
    x_distinct = obs.pairs[np.sort(first)]
    inverse = np.argsort(np.argsort(first))[inverse]  # slots in order of first appearance
    counts = np.bincount(inverse)
    z_bar = np.bincount(inverse, weights=z) / counts
    k = _kernel(hypers, x_distinct, x_distinct)
    jitter = 0.0
    while True:
        noise = (hypers.noise_variance + jitter) / counts
        try:
            chol = np.linalg.cholesky(k + np.diag(noise))
            break
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > max_jitter:
                raise GpFitError(
                    f"kernel factorization failed even with jitter {max_jitter}"
                ) from None
    chol_inv = np.linalg.inv(chol)
    alpha = chol_inv.T @ (chol_inv @ z_bar)
    return GpSurrogate(hypers=hypers, x_train=x_distinct, y_mean=y_mean, y_std=y_std,
                       chol_inv=chol_inv, alpha=alpha, jitter_used=jitter)


def _ei_values(mu: np.ndarray, sigma: np.ndarray, best_so_far: float) -> np.ndarray:
    """EI = (mu - f*) Phi(z) + sigma phi(z) elementwise; max(0, mu - f*) where sigma = 0."""
    improve = mu - best_so_far
    out = np.maximum(improve, 0.0)
    active = sigma > 0
    if np.any(active):
        z = improve[active] / sigma[active]
        pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
        cdf = 0.5 * np.fromiter(map(math.erfc, (-z / _SQRT_2).tolist()), np.float64, len(z))
        out[active] = improve[active] * cdf + sigma[active] * pdf
    return np.maximum(out, 0.0)


def sample_triangle(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform samples from {0 <= tau2 < tau1 <= 1} by rejection over the unit square."""
    rows: list[np.ndarray] = []
    have = 0
    while have < count:
        draw = rng.uniform(0.0, 1.0, size=(2 * (count - have) + 8, 2))
        keep = draw[draw[:, 0] > draw[:, 1]]
        rows.append(keep)
        have += keep.shape[0]
    return np.concatenate(rows)[:count]


def propose_thresholds(gp: GpSurrogate, obs: ObservationSet, cfg: BoConfig,
                       rng: np.random.Generator) -> ThresholdPair:
    """Argmax of EI over a candidate pool drawn from ``rng``; first candidate wins ties."""
    pool = sample_triangle(rng, cfg.candidate_pool_size)
    _, best_u = obs.best()
    mu, sigma = gp.predict(pool)
    ei = _ei_values(mu, sigma, best_u)
    winner = pool[int(np.argmax(ei))]
    return ThresholdPair(tau1=float(winner[0]), tau2=float(winner[1]))


Evaluator = Callable[[ThresholdPair], float]


def optimize_offline(evaluator: Evaluator, cfg: BoConfig, seed_points: int = 8,
                     capacity: int = 512) -> tuple[ThresholdPair, ObservationSet]:
    """Seed the observation set, then run fit-propose-evaluate for the offline budget."""
    if seed_points < 1:
        raise ValueError("seed_points must be >= 1")
    rng = np.random.default_rng(cfg.seed)
    obs = ObservationSet(capacity=capacity)
    for row in sample_triangle(rng, seed_points):
        pair = ThresholdPair(tau1=float(row[0]), tau2=float(row[1]))
        obs.append(pair, evaluator(pair))
    for _ in range(cfg.offline_budget):
        gp = gp_fit(obs, DEFAULT_OFFLINE_HYPERS)
        pair = propose_thresholds(gp, obs, cfg, rng)
        obs.append(pair, evaluator(pair))
    incumbent, _ = obs.best()
    return incumbent, obs


def refresh_online(obs: ObservationSet, incumbent: ThresholdPair,
                   evaluator: Evaluator, cfg: BoConfig,
                   rng: np.random.Generator) -> ThresholdPair:
    """A few incremental BO steps; the incumbent is replaced only by a strictly
    higher (re-estimated) utility."""
    if len(obs) == 0:
        raise ValueError("refresh_online needs a non-empty observation set")
    if cfg.online_steps_per_refresh == 0:
        return incumbent
    # Re-estimate the incumbent under the current evaluator so stale utilities
    # cannot pin the thresholds after a drift.
    incumbent_u = evaluator(incumbent)
    obs.append(incumbent, incumbent_u)
    best_pair, best_u = incumbent, incumbent_u
    for _ in range(cfg.online_steps_per_refresh):
        gp = gp_fit(obs, DEFAULT_ONLINE_HYPERS)
        pair = propose_thresholds(gp, obs, cfg, rng)
        u = evaluator(pair)
        obs.append(pair, u)
        if u > best_u:
            best_pair, best_u = pair, u
    return best_pair
