"""GP-based Bayesian optimization of routing threshold pairs under tau1 > tau2.

An exact GP regression with a squared-exponential kernel models utility over
the constrained triangle {0 <= tau2 < tau1 <= 1}; Expected Improvement over a
seeded random candidate pool proposes the next pair. Utilities are
standardized (zero mean, unit variance over the observation set) before
fitting and inverse-transformed for prediction, so the fixed kernel
hyperparameters stay usable across utility scalings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular
from scipy.special import ndtr

from .errors import GpFitError

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
    """Bounded history of ((tau1, tau2), utility) samples with oldest-first eviction."""

    def __init__(self, capacity: int = 512):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._points: list[tuple[ThresholdPair, float]] = []

    def __len__(self) -> int:
        return len(self._points)

    @property
    def points(self) -> list[tuple[ThresholdPair, float]]:
        return list(self._points)

    def append(self, pair: ThresholdPair, utility: float) -> None:
        self.extend(pair, [utility])

    def extend(self, pair: ThresholdPair, utilities) -> None:
        """Append one observation of ``pair`` per utility, in order."""
        utilities = np.asarray(utilities, dtype=np.float64)[-self.capacity:]
        if not np.all(np.isfinite(utilities)):
            raise ValueError(f"utility must be finite; got {utilities}")
        self._points.extend((pair, u) for u in utilities.tolist())
        if len(self._points) > self.capacity:
            del self._points[: len(self._points) - self.capacity]

    def best(self) -> tuple[ThresholdPair, float]:
        if not self._points:
            raise ValueError("observation set is empty")
        best_pair, best_u = self._points[0]
        for pair, u in self._points[1:]:
            if u > best_u:
                best_pair, best_u = pair, u
        return best_pair, best_u

    def arrays(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.array([[p.tau1, p.tau2] for p, _ in self._points])
        y = np.array([u for _, u in self._points])
        return x, y


@dataclass
class GpSurrogate:
    """Exact GP posterior over the 2-D threshold space, on standardized targets."""

    hypers: GpHyperparameters
    x_train: np.ndarray       # distinct pairs, in order of first appearance
    y_mean: float
    y_std: float
    chol: np.ndarray          # lower Cholesky factor of K + diag(noise / counts)
    alpha: np.ndarray         # (K + diag(noise / counts))^-1 z_bar
    jitter_used: float = 0.0

    def predict(self, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation, in original utility units."""
        candidates = np.atleast_2d(candidates)
        k_star = _kernel(self.hypers, candidates, self.x_train)
        mu_z = k_star @ self.alpha
        v = solve_triangular(self.chol, k_star.T, lower=True)
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
    x, y = obs.arrays()
    y_mean = float(y.mean())
    y_std = float(y.std())
    if y_std < 1e-12:
        y_std = 1.0
    z = (y - y_mean) / y_std
    slot: dict[tuple[float, float], int] = {}
    inverse = np.array([slot.setdefault(key, len(slot)) for key in map(tuple, x.tolist())])
    x_distinct = np.array(list(slot))
    counts = np.bincount(inverse)
    z_bar = np.bincount(inverse, weights=z) / counts
    k = _kernel(hypers, x_distinct, x_distinct)
    jitter = 0.0
    while True:
        noise = (hypers.noise_variance + jitter) / counts
        try:
            chol = cholesky(k + np.diag(noise), lower=True)
            break
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            if jitter > max_jitter:
                raise GpFitError(
                    f"kernel factorization failed even with jitter {max_jitter}"
                ) from None
    alpha = cho_solve((chol, True), z_bar)
    return GpSurrogate(hypers=hypers, x_train=x_distinct, y_mean=y_mean, y_std=y_std,
                       chol=chol, alpha=alpha, jitter_used=jitter)


def _ei_values(mu: np.ndarray, sigma: np.ndarray, best_so_far: float) -> np.ndarray:
    """EI = (mu - f*) Phi(z) + sigma phi(z) elementwise; max(0, mu - f*) where sigma = 0."""
    improve = mu - best_so_far
    out = np.maximum(improve, 0.0)
    active = sigma > 0
    if np.any(active):
        z = improve[active] / sigma[active]
        pdf = np.exp(-0.5 * z * z) / _SQRT_2PI
        out[active] = improve[active] * ndtr(z) + sigma[active] * pdf
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
                       rng: np.random.Generator | None = None) -> ThresholdPair:
    """Argmax of EI over a seeded candidate pool; first candidate wins ties."""
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    pool = sample_triangle(rng, cfg.candidate_pool_size)
    _, best_u = obs.best()
    mu, sigma = gp.predict(pool)
    ei = _ei_values(mu, sigma, best_u)
    winner = pool[int(np.argmax(ei))]
    return ThresholdPair(tau1=float(winner[0]), tau2=float(winner[1]))


Evaluator = Callable[[ThresholdPair], float]


def optimize_offline(evaluator: Evaluator, cfg: BoConfig, seed_points: int = 8,
                     hypers: GpHyperparameters = DEFAULT_OFFLINE_HYPERS,
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
        gp = gp_fit(obs, hypers)
        pair = propose_thresholds(gp, obs, cfg, rng)
        obs.append(pair, evaluator(pair))
    incumbent, _ = obs.best()
    return incumbent, obs


def refresh_online(obs: ObservationSet, incumbent: ThresholdPair,
                   evaluator: Evaluator, cfg: BoConfig,
                   rng: np.random.Generator | None = None,
                   hypers: GpHyperparameters = DEFAULT_ONLINE_HYPERS) -> ThresholdPair:
    """A few incremental BO steps; the incumbent is replaced only by a strictly
    higher (re-estimated) utility."""
    if len(obs) == 0:
        raise ValueError("refresh_online needs a non-empty observation set")
    if cfg.online_steps_per_refresh == 0:
        return incumbent
    rng = rng if rng is not None else np.random.default_rng(cfg.seed)
    # Re-estimate the incumbent under the current evaluator so stale utilities
    # cannot pin the thresholds after a drift.
    incumbent_u = evaluator(incumbent)
    obs.append(incumbent, incumbent_u)
    best_pair, best_u = incumbent, incumbent_u
    for _ in range(cfg.online_steps_per_refresh):
        gp = gp_fit(obs, hypers)
        pair = propose_thresholds(gp, obs, cfg, rng)
        u = evaluator(pair)
        obs.append(pair, u)
        if u > best_u:
            best_pair, best_u = pair, u
    return best_pair
