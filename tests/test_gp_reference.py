"""gp_fit, GpSurrogate.predict and _ei_values against SciPy's solvers.

The fit factors and solves with NumPy: ``np.linalg.cholesky``, the factor
inverted once, and Phi from ``math.erfc``. The reference here collapses the
replicates by a dict over the rows and factors and solves the same system
with ``scipy.linalg.cholesky``, ``cho_solve`` and ``solve_triangular``, and
takes Phi from ``scipy.special.ndtr``. Its kernel is ``helpers.broadcast_kernel``,
not the code under test. The two round differently, so they
agree to a tolerance fixed from the arithmetic:

* a backward-stable solve of an n x n system of condition number kappa is
  exact to about ``n * kappa * eps`` of its solution's scale, and so are
  ``alpha``, the standardized posterior mean and the posterior variance;
* Phi(z) = erfc(-z / sqrt(2)) / 2 moves by about (1 + z^2) ulps when its
  argument moves by one, so EI agrees to a few ulps of
  (1 + z^2) |mu - f*| Phi(z) + EI; below the smallest normal float, to that
  float.
"""

import math

import numpy as np
import pytest

from helpers import broadcast_kernel
from test_cli import SMALL_CONFIG, run
from tierroute import bayesopt
from tierroute.bayesopt import (
    GpHyperparameters,
    ObservationSet,
    ThresholdPair,
    _ei_values,
    gp_fit,
    sample_triangle,
)

scipy_linalg = pytest.importorskip("scipy.linalg")
scipy_special = pytest.importorskip("scipy.special")

EPS = np.finfo(np.float64).eps
TINY = np.finfo(np.float64).tiny
ULPS = 8  # slack on each bound


def scipy_fit(obs, hypers):
    """The fit's system, factored and solved by SciPy: the distinct pairs,
    their standardized mean targets, the jitter, the factor, alpha and the
    system's condition number."""
    y = obs.utilities
    y_std = float(y.std()) if y.std() >= 1e-12 else 1.0
    z = (y - float(y.mean())) / y_std
    slot = {}
    inverse = np.array([slot.setdefault(key, len(slot)) for key in map(tuple, obs.pairs.tolist())])
    x = np.array(list(slot))
    counts = np.bincount(inverse)
    z_bar = np.bincount(inverse, weights=z) / counts
    k = broadcast_kernel(hypers, x, x)
    jitter = 0.0
    while True:
        system = k + np.diag((hypers.noise_variance + jitter) / counts)
        try:
            chol = scipy_linalg.cholesky(system, lower=True)
            break
        except np.linalg.LinAlgError:
            jitter = 1e-10 if jitter == 0.0 else jitter * 10.0
            assert jitter <= 1e-4  # gp_fit's max_jitter
    alpha = scipy_linalg.cho_solve((chol, True), z_bar)
    return x, jitter, chol, alpha, np.linalg.cond(system)


def assert_matches_scipy(obs, hypers, rng):
    gp = gp_fit(obs, hypers)
    x, jitter, chol, alpha, kappa = scipy_fit(obs, hypers)
    assert gp.x_train.tobytes() == x.tobytes()
    assert gp.jitter_used == jitter
    assert np.all(np.isfinite(gp.alpha))
    tol = ULPS * len(x) * kappa * EPS
    np.testing.assert_allclose(gp.alpha, alpha, rtol=0.0,
                               atol=tol * max(np.max(np.abs(alpha)), 1.0))

    candidates = np.vstack([sample_triangle(rng, 512), x])
    mu, sigma = gp.predict(candidates)
    k_star = broadcast_kernel(hypers, candidates, x)
    v = scipy_linalg.solve_triangular(chol, k_star.T, lower=True)
    ref_mu = gp.y_mean + gp.y_std * (k_star @ alpha)
    ref_var = np.maximum(hypers.signal_variance - np.sum(v * v, axis=0), 0.0)
    np.testing.assert_allclose(
        mu, ref_mu, rtol=ULPS * EPS,
        atol=gp.y_std * hypers.signal_variance * tol * max(np.sum(np.abs(alpha)), 1.0))
    np.testing.assert_allclose((sigma / gp.y_std) ** 2, ref_var, rtol=0.0,
                               atol=tol * hypers.signal_variance)

    best = float(obs.utilities.max())
    ei = _ei_values(mu, sigma, best)
    improve = mu - best
    ref_ei = np.maximum(improve, 0.0)
    active = sigma > 0
    z = improve[active] / sigma[active]
    cdf = scipy_special.ndtr(z)
    ref_ei[active] = improve[active] * cdf + sigma[active] * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    ref_ei = np.maximum(ref_ei, 0.0)
    # Phi's error, in ulps of Phi or, below the smallest normal float, absolute.
    cdf_error = ULPS * EPS * (1.0 + z * z) * cdf + TINY
    bound = ULPS * EPS * ref_ei + TINY
    bound[active] += np.abs(improve[active]) * cdf_error
    assert np.all(np.abs(ei - ref_ei) <= bound)
    return gp


@pytest.mark.parametrize("seed", range(40))
def test_random_observation_sets(seed):
    rng = np.random.default_rng(seed)
    distinct = sample_triangle(rng, int(rng.integers(1, 40)))
    obs = ObservationSet(capacity=int(rng.choice([64, 512])))
    for _ in range(int(rng.integers(1, 200))):
        row = distinct[int(rng.integers(len(distinct)))]
        obs.append(ThresholdPair(float(row[0]), float(row[1])), float(rng.normal()))
    hypers = GpHyperparameters(noise_variance=float(rng.choice([1e-2, 1e-4, 1e-8])))
    assert_matches_scipy(obs, hypers, rng)


@pytest.mark.parametrize("seed", range(10))
def test_near_duplicate_pairs_force_jitter(seed):
    # Pairs 1e-9 apart with almost no noise: the first factorization fails.
    rng = np.random.default_rng(seed)
    obs = ObservationSet()
    for row in sample_triangle(rng, int(rng.integers(2, 10))) * 0.9 + 0.05:
        for shift in (0.0, 1e-9, 2e-9):
            obs.append(ThresholdPair(float(row[0] + shift), float(row[1])), float(rng.normal()))
    gp = assert_matches_scipy(obs, GpHyperparameters(noise_variance=1e-18), rng)
    assert gp.jitter_used > 0.0


def test_utilities_at_the_spread_bound(tmp_path, monkeypatch):
    # TestOverflowingWeights' lambda2=5e152 tune: utilities near 1e152, whose
    # squares sum just below the float range.
    fits = []
    fit = bayesopt.gp_fit

    def spy(obs, hypers, *args, **kwargs):
        fits.append((obs.pairs.copy(), obs.utilities.copy(), hypers))
        return fit(obs, hypers, *args, **kwargs)

    monkeypatch.setattr(bayesopt, "gp_fit", spy)
    cfg = tmp_path / "cfg.jsonl"
    cfg.write_text(SMALL_CONFIG)
    assert run("tune", "--config", cfg, "--set", "synthetic.n_queries=300",
               "--set", "weights.lambda2=5e152", "--out", tmp_path / "w") == 0
    assert fits
    rng = np.random.default_rng(0)
    for pairs, utilities, hypers in fits:
        obs = ObservationSet()
        obs.pairs, obs.utilities = pairs, utilities
        assert np.max(np.abs(utilities)) > 1e150
        assert_matches_scipy(obs, hypers, rng)
