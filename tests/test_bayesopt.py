import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import broadcast_kernel
from tierroute import bayesopt
from tierroute.bayesopt import (
    BoConfig,
    GpHyperparameters,
    ObservationSet,
    ThresholdPair,
    _ei_values,
    gp_fit,
    optimize_offline,
    propose_thresholds,
    refresh_online,
    sample_triangle,
)
from tierroute.errors import ConfigError, GpFitError

PHI_AT_ZERO = 1.0 / np.sqrt(2.0 * np.pi)  # standard normal density at 0


def grid_search_max(fn, resolution=200):
    """Independent oracle: exhaustive max of fn over the constrained triangle."""
    taus = np.linspace(0.0, 1.0, resolution)
    t1, t2 = np.meshgrid(taus, taus, indexing="ij")
    mask = t1 > t2
    values = np.where(mask, fn(t1, t2), -np.inf)
    idx = np.unravel_index(np.argmax(values), values.shape)
    return float(values[idx]), (float(t1[idx]), float(t2[idx]))


def bowl(t1, t2):
    return 1.0 - (t1 - 0.7) ** 2 - (t2 - 0.4) ** 2


def ridge(t1, t2):
    return np.exp(-((t1 - 0.55) ** 2 + (t2 - 0.15) ** 2) / 0.08)


def wavy(t1, t2):
    return 0.6 + 0.25 * np.sin(3.0 * t1) * np.cos(2.0 * t2) + 0.1 * t1


def scalar_eval(fn):
    return lambda pair: float(fn(pair.tau1, pair.tau2))


class TestThresholdPair:
    def test_valid(self):
        pair = ThresholdPair(0.8, 0.3)
        assert pair.tau1 == 0.8 and pair.tau2 == 0.3

    @pytest.mark.parametrize("tau1,tau2", [(0.5, 0.5), (0.3, 0.6), (1.2, 0.5), (0.5, -0.1)])
    def test_invalid(self, tau1, tau2):
        with pytest.raises(ValueError):
            ThresholdPair(tau1, tau2)


class TestObservationSet:
    def test_eviction_keeps_most_recent(self):
        obs = ObservationSet(capacity=3)
        pairs = [ThresholdPair(0.9, 0.1 * i) for i in range(5)]
        for i, pair in enumerate(pairs):
            obs.append(pair, float(i))
        assert len(obs) == 3
        assert [u for _, u in obs.points] == [2.0, 3.0, 4.0]

    def test_best_is_first_maximum(self):
        obs = ObservationSet()
        obs.append(ThresholdPair(0.9, 0.1), 1.0)
        obs.append(ThresholdPair(0.8, 0.2), 1.0)
        best_pair, best_u = obs.best()
        assert best_u == 1.0 and best_pair == ThresholdPair(0.9, 0.1)

    def test_latest_utility_of(self):
        obs = ObservationSet()
        pair = ThresholdPair(0.7, 0.2)
        obs.append(pair, 0.5)
        obs.append(pair, 0.9)
        assert [u for p, u in obs.points if p == pair][-1] == 0.9
        assert not [u for p, u in obs.points if p == ThresholdPair(0.6, 0.1)]

    def test_rejects_non_finite(self):
        obs = ObservationSet()
        with pytest.raises(ValueError):
            obs.append(ThresholdPair(0.7, 0.2), float("nan"))


class TestGpFit:
    def test_interpolates_single_observation(self):
        obs = ObservationSet()
        obs.append(ThresholdPair(0.8, 0.3), 1.0)
        gp = gp_fit(obs, GpHyperparameters(noise_variance=1e-10))
        mu, _ = gp.predict(np.array([[0.8, 0.3]]))
        assert mu[0] == pytest.approx(1.0, abs=1e-6)

    def test_prior_reversion_far_from_data(self):
        obs = ObservationSet()
        obs.append(ThresholdPair(0.2, 0.1), 1.0)
        obs.append(ThresholdPair(0.25, 0.1), -1.0)
        gp = gp_fit(obs, GpHyperparameters(length_scale=0.05))
        mu, sigma = gp.predict(np.array([[1.0, 0.9]]))
        assert abs(mu[0]) < 1e-3
        assert sigma[0] == pytest.approx(1.0, abs=1e-3)

    def test_training_targets_within_noise(self):
        rng = np.random.default_rng(0)
        hypers = GpHyperparameters(noise_variance=1e-4)
        obs = ObservationSet()
        for row in sample_triangle(rng, 20):
            pair = ThresholdPair(float(row[0]), float(row[1]))
            obs.append(pair, scalar_eval(bowl)(pair))
        gp = gp_fit(obs, hypers)
        mu, _ = gp.predict(obs.pairs)
        assert np.max(np.abs(mu - obs.utilities)) <= 3.0 * np.sqrt(hypers.noise_variance)

    def test_posterior_accuracy_on_known_function(self):
        rng = np.random.default_rng(1)
        obs = ObservationSet()
        for row in sample_triangle(rng, 20):
            pair = ThresholdPair(float(row[0]), float(row[1]))
            obs.append(pair, scalar_eval(bowl)(pair))
        gp = gp_fit(obs)
        held = sample_triangle(np.random.default_rng(2), 200)
        mu, _ = gp.predict(held)
        truth = bowl(held[:, 0], held[:, 1])
        assert float(np.mean(np.abs(mu - truth))) < 0.05

    def test_constant_targets_predict_constant(self):
        obs = ObservationSet()
        for tau1 in (0.5, 0.7, 0.9):
            obs.append(ThresholdPair(tau1, 0.2), 0.0)
        gp = gp_fit(obs)
        mu, _ = gp.predict(np.array([[0.95, 0.05]]))
        assert mu[0] == pytest.approx(0.0, abs=1e-9)

    def test_factorization_failure_raises(self):
        # Replicates of one pair collapse to a valid 1x1 fit, so singularity
        # needs near-coincident distinct pairs.
        obs = ObservationSet()
        for pair in (ThresholdPair(0.7, 0.2), ThresholdPair(0.7 + 1e-12, 0.2),
                     ThresholdPair(0.7, 0.2 + 1e-12)):
            obs.append(pair, 0.5)
        with pytest.raises(GpFitError):
            gp_fit(obs, GpHyperparameters(noise_variance=1e-18), max_jitter=1e-12)

    def test_stream_like_duplicates_fit_with_online_noise(self):
        # Streaming fills the set with the same pair many times; the online
        # noise level must keep the kernel factorizable at full capacity.
        rng = np.random.default_rng(5)
        obs = ObservationSet(capacity=512)
        for i in range(512):
            pair = ThresholdPair(0.8, 0.3) if i % 3 else ThresholdPair(0.6, 0.2)
            obs.append(pair, float(0.5 + 0.05 * rng.standard_normal()))
        gp = gp_fit(obs, GpHyperparameters(noise_variance=1e-2))
        mu, sigma = gp.predict(np.array([[0.8, 0.3], [0.1, 0.05]]))
        assert np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))


def expanded_posterior(obs, hypers, candidates):
    """Reference fit on every raw observation, replicates kept as separate rows."""
    x, y = obs.pairs, obs.utilities
    y_std = y.std() if y.std() >= 1e-12 else 1.0
    z = (y - y.mean()) / y_std

    chol = np.linalg.cholesky(broadcast_kernel(hypers, x, x)
                              + hypers.noise_variance * np.eye(len(z)))
    k_star = broadcast_kernel(hypers, candidates, x)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, z))
    v = np.linalg.solve(chol, k_star.T)
    var = np.maximum(hypers.signal_variance - np.sum(v * v, axis=0), 0.0)
    return y.mean() + y_std * (k_star @ alpha), y_std * np.sqrt(var)


def bits(x):
    return np.ascontiguousarray(x).view(np.int64)


# Coordinates with signed zeros and near-equal values among random ones; a
# list of rows may repeat a pair, and has at least one row.
COORDS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 + 1e-9]), st.floats(-2.0, 2.0))
ROWS = st.lists(st.tuples(COORDS, COORDS), min_size=1, max_size=40)
HYPERS = st.builds(GpHyperparameters, length_scale=st.floats(1e-3, 10.0),
                   signal_variance=st.floats(1e-3, 10.0))


class TestKernel:
    """``_kernel`` forms the squared distance per coordinate; the bits equal
    those of the broadcast sum over the length-2 axis."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(a=ROWS, b=ROWS, hypers=HYPERS, repeat=st.booleans())
    def test_equals_broadcast_form(self, a, b, hypers, repeat):
        a, b = np.array(a, dtype=np.float64), np.array(b, dtype=np.float64)
        if repeat:  # every row of a again in b, the first one twice
            b = np.vstack([b, a, a[:1]])
        for x, y in ((a, b), (b, a), (a, a)):
            assert np.array_equal(bits(bayesopt._kernel(hypers, x, y)),
                                  bits(broadcast_kernel(hypers, x, y)))

    @pytest.mark.parametrize("seed", range(10))
    def test_equals_broadcast_form_at_pool_shapes(self, seed):
        rng = np.random.default_rng(seed)
        a = sample_triangle(rng, int(rng.integers(1, 600)))
        b = sample_triangle(rng, int(rng.integers(1, 60)))
        hypers = GpHyperparameters(length_scale=float(rng.uniform(0.01, 2.0)),
                                   signal_variance=float(rng.uniform(0.1, 5.0)))
        assert np.array_equal(bits(bayesopt._kernel(hypers, a, b)),
                              bits(broadcast_kernel(hypers, a, b)))

    @pytest.mark.parametrize("seed", range(20))
    def test_fit_and_predict_equal_a_broadcast_kernel_fit(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        distinct = sample_triangle(rng, int(rng.integers(1, 40)))
        obs = ObservationSet(capacity=int(rng.choice([64, 512])))
        for _ in range(int(rng.integers(1, 300))):
            row = distinct[int(rng.integers(len(distinct)))]
            obs.append(ThresholdPair(float(row[0]), float(row[1])), float(rng.normal()))
        hypers = GpHyperparameters(length_scale=float(rng.uniform(0.05, 1.0)),
                                   signal_variance=float(rng.uniform(0.1, 5.0)),
                                   noise_variance=float(rng.choice([1e-2, 1e-4, 1e-8])))
        candidates = np.vstack([sample_triangle(rng, 512), distinct])
        gp = gp_fit(obs, hypers)
        got = (gp.alpha, gp.chol_inv, *gp.predict(candidates))
        monkeypatch.setattr(bayesopt, "_kernel", broadcast_kernel)
        ref = gp_fit(obs, hypers)
        assert gp.jitter_used == ref.jitter_used
        for mine, want in zip(got, (ref.alpha, ref.chol_inv, *ref.predict(candidates))):
            assert np.array_equal(bits(mine), bits(want))


class TestReplicateCollapse:
    @pytest.mark.parametrize("seed", range(12))
    def test_posterior_matches_replicate_expanded_fit(self, seed):
        rng = np.random.default_rng(seed)
        distinct = sample_triangle(rng, int(rng.integers(1, 12)))
        # Half the sets overflow their capacity, so FIFO eviction has run.
        capacity = int(rng.choice([64, 512]))
        obs = ObservationSet(capacity=capacity)
        for _ in range(int(rng.integers(20, 200))):
            row = distinct[int(rng.integers(len(distinct)))]
            obs.append(ThresholdPair(float(row[0]), float(row[1])),
                       float(0.5 + 0.1 * rng.standard_normal()))
        hypers = GpHyperparameters(noise_variance=float(rng.choice([1e-2, 1e-4])))
        candidates = np.vstack([sample_triangle(rng, 64), distinct])
        gp = gp_fit(obs, hypers)
        mu, sigma = gp.predict(candidates)
        ref_mu, ref_sigma = expanded_posterior(obs, hypers, candidates)
        np.testing.assert_allclose(mu, ref_mu, rtol=0.0, atol=1e-9)
        np.testing.assert_allclose(sigma, ref_sigma, rtol=0.0, atol=1e-9)

    def test_trains_on_distinct_pairs_in_first_seen_order(self):
        obs = ObservationSet()
        for pair, u in ((ThresholdPair(0.8, 0.3), 1.0), (ThresholdPair(0.6, 0.2), 0.0),
                        (ThresholdPair(0.8, 0.3), 0.5), (ThresholdPair(0.6, 0.2), 0.2)):
            obs.append(pair, u)
        gp = gp_fit(obs)
        np.testing.assert_array_equal(gp.x_train, [[0.8, 0.3], [0.6, 0.2]])
        assert len(obs) == 4
        assert obs.best() == (ThresholdPair(0.8, 0.3), 1.0)


class TestExpectedImprovement:
    """The elementwise EI that propose_thresholds ranks its candidate pool by."""

    @staticmethod
    def ei(gp, candidates, best_so_far):
        return _ei_values(*gp.predict(np.atleast_2d(candidates)), best_so_far)

    def test_phi_zero_identity_far_from_single_datum(self):
        # Far from the only observation the posterior reverts to mean = y0 and
        # sigma = 1, so EI at best_so_far = y0 equals the normal density at 0.
        obs = ObservationSet()
        obs.append(ThresholdPair(0.2, 0.1), 0.4)
        gp = gp_fit(obs, GpHyperparameters(length_scale=0.05))
        ei = self.ei(gp, [0.99, 0.85], best_so_far=0.4)
        assert ei[0] == pytest.approx(PHI_AT_ZERO, abs=1e-3)

    def test_zero_at_noiseless_observed_best(self):
        obs = ObservationSet()
        obs.append(ThresholdPair(0.8, 0.3), 1.0)
        obs.append(ThresholdPair(0.5, 0.2), 0.2)
        gp = gp_fit(obs, GpHyperparameters(noise_variance=1e-12))
        ei = self.ei(gp, [0.8, 0.3], best_so_far=1.0)
        assert 0.0 <= ei[0] < 1e-6

    def test_zero_variance_no_improvement(self):
        obs = ObservationSet()
        obs.append(ThresholdPair(0.8, 0.3), 0.0)
        gp = gp_fit(obs, GpHyperparameters(noise_variance=1e-12))
        # At the datum sigma ~ 0 and mu ~ 0 < best; EI must clamp to 0.
        ei = self.ei(gp, [0.8, 0.3], best_so_far=0.5)
        assert ei[0] == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(3)
        obs = ObservationSet()
        for row in sample_triangle(rng, 10):
            pair = ThresholdPair(float(row[0]), float(row[1]))
            obs.append(pair, scalar_eval(wavy)(pair))
        gp = gp_fit(obs)
        assert np.all(self.ei(gp, sample_triangle(rng, 200), best_so_far=0.9) >= 0.0)


class TestPropose:
    def test_triangle_sampler_feasible(self):
        rows = sample_triangle(np.random.default_rng(0), 10_000)
        assert rows.shape == (10_000, 2)
        assert np.all(rows[:, 0] > rows[:, 1])
        assert np.all(rows >= 0.0) and np.all(rows <= 1.0)

    def test_pool_of_one_returns_that_candidate(self):
        obs = ObservationSet()
        obs.append(ThresholdPair(0.9, 0.1), 0.0)
        gp = gp_fit(obs)
        cfg = BoConfig(candidate_pool_size=1, seed=5)
        expected = sample_triangle(np.random.default_rng(5), 1)[0]
        pair = propose_thresholds(gp, obs, cfg, np.random.default_rng(cfg.seed))
        assert pair.tau1 == pytest.approx(expected[0])
        assert pair.tau2 == pytest.approx(expected[1])

    def test_proposals_always_feasible(self):
        obs = ObservationSet()
        obs.append(ThresholdPair(0.9, 0.1), 0.3)
        gp = gp_fit(obs)
        rng = np.random.default_rng(7)
        cfg = BoConfig(candidate_pool_size=32, seed=7)
        for _ in range(50):
            pair = propose_thresholds(gp, obs, cfg, rng)
            assert 0.0 <= pair.tau2 < pair.tau1 <= 1.0


class TestOptimizeOffline:
    def test_flat_landscape(self):
        incumbent, obs = optimize_offline(lambda pair: 0.0, BoConfig(offline_budget=5, seed=0))
        assert incumbent.tau1 > incumbent.tau2
        assert all(u == 0.0 for _, u in obs.points)

    def test_deterministic(self):
        cfg = BoConfig(offline_budget=10, seed=9)
        a, _ = optimize_offline(scalar_eval(bowl), cfg)
        b, _ = optimize_offline(scalar_eval(bowl), cfg)
        assert a == b

    def test_concave_function_near_grid_max(self):
        oracle, _ = grid_search_max(bowl)
        cfg = BoConfig(offline_budget=30, candidate_pool_size=512, seed=1)
        incumbent, obs = optimize_offline(scalar_eval(bowl), cfg)
        _, best_u = obs.best()
        assert best_u >= oracle - 0.02 * abs(oracle)

    def test_returns_best_observed_pair_not_last_proposal(self):
        evaluator = scalar_eval(bowl)
        incumbent, obs = optimize_offline(evaluator, BoConfig(offline_budget=6, seed=1))
        assert obs.utilities[-1] < obs.utilities.max()  # the last proposal is not the best
        assert (incumbent, evaluator(incumbent)) == obs.best()
        assert evaluator(incumbent) == obs.utilities.max()

    def test_attainment_across_landscapes(self):
        # Average over seeds must reach 98% of the 200x200 grid optimum.
        for fn in (bowl, ridge, wavy):
            oracle, _ = grid_search_max(fn)
            ratios = []
            for seed in range(5):
                cfg = BoConfig(offline_budget=30, candidate_pool_size=512, seed=seed)
                _, obs = optimize_offline(scalar_eval(fn), cfg)
                _, best_u = obs.best()
                ratios.append(best_u / oracle)
            assert float(np.mean(ratios)) >= 0.98


class TestBudgetsWithinCapacity:
    """A run whose budget passes the observation capacity would evict its own
    observations, so it is refused before it starts."""

    def test_offline_budget_past_capacity_refused(self):
        def never(pair):
            raise AssertionError("evaluated a pair")

        with pytest.raises(ConfigError, match=r"^seed_points=8 and offline_budget="
                                              r"1000000000000000: seed_points \+ offline_budget "
                                              r"must be at most the observation capacity 512$"):
            optimize_offline(never, BoConfig(offline_budget=10**15))
        with pytest.raises(ConfigError, match="^seed_points=3 and offline_budget=6: "):
            optimize_offline(never, BoConfig(offline_budget=6), seed_points=3, capacity=8)

    def test_offline_budget_at_capacity_keeps_every_row(self):
        evaluated = []

        def evaluator(pair):
            evaluated.append(scalar_eval(bowl)(pair))
            return evaluated[-1]

        _, obs = optimize_offline(evaluator, BoConfig(offline_budget=5, seed=3),
                                  seed_points=3, capacity=8)
        assert len(evaluated) == 8 and obs.utilities.tolist() == evaluated

    def test_online_steps_past_capacity_refused(self):
        obs = ObservationSet(capacity=3)
        pair = ThresholdPair(0.9, 0.4)
        obs.append(pair, 0.5)
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigError, match=r"^online_steps_per_refresh=3: 1 \+ "
                                             r"online_steps_per_refresh must be at most "
                                             r"the observation capacity 3$"):
            refresh_online(obs, pair, scalar_eval(bowl), BoConfig(online_steps_per_refresh=3),
                           rng)
        assert len(obs) == 1
        refresh_online(obs, pair, scalar_eval(bowl), BoConfig(online_steps_per_refresh=2), rng)
        assert len(obs) == 3


class TestRefreshOnline:
    def test_zero_steps_is_noop(self):
        obs = ObservationSet()
        pair = ThresholdPair(0.9, 0.4)
        obs.append(pair, 0.5)
        cfg = BoConfig(online_steps_per_refresh=0, seed=0)
        assert refresh_online(obs, pair, scalar_eval(bowl), cfg,
                              np.random.default_rng(cfg.seed)) == pair
        assert len(obs) == 1

    def test_fits_with_online_hypers(self, monkeypatch):
        fitted = []

        def recording_fit(obs, hypers):
            fitted.append(hypers)
            return gp_fit(obs, hypers)

        evaluator = scalar_eval(bowl)
        cfg = BoConfig(offline_budget=5, online_steps_per_refresh=3, seed=4)
        incumbent, obs = optimize_offline(evaluator, cfg)
        monkeypatch.setattr(bayesopt, "gp_fit", recording_fit)
        refresh_online(obs, incumbent, evaluator, cfg, np.random.default_rng(1))
        assert fitted == [bayesopt.DEFAULT_ONLINE_HYPERS] * 3

    def test_incumbent_utility_never_decreases(self):
        evaluator = scalar_eval(bowl)
        cfg = BoConfig(offline_budget=10, online_steps_per_refresh=2, seed=4)
        incumbent, obs = optimize_offline(evaluator, cfg)
        rng = np.random.default_rng(11)
        last = evaluator(incumbent)
        for _ in range(8):
            incumbent = refresh_online(obs, incumbent, evaluator, cfg, rng)
            now = evaluator(incumbent)
            assert now >= last - 1e-12
            last = now

    def test_adapts_to_shifted_optimum(self):
        before = lambda t1, t2: 1.0 - (t1 - 0.9) ** 2 - (t2 - 0.6) ** 2
        after = lambda t1, t2: 1.0 - (t1 - 0.5) ** 2 - (t2 - 0.2) ** 2
        # Capacity small enough that pre-shift observations evict within the
        # ten refreshes (each refresh appends online_steps + 1 points).
        cfg = BoConfig(offline_budget=20, online_steps_per_refresh=3,
                       candidate_pool_size=512, seed=2)
        incumbent, obs = optimize_offline(scalar_eval(before), cfg, capacity=32)
        _, oracle_pair = grid_search_max(after)
        rng = np.random.default_rng(3)
        for _ in range(10):
            incumbent = refresh_online(obs, incumbent, scalar_eval(after), cfg, rng)
        assert abs(incumbent.tau1 - oracle_pair[0]) <= 0.1
        assert abs(incumbent.tau2 - oracle_pair[1]) <= 0.1
