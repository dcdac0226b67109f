import numpy as np
import pytest

from helpers import column_trace
from tierroute.accounting import (
    CloudBaselines,
    CostModel,
    UtilityWeights,
    cloud_reference_means,
    tier_cost,
    tier_latency,
    utility_matrix,
)
from tierroute.network import round_trip_latency, scenario_by_name
from tierroute.router import baseline_route, route_tiers
from tierroute.trace import SyntheticConfig, TierId, generate_synthetic_trace


def one_query(**columns):
    return column_trace([[0.0, 0.0]], **columns)


class TestInferenceCost:
    def test_device_arithmetic(self):
        cost = tier_cost(one_query(generated_tokens=100), CostModel())
        assert cost[0, TierId.DEVICE] == pytest.approx(170.0)

    def test_zero_tokens(self):
        assert tier_cost(one_query(generated_tokens=0), CostModel())[0, TierId.CLOUD] == 0.0

    def test_mixture_of_experts_uses_activated_params(self):
        # DeepSeek-V3-style cloud tier: 37B activated, not the full 671B.
        moe = CostModel(activated_params={TierId.DEVICE: 3.0, TierId.EDGE: 14.0,
                                          TierId.CLOUD: 37.0})
        cost = tier_cost(one_query(generated_tokens=10), moe)
        assert cost[0, TierId.CLOUD] == pytest.approx(370.0)

    def test_negative_tokens_rejected(self):
        with pytest.raises(ValueError):
            tier_cost(one_query(generated_tokens=(10, -1, 10)), CostModel())


class TestQueryLatency:
    def test_device_is_pure_compute(self):
        trace = one_query(generated_tokens=10, compute_s=1.2)
        assert tier_latency(trace, scenario_by_name("good"), 0)[0, TierId.DEVICE] == 1.2

    def test_edge_adds_round_trip(self):
        trace = one_query(generated_tokens=1, compute_s=0.5)
        trace.request_bytes[:] = 0
        trace.response_bytes[:] = 0
        got = tier_latency(trace, scenario_by_name("good"), 0)[0, TierId.EDGE]
        assert got == pytest.approx(0.610, abs=1e-12)

    def test_bad_network_strictly_slower(self):
        trace = one_query(generated_tokens=50, compute_s=2.0, prompt_tokens=40)
        good = tier_latency(trace, scenario_by_name("good"), 0)[0, TierId.CLOUD]
        bad = tier_latency(trace, scenario_by_name("bad"), 0)[0, TierId.CLOUD]
        assert bad > good


    def test_switch_window_changes_link(self):
        # bad2good: windows before the switch use the bad links, the rest the good ones.
        trace = column_trace(np.zeros((4, 2)), compute_s=1.0, prompt_tokens=40)
        windows = np.array([0, 6, 7, 9])
        got = tier_latency(trace, scenario_by_name("bad2good", switch_at=7), windows)
        bad = tier_latency(trace, scenario_by_name("bad"), 0)
        good = tier_latency(trace, scenario_by_name("good"), 0)
        assert np.array_equal(got[:2], bad[:2]) and np.array_equal(got[2:], good[2:])
        assert np.array_equal(got[:, TierId.DEVICE], trace.compute_s[:, TierId.DEVICE])


class TestPerQueryUtility:
    def test_normalized_arithmetic(self):
        weights = UtilityWeights(1.0, 0.2, 0.2)
        baselines = CloudBaselines(mean_latency_s=4.0, mean_cost=3000.0)
        got = utility_matrix(True, 4.0, 3000.0, weights, baselines)
        assert got == pytest.approx(1.0 - 0.2 - 0.2)

    def test_incorrect_zero_latency_zero_cost(self):
        weights = UtilityWeights(1.0, 0.2, 0.2)
        baselines = CloudBaselines(mean_latency_s=4.0, mean_cost=3000.0)
        assert utility_matrix(False, 0.0, 0.0, weights, baselines) == 0.0

    def test_accuracy_dominates_in_kappa_limit(self):
        # lambda2 = lambda3 -> 0: tier ordering by utility equals ordering by
        # correctness regardless of latency and cost.
        weights = UtilityWeights(1.0, 1e-9, 1e-9)
        baselines = CloudBaselines(mean_latency_s=1.0, mean_cost=1.0)
        wrong_cheap = utility_matrix(False, 0.01, 0.01, weights, baselines)
        right_pricey = utility_matrix(True, 500.0, 50_000.0, weights, baselines)
        assert right_pricey > wrong_cheap

    def test_raw_mode_skips_normalization(self):
        weights = UtilityWeights(1.0, 0.5, 0.25)
        got = utility_matrix(True, 2.0, 4.0, weights, CloudBaselines(1.0, 1.0))
        assert got == pytest.approx(1.0 - 1.0 - 1.0)

    def test_kappa_constructor(self):
        w = UtilityWeights.from_kappas(5.0, 4.0)
        assert w.lambda1 == 1.0
        assert w.lambda2 == pytest.approx(0.2)
        assert w.lambda3 == pytest.approx(0.25)


class TestClusterUtility:
    def test_all_correct_free_equals_lambda1(self):
        weights = UtilityWeights(0.7, 0.2, 0.2)
        baselines = CloudBaselines(mean_latency_s=1.0, mean_cost=1.0)
        got = utility_matrix(np.ones(1), np.zeros(1), np.zeros(1), weights, baselines)
        assert float(np.mean(got)) == pytest.approx(0.7)

    def test_half_correct_arithmetic(self):
        weights = UtilityWeights(1.0, 0.2, 0.2)
        baselines = CloudBaselines(mean_latency_s=2.0, mean_cost=100.0)
        # Normalized latency and cost both 0.5 for every query.
        got = utility_matrix(np.array([1.0, 0.0]), np.full(2, 1.0), np.full(2, 50.0),
                             weights, baselines)
        assert float(np.mean(got)) == pytest.approx(0.5 - 0.1 - 0.1)

    def test_exact_mean_of_per_query_utilities(self):
        rng = np.random.default_rng(0)
        weights = UtilityWeights(1.0, 0.3, 0.1)
        baselines = CloudBaselines(mean_latency_s=3.0, mean_cost=900.0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            correct = rng.integers(2, size=n).astype(bool)
            lat = rng.uniform(0, 10, size=n)
            cost = rng.uniform(0, 5000, size=n)
            got = float(np.mean(utility_matrix(correct, lat, cost, weights, baselines)))
            per_query = [utility_matrix(bool(c), float(la), float(co), weights, baselines)
                         for c, la, co in zip(correct, lat, cost)]
            assert got == float(np.mean(per_query))

    def test_empty_rejected(self):
        trace = column_trace(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            baseline_route("cloud_only", trace.subset(slice(0, 0)), scenario_by_name("good"))

    def test_lambda_scaling_preserves_argmax(self):
        # Scaling every lambda by c > 0 scales utilities but never changes
        # which threshold pair wins on a grid.
        rng = np.random.default_rng(1)
        scores = rng.random(200)
        correct = rng.random((200, 3)) < np.array([0.6, 0.8, 0.95])
        lats = rng.uniform(0.5, 4.0, size=(200, 3))
        costs = rng.uniform(10, 3000, size=(200, 3))
        baselines = CloudBaselines(mean_latency_s=2.0, mean_cost=1500.0)
        rows = np.arange(len(scores))

        def grid_argmax(weights):
            utilities = utility_matrix(correct, lats, costs, weights, baselines)
            best, best_u = None, -np.inf
            for tau1 in np.linspace(0.05, 0.95, 10):
                for tau2 in np.linspace(0.0, 0.9, 10):
                    if tau2 >= tau1:
                        continue
                    total = utilities[rows, route_tiers(scores, tau1, tau2)].sum()
                    if total > best_u:
                        best, best_u = (tau1, tau2), total
            return best

        base = UtilityWeights(1.0, 0.2, 0.2)
        scaled = UtilityWeights(3.0, 0.6, 0.6)
        assert grid_argmax(base) == grid_argmax(scaled)


class TestCloudBaselineMeans:
    def test_matches_direct_computation(self):
        cfg = SyntheticConfig(n_queries=60, embedding_dim=6, n_latent_clusters=2, seed=17)
        trace, _ = generate_synthetic_trace(cfg)
        scenario = scenario_by_name("good")
        model = CostModel()
        got = cloud_reference_means(trace, scenario, model)
        cloud = TierId.CLOUD
        lats = [trace.compute_s[i, cloud]
                + round_trip_latency(scenario.cloud, int(trace.request_bytes[i, cloud]),
                                     int(trace.response_bytes[i, cloud]))
                for i in range(len(trace))]
        costs = [32.0 * int(trace.generated_tokens[i, cloud]) for i in range(len(trace))]
        assert got.mean_latency_s == pytest.approx(np.mean(lats))
        assert got.mean_cost == pytest.approx(np.mean(costs))
