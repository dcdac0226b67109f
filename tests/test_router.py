import csv
import hashlib
import json
from collections import deque
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    rehash,
    build_state,
    fit_k,
    hetero_config,
    nested_correctness,
    quick_bo,
    quick_mlp,
    truth_fractions,
)
from tierroute.accounting import (
    QWEN3_COST_MODEL,
    UtilityWeights,
    tier_cost,
    tier_latency,
    utility_matrix,
)
from tierroute.bayesopt import ThresholdPair, refresh_online
from tierroute.errors import BundleIntegrityError, CorruptStateError, DimensionMismatchError
from tierroute.cluster import ClusterConfig, assign_batch, elbow_select_k, elbow_sweep, fit_sweep
from tierroute.labels import LabelConfig, build_labels
from tierroute.mlp import init_model, predict_batch
from tierroute.network import scenario_by_name
from tierroute.router import (
    RECENT_REPLAY_DEPTH,
    _derived_seed,
    _make_evaluator,
    baseline_route,
    fit_representation,
    load_bundle,
    route_tiers,
    run_stream,
    save_bundle,
    state_checksum,
    tune_thresholds,
    write_report_files,
)
from tierroute.trace import (
    TIER_LABELS,
    TIERS,
    SyntheticConfig,
    TierId,
    concat_traces,
    generate_synthetic_trace,
)

GOOD = scenario_by_name("good")


class TestRoutingRule:
    def test_above_tau1_stays_on_device(self):
        assert route_tiers(0.90, 0.80, 0.50) == TierId.DEVICE

    def test_boundary_escalates(self):
        assert route_tiers(0.80, 0.80, 0.50) == TierId.EDGE
        assert route_tiers(0.50, 0.80, 0.50) == TierId.CLOUD

    def test_low_score_goes_to_cloud(self):
        assert route_tiers(0.10, 0.80, 0.50) == TierId.CLOUD

    def test_fuzzed_rule_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(5000):
            tau2, tau1 = np.sort(rng.random(2))
            if tau1 <= tau2:
                continue
            score = float(rng.random())
            tier = route_tiers(score, tau1, tau2)
            if score > tau1:
                assert tier == TierId.DEVICE
            elif score > tau2:
                assert tier == TierId.EDGE
            else:
                assert tier == TierId.CLOUD

    def test_threshold_monotonicity_on_fuzzed_scores(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            scores = rng.random(400)
            tau2 = float(rng.uniform(0.0, 0.5))
            tau1s = np.sort(rng.uniform(tau2 + 1e-6, 1.0, size=6))
            device_fracs = [np.mean(route_tiers(scores, t1, tau2) == TierId.DEVICE)
                            for t1 in tau1s]
            assert all(a >= b - 1e-12 for a, b in zip(device_fracs, device_fracs[1:]))
            tau1 = float(rng.uniform(0.5, 1.0))
            tau2s = np.sort(rng.uniform(0.0, tau1 - 1e-6, size=6))
            non_cloud = [np.mean(route_tiers(scores, tau1, t2) != TierId.CLOUD)
                         for t2 in tau2s]
            assert all(a >= b - 1e-12 for a, b in zip(non_cloud, non_cloud[1:]))


@pytest.fixture(scope="module")
def small_state():
    cfg = SyntheticConfig(n_queries=500, embedding_dim=12, n_latent_clusters=2,
                          seed=51, noise_sigma=0.03)
    trace, truth = generate_synthetic_trace(cfg)
    state = build_state(trace, GOOD, seed=3,
                        mlp_overrides={"max_epochs": 25},
                        bo_overrides={"offline_budget": 15},
                        k_min=2, k_max=5)
    return trace, truth, state


class TestRouteQuery:
    def test_decision_consistent_with_rule(self, small_state):
        trace, _, state = small_state
        d = run_stream(deepcopy(state), trace.subset(slice(0, 50)), GOOD, online=False).decisions
        assert np.array_equal(d["tier"], route_tiers(d["score"], d["tau1"], d["tau2"]))
        assert set(d["cluster"].tolist()) <= set(state.thresholds)

    def test_dimension_mismatch(self, small_state):
        trace, _, state = small_state
        bad = replace(trace.subset([0]), embeddings=np.zeros((1, 5)))
        with pytest.raises(DimensionMismatchError):
            run_stream(deepcopy(state), bad, GOOD, online=False)

    def test_missing_threshold_is_corrupt_state(self, small_state):
        trace, _, state = small_state
        clone = deepcopy(state)
        first = trace.subset([0])
        cluster = int(assign_batch(clone.clusters, first.embeddings)[0])
        del clone.thresholds[cluster]
        with pytest.raises(CorruptStateError):
            run_stream(clone, first, GOOD, online=False)


class TestOfflinePhase:
    def test_perfectly_split_clusters_route_apart(self):
        cfg = SyntheticConfig(
            n_queries=700, embedding_dim=16, n_latent_clusters=2, seed=29,
            noise_sigma=0.02,
            tier_accuracy_profile=((1.0, 1.0, 1.0), (0.0, 0.0, 1.0)),
            token_mean_profile=((90, 90, 90), (90, 90, 90)),
        )
        trace, truth = generate_synthetic_trace(cfg)
        state = build_state(trace, GOOD, seed=1, k_min=2, k_max=4,
                            mlp_overrides={"max_epochs": 30})
        report = run_stream(deepcopy(state), trace, GOOD, online=False)
        device_frac = truth_fractions(report, truth, TierId.DEVICE)
        cloud_frac = truth_fractions(report, truth, TierId.CLOUD)
        consistent = 0 if truth.tier_probs[0][0] == 1.0 else 1
        inconsistent = 1 - consistent
        assert device_frac[consistent] >= 0.80
        assert cloud_frac[inconsistent] >= 0.80

    def test_kappa_limit_routes_to_most_correct_tier(self):
        cfg = SyntheticConfig(
            n_queries=900, embedding_dim=16, n_latent_clusters=3, seed=31,
            noise_sigma=0.02,
            tier_accuracy_profile=((1.0, 1.0, 1.0), (0.3, 0.8, 0.97), (0.5, 0.55, 0.99)),
            token_mean_profile=((90, 90, 90),) * 3,
        )
        trace, truth = generate_synthetic_trace(cfg)
        weights = UtilityWeights(1.0, 1e-9, 1e-9)
        state = build_state(trace, GOOD, seed=2, weights=weights, k_min=2, k_max=5,
                            mlp_overrides={"max_epochs": 30})
        report = run_stream(deepcopy(state), trace, GOOD, online=False)
        correct = trace.correctness_matrix()
        # Brute-force oracle: realized per-tier accuracy argmax per latent cluster,
        # with ties (within 1e-6) all acceptable.
        ok = total = 0
        for latent in range(3):
            mask = truth.cluster_of == latent
            rates = correct[mask].mean(axis=0)
            best = set(np.flatnonzero(rates >= rates.max() - 1e-6))
            ok += int(np.isin(report.decisions["tier"][mask], list(best)).sum())
            total += int(mask.sum())
        assert ok / total >= 0.95

    def test_deterministic_checksum(self):
        cfg = SyntheticConfig(n_queries=400, embedding_dim=10, n_latent_clusters=2,
                              seed=37, noise_sigma=0.05)
        trace, _ = generate_synthetic_trace(cfg)
        kw = dict(mlp_overrides={"max_epochs": 15}, bo_overrides={"offline_budget": 10},
                  k_min=2, k_max=4)
        a = build_state(trace, GOOD, seed=5, **kw)
        b = build_state(trace, GOOD, seed=5, **kw)
        assert state_checksum(a) == state_checksum(b)

    def test_labels_must_cover_trace(self):
        cfg = SyntheticConfig(n_queries=60, embedding_dim=8, n_latent_clusters=2, seed=1)
        trace, _ = generate_synthetic_trace(cfg)
        labels = build_labels(trace, LabelConfig())
        labels.ids[0] = "other"
        with pytest.raises(ValueError, match="id mismatch"):
            fit_representation(trace, labels, mlp_config=quick_mlp(8),
                               cluster=ClusterConfig(k_min=2, k_max=4))


class TestRepresentationOnce:
    """One representation serves every weight vector: the predictor and the
    clusters do not depend on the weights, and tuning does not change them."""

    @pytest.fixture(scope="class")
    def fitted(self):
        cfg = SyntheticConfig(n_queries=400, embedding_dim=10, n_latent_clusters=3,
                              seed=43, noise_sigma=0.05)
        trace, _ = generate_synthetic_trace(cfg)
        return trace, build_labels(trace, LabelConfig()), quick_mlp(10, seed=4, max_epochs=15)

    def test_tune_per_weight_equals_fresh_fit_per_weight(self, fitted):
        trace, labels, mlp_cfg = fitted
        kw = dict(scenario=GOOD, cost_model=QWEN3_COST_MODEL, seed_points=4,
                  bo_config=quick_bo(seed=4, offline_budget=10))
        rep = fit_representation(trace, labels, mlp_config=mlp_cfg,
                                 cluster=ClusterConfig(k_min=2, k_max=6, restarts=2))
        checksums = []
        for kappa in (1.0, 5.0, 20.0):
            weights = UtilityWeights.from_kappas(kappa, kappa)
            shared = tune_thresholds(rep, trace, weights=weights, **kw)
            fresh = fit_representation(trace, labels, mlp_config=mlp_cfg,
                                       cluster=ClusterConfig(k_min=2, k_max=6, restarts=2))
            full = tune_thresholds(fresh, trace, weights=weights, **kw)
            assert state_checksum(shared) == state_checksum(full)
            assert shared.cloud_baselines == full.cloud_baselines
            checksums.append(state_checksum(shared))
        assert len(set(checksums)) == 3

    def test_elbow_model_is_the_sweep_model_of_chosen_k(self, fitted, monkeypatch):
        trace, labels, mlp_cfg = fitted
        calls = []

        def counting_sweep(embeddings, cluster, seed):
            calls.append(cluster)
            return fit_sweep(embeddings, cluster, seed)

        monkeypatch.setattr("tierroute.router.fit_sweep", counting_sweep)
        elbow = ClusterConfig(k_min=2, k_max=6, restarts=2)
        rep = fit_representation(trace, labels, mlp_config=mlp_cfg, cluster=elbow)
        k = elbow_select_k(elbow_sweep(trace.embeddings, 2, 6, mlp_cfg.seed, restarts=2))
        ref = fit_k(trace.embeddings, k, mlp_cfg.seed, restarts=2)
        assert rep.clusters.k == k == 3
        assert np.array_equal(rep.clusters.centroids, ref.centroids)
        assert (rep.clusters.inertia, rep.clusters.seed) == (ref.inertia, ref.seed)
        assert np.array_equal(rep.membership, assign_batch(ref, trace.embeddings))
        fixed_k = ClusterConfig(restarts=2, fixed_k=4)
        fixed = fit_representation(trace, labels, mlp_config=mlp_cfg, cluster=fixed_k)
        ref = fit_k(trace.embeddings, 4, mlp_cfg.seed, restarts=2)
        assert calls == [elbow, fixed_k] and fixed.clusters.k == 4
        assert np.array_equal(fixed.clusters.centroids, ref.centroids)


class TestRunStream:
    def test_static_threshold_history_constant(self, small_state):
        trace, _, state = small_state
        clone = deepcopy(state)
        initial = dict(clone.thresholds)
        report = run_stream(clone, trace, GOOD, online=False)
        assert clone.thresholds == initial
        pairs = [[initial[c].tau1, initial[c].tau2] for c in range(state.clusters.k)]
        assert report.thresholds.shape == (len(report.windows["window"]), state.clusters.k, 2)
        assert all(row.tolist() == pairs for row in report.thresholds)

    def test_static_leaves_observations_unchanged(self, small_state):
        trace, _, state = small_state
        clone = deepcopy(state)
        run_stream(clone, trace, GOOD, online=False)
        assert clone.observations.keys() == state.observations.keys()
        for c, observed in state.observations.items():
            assert clone.observations[c].pairs.tobytes() == observed.pairs.tobytes()
            assert clone.observations[c].utilities.tobytes() == observed.utilities.tobytes()

    def test_conservation(self, small_state):
        trace, _, state = small_state
        report = run_stream(deepcopy(state), trace, GOOD, online=False)
        assert sum(report.windows["count"]) == len(trace)
        for table in (report.windows, report.totals):
            fractions = sum(table[f"frac_{label}"] for label in TIER_LABELS)
            assert fractions == pytest.approx(1.0, abs=1e-9)

    def test_update_interval_below_one_is_corrupt_state(self, small_state):
        trace, _, state = small_state
        clone = deepcopy(state)
        clone.update_interval = 0
        with pytest.raises(CorruptStateError, match="update_interval"):
            run_stream(clone, trace, GOOD, online=True)

    def test_online_appends_observations(self, small_state):
        trace, _, state = small_state
        clone = deepcopy(state)
        before = {k: len(o) for k, o in clone.observations.items()}
        run_stream(clone, trace, GOOD, online=True)
        grew = [k for k in before if len(clone.observations[k]) > before[k]]
        assert grew

    def test_online_matches_per_query_reference(self, small_state):
        # The windowed stream equals a query-at-a-time replay of the same rule:
        # same tiers, pairs in force, refreshed thresholds and observation logs,
        # with a partial last window that triggers no refresh. Each cluster sees
        # more queries than the replay depth.
        trace, _, state = small_state
        stream = concat_traces(concat_traces(trace, trace), trace).subset(slice(0, 1450))
        ref = deepcopy(state)
        ref.update_interval = m = 100
        per_cluster = np.bincount(assign_batch(ref.clusters, stream.embeddings))
        assert per_cluster.min() > RECENT_REPLAY_DEPTH
        clone = deepcopy(ref)
        report = run_stream(clone, stream, GOOD, online=True)

        scores = predict_batch(ref.predictor, stream.embeddings)
        membership = assign_batch(ref.clusters, stream.embeddings)
        utilities = utility_matrix(stream.correctness_matrix(),
                                   tier_latency(stream, GOOD, np.arange(len(stream)) // m),
                                   tier_cost(stream, ref.cost_model), ref.weights,
                                   ref.cloud_baselines)
        recent = {c: deque(maxlen=RECENT_REPLAY_DEPTH) for c in range(ref.clusters.k)}
        rngs = {c: np.random.default_rng(_derived_seed(ref.bo_config.seed, 2, c))
                for c in range(ref.clusters.k)}
        fresh, tiers, in_force = set(), [], []
        for i in range(len(stream)):
            if i % m == 0:
                in_force.append([(ref.thresholds[c].tau1, ref.thresholds[c].tau2)
                                 for c in range(ref.clusters.k)])
            c = int(membership[i])
            pair = ref.thresholds[c]
            tiers.append(int(route_tiers(float(scores[i]), pair.tau1, pair.tau2)))
            ref.observations[c].append(pair, float(utilities[i, tiers[-1]]))
            recent[c].append(i)
            fresh.add(c)
            if (i + 1) % m == 0:
                for c in sorted(fresh):
                    rows = list(recent[c])
                    ref.thresholds[c] = refresh_online(
                        ref.observations[c], ref.thresholds[c],
                        _make_evaluator(scores[rows], utilities[rows]), ref.bo_config,
                        rng=rngs[c])
                fresh.clear()
        assert report.decisions["tier"].tolist() == tiers
        expected = np.array(in_force)  # (windows, clusters, 2), compared bit for bit
        assert report.thresholds.shape == expected.shape
        assert report.thresholds.tobytes() == expected.tobytes()
        assert clone.thresholds == ref.thresholds
        grown = sum(len(clone.observations[c]) - len(state.observations[c])
                    for c in range(ref.clusters.k))
        assert grown > len(stream)  # the refreshes logged their evaluations too
        for c in range(ref.clusters.k):
            assert clone.observations[c].points == ref.observations[c].points

    def test_refresh_skips_clusters_without_data(self):
        cfg = SyntheticConfig(n_queries=500, embedding_dim=12, n_latent_clusters=2,
                              seed=61, noise_sigma=0.03, cluster_separation=14.0)
        trace, truth = generate_synthetic_trace(cfg)
        state = build_state(trace, GOOD, seed=7, fixed_k=2,
                            mlp_overrides={"max_epochs": 20},
                            bo_overrides={"offline_budget": 10})
        assert state.clusters.k == 2
        # Stream only latent-cluster-0 queries.
        stream = trace.subset(truth.cluster_of == 0)
        clone = deepcopy(state)
        streamed_cluster = int(assign_batch(clone.clusters, stream.embeddings[:1])[0])
        silent = 1 - streamed_cluster
        before_pair = clone.thresholds[silent]
        before_len = len(clone.observations[silent])
        run_stream(clone, stream, GOOD, online=True)
        assert clone.thresholds[silent] == before_pair
        assert len(clone.observations[silent]) == before_len

    def test_drift_online_beats_static(self):
        base = dict(embedding_dim=16, n_latent_clusters=3,
                    token_mean_profile=((90, 90, 90),) * 3, noise_sigma=0.04)
        stable = ((0.95, 0.96, 0.97), (0.55, 0.93, 0.96), (0.2, 0.5, 0.95))
        shifted = ((0.12, 0.9, 0.97), (0.55, 0.93, 0.96), (0.2, 0.5, 0.95))
        offline_trace, _ = generate_synthetic_trace(
            SyntheticConfig(n_queries=1200, seed=71, tier_accuracy_profile=stable, **base))
        first, _ = generate_synthetic_trace(
            SyntheticConfig(n_queries=1200, seed=72, tier_accuracy_profile=stable, **base))
        second, _ = generate_synthetic_trace(
            SyntheticConfig(n_queries=1200, seed=72, tier_accuracy_profile=shifted, **base))
        stream = concat_traces(first, second)
        state = build_state(offline_trace, GOOD, seed=9, k_min=2, k_max=5,
                            mlp_overrides={"max_epochs": 30}, update_interval=200)
        static_report = run_stream(deepcopy(state), stream, GOOD, online=False)
        online_report = run_stream(deepcopy(state), stream, GOOD, online=True)
        tail = slice(-3, None)
        static_tail = np.mean(static_report.windows["mean_utility"][tail])
        online_tail = np.mean(online_report.windows["mean_utility"][tail])
        assert online_tail > static_tail + 0.02


WINDOWS_HEADER = ["window", "count", "accuracy", "mean_latency_s", "mean_cost",
                  "mean_utility", "frac_device", "frac_edge", "frac_cloud"]
DECISIONS_HEADER = ["query_id", "window", "cluster", "tier", "score", "tau1", "tau2",
                    "correct", "latency_s", "cost", "utility"]


def reference_window_stats(index, d, rows):
    """One window's summary as the per-window objects of earlier versions made
    it, with the same arithmetic: np.mean of the slice, bincount / count."""
    tiers = d["tier"][rows]
    fractions = np.bincount(tiers, minlength=len(TIERS)) / len(tiers)
    return {"window": index, "count": len(tiers),
            "accuracy": float(np.mean(d["correct"][rows])),
            "mean_latency_s": float(np.mean(d["latency_s"][rows])),
            "mean_cost": float(np.mean(d["cost"][rows])),
            "mean_utility": float(np.mean(d["utility"][rows])),
            **{f"frac_{t.label}": float(fractions[t]) for t in TIERS}}


class TestSummary:
    @pytest.fixture(scope="class")
    def stream(self):
        # 4500 queries: in windows of 700 the last holds 300.
        cfg = SyntheticConfig(n_queries=4500, embedding_dim=12, n_latent_clusters=2,
                              seed=52, noise_sigma=0.03)
        return generate_synthetic_trace(cfg)[0]

    @pytest.mark.parametrize("policy, window_size", [
        ("router_online", 700), ("router_static", 10_000), ("router_static", 1),
        ("device_only", 700), ("global_static", 700)])
    def test_matches_per_window_reference(self, small_state, stream, tmp_path, policy,
                                          window_size):
        _, _, state = small_state
        if policy.startswith("router"):
            clone = deepcopy(state)
            clone.update_interval = window_size
            report = run_stream(clone, stream, GOOD, online=policy == "router_online")
        else:
            report = baseline_route(policy, stream, GOOD, window_size=window_size,
                                    pair=state.thresholds[0], predictor=state.predictor)
        assert report.policy == policy
        d, n = report.decisions, len(stream)
        expected = [reference_window_stats(w, d, slice(start, start + window_size))
                    for w, start in enumerate(range(0, n, window_size))]
        assert expected[-1]["count"] == (n % window_size or window_size)
        assert list(report.windows) == WINDOWS_HEADER
        for name, column in report.windows.items():
            # repr tells -0.0 from 0.0 and an int from a float; == alone does not.
            assert [repr(v) for v in column.tolist()] == [repr(w[name]) for w in expected]
        totals = reference_window_stats(-1, d, slice(None))
        del totals["window"]
        assert list(report.totals) == WINDOWS_HEADER[1:]
        assert {k: repr(v) for k, v in report.totals.items()} == {
            k: repr(v) for k, v in totals.items()}
        written = write_report_files(report, tmp_path, "s")[1].read_text().splitlines()
        assert written[0].split(",") == list(report.windows)

    @pytest.mark.parametrize("policy", ["router_online", "router_static", "device_only",
                                        "edge_only", "cloud_only", "global_static"])
    def test_decisions_are_the_written_table(self, small_state, stream, tmp_path, policy):
        _, _, state = small_state
        if policy.startswith("router"):
            report = run_stream(deepcopy(state), stream, GOOD, online=policy == "router_online")
        else:
            report = baseline_route(policy, stream, GOOD, pair=state.thresholds[0],
                                    predictor=state.predictor)
        d = report.decisions
        with write_report_files(report, tmp_path, "s")[3].open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert list(d) == DECISIONS_HEADER == rows[0]
        assert d["query_id"] == [row[0] for row in rows[1:]] == stream.ids
        assert [TIER_LABELS[t] for t in d["tier"].tolist()] == [row[3] for row in rows[1:]]
        assert d["correct"].dtype == np.int64
        assert [str(v) for v in d["correct"].tolist()] == [row[7] for row in rows[1:]]
        # Only the router has clusters; a fixed tier has no score or thresholds either.
        assert (d["cluster"] is None) != policy.startswith("router")
        fixed = policy in ("device_only", "edge_only", "cloud_only")
        assert [d[name] is None for name in ("score", "tau1", "tau2")] == [fixed] * 3
        assert all(len(column) == len(stream) for column in d.values() if column is not None)


@pytest.fixture(scope="module")
def baseline_trace():
    cfg = SyntheticConfig(n_queries=600, embedding_dim=10, n_latent_clusters=2,
                          seed=41, noise_sigma=0.05)
    trace, _ = generate_synthetic_trace(cfg)
    return trace


class TestBaselines:
    @pytest.fixture
    def trace(self, baseline_trace):
        return baseline_trace

    def test_cloud_only_accuracy_is_cloud_rate(self, trace):
        report = baseline_route("cloud_only", trace, GOOD)
        rate = trace.correctness_matrix()[:, TierId.CLOUD].mean()
        assert report.totals["accuracy"] == pytest.approx(rate, abs=1e-12)
        assert report.totals["frac_cloud"] == 1.0

    def test_device_only_latency_is_mean_compute(self, trace):
        report = baseline_route("device-only", trace, GOOD)
        mean_compute = np.mean(trace.compute_s[:, TierId.DEVICE])
        assert report.totals["mean_latency_s"] == pytest.approx(mean_compute, rel=1e-12)

    def test_global_static_near_one_never_uses_device(self, trace):
        predictor = init_model(quick_mlp(trace.embedding_dim, seed=0))
        report = baseline_route("global_static", trace, GOOD,
                                pair=ThresholdPair(1.0 - 1e-9, 0.5),
                                predictor=predictor)
        assert report.totals["frac_device"] == 0.0

    def test_global_static_requires_pair_and_predictor(self, trace):
        with pytest.raises(ValueError, match="global_static"):
            baseline_route("global_static", trace, GOOD)

    def test_unknown_policy(self, trace):
        with pytest.raises(ValueError, match="unknown baseline"):
            baseline_route("mystery", trace, GOOD)

    def test_baseline_envelope_under_pointwise_dominance(self):
        cfg = SyntheticConfig(n_queries=900, embedding_dim=16, n_latent_clusters=3,
                              seed=43, noise_sigma=0.03)
        trace, _ = generate_synthetic_trace(cfg)
        trace = nested_correctness(trace, seed=5)
        state = build_state(trace, GOOD, seed=4, k_min=2, k_max=5,
                            mlp_overrides={"max_epochs": 25})
        routed = run_stream(deepcopy(state), trace, GOOD, online=False)
        clm = baseline_route("cloud_only", trace, GOOD)
        dlm = baseline_route("device_only", trace, GOOD)
        assert clm.totals["accuracy"] >= routed.totals["accuracy"] - 1e-12
        assert routed.totals["accuracy"] >= dlm.totals["accuracy"] - 1e-12


class TestBundle:
    def test_round_trip_checksum(self, small_state, tmp_path):
        _, _, state = small_state
        save_bundle(state, tmp_path / "bundle")
        loaded = load_bundle(tmp_path / "bundle")
        assert state_checksum(loaded) == state_checksum(state)
        assert loaded.update_interval == state.update_interval
        assert loaded.weights == state.weights

    def test_corrupted_bundle_rejected(self, small_state, tmp_path):
        _, _, state = small_state
        path = save_bundle(state, tmp_path / "bundle")
        thresholds = path / "thresholds.json"
        thresholds.write_text(thresholds.read_text().replace("0.", "0.1", 1))
        with pytest.raises(BundleIntegrityError, match="checksum"):
            load_bundle(path)

    def test_missing_file_rejected(self, small_state, tmp_path):
        _, _, state = small_state
        path = save_bundle(state, tmp_path / "bundle")
        (path / "centroids.bin").unlink()
        with pytest.raises(BundleIntegrityError, match="missing"):
            load_bundle(path)

    def test_old_bundle_with_bo_jitter_still_loads(self, small_state, tmp_path):
        # Bundles written before BoConfig.jitter was removed carry the key.
        _, _, state = small_state
        path = save_bundle(state, tmp_path / "bundle")
        state_path = path / "state.json"
        state_obj = json.loads(state_path.read_text())
        assert "jitter" not in state_obj["bo_config"]
        state_obj["bo_config"]["jitter"] = 1e-10
        state_path.write_text(json.dumps(state_obj, sort_keys=True, indent=2) + "\n")
        manifest_path = path / "bundle_manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["files"]["state.json"] = hashlib.sha256(state_path.read_bytes()).hexdigest()
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
        loaded = load_bundle(path)
        assert state_checksum(loaded) == state_checksum(state)
        assert loaded.bo_config == state.bo_config


def set_json(name, keys, value):
    """An edit of bundle file ``name`` that sets the value at ``keys``."""
    def edit(bundle):
        obj = json.loads((bundle / name).read_text())
        *parents, last = keys
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value(target[last]) if callable(value) else value
        (bundle / name).write_text(json.dumps(obj))
    return name, edit


def set_cell(column, value):
    """An edit of observations.csv that sets ``column`` of its first row, to
    ``value`` or to ``value`` of the cell's text."""
    def edit(bundle):
        path = bundle / "observations.csv"
        lines = path.read_text().splitlines()
        header, row = lines[0].split(","), lines[1].split(",")
        i = header.index(column)
        row[i] = value(row[i]) if callable(value) else value
        lines[1] = ",".join(row)
        path.write_text("\n".join(lines) + "\n")
    return "observations.csv", edit


def set_header(header):
    """An edit of observations.csv that replaces its header line, or with None
    leaves the file empty."""
    def edit(bundle):
        path = bundle / "observations.csv"
        lines = path.read_text().splitlines()
        path.write_text("" if header is None else "\n".join([header, *lines[1:]]) + "\n")
    return "observations.csv", edit


OBSERVATIONS_HEADER = ("observations.csv: line 1: header must be "
                       "'cluster,tau1,tau2,utility,order_index'")


def cut_row(cells):
    """An edit of observations.csv that keeps only the first ``cells`` cells of
    its first row."""
    def edit(bundle):
        path = bundle / "observations.csv"
        lines = path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:cells])
        path.write_text("\n".join(lines) + "\n")
    return "observations.csv", edit


def blank_line_before(change):
    """``change``, then a blank line after observations.csv's header, which
    moves the first row to line 3."""
    name, edit = change

    def edit_then_blank(bundle):
        edit(bundle)
        header, rest = (bundle / name).read_text().split("\n", 1)
        (bundle / name).write_text(f"{header}\n\n{rest}")
    return name, edit_then_blank


def relabel_thresholds(keys):
    def edit(bundle):
        path = bundle / "thresholds.json"
        pairs = list(json.loads(path.read_text()).values())
        path.write_text(json.dumps(dict(zip(keys(len(pairs)), pairs * 2))))
    return "thresholds.json", edit


class TestBundleFields:
    """A bundle whose files pass the manifest hashes still has every value
    type-checked and cross-checked; an error names the file and the key."""

    @pytest.mark.parametrize("change, message", [
        (set_json("state.json", ["k"], "2"), "state.json: k must be an integer >= 1; got '2'"),
        (set_json("state.json", ["k"], lambda k: k + 3), "state.json: k="),
        (set_json("state.json", ["weights", "lambda2"], "0.2"),
         "state.json: weights.lambda2 must be a finite number; got '0.2'"),
        (set_json("state.json", ["bo_config", "seed"], 1.5),
         "state.json: bo_config.seed must be an integer; got 1.5"),
        (set_json("state.json", ["cost_model", "edge"], True),
         "state.json: cost_model.edge must be a finite number; got True"),
        (set_json("state.json", ["observation_capacity"], "x"),
         "state.json: observation_capacity must be an integer >= 1; got 'x'"),
        (set_json("state.json", ["cloud_baselines"], [1.0, 2.0]),
         "state.json: cloud_baselines must be a JSON object"),
        (set_json("thresholds.json", ["0", "tau1"], "0.9"),
         "thresholds.json: 0.tau1 must be a finite number; got '0.9'"),
        (relabel_thresholds(lambda k: ["0" + str(c) for c in range(k)]),
         "thresholds.json: keys must be the clusters 0.."),
        (relabel_thresholds(lambda k: [str(c) for c in range(k + 1)]),
         "thresholds.json: keys must be the clusters 0.."),
        (set_cell("cluster", "99"), "observations.csv: line 2: cluster 99 outside 0.."),
        (set_cell("cluster", "-1"), "observations.csv: line 2: cluster -1 outside 0.."),
        (set_cell("cluster", "0.5"), "observations.csv: line 2: cluster must be an integer"),
        (set_cell("utility", "nan"),
         "observations.csv: line 2: utility must be a finite number; got 'nan'"),
        (set_cell("tau1", "inf"), "observations.csv: line 2: tau1 must be a finite number"),
        (set_cell("tau2", "0.99999"), "observations.csv: line 2: threshold pair must satisfy"),
        (set_cell("order_index", "banana"),
         "observations.csv: line 2: order_index must be an integer; got 'banana'"),
        (set_cell("order_index", "7"),
         "observations.csv: line 2: order_index 7 out of order; cluster 0 expects 0"),
        (blank_line_before(set_cell("tau1", "inf")),
         "observations.csv: line 3: tau1 must be a finite number; got 'inf'"),
        (set_cell("order_index", "0,0"), "observations.csv: line 2: more cells than the header"),
        (cut_row(4), "observations.csv: line 2: fewer cells than the header"),
        (set_cell("order_index", ""),
         "observations.csv: line 2: order_index must be an integer; got ''"),
        (set_header("cluster,tau1,tau2,utility,index"), OBSERVATIONS_HEADER),
        (set_header("cluster,tau2,tau1,utility,order_index"), OBSERVATIONS_HEADER),
        (set_header("cluster,tau1,tau2,utility,order_index,extra"), OBSERVATIONS_HEADER),
        (set_header(None), OBSERVATIONS_HEADER),
        (set_cell("tau1", lambda text: f'"{text}"'),
         """observations.csv: line 2: tau1 must be a finite number; got '"0."""),
    ])
    def test_bad_value_named(self, small_state, tmp_path, change, message):
        _, _, state = small_state
        bundle = save_bundle(state, tmp_path / "bundle")
        name, edit = change
        edit(bundle)
        rehash(bundle, name)
        with pytest.raises(BundleIntegrityError) as info:
            load_bundle(bundle)
        assert f"{bundle}/{message}" in str(info.value)

    def test_header_only_observations_load_empty(self, small_state, tmp_path):
        _, _, state = small_state
        bundle = save_bundle(state, tmp_path / "bundle")
        path = bundle / "observations.csv"
        path.write_bytes(path.read_bytes().split(b"\r\n")[0] + b"\r\n")
        rehash(bundle, "observations.csv")
        with pytest.raises(BundleIntegrityError, match="reconstructed state checksum mismatch"):
            load_bundle(bundle)
        manifest = json.loads((bundle / "bundle_manifest.json").read_text())
        del manifest["checksum"]
        (bundle / "bundle_manifest.json").write_text(json.dumps(manifest))
        assert all(len(obs) == 0 for obs in load_bundle(bundle).observations.values())

    def test_cr_line_ends_read_like_crlf(self, small_state, tmp_path):
        _, _, state = small_state
        bundle = save_bundle(state, tmp_path / "bundle")
        path = bundle / "observations.csv"
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r"))
        rehash(bundle, "observations.csv")
        assert state_checksum(load_bundle(bundle)) == state_checksum(state)

    def test_integer_float_fields_read_as_floats(self, small_state, tmp_path):
        _, _, state = small_state
        bundle = save_bundle(state, tmp_path / "bundle")
        name, edit = set_json("state.json", ["cost_model", "edge"], 14)
        edit(bundle)
        rehash(bundle, name)
        loaded = load_bundle(bundle)
        assert type(loaded.cost_model.edge) is float
        assert loaded.bo_config == state.bo_config and loaded.weights == state.weights
