"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavy end-to-end criteria (7-9) build their own synthetic scenarios with a
known structure and compare the router against baselines and grid-search
oracles at the tolerances stated below.
"""

import time
from copy import deepcopy

import numpy as np
import pytest

from helpers import build_state, hetero_config
from tierroute.accounting import UtilityWeights, tier_latency
from tierroute.bayesopt import BoConfig, optimize_offline
from tierroute.cli import main as cli_main
from tierroute.cluster import elbow_select_k, elbow_sweep
from tierroute.labels import aug_with_reference, fuse_label
from tierroute.mlp import MlpConfig, gradient_check, init_model, predict_batch
from tierroute.network import (
    LinkProfile,
    builtin_profiles,
    round_trip_latency,
    scenario_by_name,
)
from tierroute.router import baseline_route, route_tiers, run_stream
from tierroute.trace import (
    SyntheticConfig,
    TierId,
    Trace,
    concat_traces,
    generate_synthetic_trace,
)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def split_trace(trace: Trace, cut: int) -> tuple[Trace, Trace]:
    return trace.subset(slice(None, cut)), trace.subset(slice(cut, None))


def test_criterion_1_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for seed in range(24):
        cfg = MlpConfig(
            input_dim=int(rng.integers(2, 8)),
            hidden_dims=(int(rng.integers(2, 8)),),
            activation="relu" if seed % 2 else "tanh",
            seed=seed,
        )
        model = init_model(cfg)
        err = gradient_check(model, rng.normal(size=cfg.input_dim), float(rng.random()))
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report(1, worst < 1e-4 and elapsed < 10.0,
           f"max relative gradient error {worst:.2e} over 24 tiny models "
           f"(bound 1e-4), {elapsed:.1f}s (< 10s)")


def _grid_search_max(fn, resolution=200):
    taus = np.linspace(0.0, 1.0, resolution)
    t1, t2 = np.meshgrid(taus, taus, indexing="ij")
    values = np.where(t1 > t2, fn(t1, t2), -np.inf)
    return float(values.max())


def test_criterion_2_bo_oracle_equivalence():
    start = time.perf_counter()
    landscapes = [
        lambda t1, t2: 1.0 - (t1 - 0.7) ** 2 - (t2 - 0.4) ** 2,
        lambda t1, t2: np.exp(-((t1 - 0.55) ** 2 + (t2 - 0.15) ** 2) / 0.08),
        lambda t1, t2: 0.6 + 0.25 * np.sin(3.0 * t1) * np.cos(2.0 * t2) + 0.1 * t1,
    ]
    ratios = []
    for fn in landscapes:
        oracle = _grid_search_max(fn)
        per_seed = []
        for seed in range(10):
            cfg = BoConfig(offline_budget=30, candidate_pool_size=512, seed=seed)
            _, obs = optimize_offline(lambda p: float(fn(p.tau1, p.tau2)), cfg)
            _, best = obs.best()
            per_seed.append(best / oracle)
        ratios.append(float(np.mean(per_seed)))
    elapsed = time.perf_counter() - start
    report(2, min(ratios) >= 0.98 and elapsed < 30.0,
           f"mean attainment per landscape {[f'{r:.4f}' for r in ratios]} "
           f"(bound 0.98), {elapsed:.1f}s (< 30s)")


def test_criterion_3_elbow_recovery():
    start = time.perf_counter()
    hits = 0
    trials = 0
    for true_k, n in ((3, 900), (5, 1250)):
        for seed in range(10):
            cfg = SyntheticConfig(n_queries=n, embedding_dim=12, n_latent_clusters=true_k,
                                  seed=1000 * true_k + seed, cluster_separation=12.0)
            trace, _ = generate_synthetic_trace(cfg)
            got = elbow_select_k(elbow_sweep(trace.embeddings, 2, 10, seed=seed))
            hits += got == true_k
            trials += 1
    elapsed = time.perf_counter() - start
    report(3, hits == trials and elapsed < 30.0,
           f"elbow recovered the latent k in {hits}/{trials} runs "
           f"(3- and 5-cluster traces, separation 12 sigma), {elapsed:.1f}s (< 30s)")


def test_criterion_4_label_algebra():
    cases_ok = (
        aug_with_reference(False, True) == 0.0
        and aug_with_reference(True, True) == 1.0
        and aug_with_reference(True, False) == 1.0
        and aug_with_reference(False, False) == 1.0
    )
    rng = np.random.default_rng(7)
    sim = rng.random(10_000)
    aug = rng.random(10_000)
    alpha = rng.random(10_000)
    fused = alpha * sim + (1.0 - alpha) * aug
    in_range = bool(np.all(fused >= 0.0) and np.all(fused <= 1.0))
    bumped = alpha * np.minimum(sim + 0.01, 1.0) + (1.0 - alpha) * aug
    monotone = bool(np.all(bumped >= fused - 1e-12))
    spot = fuse_label(0.8, 1.0, 0.5) == pytest.approx(0.9)
    report(4, cases_ok and in_range and monotone and spot,
           "four reference-regime augmentation cases exact; range and "
           "monotonicity hold over 10^4 random fusions")


def test_criterion_5_network_model_fidelity():
    profiles = builtin_profiles()
    expected = {
        ("good", "edge"): LinkProfile(10_000, 5_000, 0.001, 40, 20, 50),
        ("good", "cloud"): LinkProfile(8_000, 4_000, 0.001, 80, 40, 70),
        ("bad", "edge"): LinkProfile(2_000, 500, 0.01, 120, 80, 200),
        ("bad", "cloud"): LinkProfile(800, 200, 0.03, 250, 200, 400),
    }
    fields_ok = all(
        getattr(profiles[name], tier) == link
        for (name, tier), link in expected.items()
    )
    zero_payload = round_trip_latency(profiles["good"].edge, 0, 0)
    zero_ok = zero_payload == pytest.approx(0.110, abs=1e-12)

    rng = np.random.default_rng(3)
    monotone = True
    for _ in range(1000):
        base = dict(
            downlink_kbps=float(rng.uniform(100, 10_000)),
            uplink_kbps=float(rng.uniform(100, 5_000)),
            loss_rate=float(rng.uniform(0.0, 0.2)),
            oneway_down_ms=float(rng.uniform(0, 300)),
            oneway_up_ms=float(rng.uniform(0, 300)),
            dns_ms=float(rng.uniform(0, 500)),
        )
        req = int(rng.integers(0, 20_000))
        resp = int(rng.integers(0, 20_000))
        ref = round_trip_latency(LinkProfile(**base), req, resp)
        monotone &= round_trip_latency(LinkProfile(**base), req + 512, resp) >= ref
        monotone &= round_trip_latency(LinkProfile(**base), req, resp + 512) >= ref
        worse = dict(base, loss_rate=min(base["loss_rate"] + 0.05, 0.99))
        monotone &= round_trip_latency(LinkProfile(**worse), req, resp) >= ref
        worse = dict(base, dns_ms=base["dns_ms"] + 50)
        monotone &= round_trip_latency(LinkProfile(**worse), req, resp) >= ref
        faster = dict(base, downlink_kbps=base["downlink_kbps"] * 2)
        monotone &= round_trip_latency(LinkProfile(**faster), req, resp) <= ref
        faster = dict(base, uplink_kbps=base["uplink_kbps"] * 2)
        monotone &= round_trip_latency(LinkProfile(**faster), req, resp) <= ref
        if not monotone:
            break
    report(5, fields_ok and zero_ok and monotone,
           f"good/bad profiles match field-for-field; zero-payload good-edge "
           f"round trip = {zero_payload * 1000:.0f} ms; monotonicity held on a "
           f"1000-point random grid")


def test_criterion_6_routing_rule_soundness():
    rng = np.random.default_rng(11)
    draws = rng.random((100_000, 3))
    tau1 = np.maximum(draws[:, 0], draws[:, 1])
    tau2 = np.minimum(draws[:, 0], draws[:, 1])
    keep = tau1 > tau2
    tau1, tau2, scores = tau1[keep], tau2[keep], draws[keep, 2]
    choice = np.where(scores > tau1, 0, np.where(scores > tau2, 1, 2))
    sound = True
    for i in rng.choice(len(scores), size=2000, replace=False):
        sound &= route_tiers(float(scores[i]), float(tau1[i]), float(tau2[i])) == TierId(choice[i])
    expected = np.where(scores > tau1, 0, np.where(scores > tau2, 1, 2))
    sound &= bool(np.array_equal(choice, expected))

    monotone = True
    for trial in range(20):
        trace_scores = rng.random(2000)
        t2 = float(rng.uniform(0.0, 0.5))
        device_fracs = [
            float(np.mean(route_tiers(trace_scores, t1, t2) == 0))
            for t1 in np.sort(rng.uniform(t2 + 1e-9, 1.0, size=8))
        ]
        monotone &= all(a >= b - 1e-12 for a, b in zip(device_fracs, device_fracs[1:]))
        t1 = float(rng.uniform(0.5, 1.0))
        non_cloud = [
            float(np.mean(route_tiers(trace_scores, t1, t2v) != 2))
            for t2v in np.sort(rng.uniform(0.0, t1 - 1e-9, size=8))
        ]
        monotone &= all(a >= b - 1e-12 for a, b in zip(non_cloud, non_cloud[1:]))
    report(6, sound and monotone,
           f"{len(scores)} fuzzed (score, tau1, tau2) triples rule-consistent; "
           f"tier-fraction monotonicity held on fuzzed traces")


def _global_static_best_latency(trace, predictor, target_accuracy, scenario,
                                resolution=20):
    scores = predict_batch(predictor, trace.embeddings)
    correct = trace.correctness_matrix()
    lats = tier_latency(trace, scenario, np.zeros(len(trace), dtype=int))
    rows = np.arange(len(scores))
    taus = np.linspace(0.0, 1.0, resolution)
    frontier = []
    for t1 in taus:
        for t2 in taus:
            if t2 >= t1:
                continue
            choice = route_tiers(scores, t1, t2)
            frontier.append((float(correct[rows, choice].mean()),
                             float(lats[rows, choice].mean())))
    matched = [lat for acc, lat in frontier if acc >= target_accuracy - 0.005]
    if not matched:
        best_acc = max(acc for acc, _ in frontier)
        matched = [lat for acc, lat in frontier if acc >= best_acc - 0.005]
    return min(matched)


def test_criterion_7_end_to_end_tradeoff():
    start = time.perf_counter()
    scenario = scenario_by_name("good")
    passes = []
    details = []
    for seed in range(5):
        cfg = hetero_config(20_000, seed=seed, noise_sigma=0.05)
        full, _ = generate_synthetic_trace(cfg)
        offline, evaluation = split_trace(full, 10_000)
        state = build_state(offline, scenario, seed=seed, k_min=2, k_max=8)
        routed = run_stream(deepcopy(state), evaluation, scenario, online=False)
        clm = baseline_route("cloud_only", evaluation, scenario)
        acc_ratio = routed.totals["accuracy"] / clm.totals["accuracy"]
        lat_ratio = routed.totals["mean_latency_s"] / clm.totals["mean_latency_s"]
        cost_ratio = routed.totals["mean_cost"] / clm.totals["mean_cost"]
        static_lat = _global_static_best_latency(
            evaluation, state.predictor, routed.totals["accuracy"], scenario)
        static_ratio = routed.totals["mean_latency_s"] / static_lat
        ok = (acc_ratio >= 0.95 and lat_ratio <= 0.75 and cost_ratio <= 0.80
              and static_ratio <= 0.95)
        passes.append(ok)
        details.append(f"seed {seed}: acc {acc_ratio:.3f} lat {lat_ratio:.3f} "
                       f"cost {cost_ratio:.3f} vs-static {static_ratio:.3f}")
    elapsed = time.perf_counter() - start
    report(7, sum(passes) >= 4 and elapsed < 300.0,
           f"{sum(passes)}/5 seeds met (acc>=0.95xCLM, lat<=0.75x, cost<=0.80x, "
           f"lat<=0.95x matched global-static); {'; '.join(details)}; "
           f"{elapsed:.0f}s (< 300s)")


def test_criterion_8_online_adaptation_under_drift():
    start = time.perf_counter()
    base = dict(embedding_dim=16, n_latent_clusters=3,
                token_mean_profile=((90, 90, 90),) * 3, noise_sigma=0.05)
    stable_profile = ((0.95, 0.96, 0.97), (0.55, 0.93, 0.96), (0.2, 0.5, 0.95))
    shifted_profile = ((0.12, 0.9, 0.97), (0.55, 0.93, 0.96), (0.2, 0.5, 0.95))
    scenario = scenario_by_name("good")
    passes = []
    gaps = []
    for seed in range(5):
        gen_seed = 500 + seed
        stable, _ = generate_synthetic_trace(SyntheticConfig(
            n_queries=7000, seed=gen_seed, tier_accuracy_profile=stable_profile, **base))
        shifted, _ = generate_synthetic_trace(SyntheticConfig(
            n_queries=7000, seed=gen_seed, tier_accuracy_profile=shifted_profile, **base))
        offline, stable_rest = split_trace(stable, 3000)
        first, _ = split_trace(stable_rest, 2000)
        _, second = split_trace(shifted, 5000)
        stream = concat_traces(first, second)
        state = build_state(offline, scenario, seed=seed, k_min=2, k_max=6,
                            update_interval=200)
        static = run_stream(deepcopy(state), stream, scenario, online=False)
        online = run_stream(deepcopy(state), stream, scenario, online=True)
        static_tail = float(np.mean(static.windows["mean_utility"][-5:]))
        online_tail = float(np.mean(online.windows["mean_utility"][-5:]))
        gap = online_tail - static_tail
        gaps.append(gap)
        passes.append(gap >= 0.02)
    elapsed = time.perf_counter() - start
    report(8, sum(passes) >= 4 and elapsed < 300.0,
           f"{sum(passes)}/5 seeds with online-minus-static utility over the "
           f"final 5 windows >= 0.02: gaps {[f'{g:.3f}' for g in gaps]}; "
           f"{elapsed:.0f}s (< 300s)")


def test_criterion_9_network_shift_adaptation():
    start = time.perf_counter()
    profile = ((0.5, 0.5, 0.96), (0.05, 0.05, 0.96))
    scenario = scenario_by_name("bad2good", switch_at=7)
    weights = UtilityWeights(1.0, 1.0, 0.02)
    passes = []
    details = []
    for seed in range(5):
        cfg = SyntheticConfig(
            n_queries=5200, embedding_dim=16, n_latent_clusters=2, seed=77 * seed + 1,
            noise_sigma=0.05, tier_accuracy_profile=profile,
            token_mean_profile=((50, 50, 50),) * 2, prompt_token_range=(1500, 2500))
        full, _ = generate_synthetic_trace(cfg)
        offline, stream = split_trace(full, 3000)
        state = build_state(offline, scenario, seed=seed, weights=weights, fixed_k=2,
                            update_interval=200,
                            bo_overrides={"online_steps_per_refresh": 3})
        rep = run_stream(deepcopy(state), stream, scenario, online=True)
        cloud = rep.windows["frac_cloud"]
        lat = rep.windows["mean_latency_s"]
        pre_cloud, post_cloud = float(np.mean(cloud[4:7])), float(np.mean(cloud[8:11]))
        pre_lat, post_lat = float(np.mean(lat[4:7])), float(np.mean(lat[8:11]))
        passes.append(post_cloud > pre_cloud and post_lat < pre_lat)
        details.append(f"seed {seed}: cloud {pre_cloud:.2f}->{post_cloud:.2f} "
                       f"lat {pre_lat:.2f}->{post_lat:.2f}")
    elapsed = time.perf_counter() - start
    report(9, sum(passes) >= 4 and elapsed < 300.0,
           f"{sum(passes)}/5 seeds raised the cloud fraction (w8-10 vs w4-6) and "
           f"dropped latency after the bad->good switch; {'; '.join(details)}; "
           f"{elapsed:.0f}s")


def test_criterion_10_utility_weight_sweep():
    profile = ((0.06, 0.06, 0.96), (0.535, 0.535, 0.96), (0.766, 0.766, 0.96),
               (0.863, 0.863, 0.96), (0.94, 0.94, 0.96))
    cfg = SyntheticConfig(n_queries=4000, embedding_dim=16, n_latent_clusters=5,
                          seed=101, noise_sigma=0.05, tier_accuracy_profile=profile,
                          token_mean_profile=((100, 100, 100),) * 5)
    trace, _ = generate_synthetic_trace(cfg)
    scenario = scenario_by_name("good")
    clouds = []
    accs = []
    for kappa in (1.0, 2.0, 5.0, 10.0, 20.0):
        weights = UtilityWeights.from_kappas(kappa, kappa)
        state = build_state(trace, scenario, seed=0, weights=weights, fixed_k=5)
        rep = run_stream(deepcopy(state), trace, scenario, online=False)
        clouds.append(rep.totals["frac_cloud"])
        accs.append(rep.totals["accuracy"])
    mono_cloud = all(b >= a - 1e-12 for a, b in zip(clouds, clouds[1:]))
    mono_acc = all(b >= a - 1e-12 for a, b in zip(accs, accs[1:]))
    report(10, mono_cloud and mono_acc,
           f"kappa in (1,2,5,10,20): cloud fractions "
           f"{[f'{c:.3f}' for c in clouds]} and accuracies "
           f"{[f'{a:.4f}' for a in accs]} both nondecreasing")


CLI_CONFIG = """\
{"section": "synthetic", "n_queries": 500, "embedding_dim": 10, "n_latent_clusters": 2, "noise_sigma": 0.05}
{"section": "mlp", "hidden_dims": [16], "activation": "relu", "learning_rate": 0.003, "batch_size": 64, "max_epochs": 10, "early_stop_patience": 3, "validation_fraction": 0.1}
{"section": "cluster", "k_min": 2, "k_max": 4, "fixed_k": 2, "restarts": 3}
{"section": "bo", "offline_budget": 8, "online_steps_per_refresh": 2, "candidate_pool_size": 128, "seed_points": 4}
{"section": "stream", "update_interval": 100, "online": true}
"""


def test_criterion_11_cli_determinism(tmp_path):
    cfg = tmp_path / "cfg.jsonl"
    cfg.write_text(CLI_CONFIG)

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    compared = 0
    for attempt in ("a", "b"):
        base = tmp_path / attempt
        run("gen", "--config", cfg, "--out", base / "gen", "--seed", 9)
        run("train", "--config", cfg, "--out", base / "train", "--seed", 9)
        run("tune", "--config", cfg, "--out", base / "tune", "--seed", 9)
        run("stream", "--config", cfg, "--bundle", base / "tune",
            "--trace", base / "gen" / "trace.jsonl", "--out", base / "stream",
            "--online", "--seed", 9)
        run("baseline", "--config", cfg, "--trace", base / "gen" / "trace.jsonl",
            "--policy", "clm-only", "--out", base / "baseline", "--seed", 9)
        run("sweep", "--config", cfg, "--kappa-grid", "2,5",
            "--out", base / "sweep", "--seed", 9)

    primary = [
        "gen/trace.jsonl", "gen/trace_truth.json", "gen/manifest.json",
        "train/predictor.ckpt", "train/train_report.json", "train/loss_curve.csv",
        "tune/predictor.ckpt", "tune/centroids.bin", "tune/thresholds.json",
        "tune/observations.csv", "tune/bundle_manifest.json",
        "stream/stream_report.json", "stream/stream_windows.csv",
        "stream/stream_decisions.csv", "stream/stream_thresholds.csv",
        "stream/stream_utilities.csv",
        "baseline/baseline_cloud_only_report.json",
        "sweep/pareto.csv",
    ]
    mismatched = []
    for rel in primary:
        a_bytes = (tmp_path / "a" / rel).read_bytes()
        b_bytes = (tmp_path / "b" / rel).read_bytes()
        compared += 1
        if a_bytes != b_bytes:
            mismatched.append(rel)
    report(11, not mismatched,
           f"reruns of gen/train/tune/stream/baseline/sweep produced "
           f"byte-identical outputs ({compared} files compared"
           + (f"; mismatches: {mismatched}" if mismatched else "") + ")")
