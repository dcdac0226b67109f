"""Hierarchical threshold routing, offline threshold learning, and streaming
evaluation with optional online refresh, plus fixed-policy baselines.

The routing rule is strict: a predicted score above tau1 stays on the device,
above tau2 goes to the edge, otherwise to the cloud; a score exactly equal to a
threshold escalates to the stronger tier.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .accounting import (
    CloudBaselines,
    CostModel,
    UtilityWeights,
    cloud_reference_means,
    tier_cost,
    tier_latency,
    utility_matrix,
)
from .bayesopt import (
    DEFAULT_ONLINE_HYPERS,
    BoConfig,
    ObservationSet,
    ThresholdPair,
    optimize_offline,
    refresh_online,
)
from .cluster import (
    ClusterModel,
    assign_batch,
    elbow_select_k,
    kmeans_fit,
    load_centroids,
    save_centroids,
)
from .errors import BundleIntegrityError, CorruptStateError, DimensionMismatchError
from .labels import ConsistencyLabels
from .mlp import (
    MlpConfig,
    MlpModel,
    TrainReport,
    init_model,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    train,
)
from .network import NetworkScenario
from .trace import TIERS, TierId, Trace

# Counterfactual replay depth per cluster for the online refresh evaluator.
RECENT_REPLAY_DEPTH = 256

# Stamped into every report: the end-to-end latency composition is a simulator
# convention (fixed delays plus expected-throughput serialization), not a
# measured quantity.
LATENCY_MODEL_NOTE = (
    "latency = compute + dns + one-way delays + payload_bits / "
    "(bandwidth * (1 - loss)); deterministic expected-value composition"
)

FIXED_POLICIES = {
    "device_only": TierId.DEVICE,
    "edge_only": TierId.EDGE,
    "cloud_only": TierId.CLOUD,
}


def route_tiers(scores, tau1, tau2) -> np.ndarray:
    """The routing rule, elementwise: tier index per score (thresholds may be
    per-query arrays); boundary scores escalate."""
    return np.where(scores > tau1, TierId.DEVICE,
                    np.where(scores > tau2, TierId.EDGE, TierId.CLOUD))


@dataclass
class RouterState:
    predictor: MlpModel
    clusters: ClusterModel
    thresholds: dict[int, ThresholdPair]
    observations: dict[int, ObservationSet]
    weights: UtilityWeights
    bo_config: BoConfig
    cost_model: CostModel
    cloud_baselines: CloudBaselines
    update_interval: int = 200
    train_report: TrainReport | None = None

    def validate(self) -> None:
        if self.update_interval < 1:
            raise CorruptStateError(
                f"update_interval must be >= 1; got {self.update_interval}")
        for k in range(self.clusters.k):
            if k not in self.thresholds:
                raise CorruptStateError(f"no threshold for cluster {k}")
            if k not in self.observations:
                raise CorruptStateError(f"no observation set for cluster {k}")

    def clone(self) -> RouterState:
        """Deep copy of the mutable parts so stream variants can share an offline state."""
        obs = {}
        for k, o in self.observations.items():
            fresh = ObservationSet(capacity=o.capacity)
            for pair, u in o.points:
                fresh.append(pair, u)
            obs[k] = fresh
        return RouterState(
            predictor=self.predictor.copy(),
            clusters=ClusterModel(k=self.clusters.k, centroids=self.clusters.centroids.copy(),
                                  inertia=self.clusters.inertia, seed=self.clusters.seed),
            thresholds=dict(self.thresholds),
            observations=obs,
            weights=self.weights,
            bo_config=self.bo_config,
            cost_model=self.cost_model,
            cloud_baselines=self.cloud_baselines,
            update_interval=self.update_interval,
            train_report=self.train_report,
        )


# ---------------------------------------------------------------------------
# Shared accounting helpers
# ---------------------------------------------------------------------------

def _tier_outcomes(trace: Trace, scenario: NetworkScenario, cost_model: CostModel,
                   weights: UtilityWeights, baselines: CloudBaselines,
                   windows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(n, 3) matrices of correctness, latency, cost, and utility for every tier."""
    correct = trace.correctness_matrix()
    lats = tier_latency(trace, scenario, windows)
    costs = tier_cost(trace, cost_model)
    return correct, lats, costs, utility_matrix(correct, lats, costs, weights, baselines)


def _make_evaluator(scores: np.ndarray, tier_utilities: np.ndarray):
    rows = np.arange(scores.shape[0])

    def evaluator(pair: ThresholdPair) -> float:
        choice = route_tiers(scores, pair.tau1, pair.tau2)
        return float(tier_utilities[rows, choice].mean())

    return evaluator


def _derived_seed(base_seed: int, *key: int) -> int:
    parts = [int(base_seed) & 0xFFFFFFFFFFFFFFFF] + [int(k) & 0xFFFFFFFFFFFFFFFF for k in key]
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


# ---------------------------------------------------------------------------
# Offline phase: predictor training, clustering, per-cluster threshold learning
# ---------------------------------------------------------------------------

def run_offline_phase(trace: Trace, labels: ConsistencyLabels, *,
                      mlp_config: MlpConfig,
                      scenario: NetworkScenario,
                      weights: UtilityWeights | None = None,
                      cost_model: CostModel | None = None,
                      bo_config: BoConfig | None = None,
                      k_min: int = 2, k_max: int = 12,
                      kmeans_restarts: int = 5,
                      seed_points: int = 8,
                      update_interval: int = 200,
                      fixed_k: int | None = None,
                      parallel_clusters: bool = False) -> RouterState:
    """Train the predictor, cluster embeddings, and learn per-cluster thresholds."""
    weights = weights or UtilityWeights()
    cost_model = cost_model or CostModel()
    bo_config = bo_config or BoConfig()

    if trace.ids != labels.ids:
        raise ValueError("labels do not cover the trace (record id mismatch)")

    embeddings = trace.embeddings
    model = init_model(mlp_config)
    predictor, train_report = train(model, embeddings, labels.s_fused, mlp_config)
    scores = predict_batch(predictor, embeddings)

    if fixed_k is not None:
        k = fixed_k
    else:
        k = elbow_select_k(embeddings, k_min, min(k_max, len(trace)),
                           mlp_config.seed, restarts=kmeans_restarts)
    clusters = kmeans_fit(embeddings, k, mlp_config.seed, restarts=kmeans_restarts)
    membership = assign_batch(clusters, embeddings)

    baselines = cloud_reference_means(trace, scenario, cost_model, window_index=0)
    *_, tier_utilities = _tier_outcomes(trace, scenario, cost_model, weights, baselines,
                                        windows=np.zeros(len(trace), dtype=int))

    def tune_cluster(idx: int) -> tuple[int, ThresholdPair, ObservationSet]:
        mask = membership == idx
        if not np.any(mask):
            # A centroid with no training members keeps a neutral pair.
            fallback = ThresholdPair(tau1=0.75, tau2=0.25)
            return idx, fallback, ObservationSet()
        evaluator = _make_evaluator(scores[mask], tier_utilities[mask])
        cfg = replace(bo_config, seed=_derived_seed(bo_config.seed, 1, idx))
        incumbent, obs = optimize_offline(evaluator, cfg, seed_points=seed_points)
        return idx, incumbent, obs

    thresholds: dict[int, ThresholdPair] = {}
    observations: dict[int, ObservationSet] = {}
    if parallel_clusters and k > 1:
        with ThreadPoolExecutor(max_workers=min(k, 8)) as pool:
            results = list(pool.map(tune_cluster, range(k)))
    else:
        results = [tune_cluster(idx) for idx in range(k)]
    for idx, incumbent, obs in results:
        thresholds[idx] = incumbent
        observations[idx] = obs

    state = RouterState(
        predictor=predictor,
        clusters=clusters,
        thresholds=thresholds,
        observations=observations,
        weights=weights,
        bo_config=bo_config,
        cost_model=cost_model,
        cloud_baselines=baselines,
        update_interval=update_interval,
        train_report=train_report,
    )
    state.validate()
    return state


# ---------------------------------------------------------------------------
# Streaming phase
# ---------------------------------------------------------------------------

@dataclass
class Decisions:
    """Per-query decision columns in stream order; a column is None where the
    policy has no value for it (fixed policies have no score or cluster)."""

    ids: list[str]
    window: np.ndarray
    tier: np.ndarray
    correct: np.ndarray
    latency_s: np.ndarray
    cost: np.ndarray
    utility: np.ndarray
    cluster: np.ndarray | None = None
    score: np.ndarray | None = None
    tau1: np.ndarray | None = None
    tau2: np.ndarray | None = None


@dataclass
class WindowStats:
    index: int
    count: int
    accuracy: float
    mean_latency_s: float
    mean_cost: float
    mean_utility: float
    tier_fractions: dict[str, float]


@dataclass
class StreamReport:
    policy: str
    window_size: int
    windows: list[WindowStats]
    totals: WindowStats
    decisions: Decisions
    threshold_history: dict[int, list[tuple[int, float, float]]] = field(default_factory=dict)


def _window_stats(index: int, d: Decisions, rows: slice) -> WindowStats:
    tiers = d.tier[rows]
    fractions = np.bincount(tiers, minlength=len(TIERS)) / len(tiers)
    return WindowStats(
        index=index,
        count=len(tiers),
        accuracy=float(np.mean(d.correct[rows])),
        mean_latency_s=float(np.mean(d.latency_s[rows])),
        mean_cost=float(np.mean(d.cost[rows])),
        mean_utility=float(np.mean(d.utility[rows])),
        tier_fractions={t.label: float(fractions[t]) for t in TIERS},
    )


def _build_report(policy: str, window_size: int, trace: Trace, tier: np.ndarray,
                  outcomes: tuple[np.ndarray, ...],
                  threshold_history: dict[int, list[tuple[int, float, float]]],
                  **routing: np.ndarray) -> StreamReport:
    """Pick each query's tier out of the (n, 3) outcome matrices and summarize
    every window, which is a contiguous slice of ``window_size`` queries."""
    n = len(trace)
    rows = np.arange(n)
    correct, lats, costs, utilities = (m[rows, tier] for m in outcomes)
    d = Decisions(ids=trace.ids, window=rows // window_size, tier=tier, correct=correct,
                  latency_s=lats, cost=costs, utility=utilities, **routing)
    windows = [_window_stats(w, d, slice(start, start + window_size))
               for w, start in enumerate(range(0, n, window_size))]
    return StreamReport(policy=policy, window_size=window_size, windows=windows,
                        totals=_window_stats(-1, d, slice(None)), decisions=d,
                        threshold_history=threshold_history)


def run_stream(state: RouterState, stream: Trace, scenario: NetworkScenario,
               online: bool) -> StreamReport:
    """Route a stream one window of ``update_interval`` queries at a time, score
    utilities, and (if online) refresh after every full window the thresholds
    of the clusters that saw queries in it."""
    state.validate()
    if stream.embedding_dim != state.predictor.config.input_dim:
        raise DimensionMismatchError(
            f"stream dim {stream.embedding_dim} != predictor input_dim "
            f"{state.predictor.config.input_dim}"
        )
    m = state.update_interval
    n = len(stream)
    if n == 0:
        raise ValueError("cannot stream an empty trace")

    # Predictor and centroids are frozen during streaming, so scores and
    # cluster assignments can be computed up front; thresholds cannot.
    k = state.clusters.k
    scores = predict_batch(state.predictor, stream.embeddings)
    membership = assign_batch(state.clusters, stream.embeddings)
    outcomes = _tier_outcomes(stream, scenario, state.cost_model, state.weights,
                              state.cloud_baselines, np.arange(n) // m)
    tier_utilities = outcomes[3]
    members = [np.flatnonzero(membership == c) for c in range(k)]
    refresh_rngs = [np.random.default_rng(_derived_seed(state.bo_config.seed, 2, c))
                    for c in range(k)]
    threshold_history: dict[int, list[tuple[int, float, float]]] = {c: [] for c in range(k)}

    tau1, tau2 = np.empty(n), np.empty(n)
    tier = np.empty(n, dtype=np.int64)
    for window, start in enumerate(range(0, n, m)):
        rows = slice(start, min(start + m, n))
        pairs = [state.thresholds[c] for c in range(k)]
        for c, pair in enumerate(pairs):
            threshold_history[c].append((window, pair.tau1, pair.tau2))
        clusters = membership[rows]
        tau1[rows] = np.array([p.tau1 for p in pairs])[clusters]
        tau2[rows] = np.array([p.tau2 for p in pairs])[clusters]
        tier[rows] = route_tiers(scores[rows], tau1[rows], tau2[rows])
        routed = tier_utilities[np.arange(start, rows.stop), tier[rows]]
        active = np.unique(clusters).tolist()
        for c in active:
            state.observations[c].extend(pairs[c], routed[clusters == c])
        if not online or rows.stop - start < m:
            continue
        for c in active:
            # Counterfactual replay over the cluster's most recent queries.
            upto = np.searchsorted(members[c], rows.stop)
            replay = members[c][max(0, upto - RECENT_REPLAY_DEPTH):upto]
            evaluator = _make_evaluator(scores[replay], tier_utilities[replay])
            state.thresholds[c] = refresh_online(
                state.observations[c], state.thresholds[c], evaluator,
                state.bo_config, rng=refresh_rngs[c], hypers=DEFAULT_ONLINE_HYPERS,
            )

    policy = "router_online" if online else "router_static"
    return _build_report(policy, m, stream, tier, outcomes, threshold_history,
                         cluster=membership, score=scores, tau1=tau1, tau2=tau2)


# ---------------------------------------------------------------------------
# Fixed-policy baselines
# ---------------------------------------------------------------------------

def baseline_route(policy: str, trace: Trace, scenario: NetworkScenario, *,
                   weights: UtilityWeights | None = None,
                   cost_model: CostModel | None = None,
                   baselines: CloudBaselines | None = None,
                   pair: ThresholdPair | None = None,
                   predictor: MlpModel | None = None,
                   window_size: int = 200) -> StreamReport:
    """Run the same accounting pipeline under a fixed policy.

    ``policy`` is one of device_only / edge_only / cloud_only / global_static;
    the global-static policy needs a threshold ``pair`` and a ``predictor``.
    """
    weights = weights or UtilityWeights()
    cost_model = cost_model or CostModel()
    policy = policy.replace("-", "_")
    if policy not in FIXED_POLICIES and policy != "global_static":
        raise ValueError(f"unknown baseline policy {policy!r}")
    if policy == "global_static" and (pair is None or predictor is None):
        raise ValueError("global_static needs a threshold pair and a predictor")

    n = len(trace)
    if n == 0:
        raise ValueError("cannot stream an empty trace")
    if baselines is None:
        baselines = cloud_reference_means(trace, scenario, cost_model, window_index=0)
    outcomes = _tier_outcomes(trace, scenario, cost_model, weights, baselines,
                              np.arange(n) // window_size)
    if policy != "global_static":
        tier = np.full(n, FIXED_POLICIES[policy], dtype=np.int64)
        return _build_report(policy, window_size, trace, tier, outcomes, {})
    scores = predict_batch(predictor, trace.embeddings)
    tier = route_tiers(scores, pair.tau1, pair.tau2)
    return _build_report(policy, window_size, trace, tier, outcomes, {}, score=scores,
                         tau1=np.full(n, pair.tau1), tau2=np.full(n, pair.tau2))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def report_to_json_obj(report: StreamReport) -> dict:
    def window_obj(w: WindowStats) -> dict:
        return {
            "index": w.index, "count": w.count, "accuracy": w.accuracy,
            "mean_latency_s": w.mean_latency_s, "mean_cost": w.mean_cost,
            "mean_utility": w.mean_utility, "tier_fractions": w.tier_fractions,
        }

    return {
        "policy": report.policy,
        "window_size": report.window_size,
        "latency_model": LATENCY_MODEL_NOTE,
        "totals": window_obj(report.totals),
        "windows": [window_obj(w) for w in report.windows],
        "threshold_history": {
            str(k): [{"window": w, "tau1": t1, "tau2": t2} for w, t1, t2 in hist]
            for k, hist in sorted(report.threshold_history.items())
        },
    }


def write_report_files(report: StreamReport, outdir: str | Path, prefix: str = "stream") -> list[Path]:
    """Write report.json plus per-window, threshold-history, and decision CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    json_path = outdir / f"{prefix}_report.json"
    json_path.write_text(json.dumps(report_to_json_obj(report), sort_keys=True, indent=2) + "\n",
                         encoding="utf-8")
    written.append(json_path)

    windows_path = outdir / f"{prefix}_windows.csv"
    with windows_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "count", "accuracy", "mean_latency_s", "mean_cost",
                         "mean_utility", "frac_device", "frac_edge", "frac_cloud"])
        for w in report.windows:
            writer.writerow([w.index, w.count, repr(w.accuracy), repr(w.mean_latency_s),
                             repr(w.mean_cost), repr(w.mean_utility),
                             repr(w.tier_fractions["device"]), repr(w.tier_fractions["edge"]),
                             repr(w.tier_fractions["cloud"])])
    written.append(windows_path)

    thresholds_path = outdir / f"{prefix}_thresholds.csv"
    with thresholds_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "window", "tau1", "tau2"])
        for k, hist in sorted(report.threshold_history.items()):
            for window, tau1, tau2 in hist:
                writer.writerow([k, window, repr(tau1), repr(tau2)])
    written.append(thresholds_path)

    d = report.decisions
    n = len(d.ids)

    def cells(column: np.ndarray | None, fmt=repr) -> list:
        return [""] * n if column is None else [fmt(v) for v in column.tolist()]

    tiers = [TIERS[t].label for t in d.tier.tolist()]
    ids, windows, clusters = d.ids, d.window.tolist(), cells(d.cluster, str)
    correct = [int(v) for v in d.correct.tolist()]
    lats, costs, utilities = cells(d.latency_s), cells(d.cost), cells(d.utility)

    decisions_path = outdir / f"{prefix}_decisions.csv"
    with decisions_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "window", "cluster", "tier", "score", "tau1", "tau2",
                         "correct", "latency_s", "cost", "utility"])
        writer.writerows(zip(ids, windows, clusters, tiers, cells(d.score), cells(d.tau1),
                             cells(d.tau2), correct, lats, costs, utilities))
    written.append(decisions_path)

    utilities_path = outdir / f"{prefix}_utilities.csv"
    with utilities_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "cluster", "tier", "correct",
                         "latency_s", "cost", "utility"])
        writer.writerows(zip(ids, clusters, tiers, correct, lats, costs, utilities))
    written.append(utilities_path)
    return written


# ---------------------------------------------------------------------------
# Router bundle IO and checksums
# ---------------------------------------------------------------------------

_BUNDLE_FORMAT = "tierroute-bundle-v1"


def state_checksum(state: RouterState) -> str:
    """Stable digest over the learned parts of a router state."""
    digest = hashlib.sha256()
    digest.update(state.predictor.input_mean.astype("<f8").tobytes())
    digest.update(state.predictor.input_scale.astype("<f8").tobytes())
    digest.update(state.predictor.flat_params().astype("<f8").tobytes())
    digest.update(np.ascontiguousarray(state.clusters.centroids).astype("<f8").tobytes())
    for k in sorted(state.thresholds):
        pair = state.thresholds[k]
        digest.update(f"{k}:{pair.tau1!r}:{pair.tau2!r};".encode())
    for k in sorted(state.observations):
        x, y = state.observations[k].arrays()
        digest.update(x.astype("<f8").tobytes())
        digest.update(y.astype("<f8").tobytes())
    return digest.hexdigest()


def save_bundle(state: RouterState, outdir: str | Path) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(state.predictor, outdir / "predictor.ckpt")
    save_centroids(state.clusters, outdir / "centroids.bin")

    thresholds_obj = {
        str(k): {"tau1": pair.tau1, "tau2": pair.tau2}
        for k, pair in sorted(state.thresholds.items())
    }
    (outdir / "thresholds.json").write_text(
        json.dumps(thresholds_obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    with (outdir / "observations.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "tau1", "tau2", "utility", "order_index"])
        for k in sorted(state.observations):
            for idx, (pair, u) in enumerate(state.observations[k].points):
                writer.writerow([k, repr(pair.tau1), repr(pair.tau2), repr(u), idx])

    state_obj = {
        "format": _BUNDLE_FORMAT,
        "weights": {
            "lambda1": state.weights.lambda1, "lambda2": state.weights.lambda2,
            "lambda3": state.weights.lambda3,
            "normalize_by_cloud": state.weights.normalize_by_cloud,
        },
        "bo_config": {
            "offline_budget": state.bo_config.offline_budget,
            "online_steps_per_refresh": state.bo_config.online_steps_per_refresh,
            "candidate_pool_size": state.bo_config.candidate_pool_size,
            "seed": state.bo_config.seed,
        },
        "cost_model": {t.label: p for t, p in state.cost_model.activated_params.items()},
        "cloud_baselines": {
            "mean_latency_s": state.cloud_baselines.mean_latency_s,
            "mean_cost": state.cloud_baselines.mean_cost,
        },
        "update_interval": state.update_interval,
        "observation_capacity": max(o.capacity for o in state.observations.values()),
        "k": state.clusters.k,
    }
    (outdir / "state.json").write_text(
        json.dumps(state_obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")

    files = ["predictor.ckpt", "centroids.bin", "thresholds.json",
             "observations.csv", "state.json"]
    manifest = {
        "format": _BUNDLE_FORMAT,
        "files": {
            name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
            for name in files
        },
        "checksum": state_checksum(state),
    }
    (outdir / "bundle_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return outdir


def load_bundle(bundle_dir: str | Path) -> RouterState:
    bundle_dir = Path(bundle_dir)
    manifest_path = bundle_dir / "bundle_manifest.json"
    if not manifest_path.exists():
        raise BundleIntegrityError(f"{bundle_dir}: missing bundle_manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BundleIntegrityError(f"{manifest_path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise BundleIntegrityError(f"{manifest_path}: expected a JSON object")
    if manifest.get("format") != _BUNDLE_FORMAT:
        raise BundleIntegrityError(f"{bundle_dir}: unknown bundle format")
    for name, expected in manifest.get("files", {}).items():
        path = bundle_dir / name
        if not path.exists():
            raise BundleIntegrityError(f"{bundle_dir}: missing bundle file {name}")
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != expected:
            raise BundleIntegrityError(f"{bundle_dir}: checksum mismatch for {name}")

    predictor = load_checkpoint(bundle_dir / "predictor.ckpt")
    clusters = load_centroids(bundle_dir / "centroids.bin")
    state_obj = json.loads((bundle_dir / "state.json").read_text(encoding="utf-8"))
    thresholds_obj = json.loads((bundle_dir / "thresholds.json").read_text(encoding="utf-8"))
    thresholds = {
        int(k): ThresholdPair(tau1=v["tau1"], tau2=v["tau2"])
        for k, v in thresholds_obj.items()
    }

    capacity = int(state_obj.get("observation_capacity", 512))
    observations: dict[int, ObservationSet] = {
        k: ObservationSet(capacity=capacity) for k in range(int(state_obj["k"]))
    }
    with (bundle_dir / "observations.csv").open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            observations[int(row["cluster"])].append(
                ThresholdPair(tau1=float(row["tau1"]), tau2=float(row["tau2"])),
                float(row["utility"]),
            )

    weights = UtilityWeights(
        lambda1=float(state_obj["weights"]["lambda1"]),
        lambda2=float(state_obj["weights"]["lambda2"]),
        lambda3=float(state_obj["weights"]["lambda3"]),
        normalize_by_cloud=bool(state_obj["weights"]["normalize_by_cloud"]),
    )
    bo_config = BoConfig(
        offline_budget=int(state_obj["bo_config"]["offline_budget"]),
        online_steps_per_refresh=int(state_obj["bo_config"]["online_steps_per_refresh"]),
        candidate_pool_size=int(state_obj["bo_config"]["candidate_pool_size"]),
        seed=int(state_obj["bo_config"]["seed"]),
    )
    cost_model = CostModel(activated_params={
        TierId.from_label(label): float(p)
        for label, p in state_obj["cost_model"].items()
    })
    cloud_baselines = CloudBaselines(
        mean_latency_s=float(state_obj["cloud_baselines"]["mean_latency_s"]),
        mean_cost=float(state_obj["cloud_baselines"]["mean_cost"]),
    )
    state = RouterState(
        predictor=predictor, clusters=clusters, thresholds=thresholds,
        observations=observations, weights=weights, bo_config=bo_config,
        cost_model=cost_model, cloud_baselines=cloud_baselines,
        update_interval=int(state_obj["update_interval"]),
    )
    state.validate()
    expected = manifest.get("checksum")
    if expected is not None and state_checksum(state) != expected:
        raise BundleIntegrityError(f"{bundle_dir}: reconstructed state checksum mismatch")
    return state
