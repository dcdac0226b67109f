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
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import groupby
from operator import attrgetter
from pathlib import Path

import numpy as np

from .accounting import (
    CloudBaselines,
    CostModel,
    UtilityWeights,
    cloud_reference_means,
    inference_cost,
    query_latency,
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
from .errors import (
    BundleIntegrityError,
    CorruptStateError,
    DimensionMismatchError,
    TraceValidationError,
)
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
from .trace import TIERS, QueryRecord, TierId, Trace

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


def routing_tier(score: float, tau1: float, tau2: float) -> TierId:
    """Strict-inequality threshold rule; boundary scores escalate."""
    if score > tau1:
        return TierId.DEVICE
    if score > tau2:
        return TierId.EDGE
    return TierId.CLOUD


@dataclass(frozen=True)
class RoutingDecision:
    query_id: str
    score: float
    cluster: int
    tier: TierId
    tau1: float
    tau2: float


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
    query_counter: int = 0
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
            query_counter=self.query_counter,
            train_report=self.train_report,
        )


def route_query(state: RouterState, record: QueryRecord) -> RoutingDecision:
    """Score, cluster, and threshold one query; read-only on the state."""
    if len(record.embedding) != state.predictor.config.input_dim:
        raise DimensionMismatchError(
            f"record {record.id!r}: embedding dim {len(record.embedding)} != "
            f"predictor input_dim {state.predictor.config.input_dim}"
        )
    score = float(predict_batch(state.predictor, record.embedding.reshape(1, -1))[0])
    cluster = int(assign_batch(state.clusters, record.embedding.reshape(1, -1))[0])
    pair = state.thresholds.get(cluster)
    if pair is None:
        raise CorruptStateError(f"no threshold for cluster {cluster}")
    tier = routing_tier(score, pair.tau1, pair.tau2)
    return RoutingDecision(query_id=record.id, score=score, cluster=cluster,
                           tier=tier, tau1=pair.tau1, tau2=pair.tau2)


# ---------------------------------------------------------------------------
# Shared accounting helpers
# ---------------------------------------------------------------------------

def _per_tier_outcomes(trace: Trace, scenario: NetworkScenario, cost_model: CostModel,
                       windows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, 3) matrices of correctness, latency, and cost for every tier."""
    n = len(trace.records)
    correct = np.empty((n, 3))
    lats = np.empty((n, 3))
    costs = np.empty((n, 3))
    for i, rec in enumerate(trace.records):
        for tier in TIERS:
            info = rec.tier_info.get(tier)
            if info is None or info.correct is None:
                raise TraceValidationError(
                    f"record {rec.id!r}: simulation requires a correct bit for "
                    f"tier {tier.label}"
                )
            correct[i, tier] = float(info.correct)
            lats[i, tier] = query_latency(tier, info, scenario, int(windows[i]))
            costs[i, tier] = inference_cost(cost_model, tier, info.generated_tokens)
    return correct, lats, costs


def _tier_utility_matrix(correct: np.ndarray, lats: np.ndarray, costs: np.ndarray,
                         weights: UtilityWeights, baselines: CloudBaselines) -> np.ndarray:
    if weights.normalize_by_cloud:
        lat_term = lats / baselines.mean_latency_s
        cost_term = costs / baselines.mean_cost
    else:
        lat_term, cost_term = lats, costs
    return weights.lambda1 * correct - weights.lambda2 * lat_term - weights.lambda3 * cost_term


def _tier_choices(scores: np.ndarray, tau1: float, tau2: float) -> np.ndarray:
    return np.where(scores > tau1, 0, np.where(scores > tau2, 1, 2))


def _make_evaluator(scores: np.ndarray, tier_utilities: np.ndarray):
    rows = np.arange(scores.shape[0])

    def evaluator(pair: ThresholdPair) -> float:
        choice = _tier_choices(scores, pair.tau1, pair.tau2)
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

    ids = [r.id for r in trace.records]
    if ids != labels.ids:
        raise ValueError("labels do not cover the trace (record id mismatch)")

    embeddings = trace.embeddings_matrix()
    model = init_model(mlp_config)
    predictor, train_report = train(model, embeddings, labels.s_fused, mlp_config)
    scores = predict_batch(predictor, embeddings)

    if fixed_k is not None:
        k = fixed_k
    else:
        k = elbow_select_k(embeddings, k_min, min(k_max, len(trace.records)),
                           mlp_config.seed, restarts=kmeans_restarts)
    clusters = kmeans_fit(embeddings, k, mlp_config.seed, restarts=kmeans_restarts)
    membership = assign_batch(clusters, embeddings)

    baselines = cloud_reference_means(trace, scenario, cost_model, window_index=0)
    windows = np.zeros(len(trace.records), dtype=int)
    correct, lats, costs = _per_tier_outcomes(trace, scenario, cost_model, windows)
    tier_utilities = _tier_utility_matrix(correct, lats, costs, weights, baselines)

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
class DecisionRow:
    query_id: str
    window: int
    cluster: int | None
    tier: TierId
    score: float | None
    tau1: float | None
    tau2: float | None
    correct: bool
    latency_s: float
    cost: float
    utility: float


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
    threshold_history: dict[int, list[tuple[int, float, float]]] = field(default_factory=dict)
    decisions: list[DecisionRow] = field(default_factory=list)


def _window_stats(index: int, rows: list[DecisionRow]) -> WindowStats:
    count = len(rows)
    fractions = {t.label: 0.0 for t in TIERS}
    for row in rows:
        fractions[row.tier.label] += 1.0
    for label in fractions:
        fractions[label] /= count
    return WindowStats(
        index=index,
        count=count,
        accuracy=float(np.mean([row.correct for row in rows])),
        mean_latency_s=float(np.mean([row.latency_s for row in rows])),
        mean_cost=float(np.mean([row.cost for row in rows])),
        mean_utility=float(np.mean([row.utility for row in rows])),
        tier_fractions=fractions,
    )


def _build_report(policy: str, window_size: int, rows: list[DecisionRow],
                  threshold_history: dict[int, list[tuple[int, float, float]]]) -> StreamReport:
    if not rows:
        raise ValueError("cannot build a report from an empty stream")
    # Rows arrive in window order, so each window is one consecutive run.
    windows = [_window_stats(w, list(chunk))
               for w, chunk in groupby(rows, key=attrgetter("window"))]
    totals = _window_stats(-1, rows)
    return StreamReport(policy=policy, window_size=window_size, windows=windows,
                        totals=totals, threshold_history=threshold_history,
                        decisions=rows)


def run_stream(state: RouterState, stream: Trace, scenario: NetworkScenario,
               online: bool) -> StreamReport:
    """Route a stream, score utilities, and (if online) refresh thresholds
    every ``update_interval`` queries for clusters that saw new data."""
    state.validate()
    if stream.embedding_dim != state.predictor.config.input_dim:
        raise DimensionMismatchError(
            f"stream dim {stream.embedding_dim} != predictor input_dim "
            f"{state.predictor.config.input_dim}"
        )
    m = state.update_interval
    n = len(stream.records)
    if n == 0:
        raise ValueError("cannot stream an empty trace")

    # Predictor and centroids are frozen during streaming, so scores and
    # cluster assignments can be computed up front; thresholds cannot.
    embeddings = stream.embeddings_matrix()
    scores = predict_batch(state.predictor, embeddings)
    membership = assign_batch(state.clusters, embeddings)
    windows = np.arange(n) // m
    correct3, lats3, costs3 = _per_tier_outcomes(stream, scenario, state.cost_model, windows)
    tier_utilities = _tier_utility_matrix(correct3, lats3, costs3,
                                          state.weights, state.cloud_baselines)

    recent: dict[int, deque] = {
        k: deque(maxlen=RECENT_REPLAY_DEPTH) for k in range(state.clusters.k)
    }
    new_counts = {k: 0 for k in range(state.clusters.k)}
    refresh_rngs = {
        k: np.random.default_rng(_derived_seed(state.bo_config.seed, 2, k))
        for k in range(state.clusters.k)
    }
    threshold_history: dict[int, list[tuple[int, float, float]]] = {
        k: [] for k in range(state.clusters.k)
    }

    rows: list[DecisionRow] = []
    policy = "router_online" if online else "router_static"
    for i, rec in enumerate(stream.records):
        window = int(windows[i])
        if i % m == 0:
            for k in range(state.clusters.k):
                pair = state.thresholds[k]
                threshold_history[k].append((window, pair.tau1, pair.tau2))
        cluster = int(membership[i])
        pair = state.thresholds.get(cluster)
        if pair is None:
            raise CorruptStateError(f"no threshold for cluster {cluster}")
        tier = routing_tier(float(scores[i]), pair.tau1, pair.tau2)
        utility = float(tier_utilities[i, tier])
        rows.append(DecisionRow(
            query_id=rec.id, window=window, cluster=cluster, tier=tier,
            score=float(scores[i]), tau1=pair.tau1, tau2=pair.tau2,
            correct=bool(correct3[i, tier]), latency_s=float(lats3[i, tier]),
            cost=float(costs3[i, tier]), utility=utility,
        ))
        state.observations[cluster].append(pair, utility)
        new_counts[cluster] += 1
        recent[cluster].append((float(scores[i]), tier_utilities[i].copy()))
        state.query_counter += 1

        if online and state.query_counter % m == 0:
            for k in sorted(new_counts):
                if new_counts[k] == 0:
                    continue
                replay = recent[k]
                replay_scores = np.array([s for s, _ in replay])
                replay_utilities = np.stack([u for _, u in replay])
                evaluator = _make_evaluator(replay_scores, replay_utilities)
                state.thresholds[k] = refresh_online(
                    state.observations[k], state.thresholds[k], evaluator,
                    state.bo_config, rng=refresh_rngs[k], hypers=DEFAULT_ONLINE_HYPERS,
                )
                new_counts[k] = 0

    return _build_report(policy, m, rows, threshold_history)


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

    n = len(trace.records)
    if n == 0:
        raise ValueError("cannot stream an empty trace")
    windows = np.arange(n) // window_size
    if baselines is None:
        baselines = cloud_reference_means(trace, scenario, cost_model, window_index=0)
    correct3, lats3, costs3 = _per_tier_outcomes(trace, scenario, cost_model, windows)
    tier_utilities = _tier_utility_matrix(correct3, lats3, costs3, weights, baselines)

    scores = None
    if policy == "global_static":
        scores = predict_batch(predictor, trace.embeddings_matrix())

    rows: list[DecisionRow] = []
    for i, rec in enumerate(trace.records):
        if policy == "global_static":
            tier = routing_tier(float(scores[i]), pair.tau1, pair.tau2)
            score: float | None = float(scores[i])
            tau1, tau2 = pair.tau1, pair.tau2
        else:
            tier = FIXED_POLICIES[policy]
            score, tau1, tau2 = None, None, None
        rows.append(DecisionRow(
            query_id=rec.id, window=int(windows[i]), cluster=None, tier=tier,
            score=score, tau1=tau1, tau2=tau2,
            correct=bool(correct3[i, tier]), latency_s=float(lats3[i, tier]),
            cost=float(costs3[i, tier]), utility=float(tier_utilities[i, tier]),
        ))
    return _build_report(policy, window_size, rows, {})


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

    decisions_path = outdir / f"{prefix}_decisions.csv"
    with decisions_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "window", "cluster", "tier", "score", "tau1", "tau2",
                         "correct", "latency_s", "cost", "utility"])
        for row in report.decisions:
            writer.writerow([
                row.query_id, row.window,
                "" if row.cluster is None else row.cluster,
                row.tier.label,
                "" if row.score is None else repr(row.score),
                "" if row.tau1 is None else repr(row.tau1),
                "" if row.tau2 is None else repr(row.tau2),
                int(row.correct), repr(row.latency_s), repr(row.cost), repr(row.utility),
            ])
    written.append(decisions_path)

    utilities_path = outdir / f"{prefix}_utilities.csv"
    with utilities_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "cluster", "tier", "correct",
                         "latency_s", "cost", "utility"])
        for row in report.decisions:
            writer.writerow([
                row.query_id,
                "" if row.cluster is None else row.cluster,
                row.tier.label, int(row.correct),
                repr(row.latency_s), repr(row.cost), repr(row.utility),
            ])
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
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
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
