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
from dataclasses import asdict, astuple, dataclass, replace
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
    elbow_sweep,
    kmeans_fit,
    load_centroids,
    save_centroids,
)
from .errors import BundleIntegrityError, CorruptStateError, DimensionMismatchError
from .fields import MISSING, building, cell, read, typed
from .formats import write_json, write_table, write_tables
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

    def validate(self) -> None:
        if self.update_interval < 1:
            raise CorruptStateError(
                f"update_interval must be >= 1; got {self.update_interval}")
        for k in range(self.clusters.k):
            if k not in self.thresholds:
                raise CorruptStateError(f"no threshold for cluster {k}")
            if k not in self.observations:
                raise CorruptStateError(f"no observation set for cluster {k}")


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

@dataclass
class Representation:
    """What the offline phase fits before any utility weights: the score
    predictor and the clusters, with each training query's score and cluster.
    Every state tuned from it shares its predictor and clusters."""

    predictor: MlpModel
    train_report: TrainReport
    scores: np.ndarray
    clusters: ClusterModel
    membership: np.ndarray


def fit_representation(trace: Trace, labels: ConsistencyLabels, *,
                       mlp_config: MlpConfig,
                       k_min: int = 2, k_max: int = 12,
                       restarts: int = 5,
                       fixed_k: int | None = None) -> Representation:
    """Train the predictor and cluster the embeddings: ``fixed_k`` clusters, or
    the elbow sweep's own model at its knee."""
    if trace.ids != labels.ids:
        raise ValueError("labels do not cover the trace (record id mismatch)")

    embeddings = trace.embeddings
    predictor, train_report = train(init_model(mlp_config), embeddings, labels.s_fused)
    scores = predict_batch(predictor, embeddings)
    if fixed_k is not None:
        clusters = kmeans_fit(embeddings, fixed_k, mlp_config.seed, restarts=restarts)
    else:
        models = elbow_sweep(embeddings, k_min, min(k_max, len(trace)), mlp_config.seed,
                             restarts=restarts)
        clusters = models[elbow_select_k(models) - k_min]
    return Representation(predictor=predictor, train_report=train_report, scores=scores,
                          clusters=clusters, membership=assign_batch(clusters, embeddings))


def tune_thresholds(rep: Representation, trace: Trace, *,
                    scenario: NetworkScenario,
                    weights: UtilityWeights | None = None,
                    cost_model: CostModel | None = None,
                    bo_config: BoConfig | None = None,
                    seed_points: int = 8,
                    update_interval: int = 200) -> RouterState:
    """Learn each cluster's thresholds on the trace ``rep`` was fitted on."""
    weights = weights or UtilityWeights()
    cost_model = cost_model or CostModel()
    bo_config = bo_config or BoConfig()

    baselines = cloud_reference_means(trace, scenario, cost_model)
    *_, tier_utilities = _tier_outcomes(trace, scenario, cost_model, weights, baselines,
                                        windows=np.zeros(len(trace), dtype=int))

    thresholds: dict[int, ThresholdPair] = {}
    observations: dict[int, ObservationSet] = {}
    for idx in range(rep.clusters.k):
        mask = rep.membership == idx
        if not np.any(mask):
            # A centroid with no training members keeps a neutral pair.
            thresholds[idx] = ThresholdPair(tau1=0.75, tau2=0.25)
            observations[idx] = ObservationSet()
            continue
        evaluator = _make_evaluator(rep.scores[mask], tier_utilities[mask])
        cfg = replace(bo_config, seed=_derived_seed(bo_config.seed, 1, idx))
        thresholds[idx], observations[idx] = optimize_offline(evaluator, cfg,
                                                              seed_points=seed_points)

    state = RouterState(
        predictor=rep.predictor,
        clusters=rep.clusters,
        thresholds=thresholds,
        observations=observations,
        weights=weights,
        bo_config=bo_config,
        cost_model=cost_model,
        cloud_baselines=baselines,
        update_interval=update_interval,
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
    """``thresholds[w, c]``: cluster c's (tau1, tau2) in window w; fixed policies have no c."""

    policy: str
    window_size: int
    windows: list[WindowStats]
    totals: WindowStats
    decisions: Decisions
    thresholds: np.ndarray


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
                  outcomes: tuple[np.ndarray, ...], thresholds: np.ndarray | None = None,
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
                        thresholds=np.empty((len(windows), 0, 2)) if thresholds is None
                        else thresholds)


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
    windows = np.arange(n) // m
    outcomes = _tier_outcomes(stream, scenario, state.cost_model, state.weights,
                              state.cloud_baselines, windows)
    tier_utilities = outcomes[3]
    members = [np.flatnonzero(membership == c) for c in range(k)]
    refresh_rngs = [np.random.default_rng(_derived_seed(state.bo_config.seed, 2, c))
                    for c in range(k)]

    thresholds = np.empty((windows[-1] + 1, k, 2))
    tier = np.empty(n, dtype=np.int64)
    for window, start in enumerate(range(0, n, m)):
        rows = slice(start, min(start + m, n))
        thresholds[window] = [astuple(state.thresholds[c]) for c in range(k)]
        clusters = membership[rows]
        taus = thresholds[window, clusters]
        tier[rows] = route_tiers(scores[rows], taus[:, 0], taus[:, 1])
        routed = tier_utilities[np.arange(start, rows.stop), tier[rows]]
        active = np.unique(clusters).tolist()
        for c in active:
            state.observations[c].extend(state.thresholds[c], routed[clusters == c])
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
    taus = thresholds[windows, membership]
    return _build_report(policy, m, stream, tier, outcomes, thresholds, cluster=membership,
                         score=scores, tau1=taus[:, 0], tau2=taus[:, 1])


# ---------------------------------------------------------------------------
# Fixed-policy baselines
# ---------------------------------------------------------------------------

def baseline_route(policy: str, trace: Trace, scenario: NetworkScenario, *,
                   weights: UtilityWeights | None = None,
                   cost_model: CostModel | None = None,
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
    baselines = cloud_reference_means(trace, scenario, cost_model)
    outcomes = _tier_outcomes(trace, scenario, cost_model, weights, baselines,
                              np.arange(n) // window_size)
    if policy != "global_static":
        tier = np.full(n, FIXED_POLICIES[policy], dtype=np.int64)
        return _build_report(policy, window_size, trace, tier, outcomes)
    scores = predict_batch(predictor, trace.embeddings)
    tier = route_tiers(scores, pair.tau1, pair.tau2)
    return _build_report(policy, window_size, trace, tier, outcomes, score=scores,
                         tau1=np.full(n, pair.tau1), tau2=np.full(n, pair.tau2))


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def write_report_files(report: StreamReport, outdir: str | Path, prefix: str = "stream") -> list[Path]:
    """Write report.json plus per-window, threshold-history, and decision CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{prefix}_{name}" for name in
             ("report.json", "windows.csv", "thresholds.csv", "decisions.csv", "utilities.csv")]
    n_windows, k, _ = report.thresholds.shape
    by_cluster = report.thresholds.transpose(1, 0, 2)
    write_json(paths[0], {
        "policy": report.policy,
        "window_size": report.window_size,
        "latency_model": LATENCY_MODEL_NOTE,
        "totals": asdict(report.totals),
        "windows": [asdict(w) for w in report.windows],
        "threshold_history": {str(c): [{"window": w, "tau1": t1, "tau2": t2}
                                       for w, (t1, t2) in enumerate(pairs)]
                              for c, pairs in enumerate(by_cluster.tolist())},
    })

    windows = report.windows
    write_table(paths[1], {
        "window": [w.index for w in windows],
        **{name: [getattr(w, name) for w in windows]
           for name in ("count", "accuracy", "mean_latency_s", "mean_cost", "mean_utility")},
        **{f"frac_{t.label}": [w.tier_fractions[t.label] for w in windows] for t in TIERS},
    })
    write_table(paths[2], {"cluster": np.repeat(np.arange(k), n_windows),
                           "window": np.tile(np.arange(n_windows), k),
                           "tau1": by_cluster[..., 0].ravel(), "tau2": by_cluster[..., 1].ravel()})

    d = report.decisions
    columns = {
        "query_id": d.ids, "window": d.window, "cluster": d.cluster,
        "tier": [TIERS[t].label for t in d.tier.tolist()], "score": d.score,
        "tau1": d.tau1, "tau2": d.tau2, "correct": d.correct.astype(np.int64),
        "latency_s": d.latency_s, "cost": d.cost, "utility": d.utility,
    }
    write_tables(columns, {paths[3]: tuple(columns), paths[4]: (
        "query_id", "cluster", "tier", "correct", "latency_s", "cost", "utility")})
    return paths


# ---------------------------------------------------------------------------
# Router bundle IO and checksums
# ---------------------------------------------------------------------------

_BUNDLE_FORMAT = "tierroute-bundle-v1"
# The files save_bundle writes, each hashed in the manifest; load_bundle requires them all.
_BUNDLE_FILES = ("predictor.ckpt", "centroids.bin", "thresholds.json", "observations.csv",
                 "state.json")


def state_checksum(state: RouterState) -> str:
    """Stable digest over the learned parts of a router state."""
    digest = hashlib.sha256()
    digest.update(state.predictor.input_mean.astype("<f8").tobytes())
    digest.update(state.predictor.input_scale.astype("<f8").tobytes())
    digest.update(state.predictor.params.astype("<f8").tobytes())
    digest.update(np.ascontiguousarray(state.clusters.centroids).astype("<f8").tobytes())
    for k in sorted(state.thresholds):
        pair = state.thresholds[k]
        digest.update(f"{k}:{pair.tau1!r}:{pair.tau2!r};".encode())
    for k in sorted(state.observations):
        digest.update(state.observations[k].pairs.astype("<f8").tobytes())
        digest.update(state.observations[k].utilities.astype("<f8").tobytes())
    return digest.hexdigest()


def save_bundle(state: RouterState, outdir: str | Path) -> Path:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(state.predictor, outdir / "predictor.ckpt")
    save_centroids(state.clusters, outdir / "centroids.bin")
    write_json(outdir / "thresholds.json", {str(k): {"tau1": pair.tau1, "tau2": pair.tau2}
                                            for k, pair in sorted(state.thresholds.items())})
    sets = [state.observations[k] for k in sorted(state.observations)]
    pairs = np.concatenate([o.pairs for o in sets])
    write_table(outdir / "observations.csv", {
        "cluster": np.repeat(sorted(state.observations), [len(o) for o in sets]),
        "tau1": pairs[:, 0], "tau2": pairs[:, 1],
        "utility": np.concatenate([o.utilities for o in sets]),
        "order_index": np.concatenate([np.arange(len(o)) for o in sets])})
    write_json(outdir / "state.json", {
        "format": _BUNDLE_FORMAT,
        "weights": asdict(state.weights),
        "bo_config": asdict(state.bo_config),
        "cost_model": {t.label: p for t, p in state.cost_model.activated_params.items()},
        "cloud_baselines": asdict(state.cloud_baselines),
        "update_interval": state.update_interval,
        "observation_capacity": max(o.capacity for o in state.observations.values()),
        "k": state.clusters.k,
    })
    write_json(outdir / "bundle_manifest.json", {
        "format": _BUNDLE_FORMAT,
        "files": {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                  for name in _BUNDLE_FILES},
        "checksum": state_checksum(state),
    })
    return outdir


def _json_file(path: Path) -> dict:
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise BundleIntegrityError(f"{path}: not a readable JSON file ({exc})") from exc
    return typed(obj, dict, str(path), BundleIntegrityError)


def _load_observations(path: Path, k: int, capacity: int) -> dict[int, ObservationSet]:
    observations = {c: ObservationSet(capacity=capacity) for c in range(k)}
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise BundleIntegrityError(f"{path}: not a readable CSV file ({exc})") from exc
    for lineno, row in enumerate(rows, start=2):
        where = f"{path}: line {lineno}"
        c = cell(row.get("cluster"), int, f"{where}: cluster", BundleIntegrityError)
        if c not in observations:
            raise BundleIntegrityError(f"{where}: cluster {c} outside 0..{k - 1}")
        tau1, tau2, utility = (cell(row.get(key), float, f"{where}: {key}", BundleIntegrityError)
                               for key in ("tau1", "tau2", "utility"))
        position = len(observations[c])
        index = cell(row.get("order_index"), int, f"{where}: order_index", BundleIntegrityError)
        if index != position:
            raise BundleIntegrityError(
                f"{where}: order_index {index} out of order; cluster {c} expects {position}")
        if position == capacity:
            raise BundleIntegrityError(
                f"{where}: cluster {c} holds more rows than observation_capacity {capacity}")
        with building(where, BundleIntegrityError):
            observations[c].append(ThresholdPair(tau1=tau1, tau2=tau2), utility)
    return observations


def load_bundle(bundle_dir: str | Path) -> RouterState:
    bundle_dir = Path(bundle_dir)
    error = BundleIntegrityError
    manifest_path = bundle_dir / "bundle_manifest.json"
    if not manifest_path.exists():
        raise error(f"{bundle_dir}: missing bundle_manifest.json")
    manifest = _json_file(manifest_path)
    if manifest.get("format") != _BUNDLE_FORMAT:
        raise error(f"{bundle_dir}: unknown bundle format")
    files = typed(manifest.get("files", {}), dict, f"{manifest_path}: files", error)
    for name in _BUNDLE_FILES:
        if name not in files:
            raise error(f"{manifest_path}: files does not list {name}")
    for name, expected in files.items():
        path = bundle_dir / name
        if not path.is_file():
            raise error(f"{bundle_dir}: missing bundle file {name}")
        actual = hashlib.sha256(path.read_bytes()).hexdigest()
        if actual != expected:
            raise error(f"{bundle_dir}: checksum mismatch for {name}")

    clusters = load_centroids(bundle_dir / "centroids.bin")
    state_path = bundle_dir / "state.json"
    state_obj = _json_file(state_path)

    def setting(key, default=MISSING):
        return typed(state_obj.get(key, default), int, f"{state_path}: {key}", error, 1)

    def section(cls, key):
        return read(cls, state_obj.get(key, MISSING), f"{state_path}: {key}", error=error)

    k = setting("k")
    if k != clusters.k:
        raise error(f"{state_path}: k={k}, but centroids.bin holds {clusters.k} centroids")
    thresholds_path = bundle_dir / "thresholds.json"
    thresholds_obj = _json_file(thresholds_path)
    if sorted(thresholds_obj) != sorted(map(str, range(k))):
        raise error(f"{thresholds_path}: keys must be the clusters 0..{k - 1}; "
                    f"got {sorted(thresholds_obj)}")
    state = RouterState(
        predictor=load_checkpoint(bundle_dir / "predictor.ckpt"),
        clusters=clusters,
        thresholds={c: read(ThresholdPair, thresholds_obj[str(c)], f"{thresholds_path}: {c}",
                            error=error) for c in range(k)},
        observations=_load_observations(bundle_dir / "observations.csv", k,
                                        setting("observation_capacity", 512)),
        weights=section(UtilityWeights, "weights"),
        bo_config=section(BoConfig, "bo_config"),
        cost_model=CostModel.read(state_obj.get("cost_model", MISSING),
                                  f"{state_path}: cost_model", error),
        cloud_baselines=section(CloudBaselines, "cloud_baselines"),
        update_interval=setting("update_interval"),
    )
    state.validate()
    expected = manifest.get("checksum")
    if expected is not None and state_checksum(state) != expected:
        raise error(f"{bundle_dir}: reconstructed state checksum mismatch")
    return state
