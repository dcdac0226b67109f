"""Hierarchical threshold routing, offline threshold learning, and streaming
evaluation with optional online refresh, plus fixed-policy baselines.

The routing rule is strict: a predicted score above tau1 stays on the device,
above tau2 goes to the edge, otherwise to the cloud; a score exactly equal to a
threshold escalates to the stronger tier.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .accounting import (
    QWEN3_COST_MODEL,
    CloudBaselines,
    CostModel,
    UtilityWeights,
    cloud_reference_means,
    tier_cost,
    tier_latency,
    utility_matrix,
)
from .bayesopt import (
    DEFAULT_SEED_POINTS,
    OBSERVATION_CAPACITY,
    BoConfig,
    ObservationSet,
    ThresholdPair,
    optimize_offline,
    refresh_online,
)
from .cluster import (
    ClusterConfig,
    ClusterModel,
    assign_batch,
    elbow_select_k,
    fit_sweep,
    load_centroids,
    save_centroids,
)
from .errors import BundleIntegrityError, CorruptStateError, DimensionMismatchError
from .fields import MISSING, bad_value, building, cell, read, typed
from .formats import read_file, read_json, read_table, write_json, write_table, write_tables
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
from .trace import TIER_LABELS, TierId, Trace

# Counterfactual replay depth per cluster for the online refresh evaluator.
RECENT_REPLAY_DEPTH = 256
DEFAULT_UPDATE_INTERVAL = 200  # queries per window; an online stream refreshes after each

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
    update_interval: int

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
                       cluster: ClusterConfig = ClusterConfig()) -> Representation:
    """Train the predictor and cluster the embeddings: the ``fit_sweep`` model
    at the knee of its inertia curve."""
    if trace.ids != labels.ids:
        raise ValueError("labels do not cover the trace (record id mismatch)")

    embeddings = trace.embeddings
    predictor, train_report = train(init_model(mlp_config), embeddings, labels.s_fused)
    scores = predict_batch(predictor, embeddings)
    models = fit_sweep(embeddings, cluster, mlp_config.seed)
    clusters = models[elbow_select_k(models) - models[0].k]
    return Representation(predictor=predictor, train_report=train_report, scores=scores,
                          clusters=clusters, membership=assign_batch(clusters, embeddings))


def tune_thresholds(rep: Representation, trace: Trace, *,
                    scenario: NetworkScenario,
                    weights: UtilityWeights = UtilityWeights(),
                    cost_model: CostModel = QWEN3_COST_MODEL,
                    bo_config: BoConfig = BoConfig(),
                    seed_points: int = DEFAULT_SEED_POINTS,
                    update_interval: int = DEFAULT_UPDATE_INTERVAL) -> RouterState:
    """Learn each cluster's thresholds on the trace ``rep`` was fitted on."""
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
class StreamReport:
    """``decisions`` is the ``*_decisions.csv`` table as columns, one row per query
    in stream order, with tiers as TierId codes; a fixed policy's ``cluster``,
    ``score``, ``tau1`` and ``tau2`` are None. ``windows`` is the ``*_windows.csv``
    table, one row per window; ``totals`` is the same summary of the whole stream,
    without ``window``. ``thresholds[w, c]``: cluster c's (tau1, tau2) in window w;
    fixed policies have no c."""

    policy: str
    window_size: int
    windows: dict[str, np.ndarray]
    totals: dict[str, int | float]
    decisions: dict[str, np.ndarray | list | None]
    thresholds: np.ndarray


# The per-window means, each over one decisions column.
_MEANS = {"accuracy": "correct", "mean_latency_s": "latency_s", "mean_cost": "cost",
          "mean_utility": "utility"}


def _summary(d: dict, size: int) -> dict[str, np.ndarray]:
    """The ``*_windows.csv`` columns of ``d`` in windows of ``size`` rows: the
    count, ``np.mean`` of each column's slice, and each tier's share."""
    n, k = len(d["tier"]), len(TIER_LABELS)
    starts = range(0, n, size)
    count = np.minimum(size, n - np.array(starts))
    shares = np.bincount(np.arange(n) // size * k + d["tier"], minlength=len(starts) * k)
    return {"window": np.arange(len(starts)), "count": count,
            **{name: np.array([np.mean(d[column][s:s + size]) for s in starts])
               for name, column in _MEANS.items()},
            **{f"frac_{label}": shares[t::k] / count for t, label in enumerate(TIER_LABELS)}}


def _build_report(policy: str, window_size: int, trace: Trace, tier: np.ndarray,
                  outcomes: tuple[np.ndarray, ...], thresholds: np.ndarray | None = None, *,
                  cluster=None, score=None, tau1=None, tau2=None) -> StreamReport:
    """Pick each query's tier out of the (n, 3) outcome matrices and summarize
    every window, which is a contiguous slice of ``window_size`` queries."""
    n = len(trace)
    rows = np.arange(n)
    size = min(window_size, n)  # a window past the stream's end is the whole stream
    correct, lats, costs, utilities = (m[rows, tier] for m in outcomes)
    d = {"query_id": trace.ids, "window": rows // size, "cluster": cluster, "tier": tier,
         "score": score, "tau1": tau1, "tau2": tau2, "correct": correct.astype(np.int64),
         "latency_s": lats, "cost": costs, "utility": utilities}
    windows = _summary(d, size)
    totals = {name: column.item() for name, column in _summary(d, n).items() if name != "window"}
    return StreamReport(policy=policy, window_size=window_size, windows=windows, totals=totals,
                        decisions=d, thresholds=np.empty((len(windows["window"]), 0, 2))
                        if thresholds is None else thresholds)


def run_stream(state: RouterState, stream: Trace, scenario: NetworkScenario,
               online: bool) -> StreamReport:
    """Route a stream one window of ``update_interval`` queries at a time, score
    utilities, and (if online) log each window's utilities as observations and
    refresh after every full window the thresholds of the clusters that saw
    queries in it. A static stream leaves ``state`` unchanged."""
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
    windows = np.arange(n) // min(m, n)  # NumPy holds no int past int64
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
        thresholds[window] = [(state.thresholds[c].tau1, state.thresholds[c].tau2)
                              for c in range(k)]
        clusters = membership[rows]
        taus = thresholds[window, clusters]
        tier[rows] = route_tiers(scores[rows], taus[:, 0], taus[:, 1])
        if not online:
            continue
        routed = tier_utilities[np.arange(start, rows.stop), tier[rows]]
        active = np.unique(clusters).tolist()
        for c in active:
            state.observations[c].extend(state.thresholds[c], routed[clusters == c])
        if rows.stop - start < m:
            continue
        for c in active:
            # Counterfactual replay over the cluster's most recent queries.
            upto = np.searchsorted(members[c], rows.stop)
            replay = members[c][max(0, upto - RECENT_REPLAY_DEPTH):upto]
            evaluator = _make_evaluator(scores[replay], tier_utilities[replay])
            state.thresholds[c] = refresh_online(
                state.observations[c], state.thresholds[c], evaluator,
                state.bo_config, rng=refresh_rngs[c],
            )

    policy = "router_online" if online else "router_static"
    taus = thresholds[windows, membership]
    return _build_report(policy, m, stream, tier, outcomes, thresholds, cluster=membership,
                         score=scores, tau1=taus[:, 0], tau2=taus[:, 1])


# ---------------------------------------------------------------------------
# Fixed-policy baselines
# ---------------------------------------------------------------------------

def baseline_route(policy: str, trace: Trace, scenario: NetworkScenario, *,
                   weights: UtilityWeights = UtilityWeights(),
                   cost_model: CostModel = QWEN3_COST_MODEL,
                   pair: ThresholdPair | None = None,
                   predictor: MlpModel | None = None,
                   window_size: int = DEFAULT_UPDATE_INTERVAL) -> StreamReport:
    """Run the same accounting pipeline under a fixed policy.

    ``policy`` is one of device_only / edge_only / cloud_only / global_static;
    the global-static policy needs a threshold ``pair`` and a ``predictor``.
    """
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
                              np.arange(n) // min(window_size, n))
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

def _stats_object(row: dict) -> dict:
    """report.json's object for one row of the windows table, or for the totals
    (index -1)."""
    return {"index": row.get("window", -1), **{name: row[name] for name in ("count", *_MEANS)},
            "tier_fractions": {label: row[f"frac_{label}"] for label in TIER_LABELS}}


def write_report_files(report: StreamReport, outdir: str | Path, prefix: str = "stream") -> list[Path]:
    """Write report.json plus per-window, threshold-history, and decision CSVs."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = [outdir / f"{prefix}_{name}" for name in
             ("report.json", "windows.csv", "thresholds.csv", "decisions.csv", "utilities.csv")]
    n_windows, k, _ = report.thresholds.shape
    by_cluster = report.thresholds.transpose(1, 0, 2)
    windows = {name: column.tolist() for name, column in report.windows.items()}
    write_json(paths[0], {
        "policy": report.policy,
        "window_size": report.window_size,
        "latency_model": LATENCY_MODEL_NOTE,
        "totals": _stats_object(report.totals),
        "windows": [_stats_object(dict(zip(windows, row))) for row in zip(*windows.values())],
        "threshold_history": {str(c): [{"window": w, "tau1": t1, "tau2": t2}
                                       for w, (t1, t2) in enumerate(pairs)]
                              for c, pairs in enumerate(by_cluster.tolist())},
    })
    write_table(paths[1], report.windows)
    write_table(paths[2], {"cluster": np.repeat(np.arange(k), n_windows),
                           "window": np.tile(np.arange(n_windows), k),
                           "tau1": by_cluster[..., 0].ravel(), "tau2": by_cluster[..., 1].ravel()})

    d = report.decisions
    labels = [TIER_LABELS[t] for t in d["tier"].tolist()]
    write_tables({**d, "tier": labels}, {paths[3]: tuple(d), paths[4]: (
        "query_id", "cluster", "tier", "correct", "latency_s", "cost", "utility")})
    return paths


# ---------------------------------------------------------------------------
# Router bundle IO and checksums
# ---------------------------------------------------------------------------

_BUNDLE_FORMAT = "tierroute-bundle-v1"
# The files save_bundle writes, each hashed in the manifest; load_bundle requires them all.
_BUNDLE_FILES = ("predictor.ckpt", "centroids.bin", "thresholds.json", "observations.csv",
                 "state.json")
# observations.csv's columns, in order; save_bundle writes them and _load_observations reads them.
_OBSERVATION_COLUMNS = ("cluster", "tau1", "tau2", "utility", "order_index")


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
    write_table(outdir / "observations.csv", dict(zip(_OBSERVATION_COLUMNS, (
        np.repeat(sorted(state.observations), [len(o) for o in sets]), pairs[:, 0], pairs[:, 1],
        np.concatenate([o.utilities for o in sets]),
        np.concatenate([np.arange(len(o)) for o in sets])))))
    write_json(outdir / "state.json", {
        "format": _BUNDLE_FORMAT,
        "weights": asdict(state.weights),
        "bo_config": asdict(state.bo_config),
        "cost_model": asdict(state.cost_model),
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


def _load_observations(path: Path, k: int, capacity: int) -> dict[int, ObservationSet]:
    observations = {c: ObservationSet(capacity=capacity) for c in range(k)}
    error = BundleIntegrityError
    for where, cells in read_table(path, ",".join(_OBSERVATION_COLUMNS), error):
        c = cell(cells[0], int, f"{where}: cluster", error)
        if c not in observations:
            raise error(f"{where}: cluster {c} outside 0..{k - 1}")
        tau1, tau2, utility = (cell(text, float, f"{where}: {key}", error)
                               for text, key in zip(cells[1:4], _OBSERVATION_COLUMNS[1:4]))
        position = len(observations[c])
        index = cell(cells[4], int, f"{where}: order_index", error)
        if index != position:
            raise error(f"{where}: order_index {index} out of order; cluster {c} expects {position}")
        if position == capacity:
            raise error(f"{where}: cluster {c} holds more rows than observation_capacity {capacity}")
        with building(where, error):
            observations[c].append(ThresholdPair(tau1=tau1, tau2=tau2), utility)
    return observations


def load_bundle(bundle_dir: str | Path) -> RouterState:
    bundle_dir = Path(bundle_dir)
    error = BundleIntegrityError
    manifest_path = bundle_dir / "bundle_manifest.json"
    if not manifest_path.exists():
        raise error(f"{bundle_dir}: missing bundle_manifest.json")
    manifest = read_json(manifest_path, error)
    if manifest.get("format") != _BUNDLE_FORMAT:
        raise bad_value(f"{manifest_path}: format", manifest.get("format", MISSING),
                        repr(_BUNDLE_FORMAT), error)
    files = typed(manifest.get("files", {}), dict, f"{manifest_path}: files", error)
    for name in _BUNDLE_FILES:  # other entries are ignored, like other unknown keys
        if name not in files:
            raise error(f"{manifest_path}: files does not list {name}")
        if hashlib.sha256(read_file(bundle_dir / name, error)).hexdigest() != files[name]:
            raise error(f"{bundle_dir}: checksum mismatch for {name}")

    clusters = load_centroids(bundle_dir / "centroids.bin")
    state_path = bundle_dir / "state.json"
    state_obj = read_json(state_path, error)

    def setting(key, default=MISSING):
        return typed(state_obj.get(key, default), int, f"{state_path}: {key}", error, 1)

    def section(cls, key):
        return read(cls, state_obj.get(key, MISSING), f"{state_path}: {key}", error=error)

    k = setting("k")
    if k != clusters.k:
        raise error(f"{state_path}: k={k}, but centroids.bin holds {clusters.k} centroids")
    thresholds_path = bundle_dir / "thresholds.json"
    thresholds_obj = read_json(thresholds_path, error)
    if sorted(thresholds_obj) != sorted(map(str, range(k))):
        raise error(f"{thresholds_path}: keys must be the clusters 0..{k - 1}; "
                    f"got {sorted(thresholds_obj)}")
    capacity = setting("observation_capacity", OBSERVATION_CAPACITY)
    bo_config = section(BoConfig, "bo_config")
    bo_config.check_capacity(capacity, where=f"{state_path}: bo_config.")
    state = RouterState(
        predictor=load_checkpoint(bundle_dir / "predictor.ckpt"),
        clusters=clusters,
        thresholds={c: read(ThresholdPair, thresholds_obj[str(c)], f"{thresholds_path}: {c}",
                            error=error) for c in range(k)},
        observations=_load_observations(bundle_dir / "observations.csv", k, capacity),
        weights=section(UtilityWeights, "weights"),
        bo_config=bo_config,
        cost_model=section(CostModel, "cost_model"),
        cloud_baselines=section(CloudBaselines, "cloud_baselines"),
        update_interval=setting("update_interval"),
    )
    state.validate()
    expected = manifest.get("checksum")
    if expected is not None and state_checksum(state) != expected:
        raise error(f"{bundle_dir}: reconstructed state checksum mismatch")
    return state
