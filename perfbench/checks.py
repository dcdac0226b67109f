"""Output checks computed apart from tierroute's own code paths.

Everything here is recomputed from files: the trace (JSONL), the bundle
(state.json, thresholds.json, centroids.bin) and the stream outputs
(decisions, thresholds and report). Only the bundle-reload check calls into
tierroute, because reloading is what it checks.
"""

from __future__ import annotations

import csv
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TIER_LABELS = ("device", "edge", "cloud")

# The link profiles tierroute ships for its built-in network scenarios:
# (downlink_kbps, uplink_kbps, loss_rate, oneway_down_ms, oneway_up_ms, dns_ms).
GOOD_EDGE = (10_000, 5_000, 0.001, 40, 20, 50)
GOOD_CLOUD = (8_000, 4_000, 0.001, 80, 40, 70)
BAD_EDGE = (2_000, 500, 0.01, 120, 80, 200)
BAD_CLOUD = (800, 200, 0.03, 250, 200, 400)
SCENARIOS = {
    # name: (edge before, cloud before, edge after, cloud after)
    "good": (GOOD_EDGE, GOOD_CLOUD, GOOD_EDGE, GOOD_CLOUD),
    "bad": (BAD_EDGE, BAD_CLOUD, BAD_EDGE, BAD_CLOUD),
    "bad2good": (BAD_EDGE, BAD_CLOUD, GOOD_EDGE, GOOD_CLOUD),
}
# Published default activated parameters (billions) per tier.
PARAMS_B = np.array([1.7, 14.0, 32.0])
BYTES_PER_TOKEN = 4


@dataclass
class TraceColumns:
    ids: list[str]
    embedding_stride: int      # embeddings holds rows 0, stride, 2 * stride, ...
    embeddings: np.ndarray     # (ceil(n / stride), d)
    correct: np.ndarray        # (n, 3) float 0/1
    tokens: np.ndarray         # (n, 3) generated tokens
    compute_s: np.ndarray      # (n, 3)
    request_bytes: np.ndarray  # (n, 3)
    response_bytes: np.ndarray  # (n, 3)


# Parsing a float costs about as much in NumPy as in the JSON decoder, so the
# nearest-centroid check reads the embeddings of at most this many rows.
MAX_EMBEDDING_ROWS = 10_000


def read_trace(path: Path) -> TraceColumns:
    """Columns of a trace file, embeddings only for evenly spaced rows."""
    with path.open("rb") as fh:
        n = sum(1 for line in fh if line.strip()) - 1
    stride = max(1, -(-n // MAX_EMBEDDING_ROWS))
    ids, emb_text = [], []
    cols = {k: [] for k in ("correct", "tokens", "compute_s", "request_bytes", "response_bytes")}
    with path.open(encoding="utf-8") as fh:
        fh.readline()  # header
        for line in fh:
            if not line.strip():
                continue
            start = line.index('"embedding": [') + 14
            end = line.index("]", start)
            if len(ids) % stride == 0:
                emb_text.append(line[start:end])
            rec = json.loads(line[:start] + line[end:])
            ids.append(rec["id"])
            infos = [rec["tier_info"][label] for label in TIER_LABELS]
            for info in infos:
                if not isinstance(info.get("correct"), bool):
                    raise ValueError(f"record {ids[-1]}: correct bit is not a boolean")
            cols["correct"].append([float(i["correct"]) for i in infos])
            cols["tokens"].append([i["generated_tokens"] for i in infos])
            cols["compute_s"].append([i["compute_seconds"] for i in infos])
            cols["request_bytes"].append(
                [i.get("request_bytes", BYTES_PER_TOKEN * i.get("prompt_tokens", 0)) for i in infos])
            cols["response_bytes"].append(
                [i.get("response_bytes", BYTES_PER_TOKEN * i["generated_tokens"]) for i in infos])
    embeddings = np.array(",".join(emb_text).split(","), dtype=np.float64).reshape(len(emb_text), -1)
    return TraceColumns(ids=ids, embedding_stride=stride, embeddings=embeddings,
                        **{k: np.array(v, dtype=np.float64) for k, v in cols.items()})


def link_latency(profile: tuple, request_bytes: np.ndarray, response_bytes: np.ndarray) -> np.ndarray:
    down_kbps, up_kbps, loss, down_ms, up_ms, dns_ms = profile
    eff = 1.0 - loss
    return ((dns_ms + up_ms + down_ms) / 1000.0
            + request_bytes * 8.0 / (up_kbps * 1000.0 * eff)
            + response_bytes * 8.0 / (down_kbps * 1000.0 * eff))


def tier_latencies(tr: TraceColumns, scenario: str, switch_at: int,
                   windows: np.ndarray) -> np.ndarray:
    """(n, 3) simulated end-to-end latency of every query on every tier."""
    edge0, cloud0, edge1, cloud1 = SCENARIOS[scenario]
    after = windows >= switch_at if scenario == "bad2good" else np.zeros(len(windows), bool)
    lat = tr.compute_s.copy()
    for tier, (before_p, after_p) in ((1, (edge0, edge1)), (2, (cloud0, cloud1))):
        req, resp = tr.request_bytes[:, tier], tr.response_bytes[:, tier]
        net = np.where(after, link_latency(after_p, req, resp), link_latency(before_p, req, resp))
        lat[:, tier] += net
    return lat


def read_decisions(path: Path) -> dict[str, np.ndarray | list]:
    with path.open(encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = list(zip(*reader))
    col = dict(zip(header, columns))
    tier_of = {label: i for i, label in enumerate(TIER_LABELS)}
    return {
        "ids": list(col["query_id"]),
        "window": np.array(col["window"], dtype=np.int64),
        "cluster": np.array(col["cluster"], dtype=np.int64),
        "tier": np.array([tier_of[t] for t in col["tier"]]),
        **{key: np.array(col[key], dtype=np.float64)
           for key in ("score", "tau1", "tau2", "correct", "latency_s", "cost", "utility")},
    }


def read_centroids(path: Path) -> np.ndarray:
    raw = path.read_bytes()
    cut = raw.index(b"\n")
    header = json.loads(raw[:cut])
    return np.frombuffer(raw[cut + 1:], dtype="<f8").reshape(header["k"], header["dim"])


def _close(a, b, rel: float = 1e-9) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * np.maximum(1.0, np.abs(b))))


@dataclass
class Inputs:
    trace: Path            # the routed trace
    tuning_trace: Path     # the trace the bundle was tuned on (under "good")
    bundle: Path
    stream_dir: Path       # holds stream_decisions.csv, stream_thresholds.csv, stream_report.json
    scenario: str
    update_interval: int = 200
    switch_at: int = 7
    expected_k: int | None = None


def run_checks(inp: Inputs) -> tuple[dict[str, str | None], dict[str, float]]:
    """Return {check name: None if passed else the reason} and the quality metrics."""
    tr = read_trace(inp.trace)
    rows = read_decisions(inp.stream_dir / "stream_decisions.csv")
    state = json.loads((inp.bundle / "state.json").read_text(encoding="utf-8"))
    bundle_pairs = json.loads((inp.bundle / "thresholds.json").read_text(encoding="utf-8"))
    report = json.loads((inp.stream_dir / "stream_report.json").read_text(encoding="utf-8"))
    with (inp.stream_dir / "stream_thresholds.csv").open(encoding="utf-8", newline="") as fh:
        history = {(int(r["cluster"]), int(r["window"])): (float(r["tau1"]), float(r["tau2"]))
                   for r in csv.DictReader(fh)}

    n = len(tr.ids)
    windows = np.arange(n) // inp.update_interval
    lat3 = tier_latencies(tr, inp.scenario, inp.switch_at, windows)
    cost3 = tr.tokens * PARAMS_B
    w = state["weights"]
    base = state["cloud_baselines"]
    util3 = (w["lambda1"] * tr.correct - w["lambda2"] * lat3 / base["mean_latency_s"]
             - w["lambda3"] * cost3 / base["mean_cost"])
    idx = np.arange(n)
    tier = rows["tier"]

    def rows_match_trace():
        if rows["ids"] != tr.ids:
            return "decision rows do not follow the trace's record order"
        if not np.array_equal(rows["window"], windows):
            return "window column is not index // update_interval"
        if not np.array_equal(rows["correct"], tr.correct[idx, tier]):
            return "correct column differs from the trace's bit for the routed tier"

    def latency_cost():
        bad = ~np.isclose(rows["latency_s"], lat3[idx, tier], rtol=1e-9, atol=0)
        if bad.any():
            i = int(np.argmax(bad))
            return f"{bad.sum()} latencies differ; row {i}: {rows['latency_s'][i]!r} vs {lat3[i, tier[i]]!r}"
        bad = ~np.isclose(rows["cost"], cost3[idx, tier], rtol=1e-9, atol=0)
        if bad.any():
            return f"{bad.sum()} costs differ from params x tokens"

    def utility():
        tuning = read_trace(inp.tuning_trace)
        cloud_lat = tier_latencies(tuning, "good", inp.switch_at, np.zeros(len(tuning.ids), int))[:, 2]
        if not _close([base["mean_latency_s"], base["mean_cost"]],
                      [cloud_lat.mean(), (tuning.tokens[:, 2] * PARAMS_B[2]).mean()]):
            return "bundle cloud baselines are not the tuning trace's cloud means"
        bad = ~np.isclose(rows["utility"], util3[idx, tier], rtol=1e-9, atol=1e-12)
        if bad.any():
            return f"{bad.sum()} per-query utilities differ from the utility formula"

    def routing_rule():
        for k, pair in bundle_pairs.items():
            if history.get((int(k), 0)) != (pair["tau1"], pair["tau2"]):
                return f"cluster {k} does not start from the bundle's thresholds"
        in_force = np.array([history[(c, wi)] for c, wi in zip(rows["cluster"], rows["window"])])
        if not (np.array_equal(in_force[:, 0], rows["tau1"]) and np.array_equal(in_force[:, 1], rows["tau2"])):
            return "a row's thresholds are not the ones in force for its cluster and window"
        score = rows["score"]
        expect = np.where(score > rows["tau1"], 0, np.where(score > rows["tau2"], 1, 2))
        if not np.array_equal(expect, tier):
            return f"{int((expect != tier).sum())} tiers break the strict threshold rule"

    def nearest_centroid():
        centroids = read_centroids(inp.bundle / "centroids.bin")
        d2 = np.stack([((tr.embeddings - c) ** 2).sum(axis=1) for c in centroids], axis=1)
        if not np.array_equal(d2.argmin(axis=1), rows["cluster"][::tr.embedding_stride]):
            return "cluster column is not the nearest centroid"

    def report_totals():
        def stats(mask):
            t = tier[mask]
            return [int(mask.sum()), rows["correct"][mask].mean(), rows["latency_s"][mask].mean(),
                    rows["cost"][mask].mean(), rows["utility"][mask].mean()] + \
                   [float((t == i).mean()) for i in range(3)]

        def listed(obj):
            return [obj["count"], obj["accuracy"], obj["mean_latency_s"], obj["mean_cost"],
                    obj["mean_utility"]] + [obj["tier_fractions"][label] for label in TIER_LABELS]

        if not _close(listed(report["totals"]), stats(np.ones(n, bool)), rel=1e-12):
            return "report totals are not the means of the decision rows"
        for win in report["windows"]:
            if not _close(listed(win), stats(rows["window"] == win["index"]), rel=1e-12):
                return f"window {win['index']} stats are not the means of its rows"
        if len(report["windows"]) != int(windows[-1]) + 1:
            return "report does not list every window"

    def threshold_pairs():
        pairs = [(p["tau1"], p["tau2"]) for p in bundle_pairs.values()]
        pairs += list(history.values()) + list(zip(rows["tau1"], rows["tau2"]))
        bad = [p for p in pairs if not (0.0 <= p[1] < p[0] <= 1.0)]
        if bad:
            return f"{len(bad)} threshold pairs break 0 <= tau2 < tau1 <= 1, e.g. {bad[0]}"

    def beats_fixed_tiers():
        router_u = float(rows["utility"].mean())
        best = util3.mean(axis=0)
        if router_u < best.max():
            return f"router utility {router_u:.6f} < best fixed tier {best.max():.6f} ({best})"

    def bundle_reload():
        from tierroute.router import load_bundle
        loaded = load_bundle(inp.bundle)
        got = {str(k): {"tau1": p.tau1, "tau2": p.tau2} for k, p in loaded.thresholds.items()}
        if got != bundle_pairs or loaded.clusters.k != int(state["k"]):
            return "reloaded bundle differs from its files"

    def elbow_k():
        if int(state["k"]) != inp.expected_k:
            return f"elbow chose k={state['k']}, generator has {inp.expected_k} latent clusters"

    checks = [rows_match_trace, latency_cost, utility, routing_rule, nearest_centroid,
              report_totals, threshold_pairs, beats_fixed_tiers, bundle_reload]
    if inp.expected_k is not None:
        checks.append(elbow_k)
    outcome: dict[str, str | None] = {}
    for check in checks:
        try:
            outcome[check.__name__] = check()
        except Exception:  # a crashing check is a failed check, and the run goes on
            outcome[check.__name__] = traceback.format_exc(limit=2).strip().splitlines()[-1]

    accuracy = float(rows["correct"].mean())
    metrics = {
        "route_utility": float(rows["utility"].mean()),
        "quality_vs_cloud": accuracy / float(tr.correct[:, 2].mean()),
        "sim_latency_s": float(rows["latency_s"].mean()),
        "sim_cost": float(rows["cost"].mean()),
    }
    finite = all(math.isfinite(v) for v in metrics.values())
    outcome["finite_metrics"] = None if finite else "a quality metric is not finite"
    return outcome, metrics
