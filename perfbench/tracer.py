"""In-memory span and count recorder wrapped around tierroute's public functions.

Every public function of every tierroute module is replaced, in each module
namespace that holds it, by a wrapper that records a span (name, start, end,
parent). A module calls what it imported through its own globals, so
patching the names where callers look them up catches calls across modules
and within one module alike. Functions that run once per query get no span,
so the trace stays small and cheap. Nothing inside the program changes:
uninstall() puts every original back.

Spans and counts stay in memory until dump() writes them as JSON. The
recorder assumes one thread; the CLI's default path starts none.
"""

from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time
from pathlib import Path

# Called once per query row or more. A span each would dominate the trace,
# and even a counting wrapper costs about 0.5 us a call, which at a million
# calls is 4% of the static-100k call. query_latency is counted, for
# accounting.query_latency_calls; the others are left unwrapped, so their
# time is their caller's self time.
COUNT_ONLY = frozenset({"accounting.query_latency"})
UNWRAPPED = frozenset({
    "accounting.inference_cost", "network.round_trip_latency", "network.scenario_link",
    "router.routing_tier", "labels.aug_with_reference", "labels.aug_without_reference",
    "labels.fuse_label",
})


def _probe_load_trace(counts, args, kwargs, result):
    counts["trace.records"] = counts.get("trace.records", 0) + len(result)


def _probe_train(counts, args, kwargs, result):
    counts["mlp.epochs"] = counts.get("mlp.epochs", 0) + result[1].epochs_run


def _probe_elbow(counts, args, kwargs, result):
    counts["cluster.k_chosen"] = int(result)


def _probe_gp_fit(counts, args, kwargs, result):
    obs = args[0] if args else kwargs["obs"]
    points = obs.points
    counts["bayesopt.gp_points"] = counts.get("bayesopt.gp_points", 0) + len(points)
    distinct = len({(p.tau1, p.tau2) for p, _ in points})
    counts["bayesopt.gp_distinct"] = counts.get("bayesopt.gp_distinct", 0) + distinct


def _probe_refresh(counts, args, kwargs, result):
    incumbent = args[1] if len(args) > 1 else kwargs["incumbent"]
    changed = int(result != incumbent)
    counts["bayesopt.thresholds_changed"] = counts.get("bayesopt.thresholds_changed", 0) + changed


def _probe_report_files(counts, args, kwargs, result):
    size = sum(Path(p).stat().st_size for p in result)
    counts["router.report_bytes"] = counts.get("router.report_bytes", 0) + size


PROBES = {
    "trace.load_trace": _probe_load_trace,
    "mlp.train": _probe_train,
    "cluster.elbow_select_k": _probe_elbow,
    "bayesopt.gp_fit": _probe_gp_fit,
    "bayesopt.refresh_online": _probe_refresh,
    "router.write_report_files": _probe_report_files,
}


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Records spans as [name, start, end, parent index] and named counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn):
        name = _span_name(fn)
        probe = PROBES.get(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if name in COUNT_ONLY:
            calls = name + "_calls"

            def counted(*args, **kwargs):
                counts[calls] = counts.get(calls, 0) + 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result
        return spanned

    def install(self, package: str = "tierroute") -> None:
        root = importlib.import_module(package)
        modules = [root] + [importlib.import_module(f"{package}.{info.name}")
                            for info in pkgutil.iter_modules(root.__path__)]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or not value.__module__.startswith(package + ".")
                        or value.__name__.startswith("_")
                        or _span_name(value) in UNWRAPPED):
                    continue
                wrapper = wrappers.get(id(value))
                if wrapper is None:
                    wrapper = wrappers[id(value)] = self._wrap(value)
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path: Path, phase: str, offset: float = 0.0) -> None:
        """Write spans and counts as JSON, times shifted by ``offset`` seconds."""
        payload = {
            "phase": phase,
            "spans": [[n, s - offset, e - offset, p] for n, s, e, p in self.spans],
            "counts": self.counts,
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Analysis: self time and the per-layer metrics
# ---------------------------------------------------------------------------

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_times(spans: list[list]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".", 1)[0]
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def _percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# Metrics of the set-up phase, which ``setup_s`` times: trace writing always,
# and offline tuning where the set-up tunes the bundle (the stream workloads).
SETUP_METRICS = frozenset({"trace.save_s"})
OFFLINE_TUNING_METRICS = frozenset({
    "mlp.train_s", "mlp.epochs", "bayesopt.optimize_offline_s",
    "router.run_offline_phase_self_s", "router.save_bundle_s",
})


def workload_metrics(setup: dict, timed: dict, timed_tunes: bool) -> dict[str, float]:
    """Each per-layer metric from the phase whose end-to-end metric it moves:
    set-up metrics from the set-up, everything else from the timed phase
    alone, so set-up work never mixes into a throughput attribution."""
    from_setup = SETUP_METRICS if timed_tunes else SETUP_METRICS | OFFLINE_TUNING_METRICS
    setup_m, timed_m = layer_metrics(setup), layer_metrics(timed)
    return {name: (setup_m if name in from_setup else timed_m)[name] for name in timed_m}


def layer_metrics(phase: dict) -> dict[str, float]:
    """Per-layer metrics of one traced phase."""
    spans, counts = phase["spans"], phase["counts"]
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    own_by_name: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1
        own_by_name[name] = own_by_name.get(name, 0.0) + own
        durations.setdefault(name, []).append(end - start)
    layer_self = layer_self_times(spans)

    refresh_ms = [d * 1e3 for d in durations.get("bayesopt.refresh_online", [])]
    gp_calls = calls.get("bayesopt.gp_fit", 0)
    gp_points = counts.get("bayesopt.gp_points", 0)
    return {
        "trace.load_s": total.get("trace.load_trace", 0.0),
        "trace.records": counts.get("trace.records", 0),
        "trace.save_s": total.get("trace.save_trace", 0.0),
        "labels.build_s": total.get("labels.build_labels", 0.0),
        "mlp.train_s": total.get("mlp.train", 0.0),
        "mlp.epochs": counts.get("mlp.epochs", 0),
        "mlp.predict_s": total.get("mlp.predict_batch", 0.0),
        "cluster.elbow_s": total.get("cluster.elbow_select_k", 0.0),
        "cluster.kmeans_fit_s": total.get("cluster.kmeans_fit", 0.0),
        "cluster.kmeans_fit_calls": calls.get("cluster.kmeans_fit", 0),
        "cluster.k_chosen": counts.get("cluster.k_chosen", 0),
        "cluster.assign_s": total.get("cluster.assign_batch", 0.0),
        "bayesopt.optimize_offline_s": total.get("bayesopt.optimize_offline", 0.0),
        "bayesopt.refresh_online_s": total.get("bayesopt.refresh_online", 0.0),
        "bayesopt.refresh_calls": calls.get("bayesopt.refresh_online", 0),
        "bayesopt.refresh_p50_ms": _percentile(refresh_ms, 0.50),
        "bayesopt.refresh_p97_ms": _percentile(refresh_ms, 0.97),
        "bayesopt.gp_fit_s": total.get("bayesopt.gp_fit", 0.0),
        "bayesopt.gp_fit_calls": gp_calls,
        "bayesopt.gp_points_mean": gp_points / gp_calls if gp_calls else 0.0,
        "bayesopt.gp_distinct_ratio": (counts.get("bayesopt.gp_distinct", 0) / gp_points
                                       if gp_points else 0.0),
        "bayesopt.propose_s": total.get("bayesopt.propose_thresholds", 0.0),
        "bayesopt.thresholds_changed": counts.get("bayesopt.thresholds_changed", 0),
        "accounting.cloud_reference_means_s": total.get("accounting.cloud_reference_means", 0.0),
        "accounting.query_latency_calls": counts.get("accounting.query_latency_calls", 0),
        "router.run_stream_s": total.get("router.run_stream", 0.0),
        "router.run_stream_self_s": own_by_name.get("router.run_stream", 0.0),
        "router.write_report_files_s": total.get("router.write_report_files", 0.0),
        "router.report_bytes": counts.get("router.report_bytes", 0),
        "router.run_offline_phase_self_s": own_by_name.get("router.run_offline_phase", 0.0),
        "router.save_bundle_s": total.get("router.save_bundle", 0.0),
        "router.load_bundle_s": total.get("router.load_bundle", 0.0),
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.self_s": layer_self.get("cli", 0.0),
    }
