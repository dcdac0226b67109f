"""Command-line front end: reproducible experiments from config files and flags.

Config files use the same line-delimited convention as traces: one JSON object
per line, each carrying a ``section`` key (run, synthetic, labels, mlp,
cluster, bo, weights, cost, network, stream). Every value can be overridden on
the command line with ``--set section.key=JSON``. Each command writes a
manifest (resolved config, its hash, seed, package version) next to its
outputs; identical manifests produce byte-identical outputs.

Exit codes: 0 success, 1 internal error, 2 user/config error.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .accounting import CostModel, UtilityWeights
from .bayesopt import BoConfig, ThresholdPair
from .errors import ConfigError, TierRouteError, TraceValidationError
from .fields import MISSING, building, cell, read, typed
from .formats import write_json, write_json_lines, write_table
from .labels import ConsistencyLabels, LabelConfig, build_labels
from .mlp import MlpConfig, TrainReport, init_model, save_checkpoint, train
from .network import load_scenario, scenario_by_name
from .router import (
    Representation,
    baseline_route,
    fit_representation,
    load_bundle,
    run_stream,
    save_bundle,
    tune_thresholds,
    write_report_files,
)
from .trace import (
    TIERS,
    SyntheticConfig,
    Trace,
    concat_traces,
    generate_synthetic_trace,
    load_trace,
    save_trace,
)

OUTPUT_DIR_ENV = "TIERROUTE_OUT"

DEFAULT_CONFIG: dict = {
    "run": {"seed": 0, "output_dir": None, "trace": None},
    "synthetic": None,
    "labels": {"alpha": 0.5, "beta": 0.5},
    "mlp": {
        "hidden_dims": [64, 32], "activation": "relu", "learning_rate": 3e-3,
        "batch_size": 128, "max_epochs": 60, "early_stop_patience": 8,
        "validation_fraction": 0.1,
    },
    "cluster": {"k_min": 2, "k_max": 12, "fixed_k": None, "restarts": 5},
    "bo": {
        "offline_budget": 30, "online_steps_per_refresh": 2,
        "candidate_pool_size": 512, "seed_points": 8,
    },
    "weights": {"lambda1": 1.0, "lambda2": 0.2, "lambda3": 0.2},
    "cost": {"device": 1.7, "edge": 14.0, "cloud": 32.0},
    "network": {"scenario": "good", "switch_window": 7},
    "stream": {"update_interval": 200, "online": True},
}

# Where the synthetic section's defaults differ from SyntheticConfig's; a null
# seed means run.seed.
SYNTHETIC_DEFAULTS = {"n_queries": 2000, "embedding_dim": 32, "seed": None}


@dataclass(frozen=True)
class SyntheticDrift:
    """The synthetic section's own keys: the trace switches to the drift
    profile at this fraction of its queries."""

    drift_at: float | None = None
    drift_tier_accuracy_profile: tuple[tuple[float, float, float], ...] | None = None


# The keys each section may set: synthetic takes SyntheticConfig's fields and
# SyntheticDrift's; weights may give kappa1/kappa2 in place of the lambdas.
CONFIG_KEYS = {name: set(body or ()) for name, body in DEFAULT_CONFIG.items()}
CONFIG_KEYS["synthetic"] = {f.name for cls in (SyntheticConfig, SyntheticDrift)
                            for f in fields(cls)}
CONFIG_KEYS["weights"] |= {"kappa1", "kappa2"}


# ---------------------------------------------------------------------------
# Config loading and resolution
# ---------------------------------------------------------------------------

def load_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    sections: dict = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad JSON ({exc})") from exc
        if not isinstance(obj, dict) or "section" not in obj:
            raise ConfigError(f"{path}: line {lineno}: expected an object with a 'section' key")
        name = typed(obj.pop("section"), str, f"{path}: line {lineno}: section", ConfigError)
        sections.setdefault(name, {}).update(obj)
    return sections


def apply_overrides(config: dict, settings: list[str]) -> None:
    for item in settings:
        if "=" not in item:
            raise ConfigError(f"--set expects section.key=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        if "." not in key:
            raise ConfigError(f"--set key must look like section.key, got {key!r}")
        section, _, field = key.partition(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw  # bare strings allowed
        if config.get(section) is None:
            config[section] = {}
        config[section][field] = value


# The config key each flag sets, by its argparse name.
_FLAG_KEYS = {"seed": "run.seed", "trace": "run.trace", "out": "run.output_dir",
              "network": "network.scenario", "switch_window": "network.switch_window",
              "update_interval": "stream.update_interval"}


def _given_config(args: argparse.Namespace) -> dict:
    """The sections that the config file, then --set, then the flags give."""
    given = load_config_file(args.config) if getattr(args, "config", None) else {}
    apply_overrides(given, getattr(args, "set", None) or [])
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value not in (None, ""):
            section, _, name = key.partition(".")
            given.setdefault(section, {})[name] = value
    if getattr(args, "trace", None):
        given["synthetic"] = None  # explicit trace flag overrides a synthetic section
    return given


def resolve_config(args: argparse.Namespace, given: dict | None = None) -> dict:
    """DEFAULT_CONFIG under ``given`` (by default ``_given_config(args)``)."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    for name, body in (_given_config(args) if given is None else given).items():
        config[name] = None if body is None else {**(config.get(name) or {}), **body}
    for section, body in config.items():
        for key in body or ():
            if key not in CONFIG_KEYS.get(section, ()):
                raise ConfigError(f"unknown config key {section}.{key}")
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
    return config


def output_dir(config: dict) -> Path:
    out = _setting(config, "run.output_dir", str | None) or os.environ.get(OUTPUT_DIR_ENV)
    path = Path(out or "tierroute-out")
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_manifest(config: dict, command: str, outdir: Path) -> None:
    # The output location is not part of the experiment identity.
    scrubbed = copy.deepcopy(config)
    scrubbed["run"].pop("output_dir", None)
    canonical = json.dumps(scrubbed, sort_keys=True)
    write_json(outdir / "manifest.json", {
        "command": command,
        "config": json.loads(canonical),
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config["run"]["seed"],
        "tierroute_version": __version__,
    })


# ---------------------------------------------------------------------------
# Section materialization
# ---------------------------------------------------------------------------

def _setting(config: dict, key: str, hint=int, minimum: int | None = None):
    """The ``section.key`` value of the resolved config, typed by ``hint``."""
    section, _, name = key.partition(".")
    return typed(config[section][name], hint, key, ConfigError, minimum)


def synthetic_config(config: dict, seed: int, **given) -> SyntheticConfig:
    body = {**SYNTHETIC_DEFAULTS, **(config.get("synthetic") or {})}
    if body["seed"] is None:
        body["seed"] = seed
    cfg = read(SyntheticConfig, body, "synthetic", error=ConfigError, **given)
    with building("bad synthetic config", ConfigError):
        cfg.validate()
    return cfg


def resolve_trace(config: dict, seed: int) -> Trace:
    trace_path = _setting(config, "run.trace", str | None)
    has_synth = config.get("synthetic") is not None
    if trace_path and has_synth:
        raise ConfigError("provide either a trace path or a synthetic config, not both")
    if trace_path:
        path = Path(trace_path)
        if not path.exists():
            raise ConfigError(f"trace file not found: {path}")
        trace = load_trace(path)
        if len(trace) == 0:
            raise TraceValidationError(f"{path}: trace holds no records")
        return trace
    if has_synth:
        trace, _ = generate_synthetic_trace(synthetic_config(config, seed))
        return trace
    raise ConfigError("no trace: set run.trace or a synthetic section")


def label_config(config: dict) -> LabelConfig:
    return read(LabelConfig, config["labels"], "labels", error=ConfigError)


def mlp_config(config: dict, input_dim: int, seed: int) -> MlpConfig:
    return read(MlpConfig, config["mlp"], "mlp", error=ConfigError, input_dim=input_dim,
                seed=seed)


def bo_config(config: dict, seed: int) -> BoConfig:
    return read(BoConfig, config["bo"], "bo", error=ConfigError, seed=seed)


def utility_weights(config: dict) -> UtilityWeights:
    body = config["weights"]
    if "kappa1" in body or "kappa2" in body:
        kappas = [typed(body.get(key, MISSING), float, f"weights.{key}", ConfigError)
                  for key in ("kappa1", "kappa2")]
        with building("weights", ConfigError):
            return UtilityWeights.from_kappas(*kappas)
    return read(UtilityWeights, body, "weights", error=ConfigError)


def cost_model(config: dict) -> CostModel:
    return CostModel.read(config["cost"], "cost", ConfigError)


def update_interval(config: dict) -> int:
    return _setting(config, "stream.update_interval", minimum=1)


def network_scenario(config: dict):
    name = _setting(config, "network.scenario", str)
    switch_at = _setting(config, "network.switch_window")
    try:
        return scenario_by_name(name, switch_at=switch_at)
    except ValueError as exc:
        if Path(name).is_file():
            return load_scenario(name)
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if config.get("synthetic") is None:
        config["synthetic"] = {}
    seed = _setting(config, "run.seed", minimum=0)
    outdir = output_dir(config)

    drift = read(SyntheticDrift, config["synthetic"], "synthetic", error=ConfigError)
    cfg = synthetic_config(config, seed)
    trace, truth = generate_synthetic_trace(cfg)
    if drift.drift_at is not None:
        if drift.drift_tier_accuracy_profile is None:
            raise ConfigError("drift_at needs drift_tier_accuracy_profile")
        shifted, _ = generate_synthetic_trace(synthetic_config(
            config, seed, tier_accuracy_profile=drift.drift_tier_accuracy_profile))
        cut = round(drift.drift_at * len(trace))
        trace = concat_traces(trace.subset(slice(None, cut)), shifted.subset(slice(cut, None)))
        trace.metadata["drift_at_record"] = cut

    save_trace(trace, outdir / "trace.jsonl")
    truth_obj = {name: getattr(truth, name).tolist() for name in
                 ("cluster_of", "tier_probs", "consistency_edge", "consistency_cloud")}
    write_json_lines(outdir / "trace_truth.json", [truth_obj])  # one compact line
    write_manifest(config, "gen", outdir)
    print(f"wrote {outdir / 'trace.jsonl'} ({len(trace)} records)")
    return 0


def _train_parts(config: dict):
    seed = _setting(config, "run.seed", minimum=0)
    trace = resolve_trace(config, seed)
    labels = build_labels(trace, label_config(config))
    cfg = mlp_config(config, trace.embedding_dim, seed)
    model, report = train(init_model(cfg), trace.embeddings, labels.s_fused)
    return trace, labels, model, report


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    outdir = output_dir(config)
    _, labels, model, report = _train_parts(config)
    save_checkpoint(model, outdir / "predictor.ckpt")
    _write_labels_and_report(labels, report, outdir)
    write_table(outdir / "loss_curve.csv",
                dict(zip(("epoch", "train_mse", "val_mse"), zip(*report.loss_curve))))
    write_manifest(config, "train", outdir)
    print(f"trained predictor: epochs={report.epochs_run} "
          f"val_mse={report.final_val_mse:.6f} -> {outdir}")
    return 0


def _write_labels_and_report(labels: ConsistencyLabels, report: TrainReport,
                             outdir: Path) -> None:
    labels.to_csv(outdir / "labels.csv")
    report_obj = asdict(report)
    del report_obj["loss_curve"]  # a summary, without the per-epoch curve
    write_json(outdir / "train_report.json", report_obj)


def _offline_phase(config: dict) -> tuple[Trace, ConsistencyLabels, Representation, dict]:
    """Read the cluster and bo sections and fit the representation once. Returns the trace,
    its labels, the representation and ``tune_thresholds``' keywords but the weights."""
    seed = _setting(config, "run.seed", minimum=0)
    k_min, k_max, restarts = (_setting(config, f"cluster.{key}", minimum=1)
                              for key in ("k_min", "k_max", "restarts"))
    fixed_k = _setting(config, "cluster.fixed_k", int | None, minimum=1)
    tune_kw = dict(
        scenario=network_scenario(config),
        cost_model=cost_model(config),
        bo_config=bo_config(config, seed),
        seed_points=_setting(config, "bo.seed_points", minimum=1),
        update_interval=update_interval(config),
    )
    trace = resolve_trace(config, seed)
    n = len(trace)
    if fixed_k is None and not 2 <= k_min < min(k_max, n):
        raise ConfigError(f"cluster.k_min={k_min} and cluster.k_max={k_max} must satisfy "
                          f"2 <= k_min < k_max, with k_min below the trace's {n} queries")
    if fixed_k is not None and fixed_k > n:
        raise ConfigError(f"cluster.fixed_k={fixed_k} exceeds the trace's {n} queries")
    labels = build_labels(trace, label_config(config))
    rep = fit_representation(trace, labels,
                             mlp_config=mlp_config(config, trace.embedding_dim, seed),
                             k_min=k_min, k_max=k_max, restarts=restarts, fixed_k=fixed_k)
    return trace, labels, rep, tune_kw


def _kappa_grid(args: argparse.Namespace, default=()) -> list[tuple[float, UtilityWeights]]:
    """(kappa, weights) for each --kappa-grid value, or for ``default`` without one."""
    raw = getattr(args, "kappa_grid", None) or ""
    grid = [cell(v.strip(), float, "--kappa-grid value", ConfigError)
            for v in raw.split(",") if v.strip()]
    with building("--kappa-grid", ConfigError):
        return [(kappa, UtilityWeights.from_kappas(kappa, kappa)) for kappa in grid or default]


def cmd_tune(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    outdir = output_dir(config)
    runs = [(outdir / f"kappa_{kappa:g}", weights) for kappa, weights in _kappa_grid(args)]
    runs = runs or [(outdir, utility_weights(config))]
    trace, labels, rep, tune_kw = _offline_phase(config)
    for bundle_dir, weights in runs:
        state = tune_thresholds(rep, trace, weights=weights, **tune_kw)
        save_bundle(state, bundle_dir)
        _write_labels_and_report(labels, rep.train_report, bundle_dir)
        print(f"tuned {state.clusters.k} clusters -> {bundle_dir}")
    write_manifest(config, "tune", outdir)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    given = _given_config(args)
    config = resolve_config(args, given)
    outdir = output_dir(config)
    if not args.bundle:
        raise ConfigError("stream needs --bundle from a previous tune run")
    interval = update_interval(config)
    state = load_bundle(args.bundle)
    # --update-interval, --set or the config file overrides the bundle's interval.
    if "update_interval" in (given.get("stream") or {}):
        state.update_interval = interval
    else:  # the bundle's interval applies, and the manifest records it
        config["stream"]["update_interval"] = state.update_interval
    seed = _setting(config, "run.seed", minimum=0)
    stream_trace = resolve_trace(config, seed)
    scenario = network_scenario(config)
    online = _setting(config, "stream.online", bool)
    if getattr(args, "static", False):
        online = False
    if getattr(args, "online", False):
        online = True
    report = run_stream(state, stream_trace, scenario, online=online)
    write_report_files(report, outdir, prefix="stream")
    write_manifest(config, "stream", outdir)
    totals = report.totals
    print(f"{report.policy}: acc={totals.accuracy:.4f} "
          f"latency={totals.mean_latency_s:.3f}s cost={totals.mean_cost:.1f} "
          f"utility={totals.mean_utility:.4f}")
    return 0


def cmd_baseline(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    outdir = output_dir(config)
    seed = _setting(config, "run.seed", minimum=0)
    trace = resolve_trace(config, seed)
    scenario = network_scenario(config)
    policy = args.policy
    pair = None
    predictor = None
    if policy == "global_static":
        if args.tau1 is None or args.tau2 is None:
            raise ConfigError("global-static needs --tau1 and --tau2")
        with building("--tau1/--tau2", ConfigError):
            pair = ThresholdPair(tau1=args.tau1, tau2=args.tau2)
        if not args.bundle:
            raise ConfigError("global-static needs --bundle for the predictor")
        predictor = load_bundle(args.bundle).predictor
    report = baseline_route(policy, trace, scenario,
                            weights=utility_weights(config),
                            cost_model=cost_model(config),
                            pair=pair, predictor=predictor,
                            window_size=update_interval(config))
    write_report_files(report, outdir, prefix=f"baseline_{policy}")
    write_manifest(config, "baseline", outdir)
    totals = report.totals
    print(f"{policy}: acc={totals.accuracy:.4f} latency={totals.mean_latency_s:.3f}s "
          f"cost={totals.mean_cost:.1f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    outdir = output_dir(config)
    grid = _kappa_grid(args, (1.0, 2.0, 5.0, 10.0, 20.0))
    trace, _, rep, tune_kw = _offline_phase(config)
    policies = ["device_only", "edge_only", "cloud_only"]
    totals = [baseline_route(name, trace, tune_kw["scenario"], weights=UtilityWeights(),
                             cost_model=tune_kw["cost_model"],
                             window_size=tune_kw["update_interval"]).totals
              for name in policies]
    for kappa, weights in grid:
        state = tune_thresholds(rep, trace, weights=weights, **tune_kw)
        report = run_stream(state, trace, tune_kw["scenario"], online=False)
        policies.append("router_static")
        totals.append(report.totals)
        print(f"kappa={kappa:g}: acc={report.totals.accuracy:.4f} "
              f"cloud_frac={report.totals.tier_fractions['cloud']:.3f}")

    columns = {"policy": policies, "kappa": [""] * 3 + [f"{kappa:g}" for kappa, _ in grid],
               **{name: np.array([getattr(t, name) for t in totals])
                  for name in ("accuracy", "mean_latency_s", "mean_cost")}}
    # Normalized from device_only (0) to cloud_only (100), rows 0 and 2.
    for norm, name in (("norm_latency", "mean_latency_s"), ("norm_cost", "mean_cost"),
                       ("norm_score", "accuracy")):
        col = columns[name]
        span = col[2] - col[0]
        columns[norm] = 100.0 * (col - col[0]) / span if span != 0 else np.zeros(len(col))
    for tier in TIERS:
        columns[f"frac_{tier.label}"] = np.array([t.tier_fractions[tier.label] for t in totals])
    write_table(outdir / "pareto.csv", columns)
    write_manifest(config, "sweep", outdir)
    print(f"wrote {outdir / 'pareto.csv'} ({len(policies)} rows)")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierroute",
        description="Trace-driven consistency-aware query routing experiments.",
    )
    parser.add_argument("--version", action="version", version=f"tierroute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="line-delimited JSON config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=JSON",
                       help="override one config value (repeatable)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or ./tierroute-out)")
        p.add_argument("--trace", help="input trace file (instead of a synthetic section)")
        p.add_argument("--network",
                       help="network scenario: good, bad, bad2good, or a scenario file")
        p.add_argument("--switch-window", type=int, dest="switch_window",
                       help="window index where bad2good switches profiles")
        p.add_argument("--update-interval", type=int, dest="update_interval",
                       help="queries per window / refresh interval")

    p_gen = sub.add_parser("gen", help="generate a synthetic trace (plus ground truth)")
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen)

    p_train = sub.add_parser("train", help="build labels and train the consistency predictor")
    common(p_train)
    p_train.set_defaults(func=cmd_train)

    p_tune = sub.add_parser("tune", help="offline phase: predictor, clusters, thresholds")
    common(p_tune)
    p_tune.add_argument("--kappa-grid", help="comma-separated kappa values; one bundle each")
    p_tune.set_defaults(func=cmd_tune)

    p_stream = sub.add_parser("stream", help="route a stream with a tuned bundle")
    common(p_stream)
    p_stream.add_argument("--bundle", required=True, help="bundle directory from tune")
    mode = p_stream.add_mutually_exclusive_group()
    mode.add_argument("--online", action="store_true", help="refresh thresholds online")
    mode.add_argument("--static", action="store_true", help="keep offline thresholds fixed")
    p_stream.set_defaults(func=cmd_stream)

    p_base = sub.add_parser("baseline", help="fixed-policy baselines")
    common(p_base)
    p_base.add_argument("--policy", required=True,
                        choices=["dlm-only", "elm-only", "clm-only", "device-only",
                                 "edge-only", "cloud-only", "global-static"])
    p_base.add_argument("--tau1", type=float)
    p_base.add_argument("--tau2", type=float)
    p_base.add_argument("--bundle", help="bundle providing the predictor for global-static")
    p_base.set_defaults(func=cmd_baseline)

    p_sweep = sub.add_parser("sweep", help="kappa sweep with normalized Pareto CSV")
    common(p_sweep)
    p_sweep.add_argument("--kappa-grid", help="comma-separated kappa values")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


_POLICY_ALIASES = {
    "dlm_only": "device_only",
    "elm_only": "edge_only",
    "clm_only": "cloud_only",
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "policy", None):
        normalized = args.policy.replace("-", "_")
        args.policy = _POLICY_ALIASES.get(normalized, normalized)
    try:
        return args.func(args)
    except TierRouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
