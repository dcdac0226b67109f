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
from contextlib import contextmanager
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .accounting import QWEN3_COST_MODEL, CostModel, UtilityWeights
from .bayesopt import DEFAULT_SEED_POINTS, OBSERVATION_CAPACITY, BoConfig, ThresholdPair
from .cluster import ClusterConfig
from .errors import ConfigError, MissingScoreError, TierRouteError, TraceValidationError
from .fields import MISSING, building, cell, read, typed
from .formats import json_text, read_json_lines, write_json, write_json_lines, write_table
from .labels import ConsistencyLabels, LabelConfig, build_labels
from .mlp import MlpConfig, TrainReport, init_model, save_checkpoint, train
from .network import DEFAULT_SWITCH_WINDOW, load_scenario, scenario_by_name
from .router import (
    DEFAULT_UPDATE_INTERVAL,
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
    TIER_LABELS,
    GroundTruth,
    SyntheticConfig,
    Trace,
    generate_synthetic_trace,
    load_trace,
    save_trace,
)

OUTPUT_DIR_ENV = "TIERROUTE_OUT"


def _defaults(cls, *set_by_program: str) -> dict:
    """``cls``'s field defaults as JSON, without the fields the program sets."""
    return {f.name: list(f.default) if type(f.default) is tuple else f.default
            for f in fields(cls) if f.name not in set_by_program}


DEFAULT_CONFIG: dict = {
    "run": {"seed": 0, "output_dir": None, "trace": None},
    "synthetic": None,
    "labels": _defaults(LabelConfig),
    "mlp": _defaults(MlpConfig, "input_dim", "seed"),
    "cluster": _defaults(ClusterConfig),
    "bo": {**_defaults(BoConfig, "seed"), "seed_points": DEFAULT_SEED_POINTS},
    "weights": _defaults(UtilityWeights),
    "cost": asdict(QWEN3_COST_MODEL),
    "network": {"scenario": "good", "switch_window": DEFAULT_SWITCH_WINDOW},
    "stream": {"update_interval": DEFAULT_UPDATE_INTERVAL, "online": True},
}

# The keys each section may set: synthetic takes SyntheticConfig's fields;
# weights may give kappa1/kappa2 in place of the lambdas.
CONFIG_KEYS = {name: set(body or ()) for name, body in DEFAULT_CONFIG.items()}
CONFIG_KEYS["synthetic"] = {f.name for f in fields(SyntheticConfig)}
CONFIG_KEYS["weights"] |= {"kappa1", "kappa2"}


# ---------------------------------------------------------------------------
# Config loading and resolution
# ---------------------------------------------------------------------------

def load_config_file(path: str | Path) -> dict:
    sections: dict = {}
    for where, obj in read_json_lines(path, ConfigError):
        if "section" not in obj:
            raise ConfigError(f"{where}: expected an object with a 'section' key")
        name = typed(obj.pop("section"), str, f"{where}: section", ConfigError)
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
        except RecursionError as exc:
            raise ConfigError(f"--set {key}: value nested too deep to decode") from exc
        if config.get(section) is None:
            config[section] = {}
        config[section][field] = value


# The config key each flag sets, by its argparse name.
_FLAG_KEYS = {"seed": "run.seed", "trace": "run.trace", "out": "run.output_dir",
              "network": "network.scenario", "switch_window": "network.switch_window",
              "update_interval": "stream.update_interval", "online": "stream.online"}


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


def resolve_config(given: dict) -> dict:
    """DEFAULT_CONFIG under ``given``, the sections ``_given_config`` returns."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    for name, body in given.items():
        config[name] = None if body is None else {**(config.get(name) or {}), **body}
    for section, body in config.items():
        for key in body or ():
            if key not in CONFIG_KEYS.get(section, ()):
                raise ConfigError(f"unknown config key {section}.{key}")
        if section not in CONFIG_KEYS:
            raise ConfigError(f"unknown config section {section!r}")
    return config


def output_dir(config: dict) -> Path:
    out = _setting(config, "run.output_dir", str | None)
    env = os.environ.get(OUTPUT_DIR_ENV)
    name = f"${OUTPUT_DIR_ENV}" if env and not out else "run.output_dir"
    path = Path(out or env or "tierroute-out")
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file at the path or above it
        raise ConfigError(f"{name} {str(path)!r}: cannot make the directory "
                          f"({exc.strerror})") from exc
    return path


# The command flags that set no config key; a manifest records each that the
# command's parser defines, null where it is not given.
_ARG_FLAGS = ("bundle", "policy", "tau1", "tau2", "kappa_grid")


def _finite(value, name: str) -> None:
    """Refuse a non-finite float anywhere in a config value, which JSON cannot hold."""
    if type(value) is float:
        typed(value, float, name, ConfigError)
    elif type(value) is dict:
        for key, item in value.items():
            _finite(item, f"{name}.{key}" if name else key)
    elif type(value) is list:
        for i, item in enumerate(value):
            _finite(item, f"{name}[{i}]")


def manifest(config: dict, args: argparse.Namespace) -> dict:
    """A run's manifest.json, checked to encode from the stack depth of a
    ``write_json`` call beside this one. It records the config without the
    output location, which is not part of the experiment identity."""
    scrubbed = {**config, "run": {k: v for k, v in config["run"].items() if k != "output_dir"}}
    flags = {name: getattr(args, name) for name in _ARG_FLAGS if hasattr(args, name)}
    for name in ("tau1", "tau2"):
        typed(flags.get(name), float | None, f"--{name}", ConfigError)
    try:  # a value that json could decode may still nest too deep to encode here
        _finite(scrubbed, "")
        canonical = json.dumps(scrubbed, sort_keys=True)
        obj = {
            **({"args": flags} if flags else {}),
            "command": args.command,
            "config": scrubbed,
            "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "seed": config["run"]["seed"],
            "tierroute_version": __version__,
        }
        json_text(obj)
    except RecursionError as exc:
        raise ConfigError("the config nests too deep to record in manifest.json") from exc
    return obj


# ---------------------------------------------------------------------------
# Section materialization
# ---------------------------------------------------------------------------

def _setting(config: dict, key: str, hint=int, minimum: int | None = None):
    """The ``section.key`` value of the resolved config, typed by ``hint``."""
    section, _, name = key.partition(".")
    return typed(config[section][name], hint, key, ConfigError, minimum)


def synthetic_config(config: dict, seed: int) -> SyntheticConfig:
    body = config.get("synthetic") or {}
    if body.get("seed") is None:  # a null or absent seed means run.seed
        body = {**body, "seed": seed}
    return read(SyntheticConfig, body, "synthetic", error=ConfigError)


def synthetic_trace(config: dict, seed: int) -> tuple[Trace, GroundTruth]:
    """The synthetic section's trace; the generator checks the section before
    it uses a value, and a value it refuses is a ConfigError."""
    cfg = synthetic_config(config, seed)
    with building("bad synthetic config", ConfigError):
        return generate_synthetic_trace(cfg)


def resolve_trace(config: dict, seed: int) -> Trace:
    trace_path = _setting(config, "run.trace", str | None)
    has_synth = config.get("synthetic") is not None
    if trace_path and has_synth:
        raise ConfigError("run.trace and a synthetic section both give a trace; set one")
    if trace_path:
        trace = load_trace(trace_path)
        if len(trace) == 0:
            raise TraceValidationError(f"{trace_path}: trace holds no records")
        return trace
    if has_synth:
        return synthetic_trace(config, seed)[0]
    raise ConfigError("no trace: set run.trace or a synthetic section")


def read_section(config: dict, cls, name: str, **given):
    """The dataclass ``cls`` from the resolved config's ``name`` section and ``given``."""
    return read(cls, config[name], name, error=ConfigError, **given)


def mlp_config(config: dict, input_dim: int, seed: int) -> MlpConfig:
    cfg = read_section(config, MlpConfig, "mlp", input_dim=input_dim, seed=seed)
    with building("mlp", ConfigError):  # a model too large to allocate
        init_model(cfg)
    return cfg


def utility_weights(config: dict) -> UtilityWeights:
    body = config["weights"]
    if "kappa1" in body or "kappa2" in body:
        kappas = [typed(body.get(key, MISSING), float, f"weights.{key}", ConfigError)
                  for key in ("kappa1", "kappa2")]
        with building("weights", ConfigError):
            return UtilityWeights.from_kappas(*kappas)
    return read_section(config, UtilityWeights, "weights")


def network_scenario(config: dict):
    name = _setting(config, "network.scenario", str)
    switch_at = _setting(config, "network.switch_window", minimum=0)
    try:
        return scenario_by_name(name, switch_at=switch_at)
    except ValueError as exc:
        if Path(name).is_file():
            return load_scenario(name)
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace, config: dict, outdir: Path) -> None:
    config["synthetic"] = config.get("synthetic") or {}
    trace, truth = synthetic_trace(config, _setting(config, "run.seed", minimum=0))
    truth_obj = {name: value.tolist() for name, value in vars(truth).items()
                 if value is not None}
    save_trace(trace, outdir / "trace.jsonl")
    write_json_lines(outdir / "trace_truth.json", [truth_obj])  # one compact line
    print(f"wrote {outdir / 'trace.jsonl'} ({len(trace)} records)")


def _train_parts(config: dict):
    seed = _setting(config, "run.seed", minimum=0)
    trace = resolve_trace(config, seed)
    labels = build_labels(trace, read_section(config, LabelConfig, "labels"))
    cfg = mlp_config(config, trace.embedding_dim, seed)
    model, report = train(init_model(cfg), trace.embeddings, labels.s_fused)
    return trace, labels, model, report


def cmd_train(args: argparse.Namespace, config: dict, outdir: Path) -> None:
    _, labels, model, report = _train_parts(config)
    save_checkpoint(model, outdir / "predictor.ckpt")
    _write_labels_and_report(labels, report, outdir)
    write_table(outdir / "loss_curve.csv",
                dict(zip(("epoch", "train_mse", "val_mse"), zip(*report.loss_curve))))
    print(f"trained predictor: epochs={report.epochs_run} "
          f"val_mse={report.final_val_mse:.6f} -> {outdir}")


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
    cluster = read_section(config, ClusterConfig, "cluster")
    tune_kw = dict(
        scenario=network_scenario(config),
        cost_model=read_section(config, CostModel, "cost"),
        bo_config=read_section(config, BoConfig, "bo", seed=seed),
        seed_points=_setting(config, "bo.seed_points", minimum=1),
        update_interval=_setting(config, "stream.update_interval", minimum=1),
    )
    # Checked before any fitting, which a budget past the capacity would waste.
    tune_kw["bo_config"].check_capacity(OBSERVATION_CAPACITY, tune_kw["seed_points"], "bo.")
    trace = resolve_trace(config, seed)
    cluster.k_range(len(trace), "cluster.", ConfigError)  # also checked before any fitting
    labels = build_labels(trace, read_section(config, LabelConfig, "labels"))
    rep = fit_representation(trace, labels, cluster=cluster,
                             mlp_config=mlp_config(config, trace.embedding_dim, seed))
    return trace, labels, rep, tune_kw


def _kappa_grid(args: argparse.Namespace, default=()) -> list[tuple[float, UtilityWeights]]:
    """(kappa, weights) for each --kappa-grid value, or for ``default`` without one.
    Two values may not print alike, since the text names a bundle or a row."""
    raw = getattr(args, "kappa_grid", None) or ""
    texts = [v.strip() for v in raw.split(",") if v.strip()]
    grid = [cell(text, float, "--kappa-grid value", ConfigError) for text in texts]
    names = [f"{kappa:g}" for kappa in grid]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"--kappa-grid values {texts[names.index(name)]!r} and "
                              f"{texts[i]!r} both print as {name}")
    with building("--kappa-grid", ConfigError):
        return [(kappa, UtilityWeights.from_kappas(kappa, kappa)) for kappa in grid or default]


def cmd_tune(args: argparse.Namespace, config: dict, outdir: Path) -> None:
    runs = [(f"--kappa-grid value {kappa:g}: ", outdir / f"kappa_{kappa:g}", weights)
            for kappa, weights in _kappa_grid(args)]
    runs = runs or [("", outdir, utility_weights(config))]
    trace, labels, rep, tune_kw = _offline_phase(config)
    # Every weight is tuned before any bundle is saved, so a refused one leaves no file.
    states = []
    for where, _, weights in runs:
        try:
            states.append(tune_thresholds(rep, trace, weights=weights, **tune_kw))
        except ConfigError as exc:
            raise ConfigError(f"{where}{exc}") from None
    for (_, bundle_dir, _), state in zip(runs, states):
        save_bundle(state, bundle_dir)
        _write_labels_and_report(labels, rep.train_report, bundle_dir)
        print(f"tuned {state.clusters.k} clusters -> {bundle_dir}")


def cmd_stream(args: argparse.Namespace, config: dict, outdir: Path) -> None:
    interval = _setting(config, "stream.update_interval", minimum=1)
    state = load_bundle(args.bundle)
    # --update-interval, --set or the config file overrides the bundle's interval.
    if args.update_interval_given:
        state.update_interval = interval
    else:  # the bundle's interval applies, and the manifest records it
        config["stream"]["update_interval"] = state.update_interval
    seed = _setting(config, "run.seed", minimum=0)
    stream_trace = resolve_trace(config, seed)
    scenario = network_scenario(config)
    online = _setting(config, "stream.online", bool)
    try:
        report = run_stream(state, stream_trace, scenario, online=online)
    except ConfigError as exc:  # the bundle's BO pool too large to draw
        raise ConfigError(f"{Path(args.bundle) / 'state.json'}: bo_config.{exc}") from None
    write_report_files(report, outdir, prefix="stream")
    totals = report.totals
    print(f"{report.policy}: acc={totals['accuracy']:.4f} "
          f"latency={totals['mean_latency_s']:.3f}s cost={totals['mean_cost']:.1f} "
          f"utility={totals['mean_utility']:.4f}")


def cmd_baseline(args: argparse.Namespace, config: dict, outdir: Path) -> None:
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
                            cost_model=read_section(config, CostModel, "cost"),
                            pair=pair, predictor=predictor,
                            window_size=_setting(config, "stream.update_interval", minimum=1))
    write_report_files(report, outdir, prefix=f"baseline_{policy}")
    totals = report.totals
    print(f"{policy}: acc={totals['accuracy']:.4f} latency={totals['mean_latency_s']:.3f}s "
          f"cost={totals['mean_cost']:.1f}")


def cmd_sweep(args: argparse.Namespace, config: dict, outdir: Path) -> None:
    grid = _kappa_grid(args, (1.0, 2.0, 5.0, 10.0, 20.0))
    trace, _, rep, tune_kw = _offline_phase(config)
    policies = ["device_only", "edge_only", "cloud_only"]
    totals = [baseline_route(name, trace, tune_kw["scenario"], cost_model=tune_kw["cost_model"],
                             window_size=tune_kw["update_interval"]).totals
              for name in policies]
    for kappa, weights in grid:
        state = tune_thresholds(rep, trace, weights=weights, **tune_kw)
        report = run_stream(state, trace, tune_kw["scenario"], online=False)
        policies.append("router_static")
        totals.append(report.totals)
        print(f"kappa={kappa:g}: acc={report.totals['accuracy']:.4f} "
              f"cloud_frac={report.totals['frac_cloud']:.3f}")

    columns = {"policy": policies, "kappa": [""] * 3 + [f"{kappa:g}" for kappa, _ in grid],
               **{name: np.array([t[name] for t in totals])
                  for name in ("accuracy", "mean_latency_s", "mean_cost")}}
    # Normalized from device_only (0) to cloud_only (100), rows 0 and 2.
    for norm, name in (("norm_latency", "mean_latency_s"), ("norm_cost", "mean_cost"),
                       ("norm_score", "accuracy")):
        col = columns[name]
        span = col[2] - col[0]
        columns[norm] = 100.0 * (col - col[0]) / span if span != 0 else np.zeros(len(col))
    for label in TIER_LABELS:
        columns[f"frac_{label}"] = np.array([t[f"frac_{label}"] for t in totals])
    write_table(outdir / "pareto.csv", columns)
    print(f"wrote {outdir / 'pareto.csv'} ({len(policies)} rows)")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Each --policy value and the baseline policy it runs.
_POLICIES = {"dlm-only": "device_only", "elm-only": "edge_only", "clm-only": "cloud_only",
             "device-only": "device_only", "edge-only": "edge_only", "cloud-only": "cloud_only",
             "global-static": "global_static"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tierroute",
        description="Trace-driven consistency-aware query routing experiments.",
    )
    parser.add_argument("--version", action="version", version=f"tierroute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help_text: str, reads_trace: bool = True):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", help="line-delimited JSON config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=JSON",
                       help="override one config value (repeatable)")
        p.add_argument("--seed", type=int, help="override run.seed")
        p.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or ./tierroute-out)")
        if reads_trace:
            p.add_argument("--trace", help="input trace file (instead of a synthetic section)")
        p.add_argument("--network",
                       help="network scenario: good, bad, bad2good, or a scenario file")
        p.add_argument("--switch-window", type=int, dest="switch_window",
                       help="window index where bad2good switches profiles")
        p.add_argument("--update-interval", type=int, dest="update_interval",
                       help="queries per window / refresh interval")
        return p

    # gen writes a trace and reads none.
    command("gen", cmd_gen, "generate a synthetic trace (plus ground truth)", reads_trace=False)
    command("train", cmd_train, "build labels and train the consistency predictor")

    p_tune = command("tune", cmd_tune, "offline phase: predictor, clusters, thresholds")
    p_tune.add_argument("--kappa-grid", help="comma-separated kappa values; one bundle each")

    p_stream = command("stream", cmd_stream, "route a stream with a tuned bundle")
    p_stream.add_argument("--bundle", required=True, help="bundle directory from tune")
    mode = p_stream.add_mutually_exclusive_group()
    mode.add_argument("--online", action="store_const", const=True,
                      help="refresh thresholds online")
    mode.add_argument("--static", action="store_const", const=False, dest="online",
                      help="keep offline thresholds fixed")

    p_base = command("baseline", cmd_baseline, "fixed-policy baselines")
    p_base.add_argument("--policy", required=True, choices=_POLICIES)
    p_base.add_argument("--tau1", type=float)
    p_base.add_argument("--tau2", type=float)
    p_base.add_argument("--bundle", help="bundle providing the predictor for global-static")

    p_sweep = command("sweep", cmd_sweep, "kappa sweep with normalized Pareto CSV")
    p_sweep.add_argument("--kappa-grid", help="comma-separated kappa values")

    return parser


@contextmanager
def _trace_named(config: dict):
    """Begin an error about a record of the run.trace file with the file's path."""
    try:
        yield
    except (MissingScoreError, TraceValidationError) as exc:
        path = config["run"]["trace"]
        if not path or not str(exc).startswith("record "):
            raise
        raise type(exc)(f"{path}: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    """Resolve the command's config and check that its manifest can be made,
    make its output directory, run it, then write its manifest; a
    TierRouteError exits 2, any other exception 1."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "policy", None):
        args.policy = _POLICIES[args.policy]
    try:
        given = _given_config(args)
        # stream keeps its bundle's update interval unless one is given.
        args.update_interval_given = "update_interval" in (given.get("stream") or {})
        config = resolve_config(given)
        # A command edits the config only at its top two levels, so a config
        # that encodes here, from the same stack depth, encodes after it too:
        # one the manifest cannot hold is refused before any output.
        manifest(config, args)
        outdir = output_dir(config)
        with _trace_named(config):
            args.func(args, config, outdir)
        write_json(outdir / "manifest.json", manifest(config, args))
        return 0
    except TierRouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
