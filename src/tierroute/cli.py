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
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .accounting import CostModel, UtilityWeights
from .bayesopt import BoConfig, ThresholdPair
from .errors import ConfigError, TierRouteError
from .labels import LabelConfig, build_labels
from .mlp import MlpConfig, init_model, load_checkpoint, save_checkpoint, train
from .network import load_scenario, scenario_by_name
from .router import (
    baseline_route,
    load_bundle,
    run_offline_phase,
    run_stream,
    save_bundle,
    write_report_files,
)
from .trace import (
    SyntheticConfig,
    TierId,
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

SYNTHETIC_DEFAULTS = {
    "n_queries": 2000, "embedding_dim": 32, "n_latent_clusters": 4,
    "noise_sigma": 0.05, "tier_accuracy_profile": None, "token_mean_profile": None,
    "token_jitter": 0.2, "prompt_token_range": [30, 120],
    "tier_tokens_per_second": [40.0, 30.0, 25.0],
    "cluster_std": 1.0, "cluster_separation": 12.0, "reference_fraction": 1.0,
    "seed": None,
    "drift_at": None, "drift_tier_accuracy_profile": None,
}


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
        name = obj.pop("section")
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


def resolve_config(args: argparse.Namespace, defaults: dict = DEFAULT_CONFIG) -> dict:
    config = copy.deepcopy(defaults)
    if getattr(args, "config", None):
        for name, body in load_config_file(args.config).items():
            if name not in config or config[name] is None:
                config[name] = {}
            config[name].update(body)
    apply_overrides(config, getattr(args, "set", None) or [])
    if getattr(args, "seed", None) is not None:
        config["run"]["seed"] = args.seed
    if getattr(args, "trace", None):
        config["run"]["trace"] = args.trace
        config["synthetic"] = None  # explicit trace flag overrides a synthetic section
    if getattr(args, "out", None):
        config["run"]["output_dir"] = args.out
    if getattr(args, "network", None):
        config["network"]["scenario"] = args.network
    if getattr(args, "switch_window", None) is not None:
        config["network"]["switch_window"] = args.switch_window
    if getattr(args, "update_interval", None) is not None:
        config["stream"]["update_interval"] = args.update_interval
    return config


def output_dir(config: dict) -> Path:
    out = config["run"].get("output_dir") or os.environ.get(OUTPUT_DIR_ENV) or "tierroute-out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_manifest(config: dict, command: str, outdir: Path) -> None:
    # The output location is not part of the experiment identity.
    scrubbed = copy.deepcopy(config)
    scrubbed["run"].pop("output_dir", None)
    canonical = json.dumps(scrubbed, sort_keys=True)
    manifest = {
        "command": command,
        "config": json.loads(canonical),
        "config_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "seed": config["run"]["seed"],
        "tierroute_version": __version__,
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Section materialization
# ---------------------------------------------------------------------------

def synthetic_config(config: dict, seed: int) -> SyntheticConfig:
    body = dict(SYNTHETIC_DEFAULTS)
    body.update(config.get("synthetic") or {})
    drift_keys = {"drift_at", "drift_tier_accuracy_profile"}
    body = {k: v for k, v in body.items() if k not in drift_keys}
    if body.get("seed") is None:
        body["seed"] = seed
    if body.get("tier_accuracy_profile") is not None:
        body["tier_accuracy_profile"] = tuple(tuple(row) for row in body["tier_accuracy_profile"])
    if body.get("token_mean_profile") is not None:
        body["token_mean_profile"] = tuple(tuple(row) for row in body["token_mean_profile"])
    body["prompt_token_range"] = tuple(body["prompt_token_range"])
    body["tier_tokens_per_second"] = tuple(body["tier_tokens_per_second"])
    try:
        cfg = SyntheticConfig(**body)
        cfg.validate()
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic config: {exc}") from exc
    return cfg


def resolve_trace(config: dict, seed: int) -> Trace:
    trace_path = config["run"].get("trace")
    has_synth = config.get("synthetic") is not None
    if trace_path and has_synth:
        raise ConfigError("provide either a trace path or a synthetic config, not both")
    if trace_path:
        path = Path(trace_path)
        if not path.exists():
            raise ConfigError(f"trace file not found: {path}")
        return load_trace(path)
    if has_synth:
        trace, _ = generate_synthetic_trace(synthetic_config(config, seed))
        return trace
    raise ConfigError("no trace: set run.trace or a synthetic section")


def label_config(config: dict) -> LabelConfig:
    body = config["labels"]
    try:
        return LabelConfig(alpha=float(body["alpha"]), beta=float(body["beta"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad labels config: {exc}") from exc


def mlp_config(config: dict, input_dim: int, seed: int) -> MlpConfig:
    body = config["mlp"]
    try:
        return MlpConfig(
            input_dim=input_dim,
            hidden_dims=tuple(body["hidden_dims"]),
            activation=body["activation"],
            learning_rate=float(body["learning_rate"]),
            batch_size=int(body["batch_size"]),
            max_epochs=int(body["max_epochs"]),
            early_stop_patience=int(body["early_stop_patience"]),
            seed=seed,
            validation_fraction=float(body["validation_fraction"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad mlp config: {exc}") from exc


def bo_config(config: dict, seed: int) -> BoConfig:
    body = config["bo"]
    try:
        return BoConfig(
            offline_budget=int(body["offline_budget"]),
            online_steps_per_refresh=int(body["online_steps_per_refresh"]),
            candidate_pool_size=int(body["candidate_pool_size"]),
            seed=seed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad bo config: {exc}") from exc


def utility_weights(config: dict) -> UtilityWeights:
    body = config["weights"]
    try:
        if "kappa1" in body or "kappa2" in body:
            return UtilityWeights.from_kappas(float(body["kappa1"]), float(body["kappa2"]))
        return UtilityWeights(lambda1=float(body["lambda1"]), lambda2=float(body["lambda2"]),
                              lambda3=float(body["lambda3"]))
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad weights config: {exc}") from exc


def cost_model(config: dict) -> CostModel:
    body = config["cost"]
    try:
        return CostModel(activated_params={
            TierId.DEVICE: float(body["device"]),
            TierId.EDGE: float(body["edge"]),
            TierId.CLOUD: float(body["cloud"]),
        })
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad cost config: {exc}") from exc


def update_interval(config: dict) -> int:
    raw = config["stream"]["update_interval"]
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ConfigError(f"stream.update_interval must be an integer >= 1; got {raw!r}")
    return raw


def _update_interval_is_set(args: argparse.Namespace) -> bool:
    """Whether --update-interval, --set or the config file gives stream.update_interval."""
    bare = dict(DEFAULT_CONFIG, stream={"online": DEFAULT_CONFIG["stream"]["online"]})
    return "update_interval" in resolve_config(args, bare)["stream"]


def network_scenario(config: dict):
    body = config["network"]
    name = body["scenario"]
    try:
        return scenario_by_name(name, switch_at=int(body["switch_window"]))
    except ValueError as exc:
        if Path(name).exists():
            return load_scenario(name)
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if config.get("synthetic") is None:
        config["synthetic"] = {}
    seed = int(config["run"]["seed"])
    outdir = output_dir(config)

    body = dict(SYNTHETIC_DEFAULTS)
    body.update(config["synthetic"])
    drift_at = body.get("drift_at")
    drift_profile = body.get("drift_tier_accuracy_profile")

    cfg = synthetic_config(config, seed)
    trace, truth = generate_synthetic_trace(cfg)
    if drift_at is not None:
        if drift_profile is None:
            raise ConfigError("drift_at needs drift_tier_accuracy_profile")
        shifted_cfg = synthetic_config(
            {**config, "synthetic": {**config["synthetic"],
                                     "tier_accuracy_profile": drift_profile}}, seed)
        shifted, _ = generate_synthetic_trace(shifted_cfg)
        cut = int(round(float(drift_at) * len(trace)))
        trace = concat_traces(trace.subset(slice(None, cut)), shifted.subset(slice(cut, None)))
        trace.metadata["drift_at_record"] = cut

    save_trace(trace, outdir / "trace.jsonl")
    truth_obj = {
        "cluster_of": [int(c) for c in truth.cluster_of],
        "tier_probs": [[float(v) for v in row] for row in truth.tier_probs],
        "consistency_edge": [float(v) for v in truth.consistency_edge],
        "consistency_cloud": [float(v) for v in truth.consistency_cloud],
    }
    (outdir / "trace_truth.json").write_text(
        json.dumps(truth_obj, sort_keys=True) + "\n", encoding="utf-8")
    write_manifest(config, "gen", outdir)
    print(f"wrote {outdir / 'trace.jsonl'} ({len(trace)} records)")
    return 0


def _train_parts(config: dict):
    seed = int(config["run"]["seed"])
    trace = resolve_trace(config, seed)
    labels = build_labels(trace, label_config(config))
    cfg = mlp_config(config, trace.embedding_dim, seed)
    model, report = train(init_model(cfg), trace.embeddings, labels.s_fused, cfg)
    return trace, labels, model, report


def cmd_train(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    outdir = output_dir(config)
    _, labels, model, report = _train_parts(config)
    save_checkpoint(model, outdir / "predictor.ckpt")
    labels.to_csv(outdir / "labels.csv")
    report_obj = {
        "epochs_run": report.epochs_run,
        "final_train_mse": report.final_train_mse,
        "final_val_mse": report.final_val_mse,
    }
    (outdir / "train_report.json").write_text(
        json.dumps(report_obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    with (outdir / "loss_curve.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_mse", "val_mse"])
        for epoch, train_mse, val_mse in report.loss_curve:
            writer.writerow([epoch, repr(train_mse), repr(val_mse)])
    write_manifest(config, "train", outdir)
    print(f"trained predictor: epochs={report.epochs_run} "
          f"val_mse={report.final_val_mse:.6f} -> {outdir}")
    return 0


def _tune_once(config: dict, outdir: Path, weights: UtilityWeights) -> None:
    seed = int(config["run"]["seed"])
    trace = resolve_trace(config, seed)
    labels = build_labels(trace, label_config(config))
    cluster_body = config["cluster"]
    state = run_offline_phase(
        trace, labels,
        mlp_config=mlp_config(config, trace.embedding_dim, seed),
        scenario=network_scenario(config),
        weights=weights,
        cost_model=cost_model(config),
        bo_config=bo_config(config, seed),
        k_min=int(cluster_body["k_min"]),
        k_max=int(cluster_body["k_max"]),
        kmeans_restarts=int(cluster_body["restarts"]),
        seed_points=int(config["bo"]["seed_points"]),
        update_interval=update_interval(config),
        fixed_k=cluster_body.get("fixed_k"),
        parallel_clusters=bool(config.get("parallel", {}).get("clusters", False)),
    )
    save_bundle(state, outdir)
    labels.to_csv(outdir / "labels.csv")
    if state.train_report is not None:
        report_obj = {
            "epochs_run": state.train_report.epochs_run,
            "final_train_mse": state.train_report.final_train_mse,
            "final_val_mse": state.train_report.final_val_mse,
        }
        (outdir / "train_report.json").write_text(
            json.dumps(report_obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    print(f"tuned {state.clusters.k} clusters -> {outdir}")


def _kappa_grid(args: argparse.Namespace) -> list[float] | None:
    raw = getattr(args, "kappa_grid", None)
    if not raw:
        return None
    try:
        return [float(v) for v in raw.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --kappa-grid {raw!r}: {exc}") from exc


def cmd_tune(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if getattr(args, "parallel_clusters", False):
        config.setdefault("parallel", {})["clusters"] = True
    outdir = output_dir(config)
    grid = _kappa_grid(args)
    if grid is None:
        _tune_once(config, outdir, utility_weights(config))
    else:
        for kappa in grid:
            sub = dict(copy.deepcopy(config))
            sub["weights"] = {"kappa1": kappa, "kappa2": kappa}
            _tune_once(sub, outdir / f"kappa_{kappa:g}", UtilityWeights.from_kappas(kappa, kappa))
    write_manifest(config, "tune", outdir)
    return 0


def cmd_stream(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    outdir = output_dir(config)
    if not args.bundle:
        raise ConfigError("stream needs --bundle from a previous tune run")
    interval = update_interval(config)
    state = load_bundle(args.bundle)
    if _update_interval_is_set(args):
        state.update_interval = interval
    else:  # the bundle's interval applies, and the manifest records it
        config["stream"]["update_interval"] = state.update_interval
    seed = int(config["run"]["seed"])
    stream_trace = resolve_trace(config, seed)
    scenario = network_scenario(config)
    online = bool(config["stream"]["online"])
    if getattr(args, "static", False):
        online = False
    if getattr(args, "online", False):
        online = True
    report = run_stream(state.clone(), stream_trace, scenario, online=online)
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
    seed = int(config["run"]["seed"])
    trace = resolve_trace(config, seed)
    scenario = network_scenario(config)
    policy = args.policy.replace("-", "_")
    pair = None
    predictor = None
    if policy == "global_static":
        if args.tau1 is None or args.tau2 is None:
            raise ConfigError("global-static needs --tau1 and --tau2")
        try:
            pair = ThresholdPair(tau1=args.tau1, tau2=args.tau2)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not args.bundle:
            raise ConfigError("global-static needs --bundle for the predictor")
        predictor = load_checkpoint(Path(args.bundle) / "predictor.ckpt")
    try:
        report = baseline_route(policy, trace, scenario,
                                weights=utility_weights(config),
                                cost_model=cost_model(config),
                                pair=pair, predictor=predictor,
                                window_size=update_interval(config))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_report_files(report, outdir, prefix=f"baseline_{policy}")
    write_manifest(config, "baseline", outdir)
    totals = report.totals
    print(f"{policy}: acc={totals.accuracy:.4f} latency={totals.mean_latency_s:.3f}s "
          f"cost={totals.mean_cost:.1f}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    outdir = output_dir(config)
    seed = int(config["run"]["seed"])
    trace = resolve_trace(config, seed)
    scenario = network_scenario(config)
    costs = cost_model(config)
    grid = _kappa_grid(args) or [1.0, 2.0, 5.0, 10.0, 20.0]

    anchors = {
        name: baseline_route(name, trace, scenario, weights=UtilityWeights(),
                             cost_model=costs,
                             window_size=update_interval(config))
        for name in ("device_only", "edge_only", "cloud_only")
    }
    dlm, clm = anchors["device_only"].totals, anchors["cloud_only"].totals
    lat_span = clm.mean_latency_s - dlm.mean_latency_s
    cost_span = clm.mean_cost - dlm.mean_cost
    acc_span = clm.accuracy - dlm.accuracy

    def norm(value: float, lo: float, span: float) -> float:
        return 100.0 * (value - lo) / span if span != 0 else 0.0

    labels = build_labels(trace, label_config(config))
    cluster_body = config["cluster"]
    rows = []

    def add_row(policy: str, kappa: float | None, totals) -> None:
        rows.append({
            "policy": policy,
            "kappa": "" if kappa is None else f"{kappa:g}",
            "accuracy": totals.accuracy,
            "mean_latency_s": totals.mean_latency_s,
            "mean_cost": totals.mean_cost,
            "norm_latency": norm(totals.mean_latency_s, dlm.mean_latency_s, lat_span),
            "norm_cost": norm(totals.mean_cost, dlm.mean_cost, cost_span),
            "norm_score": norm(totals.accuracy, dlm.accuracy, acc_span),
            "frac_device": totals.tier_fractions["device"],
            "frac_edge": totals.tier_fractions["edge"],
            "frac_cloud": totals.tier_fractions["cloud"],
        })

    add_row("device_only", None, dlm)
    add_row("edge_only", None, anchors["edge_only"].totals)
    add_row("cloud_only", None, clm)

    for kappa in grid:
        weights = UtilityWeights.from_kappas(kappa, kappa)
        state = run_offline_phase(
            trace, labels,
            mlp_config=mlp_config(config, trace.embedding_dim, seed),
            scenario=scenario,
            weights=weights,
            cost_model=costs,
            bo_config=bo_config(config, seed),
            k_min=int(cluster_body["k_min"]),
            k_max=int(cluster_body["k_max"]),
            kmeans_restarts=int(cluster_body["restarts"]),
            seed_points=int(config["bo"]["seed_points"]),
            update_interval=update_interval(config),
            fixed_k=cluster_body.get("fixed_k"),
        )
        report = run_stream(state, trace, scenario, online=False)
        add_row("router_static", kappa, report.totals)
        print(f"kappa={kappa:g}: acc={report.totals.accuracy:.4f} "
              f"cloud_frac={report.totals.tier_fractions['cloud']:.3f}")

    with (outdir / "pareto.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        header = ["policy", "kappa", "accuracy", "mean_latency_s", "mean_cost",
                  "norm_latency", "norm_cost", "norm_score",
                  "frac_device", "frac_edge", "frac_cloud"]
        writer.writerow(header)
        for row in rows:
            writer.writerow([row["policy"], row["kappa"]] +
                            [repr(float(row[k])) for k in header[2:]])
    write_manifest(config, "sweep", outdir)
    print(f"wrote {outdir / 'pareto.csv'} ({len(rows)} rows)")
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
    p_tune.add_argument("--parallel-clusters", action="store_true",
                        help="tune cluster thresholds concurrently")
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
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TierRouteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
