"""tierroute benchmark: three workloads, checked outputs, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload tune-10k --seed 7 --seconds 5 --trace 0

Each run sets up its inputs several times (timed, reported as the median
``setup_s``), then runs rounds of the timed phase until ``--seconds`` have
passed, at least one. A round is one fresh worker process that imports
tierroute, warms up on a small input and then times one in-process call of
``tierroute.cli.main``; the outputs of every round are checked by
``checks.py``. With ``--trace 1`` the run instead sets up once and runs one
round, both traced, and reports per-layer metrics; the round's worker also
runs the timed command once untraced, before the traced call on odd seeds
and after it on even ones, which gives the tracer's overhead.
The last line of standard output is the result JSON.
See README.md for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, for this process and every worker it starts. Set
# before NumPy is imported anywhere.
PINNED_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Inputs, run_checks  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CONFIG = "perfbench/config.jsonl"

WORKLOADS = ("tune-10k", "online-10k", "static-100k")
LATENT_CLUSTERS = 4       # must match config.jsonl
TUNING_QUERIES = 2000     # bundle tuning trace of the stream workloads
HELDOUT_QUERIES = 5000    # tune-10k's replay trace, large enough to keep its quality metrics steady
WARMUP_QUERIES = 300
UPDATE_INTERVAL = 200
RUN_BUDGET_S = 160.0      # workers must end by then; checks follow, all inside 180 s


@dataclass
class Plan:
    n_queries: int                 # queries the timed command processes
    setup: list[list[str]]         # timed as one set-up, repeated ``setups`` times
    warmup: list[list[str]]        # untimed, in the timed worker before the timed call
    timed: list[str]
    checks: Inputs                 # what checks.run_checks reads after each round
    setups: int                    # how many set-ups ``setup_s`` is the median of
    post: list[list[str]] = field(default_factory=list)  # untimed, after the timed call


def _gen(n: int, seed: int, out: str) -> list[str]:
    return ["gen", "--config", CONFIG, "--set", f"synthetic.n_queries={n}",
            "--seed", str(seed), "--out", out]


def _tune(trace: str, seed: int, out: str, *extra: str) -> list[str]:
    return ["tune", "--config", CONFIG, "--trace", trace, "--seed", str(seed),
            "--out", out, *extra]


def _stream(trace: str, bundle: str, seed: int, out: str, mode: str, network: str) -> list[str]:
    return ["stream", "--config", CONFIG, "--trace", trace, "--bundle", bundle,
            "--seed", str(seed), "--network", network,
            "--update-interval", str(UPDATE_INTERVAL), mode, "--out", out]


def plan(workload: str, seed: int, wd: str) -> Plan:
    """Commands of one workload. Every trace comes from the same generator
    seed, so all of them share the latent cluster centres; their sizes
    differ, so their records differ."""
    warm = f"{wd}/warm/trace.jsonl"
    if workload == "tune-10k":
        train, heldout = f"{wd}/train/trace.jsonl", f"{wd}/heldout/trace.jsonl"
        return Plan(
            n_queries=10_000,
            setup=[_gen(10_000, seed, f"{wd}/train"), _gen(HELDOUT_QUERIES, seed, f"{wd}/heldout")],
            warmup=[_gen(WARMUP_QUERIES, seed, f"{wd}/warm"),
                    _tune(warm, seed, f"{wd}/warm/bundle")],
            timed=_tune(train, seed, f"{wd}/bundle"),
            post=[_stream(heldout, f"{wd}/bundle", seed, f"{wd}/replay", "--static", "good")],
            checks=Inputs(trace=ROOT / heldout, tuning_trace=ROOT / train,
                          bundle=ROOT / wd / "bundle", stream_dir=ROOT / wd / "replay",
                          scenario="good", update_interval=UPDATE_INTERVAL,
                          expected_k=LATENT_CLUSTERS),
            # A set-up takes under 2 s; seven of them steady the median.
            setups=7,
        )
    n, mode, network = {"online-10k": (10_000, "--online", "bad2good"),
                        "static-100k": (100_000, "--static", "good")}[workload]
    tuning, stream, bundle = f"{wd}/tuning/trace.jsonl", f"{wd}/stream/trace.jsonl", f"{wd}/bundle"
    return Plan(
        n_queries=n,
        setup=[_gen(TUNING_QUERIES, seed, f"{wd}/tuning"),
               _tune(tuning, seed, bundle, "--set", f"cluster.fixed_k={LATENT_CLUSTERS}"),
               _gen(n, seed, f"{wd}/stream")],
        warmup=[_gen(WARMUP_QUERIES, seed, f"{wd}/warm"),
                _stream(warm, bundle, seed, f"{wd}/warm/out", mode, network)],
        timed=_stream(stream, bundle, seed, f"{wd}/routed", mode, network),
        checks=Inputs(trace=ROOT / stream, tuning_trace=ROOT / tuning, bundle=ROOT / bundle,
                      stream_dir=ROOT / wd / "routed", scenario=network,
                      update_interval=UPDATE_INTERVAL),
        # The 10k set-up takes about 2 s, so five cost little. The 100k one
        # takes about 12 s and runs once: more would push a full series of
        # benchmark runs past its time limit.
        setups=1 if n > 10_000 else 5,
    )


class Runner:
    """Starts workers one at a time, each bounded by the run's deadline."""

    def __init__(self, wd: Path, deadline: float):
        self.wd = wd
        self.deadline = deadline
        self.count = 0
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
                        PYTHONHASHSEED="0", **PINNED_ENV)

    def worker(self, commands: list[list[str]], *, repeat: int = 1,
               warmup: list[list[str]] | None = None, trace: Path | None = None,
               untraced: str | None = None, phase: str = "") -> dict:
        self.count += 1
        tag = f"{self.count:02d}-{phase}"
        spec = {"commands": commands, "repeat": repeat, "warmup": warmup or [],
                "trace": str(trace) if trace else None, "untraced": untraced, "phase": phase,
                "result": str(self.wd / f"worker{tag}.result.json")}
        spec_path = self.wd / f"worker{tag}.spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = self.wd / f"worker{tag}.log"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError(f"run budget of {RUN_BUDGET_S:.0f} s spent before {phase}")
        with log.open("w", encoding="utf-8") as fh:
            proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                  cwd=ROOT, env=self.env, stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=remaining)
        result = None
        if proc.returncode == 0:
            result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
        if result is None or any(code != 0 for code in result["exit_codes"]):
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-5:]
            raise RuntimeError(f"{phase} worker failed (exit {proc.returncode}): " + " | ".join(tail))
        return result


def run_round(runner: Runner, p: Plan, trace: Path | None = None,
              untraced: str | None = None) -> dict:
    """One timed call, its untimed follow-up and every check of its outputs."""
    timed = runner.worker([p.timed], warmup=p.warmup, trace=trace, untraced=untraced,
                          phase="timed")
    if p.post:
        runner.worker(p.post, phase="post")
    outcome, quality = run_checks(p.checks)
    failures = {name: why for name, why in outcome.items() if why is not None}
    return {"timed": timed, "quality": quality, "failures": failures,
            "attempted": 1 + len(p.post) + len(outcome), "failed": len(failures)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "tierroute" / "cli.py").is_file():
        print(f"perfbench: no tierroute sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the bundle-reload check imports tierroute

    start = time.monotonic()
    wd = OUT / args.workload
    shutil.rmtree(wd, ignore_errors=True)
    wd.mkdir(parents=True)
    runner = Runner(wd, start + RUN_BUDGET_S)
    p = plan(args.workload, args.seed, str(wd.relative_to(ROOT)))

    if args.trace:
        return traced_run(runner, p, args, wd)

    setup = runner.worker(p.setup, repeat=p.setups, phase="setup")
    rounds = []
    timed_start = time.monotonic()
    while not rounds or time.monotonic() - timed_start < args.seconds:
        rounds.append(run_round(runner, p))

    walls = [r["timed"]["walls_s"][0] for r in rounds]
    metrics = {
        "throughput_qps": (p.n_queries / statistics.median(walls), "queries/s"),
        "setup_s": (statistics.median(setup["walls_s"]), "s"),
        "peak_rss_mb": (statistics.median(r["timed"]["max_rss_kb"] for r in rounds) / 1024, "MiB"),
        "route_utility": (rounds[-1]["quality"]["route_utility"], "utility"),
        "quality_vs_cloud": (rounds[-1]["quality"]["quality_vs_cloud"], "ratio"),
        "sim_latency_s": (rounds[-1]["quality"]["sim_latency_s"], "s"),
        "sim_cost": (rounds[-1]["quality"]["sim_cost"], "Bparam-tokens"),
    }
    info = {
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "setup_walls_s": setup["walls_s"], "timed_walls_s": walls,
        "timed_cpu_s": [r["timed"]["cpu_s"][0] for r in rounds],
        "blas_threads": [r["timed"]["blas_threads"] for r in rounds],
        "os_threads": [r["timed"]["os_threads"] for r in rounds],
        "late_imports": sorted({m for r in rounds for m in r["timed"]["late_imports"]}),
        "failures": [r["failures"] for r in rounds if r["failures"]],
    }
    return emit(rounds, metrics, info)


def traced_run(runner: Runner, p: Plan, args, wd: Path) -> int:
    from tracer import layer_self_times, self_times, workload_metrics

    runner.worker(p.setup, trace=wd / "spans_setup.json", phase="setup")
    traced = run_round(runner, p, trace=wd / "spans_timed.json",
                       untraced="before" if args.seed % 2 else "after")
    phases = [json.loads((wd / f"spans_{name}.json").read_text(encoding="utf-8"))
              for name in ("setup", "timed")]
    layers = workload_metrics(*phases, timed_tunes=p.timed[0] == "tune")
    untraced_s = traced["timed"]["untraced_wall_s"]
    traced_s = traced["timed"]["walls_s"][0]
    layers["tracing.wall_ratio"] = traced_s / untraced_s
    layers["tracing.spans"] = len(phases[1]["spans"])

    dump = {
        "workload": args.workload, "seed": args.seed,
        "untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
        "metrics": layers,
        "phases": [{
            "phase": ph["phase"],
            "layer_self_s": layer_self_times(ph["spans"]),
            "counts": ph["counts"],
            "spans": [span + [own] for span, own in zip(ph["spans"], self_times(ph["spans"]))],
        } for ph in phases],
    }
    (wd / "trace.json").write_text(json.dumps(dump) + "\n", encoding="utf-8")

    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = {m["name"]: (layers[m["name"]], m["unit"]) for m in units}
    info = {"workload": args.workload, "seed": args.seed, "trace_file": str(wd / "trace.json"),
            "untraced_wall_s": untraced_s, "traced_wall_s": traced_s,
            "failures": [traced["failures"]] if traced["failures"] else []}
    return emit([traced], metrics, info)


def emit(rounds: list[dict], metrics: dict, info: dict) -> int:
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for r in rounds:
        for name, why in r["failures"].items():
            print(f"perfbench: check {name} failed: {why}", file=sys.stderr)
    print("perfbench-info " + json.dumps(info))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
