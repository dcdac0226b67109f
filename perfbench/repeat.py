"""Repeatability check: two sets of benchmark runs of the same code.

Usage (from the repository root):

    python3 perfbench/repeat.py --runs 10 --sets 2
    python3 perfbench/repeat.py --workloads static-100k --runs 5 --sets 1

Set s, run i (from 0) uses seed ``1 + 100 * s + i``, so the two sets route
different inputs; every run measures BENCHMARK.json's ``run_seconds``. The
runs are saved to perfbench/out/repeat.json as they finish. For every
workload and end-to-end metric it prints each set's median and quartiles,
the spread (q3 - q1) / median, and whether
  * the spread is within the metric's bound in BENCHMARK.json and below a
    third of it,
  * the two sets' medians differ by no more than the bound, in either
    direction,
  * the share of failed operations is the same in both sets.
It exits 1 if any of these fails; a spread above a third of the bound is
shown but does not fail. It also shows, per run, the BLAS thread count and
OS thread count of the timed worker (both must be 1) and any module imported
during a timed phase (there must be none: the warm-up has loaded everything).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "out" / "repeat.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-400:]}")
    info = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("perfbench-info "))
    return {"workload": workload, "seed": seed, "run_s": time.monotonic() - start,
            "result": json.loads(lines[-1]), "info": info}


def report(records: list[dict], bench: dict) -> bool:
    ok = True
    sets = sorted({r["set"] for r in records})
    for w in [w["name"] for w in bench["workloads"]]:
        mine = [r for r in records if r["workload"] == w]
        if not mine:
            continue
        run_s = [r["run_s"] for r in mine if "run_s" in r]
        print(f"\n== {w}: runs per set {[sum(r['set'] == s for r in mine) for s in sets]}"
              + (f", mean run {statistics.mean(run_s):.1f} s" if run_s else ""))
        print(f"{'metric':18} {'bound':>6} " + " ".join(
            f"{'set' + str(s) + ' q1/med/q3':>34} {'spread':>7}" for s in sets) + "  verdict")
        for m in bench["end_to_end"]:
            name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
            cells, meds, verdict = [], [], []
            for s in sets:
                vals = [r["result"]["metrics"][name]["value"] for r in mine if r["set"] == s]
                med = statistics.median(vals)
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
                spread = (q3 - q1) / abs(med)
                meds.append(med)
                cells.append(f"{q1:11.5g}/{med:11.5g}/{q3:11.5g} {spread:7.3f}")
                if spread > bound:
                    verdict.append(f"set{s} spread > bound")
                    ok = False
                elif spread > bound / 3:
                    verdict.append(f"set{s} spread > bound/3")
            if len(meds) > 1:
                change = (meds[1] - meds[0]) / abs(meds[0])
                if abs(change) > bound:
                    better = (change > 0) == higher
                    verdict.append(f"median {'better' if better else 'worse'} by {abs(change):.3f}")
                    ok = False
            print(f"{name:18} {bound:6.3f} " + " ".join(cells) + "  " + (", ".join(verdict) or "ok"))
        shares = {s: [r["result"]["failed"] / r["result"]["attempted"] for r in mine if r["set"] == s]
                  for s in sets}
        same = len({v for vals in shares.values() for v in vals}) == 1
        ok &= same
        print(f"failed share per run: {'all equal' if same else shares} "
              f"({mine[0]['result']['failed']}/{mine[0]['result']['attempted']})")
        blas = {t for r in mine for t in r["info"]["blas_threads"]}
        threads = {t for r in mine for t in r["info"]["os_threads"]}
        late = sorted({m for r in mine for m in r["info"]["late_imports"]})
        pinned = blas == {1} and threads == {1}
        ok &= pinned and not late
        print(f"pinning: blas threads {sorted(blas)}, os threads {sorted(threads)}; "
              f"modules imported during timed phases: {late or 'none'}")
    return ok


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()

    records = []
    RESULTS.parent.mkdir(parents=True, exist_ok=True)
    for s in range(args.sets):
        for w in args.workloads.split(","):
            for i in range(args.runs):
                rec = run_once(w, 1 + 100 * s + i, bench["run_seconds"])
                rec["set"] = s
                records.append(rec)
                RESULTS.write_text(json.dumps(records) + "\n", encoding="utf-8")
                walls = rec["info"]["timed_walls_s"]
                print(f"set {s} {w} seed {rec['seed']}: run {rec['run_s']:.1f} s, timed {walls}, "
                      f"setup {rec['info']['setup_walls_s']}", flush=True)
    return 0 if report(records, bench) else 1


if __name__ == "__main__":
    sys.exit(main())
