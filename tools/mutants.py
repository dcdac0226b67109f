"""Behavioural mutants of the tierroute sources, and the tests that kill each.

    python tools/mutants.py            # run every mutant
    python tools/mutants.py 1 5        # run mutants 1 and 5
    python tools/mutants.py --check    # only check that each old text occurs once

A mutant is one or more exact text replacements in one module of
``src/tierroute``, with the behaviour it breaks. Each old text must occur
exactly once in its module, so a refactor that moves the code must update the
list; a mutant whose old text does not is refused before anything runs.

Each mutant runs on a temporary copy of this checkout: the replacements are
made there, and the tier-1 suite runs on the copy with the BLAS pinned to one
thread and ``tests/test_cli_set.py`` left out, because the golden digests fail
on every output change and so name no behaviour (``tests/test_mutants.py``,
which checks this list, is left out too). The tool prints one Markdown
table row per mutant with the tests that failed. A mutant that no test kills
is a gap in the tests. A run takes about a minute per mutant on a 2-core host.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "tierroute"
# The golden digests fail on every output change, so they name no behaviour;
# the list's own check fails on every mutant, since the old text is gone.
LEFT_OUT = ("tests/test_cli_set.py", "tests/test_mutants.py")


class Mutant(NamedTuple):
    breaks: str
    module: str
    edits: tuple[tuple[str, str], ...]  # (old text, new text), made in order


# Each score replaced by its cluster's mean, over the trace it is computed on.
_CLUSTER_MEAN = ("(np.bincount({m}, scores, {k}) / np.maximum(np.bincount({m}, minlength={k}), 1)"
                 ")[{m}]")

MUTANTS = (
    Mutant("each score replaced by its cluster's mean: a per-cluster tier table", "router.py", (
        ("    return Representation(predictor=predictor, train_report=train_report, scores=scores,\n"
         "                          clusters=clusters, membership=assign_batch(clusters, embeddings))\n",
         "    membership = assign_batch(clusters, embeddings)\n"
         f"    scores = {_CLUSTER_MEAN.format(m='membership', k='clusters.k')}\n"
         "    return Representation(predictor=predictor, train_report=train_report, scores=scores,\n"
         "                          clusters=clusters, membership=membership)\n"),
        ("    membership = assign_batch(state.clusters, stream.embeddings)\n",
         "    membership = assign_batch(state.clusters, stream.embeddings)\n"
         f"    scores = {_CLUSTER_MEAN.format(m='membership', k='k')}\n"),
    )),
    Mutant("refresh_online keeps the stored utilities instead of re-estimating the incumbent's",
           "bayesopt.py", (
               ("    incumbent_u = evaluator(incumbent)\n    obs.append(incumbent, incumbent_u)\n",
                "    _, incumbent_u = obs.best()\n"),
           )),
    Mutant("RECENT_REPLAY_DEPTH unbounded", "router.py", (
        ("RECENT_REPLAY_DEPTH = 256\n", "RECENT_REPLAY_DEPTH = 10**9\n"),
    )),
    Mutant("the fused label ignores the edge label (s_fused = s_cloud)", "labels.py", (
        ("s_fused=fuse_label(s_cloud, s_edge, cfg.beta)", "s_fused=s_cloud"),
    )),
    Mutant("the utility drops the cost term", "accounting.py", (
        ("- weights.lambda2 * latency - weights.lambda3 * cost\n",
         "- weights.lambda2 * latency\n"),
    )),
    Mutant("every cluster routed by cluster 0's pair", "router.py", (
        ("        taus = thresholds[window, clusters]\n",
         "        taus = thresholds[window, np.zeros_like(clusters)]\n"),
    )),
    Mutant("optimize_offline returns its last proposal, not the best observed pair",
           "bayesopt.py", (
               ("    incumbent, _ = obs.best()\n    return incumbent, obs\n",
                "    return pair, obs\n"),
           )),
    Mutant("refresh_online fits with DEFAULT_OFFLINE_HYPERS", "bayesopt.py", (
        ("        gp = gp_fit(obs, DEFAULT_ONLINE_HYPERS)\n",
         "        gp = gp_fit(obs, DEFAULT_OFFLINE_HYPERS)\n"),
    )),
    Mutant("read_table takes any first line as the header", "formats.py", (
        ("    if lines[0] != header:\n", "    if False:\n"),
    )),
    Mutant("read_table ends lines at CRLF and LF only, not at a lone CR", "formats.py", (
        ('re.split(r"\\r\\n?|\\n", ', 're.split(r"\\r?\\n", '),
    )),
    Mutant("_offline_phase ignores cluster.restarts", "cli.py", (
        ("    rep = fit_representation(trace, labels, cluster=cluster,\n",
         "    rep = fit_representation(trace, labels, cluster=ClusterConfig(\n"
         "        cluster.k_min, cluster.k_max, cluster.fixed_k),\n"),
    )),
    Mutant("k-means keeps its first restart, not the lowest-inertia one", "cluster.py", (
        ("        if inertia < best_inertia:\n", "        if best_centroids is None:\n"),
    )),
    Mutant("train returns the last epoch's weights, not the best-validation snapshot", "mlp.py", (
        ("    return best, report\n", "    return work, report\n"),
    )),
    Mutant("Adam drops its first-moment bias correction", "mlp.py", (
        ("cfg.learning_rate * (m / corr1) / ", "cfg.learning_rate * m / "),
    )),
)


def refusal(mutant: Mutant, root: Path = ROOT) -> str | None:
    """Why ``mutant`` cannot be made on the sources under ``root``, or None."""
    source = (root / PACKAGE / mutant.module).read_text(encoding="utf-8")
    for old, _ in mutant.edits:
        if source.count(old) != 1:
            return f"{mutant.module}: old text occurs {source.count(old)} times: {old!r}"
    return None


def apply(mutant: Mutant, root: Path) -> None:
    path = root / PACKAGE / mutant.module
    source = path.read_text(encoding="utf-8")
    for old, new in mutant.edits:
        source = source.replace(old, new, 1)
    path.write_text(source, encoding="utf-8")


def failing_tests(mutant: Mutant) -> tuple[int, list[str]]:
    """The suite's exit code on a copy with ``mutant`` made, and its failing tests."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis"))
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1",
               **{name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                         "MKL_NUM_THREADS")}}
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *(f"--ignore={path}" for path in LEFT_OUT)], cwd=copy, env=env, capture_output=True, text=True)
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in run.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return run.returncode, failed


def main(argv: list[str]) -> int:
    check_only = "--check" in argv
    chosen = [int(a) for a in argv if a != "--check"] or range(1, len(MUTANTS) + 1)
    refused = [f"mutant {i}: {reason}" for i in chosen
               if (reason := refusal(MUTANTS[i - 1])) is not None]
    if refused or check_only:
        print("\n".join(refused or [f"{len(chosen)} mutants can be made"]))
        return 1 if refused else 0
    print("| # | mutant | failed | failing tests |\n| --- | --- | --- | --- |")
    survivors = 0
    for i in chosen:
        code, failed = failing_tests(MUTANTS[i - 1])
        survivors += code == 0
        names = ", ".join(f"`{name}`" for name in failed) or (
            "none: it survives" if code == 0 else f"pytest exited {code}")
        print(f"| {i} | {MUTANTS[i - 1].breaks} | {len(failed)} | {names} |", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
