"""Write the seed-7 CLI set: the 58 files of twelve tierroute commands.

    python tools/cli_set.py OUT

The commands run in one process, with the BLAS pinned to one thread, on the
tierroute sources of the checkout this script sits in. Each takes
``perfbench/config.jsonl`` (only read) and seed 7, and writes its own
directory under OUT:

* ``gen``: ``gen`` of 2000 queries;
* ``drift``: a drifted ``gen`` of 2000 queries, which switches at half of the
  trace to ``DRIFT_PROFILE``;
* ``train``, and an elbow ``tune`` into ``bundle``, on the ``gen`` trace;
* ``static``: ``stream --static --network good`` on the ``gen`` trace;
* ``online``: ``stream --online --network bad2good`` on the drifted trace;
* ``dlm``, ``elm``, ``clm`` and ``global``: ``baseline`` with ``dlm-only``,
  ``elm-only``, ``clm-only`` and ``global-static --tau1 0.8 --tau2 0.4``;
* ``sweep``: ``sweep --kappa-grid 1,5``.

To compare two commits, run each commit's copy of this script into the same
absolute OUT, moving the first set aside before the second run: a manifest
records the trace path it was given, so sets written to different places
differ. ``diff -r`` of the two sets then shows every output that changed.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# Before NumPy is first imported.
os.environ.update({name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})

ROOT = Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "perfbench" / "config.jsonl")
DRIFT_PROFILE = "[[0.9,0.93,0.96],[0.65,0.88,0.96],[0.5,0.86,0.96],[0.3,0.55,0.96]]"
EXPECTED_FILES = 58


def commands(out: Path) -> list[list[str]]:
    trace, drifted = (str(out / name / "trace.jsonl") for name in ("gen", "drift"))
    bundle = str(out / "bundle")
    gen = ["gen", "--set", "synthetic.n_queries=2000"]
    runs = [
        ("gen", gen),
        ("drift", [*gen, "--set", "synthetic.drift_at=0.5",
                   "--set", f"synthetic.drift_tier_accuracy_profile={DRIFT_PROFILE}"]),
        ("train", ["train", "--trace", trace]),
        ("bundle", ["tune", "--trace", trace]),
        ("static", ["stream", "--trace", trace, "--bundle", bundle, "--static",
                    "--network", "good"]),
        ("online", ["stream", "--trace", drifted, "--bundle", bundle, "--online",
                    "--network", "bad2good"]),
        *((name, ["baseline", "--trace", trace, "--policy", f"{name}-only"])
          for name in ("dlm", "elm", "clm")),
        ("global", ["baseline", "--trace", trace, "--policy", "global-static",
                    "--tau1", "0.8", "--tau2", "0.4", "--bundle", bundle]),
        ("sweep", ["sweep", "--trace", trace, "--kappa-grid", "1,5"]),
    ]
    return [[*argv, "--config", CONFIG, "--seed", "7", "--out", str(out / name)]
            for name, argv in runs]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from tierroute import cli

    out = Path(argv[0]).resolve()
    for command in commands(out):
        code = cli.main(command)
        if code != 0:
            print(f"cli_set: exit {code} from {' '.join(command)}", file=sys.stderr)
            return 1
    written = sum(1 for path in out.rglob("*") if path.is_file())
    print(f"cli_set: {written} files under {out}")
    return 0 if written == EXPECTED_FILES else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
