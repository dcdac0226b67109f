"""Write the seed-7 CLI set: the 58 files of twelve tierroute commands.

    python tools/cli_set.py OUT
    python tools/cli_set.py --digests > tests/golden/cli_set.sha256

The commands run in one process, with the BLAS pinned to one thread, on the
tierroute sources of the checkout this script sits in. Each takes
``perfbench/config.jsonl`` (only read) and seed 7, and writes its own
directory under OUT:

* ``gen``: ``gen`` of 2000 queries;
* ``drift``: a drifted ``gen`` of 2000 queries, which switches at half of the
  trace to ``DRIFT_PROFILE``; its truth file follows the drift, with the
  drifted rows' agreement rates and the profile as ``drift_tier_probs``;
* ``train``, and an elbow ``tune`` into ``bundle``, on the ``gen`` trace;
* ``static``: ``stream --static --network good`` on the ``gen`` trace;
* ``online``: ``stream --online --network bad2good`` on the drifted trace;
* ``dlm``, ``elm``, ``clm`` and ``global``: ``baseline`` with ``dlm-only``,
  ``elm-only``, ``clm-only`` and ``global-static --tau1 0.8 --tau2 0.4``;
* ``sweep``: ``sweep --kappa-grid 1,5``.

``--digests`` writes the set into a temporary directory and prints the
golden file that ``tests/test_cli_set.py`` compares against: the platform
facts that fix the bytes (``# name: value`` lines), then one sorted
``sha256  relative/path`` line per file. A manifest records the trace path it
was given, so every occurrence of OUT is replaced by ``OUT_TOKEN`` before
hashing, and the manifest's config hash by the hash of its config so
replaced: sets written to different places hash the same. A change that
alters an output on purpose regenerates the golden file; its diff names the
files that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "perfbench" / "config.jsonl")
DRIFT_PROFILE = "[[0.9,0.93,0.96],[0.65,0.88,0.96],[0.5,0.86,0.96],[0.3,0.55,0.96]]"
EXPECTED_FILES = 58
OUT_TOKEN = b"@OUT@"


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


def write_set(out: Path) -> int:
    """Run the commands into ``out``; the number of files written, or an
    exception naming the first command that did not exit 0."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from tierroute import cli

    out = out.resolve()
    for command in commands(out):
        code = cli.main(command)
        if code != 0:
            raise RuntimeError(f"exit {code} from {' '.join(command)}")
    return sum(1 for path in out.rglob("*") if path.is_file())


def platform_facts() -> dict[str, str]:
    """What fixes the bytes besides the sources: NumPy, its BLAS, the machine."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "machine": platform.machine()}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tokenized(path: Path, token: bytes) -> bytes:
    """A file's bytes with OUT as OUT_TOKEN. A manifest's ``config_sha256``
    hashes a config that holds OUT, so when it is the hash of the recorded
    config it becomes the hash of that config tokenized; otherwise it stays,
    and the file's digest changes."""
    data = path.read_bytes()
    if path.name == "manifest.json":
        manifest = json.loads(data)
        canonical = json.dumps(manifest["config"], sort_keys=True).encode("utf-8")
        if _sha256(canonical) == manifest["config_sha256"]:
            data = data.replace(manifest["config_sha256"].encode("ascii"),
                                _sha256(canonical.replace(token, OUT_TOKEN)).encode("ascii"))
    return data.replace(token, OUT_TOKEN)


def digests(out: Path) -> dict[str, str]:
    """``{relative/path: sha256}`` of every file under ``out``, with OUT as OUT_TOKEN."""
    out = out.resolve()
    token = str(out).encode("utf-8")
    return {path.relative_to(out).as_posix(): _sha256(_tokenized(path, token))
            for path in sorted(out.rglob("*")) if path.is_file()}


def golden_text(out: Path) -> str:
    facts = [f"# {name}: {value}\n" for name, value in platform_facts().items()]
    return "".join(facts + [f"{digest}  {name}\n" for name, digest in sorted(digests(out).items())])


def parse_golden(text: str) -> tuple[dict[str, str], dict[str, str]]:
    """The facts and the digests of a golden file."""
    facts, files = {}, {}
    for line in text.splitlines():
        if line.startswith("# "):
            name, _, value = line[2:].partition(": ")
            facts[name] = value
        elif line:
            digest, _, name = line.partition("  ")
            files[name] = digest
    return facts, files


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    # Before NumPy is first imported.
    os.environ.update({name: "1" for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")})
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) if argv[0] == "--digests" else Path(argv[0])
        try:
            with contextlib.redirect_stdout(sys.stderr):  # the commands' own lines
                written = write_set(out)
        except RuntimeError as exc:
            print(f"cli_set: {exc}", file=sys.stderr)
            return 1
        if argv[0] == "--digests":
            sys.stdout.write(golden_text(out))
        else:
            print(f"cli_set: {written} files under {out.resolve()}")
    return 0 if written == EXPECTED_FILES else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
