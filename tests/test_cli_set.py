"""The seed-7 CLI set is byte-identical to the digests in tests/golden/cli_set.sha256,
with the BLAS at one thread and at two.

A change that alters an output on purpose regenerates the golden file with
``python tools/cli_set.py --digests > tests/golden/cli_set.sha256``.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_set.sha256"

_spec = importlib.util.spec_from_file_location("cli_set", ROOT / "tools" / "cli_set.py")
cli_set = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_set)


def differences(expected: dict, actual: dict) -> list[str]:
    """One line per changed, missing or extra file."""
    return ([f"changed: {name}" for name in sorted(expected.keys() & actual.keys())
             if expected[name] != actual[name]]
            + [f"missing: {name}" for name in sorted(expected.keys() - actual.keys())]
            + [f"extra: {name}" for name in sorted(actual.keys() - expected.keys())])


def golden_digests() -> dict:
    """The golden digests, once their platform facts match this one's."""
    facts, expected = cli_set.parse_golden(GOLDEN.read_text())
    here = cli_set.platform_facts()
    mismatched = [f"{name}: golden {facts.get(name)!r}, here {value!r}"
                  for name, value in here.items() if facts.get(name) != value]
    assert not mismatched, ("the golden digests were made on another platform; "
                            + "; ".join(mismatched))
    assert len(expected) == cli_set.EXPECTED_FILES
    return expected


def test_cli_set_matches_golden(tmp_path, capsys):
    expected = golden_digests()
    cli_set.write_set(tmp_path)
    capsys.readouterr()
    diffs = differences(expected, cli_set.digests(tmp_path))
    assert not diffs, "outputs differ from the golden digests:\n" + "\n".join(diffs)


# Run in a child, because the BLAS reads its thread count once, when NumPy
# loads it. The child prints the thread count that NumPy's OpenBLAS reports
# (perfbench's reading; -1 if none is found) and, when it is 2, the set's
# digests.
TWO_THREAD_CHILD = """
import contextlib, importlib.util, json, sys
from pathlib import Path

import numpy  # loads the OpenBLAS whose thread count is read

def load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

root = Path(sys.argv[1])
threads = load("worker", root / "perfbench" / "worker.py")._blas_threads()
digests = None
if threads == 2:
    cli_set = load("cli_set", root / "tools" / "cli_set.py")
    with contextlib.redirect_stdout(sys.stderr):
        cli_set.write_set(Path(sys.argv[2]))
    digests = cli_set.digests(Path(sys.argv[2]))
print(json.dumps({"threads": threads, "digests": digests}))
"""


def test_cli_set_matches_golden_at_two_blas_threads(tmp_path):
    expected = golden_digests()
    child = subprocess.run(
        [sys.executable, "-B", "-c", TWO_THREAD_CHILD, str(ROOT), str(tmp_path)],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "2"}, capture_output=True, text=True,
        timeout=600)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    if result["threads"] != 2:
        pytest.skip(f"NumPy's OpenBLAS reports {result['threads']} threads here, not 2")
    diffs = differences(expected, result["digests"])
    assert not diffs, "outputs at two BLAS threads differ from the golden digests:\n" + "\n".join(diffs)
