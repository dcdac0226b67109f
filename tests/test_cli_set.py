"""The seed-7 CLI set is byte-identical to the digests in tests/golden/cli_set.sha256.

A change that alters an output on purpose regenerates the golden file with
``python tools/cli_set.py --digests > tests/golden/cli_set.sha256``.
"""

import importlib.util
from pathlib import Path

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


def test_cli_set_matches_golden(tmp_path, capsys):
    facts, expected = cli_set.parse_golden(GOLDEN.read_text())
    here = cli_set.platform_facts()
    mismatched = [f"{name}: golden {facts.get(name)!r}, here {value!r}"
                  for name, value in here.items() if facts.get(name) != value]
    assert not mismatched, ("the golden digests were made on another platform; "
                            + "; ".join(mismatched))
    cli_set.write_set(tmp_path)
    capsys.readouterr()
    diffs = differences(expected, cli_set.digests(tmp_path))
    assert not diffs, "outputs differ from the golden digests:\n" + "\n".join(diffs)
    assert len(expected) == cli_set.EXPECTED_FILES
