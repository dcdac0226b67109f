"""tools/mutants.py can make every mutant it lists on the current sources, and
refuses one whose old text does not occur exactly once."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_at_least_the_eight_listed():
    assert len(mutants.MUTANTS) >= 8


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.breaks)
def test_old_text_occurs_once(mutant):
    assert mutants.refusal(mutant) is None


@pytest.mark.parametrize("old, count", [("no such text", 0), ("import", None)])
def test_refuses_text_not_found_exactly_once(old, count):
    refused = mutants.refusal(mutants.Mutant("any", "router.py", ((old, ""),)))
    assert refused is not None and "old text occurs" in refused
    if count is not None:
        assert f"occurs {count} times" in refused


def test_apply_makes_each_edit(tmp_path):
    package = tmp_path / mutants.PACKAGE
    package.mkdir(parents=True)
    shutil.copy(ROOT / mutants.PACKAGE / "router.py", package / "router.py")
    mutant = next(m for m in mutants.MUTANTS if len(m.edits) > 1)
    mutants.apply(mutant, tmp_path)
    source = (package / "router.py").read_text(encoding="utf-8")
    assert all(new in source for _, new in mutant.edits)
