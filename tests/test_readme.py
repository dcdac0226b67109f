"""The README's quick-start shell block and its library block run as written:
each ``tierroute`` line of the shell block is one ``cli.main`` call, at the
sizes the README states."""

import re
import shlex
from pathlib import Path

from tierroute import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(language, first_line):
    """The first ``language`` block of the README whose code starts with ``first_line``."""
    for body in re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S):
        if body.startswith(first_line):
            return body
    raise AssertionError(f"no {language} block starts with {first_line!r}")


def test_shell_block_runs(tmp_path, monkeypatch, capsys):
    block = fenced_block("bash", "cat > experiment.jsonl <<'EOF'\n")
    heredoc, _, commands = block.partition("\nEOF\n")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "experiment.jsonl").write_text(heredoc.partition("\n")[2] + "\n")
    lines = shlex.split(commands.replace("\\\n", " "), comments=True)
    argvs, argv = [], None
    for word in lines:
        if word == "tierroute":
            argv = []
            argvs.append(argv)
        else:
            argv.append(word)
    assert [argv[0] for argv in argvs] == ["gen", "train", "tune", "stream", "baseline", "sweep"]
    for argv in argvs:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
        out = argv[argv.index("--out") + 1]
        assert (tmp_path / out / "manifest.json").is_file(), argv


def test_library_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced_block("python", "from tierroute import ("), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 4
