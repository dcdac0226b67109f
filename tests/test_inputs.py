"""Every input the CLI reads, made unreadable or undecodable, exits 2 naming the file
(or the ``--set`` key), never 1."""

import json
import shutil

import pytest

from helpers import rehash
from tierroute.cli import main

CONFIG = """\
{"section": "synthetic", "n_queries": 300, "embedding_dim": 6, "n_latent_clusters": 2}
{"section": "mlp", "hidden_dims": [8], "max_epochs": 5}
{"section": "cluster", "fixed_k": 2, "restarts": 2}
{"section": "bo", "offline_budget": 6, "candidate_pool_size": 64, "seed_points": 3}
"""
DEEP = "[" * 5000 + "]" * 5000  # deeper than json's recursion limit
CASES = ["directory", "non_utf8", "deep", "missing"]


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def made(tmp_path_factory):
    """A config file, a trace and a bundle tuned on it."""
    tmp = tmp_path_factory.mktemp("inputs")
    cfg = tmp / "cfg.jsonl"
    cfg.write_text(CONFIG)
    assert run("gen", "--config", cfg, "--out", tmp / "g") == 0
    trace = tmp / "g" / "trace.jsonl"
    assert run("tune", "--config", cfg, "--trace", trace, "--out", tmp / "b") == 0
    return cfg, trace, tmp / "b"


def malform(path, case):
    """Make ``path`` a directory, non-UTF-8 JSON, JSON nested 5000 deep, empty or absent.
    An arrays file keeps its payload after the new header line."""
    payload = b""
    if path.suffix in (".bin", ".ckpt"):
        payload = b"\n" + path.read_bytes().partition(b"\n")[2]
    path.unlink(missing_ok=True)
    if case == "directory":
        path.mkdir()
    elif case == "non_utf8":
        path.write_bytes(b'{"format": "\xff"}' + payload + b"\n")
    elif case == "deep":
        path.write_bytes(DEEP.encode() + payload + b"\n")
    elif case == "empty":
        path.write_bytes(b"")


def argv_and_names(source, case, made, tmp):
    """The command that reads the malformed ``source``, and what its error must name."""
    cfg, trace, bundle = made
    baseline = ["baseline", "--config", cfg, "--trace", trace, "--policy", "clm-only",
                "--out", tmp / "o"]
    if source == "--set":
        return [*baseline, "--set", f"mlp.hidden_dims={DEEP}"], ["mlp.hidden_dims"]
    if source in ("config", "scenario", "trace"):
        path = tmp / f"{source}.jsonl"
        malform(path, case)
        flag = {"config": "--config", "scenario": "--network", "trace": "--trace"}[source]
        return [*baseline, flag, path], [path.name, str(path.parent)]
    copy = tmp / "b"
    shutil.copytree(bundle, copy)
    path = copy / source
    malform(path, case)
    if source != "bundle_manifest.json" and path.is_file():
        rehash(copy, source)
    return ["stream", "--config", cfg, "--trace", trace, "--bundle", copy, "--static",
            "--out", tmp / "o"], [path.name, str(path.parent)]


@pytest.mark.parametrize("source, case", [
    *((source, case) for source in ("config", "scenario", "trace", "bundle_manifest.json",
                                    "state.json", "centroids.bin", "observations.csv",
                                    "thresholds.json", "predictor.ckpt") for case in CASES),
    # An empty config is valid; an empty scenario or trace is not.
    *((source, "empty") for source in ("scenario", "trace")),
    ("--set", "deep"),
])
def test_malformed_input_exits_2_naming_it(made, tmp_path, capsys, source, case):
    argv, names = argv_and_names(source, case, made, tmp_path)
    capsys.readouterr()
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert all(name in err for name in names), err
    assert not (tmp_path / "o").exists()


def deepest_decodable():
    """The deepest array nesting that ``json.loads`` decodes from this stack depth."""
    low, high = 1, 5000
    while low < high:
        mid = (low + high + 1) // 2
        try:
            json.loads("[" * mid + "]" * mid)
            low = mid
        except RecursionError:
            high = mid - 1
    return low


@pytest.mark.parametrize("command", ["gen", "train"])
def test_set_value_near_the_decode_limit_never_exits_1(made, tmp_path, capsys, command):
    # json decodes the value at the flag; from deeper in the stack, the
    # manifest cannot encode it (an unread key for gen), or train shows it in
    # an error. A refused config leaves no output.
    cfg, _, _ = made
    limit = deepest_decodable()
    refused = []
    for depth in range(limit - 20, limit + 2):
        deep = "[" * depth + "]" * depth
        out = tmp_path / str(depth)
        code = run(command, "--config", cfg, "--set", f"mlp.hidden_dims={deep}", "--out", out)
        err = capsys.readouterr().err
        written = sorted(p.name for p in out.iterdir()) if out.exists() else []
        if code == 0:
            assert "manifest.json" in written
            continue
        assert code == 2 and not out.exists(), (depth, written, err[-200:])
        if "manifest.json" in err:
            refused.append(depth)
    assert refused, "no depth reached the manifest's encoding"
