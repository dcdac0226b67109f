"""The one writer: each format's files are byte-identical to the hand-written
writers it replaced (kept below as the reference), and no other module writes."""

import ast
import csv
import hashlib
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import tierroute
from helpers import build_state
from tierroute.cluster import save_centroids
from tierroute.errors import BundleIntegrityError
from tierroute.formats import (
    header_line,
    write_arrays,
    write_json,
    write_json_lines,
    write_table,
    write_tables,
)
from tierroute.mlp import save_checkpoint
from tierroute.network import save_scenario, scenario_by_name
from tierroute.router import (
    LATENCY_MODEL_NOTE,
    baseline_route,
    run_stream,
    save_bundle,
    state_checksum,
    write_report_files,
)
from tierroute.trace import TIERS, SyntheticConfig, generate_synthetic_trace, save_trace

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

SPECIAL_FLOATS = [5e-324, -0.0, 1e16, sys.float_info.max, 1 / 3, 0.1, -2.5, 1e-300]
AWKWARD_TEXT = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "é中🙂", "", " ", "x;y\t'"]
ROW_COUNTS = [0, 1, 2, 4095, 4096, 4097]


# ---------------------------------------------------------------------------
# The hand-written writers the formats replaced, as they were
# ---------------------------------------------------------------------------

def old_json(path, obj):
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def old_json_lines(path, objs):  # save_scenario's idiom
    lines = [json.dumps(obj, sort_keys=True) for obj in objs]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def old_table(path, columns):  # write_report_files' idiom: formatted cells, zipped
    n = len(next(col for col in columns.values() if col is not None))

    def cells(column):
        values = column.tolist() if isinstance(column, np.ndarray) else column
        return [""] * n if column is None else [
            repr(v) if isinstance(v, float) else v for v in values]

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(columns))
        writer.writerows(zip(*(cells(col) for col in columns.values())))


def old_arrays(path, header, *arrays):  # save_checkpoint's idiom
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for array in arrays:
            fh.write(np.ascontiguousarray(array).astype("<f8").tobytes())


def old_report_files(report, outdir, prefix):
    n_windows, k = report.thresholds.shape[:2]
    history = {c: [(w, *report.thresholds[w, c].tolist()) for w in range(n_windows)]
               for c in range(k)}

    def window_obj(w):
        return {
            "index": w.index, "count": w.count, "accuracy": w.accuracy,
            "mean_latency_s": w.mean_latency_s, "mean_cost": w.mean_cost,
            "mean_utility": w.mean_utility, "tier_fractions": w.tier_fractions,
        }

    obj = {
        "policy": report.policy,
        "window_size": report.window_size,
        "latency_model": LATENCY_MODEL_NOTE,
        "totals": window_obj(report.totals),
        "windows": [window_obj(w) for w in report.windows],
        "threshold_history": {
            str(k): [{"window": w, "tau1": t1, "tau2": t2} for w, t1, t2 in hist]
            for k, hist in sorted(history.items())
        },
    }
    (outdir / f"{prefix}_report.json").write_text(
        json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    with (outdir / f"{prefix}_windows.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window", "count", "accuracy", "mean_latency_s", "mean_cost",
                         "mean_utility", "frac_device", "frac_edge", "frac_cloud"])
        for w in report.windows:
            writer.writerow([w.index, w.count, repr(w.accuracy), repr(w.mean_latency_s),
                             repr(w.mean_cost), repr(w.mean_utility),
                             repr(w.tier_fractions["device"]), repr(w.tier_fractions["edge"]),
                             repr(w.tier_fractions["cloud"])])
    with (outdir / f"{prefix}_thresholds.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "window", "tau1", "tau2"])
        for k, hist in sorted(history.items()):
            for window, tau1, tau2 in hist:
                writer.writerow([k, window, repr(tau1), repr(tau2)])
    d = report.decisions
    n = len(d.ids)

    def cells(column, fmt=repr):
        return [""] * n if column is None else [fmt(v) for v in column.tolist()]

    tiers = [TIERS[t].label for t in d.tier.tolist()]
    ids, windows, clusters = d.ids, d.window.tolist(), cells(d.cluster, str)
    correct = [int(v) for v in d.correct.tolist()]
    lats, costs, utilities = cells(d.latency_s), cells(d.cost), cells(d.utility)
    with (outdir / f"{prefix}_decisions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "window", "cluster", "tier", "score", "tau1", "tau2",
                         "correct", "latency_s", "cost", "utility"])
        writer.writerows(zip(ids, windows, clusters, tiers, cells(d.score), cells(d.tau1),
                             cells(d.tau2), correct, lats, costs, utilities))
    with (outdir / f"{prefix}_utilities.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "cluster", "tier", "correct",
                         "latency_s", "cost", "utility"])
        writer.writerows(zip(ids, clusters, tiers, correct, lats, costs, utilities))


def old_bundle_text_files(state, outdir):
    thresholds_obj = {str(k): {"tau1": pair.tau1, "tau2": pair.tau2}
                      for k, pair in sorted(state.thresholds.items())}
    (outdir / "thresholds.json").write_text(
        json.dumps(thresholds_obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    with (outdir / "observations.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "tau1", "tau2", "utility", "order_index"])
        for k in sorted(state.observations):
            for idx, (pair, u) in enumerate(state.observations[k].points):
                writer.writerow([k, repr(pair.tau1), repr(pair.tau2), repr(u), idx])
    state_obj = {
        "format": "tierroute-bundle-v1",
        "weights": asdict(state.weights),
        "bo_config": asdict(state.bo_config),
        "cost_model": {t.label: p for t, p in state.cost_model.activated_params.items()},
        "cloud_baselines": asdict(state.cloud_baselines),
        "update_interval": state.update_interval,
        "observation_capacity": max(o.capacity for o in state.observations.values()),
        "k": state.clusters.k,
    }
    (outdir / "state.json").write_text(
        json.dumps(state_obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    save_checkpoint(state.predictor, outdir / "predictor.ckpt")  # compared on their own below
    save_centroids(state.clusters, outdir / "centroids.bin")
    files = ["predictor.ckpt", "centroids.bin", "thresholds.json", "observations.csv",
             "state.json"]
    manifest = {
        "format": "tierroute-bundle-v1",
        "files": {name: hashlib.sha256((outdir / name).read_bytes()).hexdigest()
                  for name in files},
        "checksum": state_checksum(state),
    }
    (outdir / "bundle_manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def same_files(ours: Path, theirs: Path) -> None:
    names = sorted(p.name for p in theirs.iterdir())
    assert sorted(p.name for p in ours.iterdir()) == names
    for name in names:
        assert (ours / name).read_bytes() == (theirs / name).read_bytes(), name


# ---------------------------------------------------------------------------
# Each format against the reference, fuzzed
# ---------------------------------------------------------------------------

texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
finite_or_not = st.floats(allow_subnormal=True) | st.sampled_from(SPECIAL_FLOATS)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite_or_not | texts
    | st.sampled_from(AWKWARD_TEXT),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20)
json_objects = st.dictionaries(texts | st.sampled_from(AWKWARD_TEXT), json_values, max_size=6)

COLUMN_KINDS = ["float", "int", "text", "none", "float_list", "int_list", "big_int_list"]


def make_column(kind, n, rng, words):
    if kind == "none":
        return None
    if kind == "text":
        return [words[i % len(words)] for i in range(n)]
    if kind.startswith("float"):
        # Every bit pattern: subnormals, -0.0, infinities and NaNs, then the specials.
        values = rng.integers(0, 2**64, n, dtype=np.uint64, endpoint=False).view(np.float64)
        values[:len(SPECIAL_FLOATS)] = SPECIAL_FLOATS[:n]
    else:
        values = rng.integers(-2**63, 2**63, n, dtype=np.int64, endpoint=False)
    if kind == "big_int_list":
        return [v * 2**70 for v in values.tolist()]
    return values.tolist() if kind.endswith("list") else values


class TestFormatsMatchReference:
    @FUZZ
    @given(n=st.sampled_from(ROW_COUNTS) | st.integers(0, 30),
           kinds=st.lists(st.sampled_from(COLUMN_KINDS), max_size=6),
           headers=st.lists(texts | st.sampled_from(AWKWARD_TEXT), min_size=7, max_size=7),
           words=st.lists(texts | st.sampled_from(AWKWARD_TEXT), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_table(self, tmp_path, n, kinds, headers, words, seed):
        rng = np.random.default_rng(seed)
        kinds = ["text"] + kinds  # one column with cells
        columns = {f"{i}{name}": make_column(kind, n, rng, words)
                   for i, (kind, name) in enumerate(zip(kinds, headers))}
        write_table(tmp_path / "ours.csv", columns)
        old_table(tmp_path / "theirs.csv", columns)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()
        # Two tables that take the same columns, the second in reverse order.
        reverse = dict(reversed(list(columns.items())))
        write_tables(columns, {tmp_path / "a.csv": tuple(columns),
                               tmp_path / "b.csv": tuple(reverse)})
        old_table(tmp_path / "b.ref", reverse)
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()
        assert (tmp_path / "b.csv").read_bytes() == (tmp_path / "b.ref").read_bytes()

    def test_table_rows_and_specials(self, tmp_path):
        # Chunk edges, with the specials spelled out.
        for n in ROW_COUNTS:
            floats = np.resize(np.array(SPECIAL_FLOATS), n)
            columns = {"id": [AWKWARD_TEXT[i % len(AWKWARD_TEXT)] for i in range(n)],
                       "x": floats, "k": np.arange(n) - 2, "absent": None}
            write_table(tmp_path / "ours.csv", columns)
            old_table(tmp_path / "theirs.csv", columns)
            data = (tmp_path / "ours.csv").read_bytes()
            assert data == (tmp_path / "theirs.csv").read_bytes()
            assert data.count(b"\r\n") == n + 1  # a newline inside a quoted id stays bare
            if n > 4096:  # the first row of the second chunk
                assert b'\r\n"a,b",5e-324,4094,\r\n' in data
            if n >= len(SPECIAL_FLOATS):
                for text in (b"-0.0", b"1e+16", b"1.7976931348623157e+308", b"0.3333333333333333"):
                    assert b"," + text + b"," in data

    def test_table_needs_one_length(self, tmp_path):
        with pytest.raises(ValueError, match="one common length"):
            write_table(tmp_path / "t.csv", {"a": [1, 2], "b": np.zeros(3)})
        with pytest.raises(ValueError, match="one common length"):
            write_table(tmp_path / "t.csv", {"a": None})
        with pytest.raises(ValueError, match="one common length"):
            write_tables({"a": [1], "b": [1, 2]},
                         {tmp_path / "a.csv": ("a",), tmp_path / "b.csv": ("b",)})

    @FUZZ
    @given(obj=json_objects)
    def test_json(self, tmp_path, obj):
        write_json(tmp_path / "ours.json", obj)
        old_json(tmp_path / "theirs.json", obj)
        assert (tmp_path / "ours.json").read_bytes() == (tmp_path / "theirs.json").read_bytes()

    @FUZZ
    @given(objs=st.lists(json_objects, min_size=1, max_size=5))
    def test_json_lines(self, tmp_path, objs):
        write_json_lines(tmp_path / "ours.jsonl", objs)
        old_json_lines(tmp_path / "theirs.jsonl", objs)
        assert (tmp_path / "ours.jsonl").read_bytes() == (tmp_path / "theirs.jsonl").read_bytes()

    @FUZZ
    @given(header=st.dictionaries(texts, json_values, max_size=4),
           array_list=st.lists(arrays(st.sampled_from(["<f8", ">f8", "<f4", "<i8"]),
                                      array_shapes(min_dims=1, max_dims=2, min_side=0),
                                      elements=st.integers(-1000, 1000)), max_size=3),
           transpose=st.booleans())
    def test_arrays_and_header_line(self, tmp_path, header, array_list, transpose):
        if transpose:  # a non-contiguous view
            array_list = [a.T for a in array_list]
        header = {**header, "format": "fmt-v1"}
        write_arrays(tmp_path / "ours.bin", header, *array_list)
        old_arrays(tmp_path / "theirs.bin", header, *array_list)
        assert (tmp_path / "ours.bin").read_bytes() == (tmp_path / "theirs.bin").read_bytes()
        read_header, body = header_line(tmp_path / "ours.bin", "fmt-v1", BundleIntegrityError)
        assert json.dumps(read_header, sort_keys=True) == json.dumps(header, sort_keys=True)
        flat = [np.asarray(a, dtype=np.float64).ravel() for a in array_list]
        expected = np.concatenate(flat) if flat else np.empty(0)
        np.testing.assert_array_equal(np.frombuffer(body, dtype="<f8"), expected)

    def test_header_line_checks_format(self, tmp_path):
        write_arrays(tmp_path / "a.bin", {"format": "other"}, np.ones(2))
        with pytest.raises(BundleIntegrityError, match="unknown format 'other'"):
            header_line(tmp_path / "a.bin", "fmt-v1", BundleIntegrityError)


# ---------------------------------------------------------------------------
# The program's own files against the writers they replaced
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def streamed():
    cfg = SyntheticConfig(n_queries=600, embedding_dim=8, n_latent_clusters=3, seed=5)
    trace, _ = generate_synthetic_trace(cfg)
    state = build_state(trace, scenario_by_name("good"), seed=5, fixed_k=3,
                        mlp_overrides={"max_epochs": 5}, bo_overrides={"offline_budget": 8},
                        update_interval=500)
    # The same seed draws the same latent centres; 4500 queries cross a table chunk.
    stream, _ = generate_synthetic_trace(SyntheticConfig(**{**asdict(cfg), "n_queries": 4500}))
    return trace, stream, state


class TestProgramFiles:
    def test_report_files(self, tmp_path, streamed):
        _, stream, state = streamed
        scenario = scenario_by_name("bad2good", switch_at=3)
        reports = {
            "stream": run_stream(state, stream, scenario, online=True),
            "static": run_stream(state, stream, scenario, online=False),
            "device": baseline_route("device_only", stream, scenario, window_size=700),
            "global": baseline_route("global_static", stream, scenario, window_size=700,
                                     pair=state.thresholds[0], predictor=state.predictor),
        }
        for prefix, report in reports.items():
            written = write_report_files(report, tmp_path / "ours", prefix)
            assert [p.name for p in written] == [
                f"{prefix}_{name}" for name in ("report.json", "windows.csv", "thresholds.csv",
                                                "decisions.csv", "utilities.csv")]
            (tmp_path / "theirs").mkdir(exist_ok=True)
            old_report_files(report, tmp_path / "theirs", prefix)
        same_files(tmp_path / "ours", tmp_path / "theirs")

    def test_bundle(self, tmp_path, streamed):
        _, stream, state = streamed
        save_bundle(state, tmp_path / "ours")
        (tmp_path / "theirs").mkdir()
        old_bundle_text_files(state, tmp_path / "theirs")
        same_files(tmp_path / "ours", tmp_path / "theirs")

    def test_checkpoint_and_centroids(self, tmp_path, streamed):
        _, _, state = streamed
        model, clusters = state.predictor, state.clusters
        save_checkpoint(model, tmp_path / "p.ckpt")
        old_arrays(tmp_path / "p.ref", {"format": "tierroute-mlp-v1", **asdict(model.config),
                                           "param_count": model.params.size},
                      model.input_mean, model.input_scale, model.params)
        save_centroids(clusters, tmp_path / "c.bin")
        old_arrays(tmp_path / "c.ref", {"format": "tierroute-centroids-v1", "k": clusters.k,
                                           "dim": clusters.dim, "seed": clusters.seed,
                                           "inertia": clusters.inertia}, clusters.centroids)
        for ours, ref in (("p.ckpt", "p.ref"), ("c.bin", "c.ref")):
            assert (tmp_path / ours).read_bytes() == (tmp_path / ref).read_bytes()

    def test_trace_and_scenario(self, tmp_path, streamed):
        trace, _, _ = streamed
        save_trace(trace, tmp_path / "t.jsonl")
        lines = (tmp_path / "t.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
        assert len(lines) == len(trace) + 1 and all(line.endswith("}\n") for line in lines)
        objs = [json.loads(line) for line in lines]
        old_json_lines(tmp_path / "t.ref", objs)
        assert (tmp_path / "t.jsonl").read_bytes() == (tmp_path / "t.ref").read_bytes()
        scenario = scenario_by_name("bad2good", switch_at=4)
        save_scenario(scenario, tmp_path / "s.jsonl")
        header = {"name": scenario.name, "switch_at": 4}
        links = [{"tier": tier, "phase": phase, **asdict(link)} for tier, phase, link in (
            ("edge", "pre", scenario.edge), ("cloud", "pre", scenario.cloud),
            ("edge", "post", scenario.edge_after), ("cloud", "post", scenario.cloud_after))]
        old_json_lines(tmp_path / "s.ref", [header] + links)
        assert (tmp_path / "s.jsonl").read_bytes() == (tmp_path / "s.ref").read_bytes()


# ---------------------------------------------------------------------------
# Only formats.py writes a file
# ---------------------------------------------------------------------------

def _mode(call: ast.Call, position: int):
    """The mode argument of an open call (absent means read), as a constant or None."""
    node = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[position] if len(call.args) > position else ast.Constant("r"))
    return node.value if isinstance(node, ast.Constant) else None


def file_writes(source: str) -> list[int]:
    """Lines of calls that write a file: csv writers, Path.write_text/write_bytes,
    and open/.open with a write mode or a mode that is not a constant."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute):
            writes = (func.attr in ("write_text", "write_bytes")
                      or func.attr in ("writer", "DictWriter")
                      and isinstance(func.value, ast.Name) and func.value.id == "csv")
            if func.attr == "open":
                mode = _mode(node, 0)
                writes = not isinstance(mode, str) or bool(set(mode) & set("wax+"))
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = _mode(node, 1)
            writes = not isinstance(mode, str) or bool(set(mode) & set("wax+"))
        else:
            writes = False
        if writes:
            lines.append(node.lineno)
    return lines


class TestOneWriter:
    @pytest.mark.parametrize("code", [
        "csv.writer(fh)", "csv.DictWriter(fh, names)", "p.write_text('x')",
        "Path(p).write_bytes(b'')", "open(p, 'w')", "open(p, mode='ab')", "open(p, 'r+')",
        "p.open('w', encoding='utf-8')", "p.open(mode='x')", "p.open(how)", "open(p, how)",
    ])
    def test_guard_sees_a_write(self, code):
        assert file_writes(code) == [1]

    @pytest.mark.parametrize("code", [
        "open(p)", "open(p, 'rb')", "p.open('r', encoding='utf-8')", "p.open()",
        "p.read_text()", "fh.write(x)", "writer.writerow(row)",
    ])
    def test_guard_passes_a_read(self, code):
        assert file_writes(code) == []

    def test_only_formats_writes(self):
        package = Path(tierroute.__file__).parent
        found = {path.name: file_writes(path.read_text(encoding="utf-8"))
                 for path in sorted(package.glob("*.py"))}
        assert found.pop("formats.py"), "the guard no longer sees the writers in formats.py"
        assert {name: lines for name, lines in found.items() if lines} == {}
