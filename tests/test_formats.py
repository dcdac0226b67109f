"""The one writer: each format's files are byte-identical to the hand-written
writers it replaced (kept below as the reference), and no other module writes."""

import ast
import csv
import hashlib
import json
import math
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
    CHUNK_ROWS,
    exact_floats,
    float_texts,
    header_line,
    read_table,
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
from tierroute.trace import (
    _ARRAY_COLUMNS,
    _INT_FIELDS,
    _SCORE_FIELDS,
    CORRECT_ABSENT,
    CORRECT_NULL,
    TIER_LABELS,
    TIERS,
    SyntheticConfig,
    TraceHeader,
    generate_synthetic_trace,
    load_trace,
    save_trace,
)

FUZZ = settings(max_examples=40, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

SPECIAL_FLOATS = [5e-324, -0.0, 1e16, sys.float_info.max, 1 / 3, 0.1, -2.5, 1e-300]
AWKWARD_TEXT = ["a,b", 'say "hi"', "two\nlines", "cr\rhere", "é中🙂", "", " ", "x;y\t'"]
ROW_COUNTS = [0, 1, 2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 4095, 4096, 4097]


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


def old_save_trace(trace, path):  # json.dumps of one object per record, from the columns
    ints = [getattr(trace, name).tolist() for name in _INT_FIELDS]
    compute, correct = trace.compute_s.tolist(), trace.correct.tolist()
    scores = [(name, getattr(trace, name).tolist()) for name in _SCORE_FIELDS]
    has_reference = trace.has_reference.tolist()

    def lines():
        yield asdict(TraceHeader(trace.embedding_dim, trace.prompt_text, trace.metadata))
        for i, rid in enumerate(trace.ids):
            tier_info = {}
            for t, label in enumerate(TIER_LABELS):
                sub = {name: col[i][t] for name, col in zip(_INT_FIELDS, ints)}
                sub["compute_seconds"] = compute[i][t]
                if correct[i][t] != CORRECT_ABSENT:
                    sub["correct"] = None if correct[i][t] == CORRECT_NULL else bool(correct[i][t])
                tier_info[label] = sub
            obj = {"id": rid, "embedding": trace.embeddings[i].tolist(),
                   "tier_info": tier_info, "has_reference": has_reference[i]}
            for name, col in scores:
                if not math.isnan(col[i]):
                    obj[name] = col[i]
            yield obj

    old_json_lines(path, lines())


def old_arrays(path, header, *arrays):  # save_checkpoint's idiom
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for array in arrays:
            fh.write(np.ascontiguousarray(array).astype("<f8").tobytes())


def old_report_files(report, outdir, prefix):
    n_windows, k = report.thresholds.shape[:2]
    history = {c: [(w, *report.thresholds[w, c].tolist()) for w in range(n_windows)]
               for c in range(k)}

    windows = [dict(zip(report.windows, row))
               for row in zip(*(col.tolist() for col in report.windows.values()))]

    def window_obj(w, index):
        return {
            "index": index, "count": w["count"], "accuracy": w["accuracy"],
            "mean_latency_s": w["mean_latency_s"], "mean_cost": w["mean_cost"],
            "mean_utility": w["mean_utility"],
            "tier_fractions": {label: w[f"frac_{label}"] for label in TIER_LABELS},
        }

    obj = {
        "policy": report.policy,
        "window_size": report.window_size,
        "latency_model": LATENCY_MODEL_NOTE,
        "totals": window_obj(report.totals, -1),
        "windows": [window_obj(w, w["window"]) for w in windows],
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
        for w in windows:
            writer.writerow([w["window"], w["count"], repr(w["accuracy"]),
                             repr(w["mean_latency_s"]), repr(w["mean_cost"]),
                             repr(w["mean_utility"]), repr(w["frac_device"]),
                             repr(w["frac_edge"]), repr(w["frac_cloud"])])
    with (outdir / f"{prefix}_thresholds.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster", "window", "tau1", "tau2"])
        for k, hist in sorted(history.items()):
            for window, tau1, tau2 in hist:
                writer.writerow([k, window, repr(tau1), repr(tau2)])
    d = report.decisions
    n = len(d["query_id"])

    def cells(column, fmt=repr):
        return [""] * n if column is None else [fmt(v) for v in column.tolist()]

    tiers = [TIERS[t].label for t in d["tier"].tolist()]
    ids, windows, clusters = d["query_id"], d["window"].tolist(), cells(d["cluster"], str)
    correct = [int(v) for v in d["correct"].tolist()]
    lats, costs, utilities = cells(d["latency_s"]), cells(d["cost"]), cells(d["utility"])
    with (outdir / f"{prefix}_decisions.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["query_id", "window", "cluster", "tier", "score", "tau1", "tau2",
                         "correct", "latency_s", "cost", "utility"])
        writer.writerows(zip(ids, windows, clusters, tiers, cells(d["score"]), cells(d["tau1"]),
                             cells(d["tau2"]), correct, lats, costs, utilities))
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
            if n > CHUNK_ROWS:  # the first row of the second chunk
                assert f'\r\n"a,b",5e-324,{CHUNK_ROWS - 2},\r\n'.encode() in data
            if n >= len(SPECIAL_FLOATS):
                for text in (b"-0.0", b"1e+16", b"1.7976931348623157e+308", b"0.3333333333333333"):
                    assert b"," + text + b"," in data

    @pytest.mark.parametrize("columns", [
        {"only": ["", "a", "", 'b"c', "", None]},   # a row of one empty cell is quoted
        {"": ["", ""]},                             # and so is a header of one
        {"only": np.array([], dtype=np.float64)},
        {'say "x"': [1, 2], "a,b": np.array([0.5, -0.0]), "two\nlines": None, "cr\r": ["", ""]},
        {"id": ["", ""], "absent": None},           # two empty cells are a bare comma
        {"flag": np.array([True, False]), "word": np.array(["a,b", "c"]), "n": [None, 2**70]},
    ])
    def test_table_quoting_cases(self, tmp_path, columns):
        write_table(tmp_path / "ours.csv", columns)
        old_table(tmp_path / "theirs.csv", columns)
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "theirs.csv").read_bytes()

    def test_table_of_absent_columns_only(self, tmp_path):
        # The row count comes from a column another table holds.
        write_tables({"a": None, "b": [1, 2]},
                     {tmp_path / "a.csv": ("a",), tmp_path / "aa.csv": ("a", "a")})
        assert (tmp_path / "a.csv").read_bytes() == b'a\r\n""\r\n""\r\n'
        assert (tmp_path / "aa.csv").read_bytes() == b"a,a\r\n,\r\n,\r\n"

    def test_formats_does_not_import_csv(self):
        source = Path(tierroute.formats.__file__).read_text(encoding="utf-8")
        imported = {alias.name for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Import) for alias in node.names}
        assert "csv" not in imported

    @FUZZ
    @given(n=st.sampled_from(ROW_COUNTS) | st.integers(0, 30),
           kinds=st.lists(st.sampled_from(["float", "int"]), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_numeric_table_reads_back(self, tmp_path, n, kinds, seed):
        rng = np.random.default_rng(seed)
        columns = {f"c{i}": make_column(kind, n, rng, []) for i, kind in enumerate(kinds)}
        for col in columns.values():  # repr's "nan" reads back as another NaN's bits
            if col.dtype.kind == "f":
                col[np.isnan(col)] = 0.0
        write_table(tmp_path / "t.csv", columns)
        rows = list(read_table(tmp_path / "t.csv", ",".join(columns), BundleIntegrityError))
        assert [where for where, _ in rows] == [f"{tmp_path / 't.csv'}: line {i}"
                                                for i in range(2, n + 2)]
        for j, col in enumerate(columns.values()):
            texts = [cells[j] for _, cells in rows]
            if col.dtype.kind == "f":
                read = np.array(list(map(float, texts)), dtype=np.float64).reshape(n)
                assert read.view(np.int64).tolist() == col.view(np.int64).tolist()
            else:
                assert list(map(int, texts)) == col.tolist()

    @pytest.mark.parametrize("data, message", [
        (b"", "line 1: header must be 'a,b'"),
        (b"a,c\r\n1,2\r\n", "line 1: header must be 'a,b'"),
        (b'"a",b\r\n1,2\r\n', "line 1: header must be 'a,b'"),
        (b"a,b\r\n1,2\r\n\r\n1,2,3\r\n", "line 4: more cells than the header"),
        (b"a,b\r1,2\n\n1\r\n", "line 4: fewer cells than the header"),
        (b"a,b\r\n1,\xff\r\n", "not a readable CSV file"),
    ], ids=["empty", "renamed", "quoted_header", "more_cells", "fewer_cells", "non_utf8"])
    def test_table_refused(self, tmp_path, data, message):
        (tmp_path / "t.csv").write_bytes(data)
        with pytest.raises(BundleIntegrityError) as info:
            list(read_table(tmp_path / "t.csv", "a,b", BundleIntegrityError))
        assert str(info.value).startswith(f"{tmp_path / 't.csv'}: {message}")

    def test_table_line_ends_and_quotes(self, tmp_path):
        (tmp_path / "t.csv").write_bytes(b'a,b\r1,"2"\n\r\n\r3,4')
        assert list(read_table(tmp_path / "t.csv", "a,b", BundleIntegrityError)) == [
            (f"{tmp_path / 't.csv'}: line 2", ["1", '"2"']),
            (f"{tmp_path / 't.csv'}: line 5", ["3", "4"])]
        with pytest.raises(BundleIntegrityError) as info:
            list(read_table(tmp_path, "a,b", BundleIntegrityError))  # a directory
        assert str(info.value).startswith(f"{tmp_path}: cannot read (")

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
# Float text: orjson's where it is repr's, the format's own text elsewhere
# ---------------------------------------------------------------------------

def neighbours(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


# Both range edges and their neighbours, the extremes, and every kind of value.
EDGE_FLOATS = [v for x in (1e-4, 1e16) for v in neighbours(x)] + [
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    sys.float_info.max, 1e-300, 1e300, 1 / 3, 0.1, 1.0, 123456789.125, 1e15, 9007199254740993.0]
EDGE_FLOATS += [-v for v in EDGE_FLOATS]
NON_FINITE = [math.nan, math.inf, -math.inf]


def json_float(value):
    return json.dumps(value)


def bit_patterns(n_min=0):
    return st.lists(st.integers(0, 2**64 - 1), min_size=n_min, max_size=40).map(
        lambda bits: np.array(bits, dtype=np.uint64).view(np.float64))


float_arrays = (
    bit_patterns()
    | st.lists(st.floats(allow_subnormal=True) | st.sampled_from(EDGE_FLOATS + NON_FINITE),
               max_size=40).map(lambda v: np.array(v, dtype=np.float64))
    | st.lists(st.floats(-1e-3, 1e-3), max_size=40).map(lambda v: np.array(v, dtype=np.float64)))


class TestFloatTexts:
    @FUZZ
    @given(values=float_arrays)
    def test_matches_repr_and_json(self, values):
        assert float_texts(values) == [repr(v) for v in values.tolist()]
        assert float_texts(values, json_float) == [json.dumps(v) for v in values.tolist()]

    @FUZZ
    @given(values=float_arrays)
    def test_reference_only_outside_the_range(self, values):
        # orjson's own text inside the range, so a release that prints those
        # floats otherwise fails above instead of changing files.
        texts = float_texts(values, lambda v: "ref")
        exact = exact_floats(values).tolist()
        for value, text, inside in zip(values.tolist(), texts, exact):
            assert (text == "ref") != inside, (value, text)
            inside_range = value == 0 or 1e-4 <= abs(value) < 1e16
            assert inside == inside_range, value

    def test_edges_specials_and_shapes(self):
        values = np.array(EDGE_FLOATS + NON_FINITE)
        assert float_texts(values) == [repr(v) for v in values.tolist()]
        assert float_texts(values, json_float) == [json.dumps(v) for v in values.tolist()]
        assert float_texts(values[::-3]) == [repr(v) for v in values[::-3].tolist()]
        assert float_texts(np.empty(0)) == []
        assert float_texts(np.array([1e-4])) == ["0.0001"]
        assert float_texts(np.array([1e-5]), json_float) == ["1e-05"]
        assert float_texts(np.array([math.nan, math.inf]), json_float) == ["NaN", "Infinity"]
        assert float_texts(np.empty((3, 0))) == []
        grid = values[:12].reshape(3, 4)
        assert float_texts(grid) == [repr(v) for v in grid.ravel().tolist()]
        assert float_texts(grid.T) == [repr(v) for v in grid.T.ravel().tolist()]
        assert float_texts(np.float32([0.1, 3e-5])) == [repr(v) for v in
                                                       np.float32([0.1, 3e-5]).tolist()]


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
        trace, stream, _ = streamed
        for t in (trace, stream):
            save_trace(t, tmp_path / "t.jsonl")
            old_save_trace(t, tmp_path / "t.ref")
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
# save_trace against the json.dumps writer it replaced
# ---------------------------------------------------------------------------

AWKWARD_IDS = ["é中🙂", 'say "hi"', "back\\slash", "tab\tnew\nline\x00", "a,b", ""]
SCORE_EDGES = [0.0, -0.0, 1e-4, *neighbours(1e-4)[::2], 5e-324, 1e-300, 1.0,
               np.nextafter(1.0, 0), math.nan]


def edge_trace(n, seed, loadable):
    """A synthetic trace of ``n`` records with edge values sprinkled into every
    float column, awkward ids, and absent, null and odd ``correct`` codes. A
    loadable one keeps what ``load_trace`` validates; another also holds NaN,
    ±inf, scores outside [0, 1] and ids with lone surrogates."""
    trace, _ = generate_synthetic_trace(SyntheticConfig(
        n_queries=max(n, 1), embedding_dim=5, n_latent_clusters=2, seed=seed))
    trace = trace.subset(slice(0, n))
    rng = np.random.default_rng(seed)
    odd = [] if loadable else NON_FINITE + [2.0, 1e16, -1e-5]

    def sprinkle(column, values):
        mask = rng.random(column.shape) < 0.05
        column[mask] = rng.choice(np.array(values), size=int(mask.sum()))

    sprinkle(trace.embeddings, EDGE_FLOATS + odd)
    sprinkle(trace.compute_s, [abs(v) for v in EDGE_FLOATS] + odd)
    for name in _SCORE_FIELDS:
        sprinkle(getattr(trace, name), SCORE_EDGES + odd)
    getattr(trace, _SCORE_FIELDS[seed % 4])[:] = math.nan  # one score absent throughout
    trace.correct[:] = rng.choice(np.array([CORRECT_ABSENT, CORRECT_NULL, 0, 1]
                                           + ([] if loadable else [3, -7]), dtype=np.int8),
                                  size=trace.correct.shape)
    if loadable:
        trace.has_reference &= (trace.correct >= 0).all(axis=1)
    ids = AWKWARD_IDS + ([] if loadable else ["lone\ud800"])
    trace.ids = [f"{ids[i % len(ids)]}{i}" for i in range(n)]
    trace.metadata["note"] = "ünïcode"
    return trace


class TestSaveTrace:
    @pytest.mark.parametrize("loadable", [True, False], ids=["loadable", "any"])
    @pytest.mark.parametrize("n", ROW_COUNTS)
    def test_matches_the_json_writer(self, tmp_path, n, loadable):
        trace = edge_trace(n, seed=n, loadable=loadable)
        if n > CHUNK_ROWS:  # rows with a float outside orjson's exact range, and rows without
            outside = ~exact_floats(np.concatenate([trace.embeddings, trace.compute_s], axis=1))
            assert 0 < outside.any(axis=1).sum() < n
        save_trace(trace, tmp_path / "ours.jsonl")
        old_save_trace(trace, tmp_path / "theirs.jsonl")
        ours = (tmp_path / "ours.jsonl").read_bytes()
        assert ours == (tmp_path / "theirs.jsonl").read_bytes()
        assert ours.count(b"\n") == n + 1
        if not loadable:
            return
        loaded = load_trace(tmp_path / "ours.jsonl")
        assert loaded.ids == trace.ids and loaded.metadata == trace.metadata
        for name in _ARRAY_COLUMNS:
            ours, theirs = getattr(loaded, name), getattr(trace, name)
            assert ours.dtype == theirs.dtype and ours.shape == theirs.shape, name
            assert ours.tobytes() == theirs.tobytes(), name  # bit for bit


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
