"""Record lines are decoded by orjson, with stdlib json as the reference.

A differential fuzz compares ``load_trace`` with a copy of the json-only loop
it replaced, reading each record through a frozen copy of the per-record
readers that the column reader replaced: on every generated file both must
give bit-identical columns and ids, or the same exception class and message.
A second one compares the column reader on one record with those frozen
readers. The other tests pin the malformed files that the json-only loop let
through as internal errors, and the chunks that are read column by column.
"""

import json
import math
import random
import struct
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import column_trace
from tierroute import trace as trace_module
from tierroute.cli import main
from tierroute.errors import TierRouteError, TraceFormatError, TraceValidationError
from tierroute.fields import MISSING, bad_value, read, typed
from tierroute.trace import (
    _ARRAY_COLUMNS, _CHUNK_LINES, _CORRECT_CODES, _SCORE_FIELDS, _TIER_COLUMNS, BYTES_PER_TOKEN,
    CORRECT_ABSENT, CORRECT_NULL, TIER_LABELS, SyntheticConfig, Trace, TraceHeader,
    _empty_columns, _read_record, _read_rows, generate_synthetic_trace, load_trace, save_trace,
)


def reference_load(path) -> Trace:
    """``load_trace`` as it was with stdlib json only: text-mode lines, each
    decoded by ``json.loads`` and read by the frozen per-record readers. The
    one change is RecursionError among the decode errors, where it used to
    escape as an internal error."""
    path = Path(path)
    with path.open("rb") as fh:
        capacity = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
    with path.open("r", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise TraceFormatError(f"{path}: empty trace file (missing header line)")
        try:
            header = read(TraceHeader, json.loads(first), f"{path}: line 1: header",
                          error=TraceFormatError)
            cols = _empty_columns(capacity, header.embedding_dim)
        except (ValueError, MemoryError) as exc:
            raise TraceFormatError(f"{path}: line 1: bad header ({exc})") from exc
        ids = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                rid = obj["id"]
                if type(rid) is not str:
                    raise bad_value("id", rid, "a string", TypeError)
                frozen_read_fields(obj, len(ids), cols)
            except TraceValidationError as exc:
                raise TraceValidationError(f"{path}: line {lineno}: record {rid!r}: {exc}") from exc
            except (json.JSONDecodeError, KeyError, TypeError, ValueError, AttributeError,
                    OverflowError, RecursionError) as exc:
                raise TraceFormatError(f"{path}: line {lineno}: malformed record ({exc})") from exc
            ids.append(rid)
    n = len(ids)
    trace = Trace(ids=ids, prompt_text=header.prompt_text, metadata=header.metadata,
                  **{name: col[:n] for name, col in cols.items()})
    try:
        trace.validate()
    except TraceValidationError as exc:
        raise TraceValidationError(f"{path}: {exc}") from exc
    return trace


def outcome(load, path):
    """What loading gives: every column's bytes, or the exception's class and message."""
    try:
        trace = load(path)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return (trace.ids, trace.prompt_text, trace.metadata,
            [(getattr(trace, name).dtype, getattr(trace, name).shape,
              getattr(trace, name).tobytes()) for name in _ARRAY_COLUMNS])


class Raw(str):
    """JSON text written as is."""


class Obj(list):
    """A JSON object as (key, value) pairs, so a key may repeat."""


def json_text(value, rnd) -> str:
    """``value`` as JSON text, with spacing, key order and escaping drawn from ``rnd``."""
    def space():
        return rnd.choice(["", "", " ", "\t", " \t "])

    if isinstance(value, Raw):
        return value
    if isinstance(value, (Obj, dict)):
        pairs = list(value if isinstance(value, Obj) else value.items())
        rnd.shuffle(pairs)
        return "{" + ",".join(f"{space()}{json_text(key, rnd)}{space()}:{space()}"
                              f"{json_text(item, rnd)}{space()}" for key, item in pairs) + "}"
    if isinstance(value, list):
        return "[" + ",".join(space() + json_text(item, rnd) + space() for item in value) + "]"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=rnd.random() < 0.5)
    return json.dumps(value)


def float64(finite: bool = False):
    """A float64 from random bits, or one of hypothesis's edge cases
    (subnormals, -0.0, the extremes and, unless ``finite``, NaN and the infinities)."""
    bits = st.binary(min_size=8, max_size=8).map(lambda b: struct.unpack("<d", b)[0])
    values = bits | st.floats(allow_nan=not finite, allow_infinity=not finite)
    return values.filter(math.isfinite) if finite else values


@st.composite
def float_text(draw, values, exact: bool = False) -> Raw:
    """A float from ``values``, in shortest form or a longer one; an ``exact``
    one is never written as an integer literal, which JSON reads as an int."""
    x = draw(values)
    if not math.isfinite(x):
        return Raw(json.dumps(x))  # NaN, Infinity, -Infinity
    forms = ("{!r}", "{!r}", "{:.17e}", "{:.30e}", "{:.25g}", "{:.17E}", "{:.40f}")
    if exact:
        forms = tuple(form for form in forms if form != "{:.25g}")
    form = draw(st.sampled_from(forms))
    return Raw(form.format(x))


@st.composite
def long_int_text(draw, most: int) -> Raw:
    """An integer literal of 19 to ``most`` digits."""
    digits = draw(st.integers(19, most))
    sign = draw(st.sampled_from(("", "-")))
    return Raw(sign + str(draw(st.integers(10 ** (digits - 1), 10**digits - 1))))


def ints(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda v: Raw(str(v)))


GENERATED, PROMPT, BYTES = ints(1, 10_000), ints(0, 10_000), ints(0, 10**9)
SECONDS = float_text(float64(finite=True).map(abs))
COORDINATE = float_text(float64(finite=True)) | long_int_text(40)
SCORE = float_text(st.floats(0.0, 1.0))
# The numbers of a full record: each a float literal.
FULL = {SECONDS: float_text(float64(finite=True).map(abs), exact=True),
        COORDINATE: float_text(float64(finite=True), exact=True),
        SCORE: float_text(st.floats(0.0, 1.0), exact=True)}
# Number tokens that a field may not hold, or that only stdlib json reads.
ODD_NUMBER = (float_text(float64()) | long_int_text(400)
              | st.sampled_from(("NaN", "Infinity", "-Infinity", "1e400", "-1e400")).map(Raw))
ID = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def record(draw, i: int, dim: int, full: bool = False):
    """One record object. Three in four are valid; in the others any number
    may be an odd one. A ``full`` one has the form ``save_trace`` writes: every
    field present, each number of its exact type, but any key order, spacing
    and float text."""
    odd = not full and draw(st.integers(0, 3)) == 0

    def number(plain):
        if full:
            return draw(FULL.get(plain, plain))
        return draw(ODD_NUMBER if odd and draw(st.booleans()) else plain)

    has_reference = draw(st.booleans())
    tiers = {}
    for label in ("device", "edge", "cloud"):
        sub = Obj([("generated_tokens", number(GENERATED)), ("prompt_tokens", number(PROMPT)),
                   ("compute_seconds", number(SECONDS))])
        for key in ("request_bytes", "response_bytes"):
            if full or draw(st.booleans()):
                sub.append((key, number(BYTES)))
        bit = draw(st.booleans() if full or has_reference and not odd
                   else st.sampled_from((True, False, None, "absent")))
        if bit != "absent":
            sub.append(("correct", bit))
        tiers[label] = sub
    embedding = Raw("[" * 5000) if odd and draw(st.integers(0, 9)) == 0 else [
        number(COORDINATE) for _ in range(dim)]
    obj = Obj([("id", draw(ID) + f"#{i}"), ("embedding", embedding), ("tier_info", tiers),
               ("has_reference", has_reference)])
    for name in ("sim_cloud", "sim_edge", "judge_cloud", "judge_edge"):
        if full or draw(st.booleans()):
            obj.append((name, number(SCORE)))
    extra = draw(st.sampled_from(("none",) * 4 + ("surrogate", "nested", "repeat")))
    if extra == "surrogate":  # json.loads passes a lone surrogate escape, orjson refuses it
        obj.append(("note", Raw('"\\ud800x\\udfff"')))
    elif extra == "nested":
        obj.append(("note", [{"a": [1, [2.5, None]]}, "ü"]))
    elif extra == "repeat":  # the last of a repeated key stands
        obj.append(("has_reference", draw(st.booleans())))
    return obj


@st.composite
def trace_bytes(draw, dim: int = 3) -> bytes:
    """A trace file: a header, then record lines among blank and
    whitespace-only ones, some ending in \\r\\n and some cut short."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    lines = [json.dumps({"embedding_dim": dim, "metadata": {"m": "é"}, "prompt_text": "p"})]
    for i in range(draw(st.integers(1, 4))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(("", " \t", " ", "\u3000 "))))
        text = json_text(draw(record(i, dim)), rnd)
        if draw(st.integers(0, 19)) == 0:
            text = text[:draw(st.integers(0, len(text) - 1))]
        lines.append(text)
    return "".join(line + rnd.choice(["\n", "\n", "\r\n"]) for line in lines).encode("utf-8")


@st.composite
def tiled_trace_bytes(draw, dim: int = 3) -> bytes:
    """A trace file of at least three chunks, from one to four record templates
    drawn as in ``trace_bytes``, each written with its own id every time. The
    full ones are written in turn over and over; each other one is written
    once, at a drawn place, unless no template is full."""
    rnd = random.Random(draw(st.integers(0, 2**32)))
    full, other = [], []
    for i in range(draw(st.integers(1, 4))):
        blank = draw(st.sampled_from(("", " \t", " ", "\u3000 "))) if draw(
            st.integers(0, 9)) == 0 else None
        cut = draw(st.integers(0, 19)) == 0
        is_full = draw(st.booleans())
        template = (draw(record(i, dim, full=is_full)), blank, cut)
        (full if is_full and blank is None and not cut else other).append(template)
    tiled, once = (full, other) if full else (other, [])
    order = [tiled[i % len(tiled)]
             for i in range(2 * _CHUNK_LINES + draw(st.integers(1, _CHUNK_LINES)))]
    for template in once:
        order.insert(draw(st.integers(0, len(order))), template)
    lines = [json.dumps({"embedding_dim": dim, "metadata": {}, "prompt_text": "p"})]
    for copy, (obj, blank, cut) in enumerate(order):
        if blank is not None:
            lines.append(blank)
        text = json_text(Obj((key, value + f"~{copy}" if key == "id" else value)
                             for key, value in obj), rnd)
        lines.append(text[:len(text) // 2] if cut else text)
    return "".join(line + rnd.choice(["\n", "\n", "\r\n"]) for line in lines).encode("utf-8")


def test_orjson_path_matches_json_reference(tmp_path_factory):
    path = tmp_path_factory.mktemp("decode") / "trace.jsonl"
    seen = {"loaded": 0, "refused": 0}

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(trace_bytes())
    def check(data):
        path.write_bytes(data)
        got, want = outcome(load_trace, path), outcome(reference_load, path)
        assert got == want
        if isinstance(got[0], type):
            assert issubclass(got[0], TierRouteError)
            seen["refused"] += 1
        else:
            seen["loaded"] += 1

    check()
    assert seen["loaded"] > 0 and seen["refused"] > 0


# The per-record readers that load_trace used before ``_read_rows`` read every
# field as a column, frozen as the reference: ``fields.typed``'s rules, one
# record and one field at a time.

def frozen_field(obj, key, hint, default=MISSING):
    value = obj.get(key, MISSING)
    if value is MISSING and default is not MISSING:
        return default
    return typed(value, hint, key, TraceValidationError)


def frozen_correct_code(sub):
    bit = sub.get("correct", MISSING)
    return _CORRECT_CODES[bit if bit is MISSING else frozen_field(sub, "correct", bool | None)]


def frozen_tier(sub):
    generated = frozen_field(sub, "generated_tokens", int)
    prompt = frozen_field(sub, "prompt_tokens", int, 0)
    return (generated, prompt, frozen_field(sub, "request_bytes", int, BYTES_PER_TOKEN * prompt),
            frozen_field(sub, "response_bytes", int, BYTES_PER_TOKEN * generated),
            frozen_field(sub, "compute_seconds", float), frozen_correct_code(sub))


def frozen_read_fields(obj, i, cols):
    """Every field of a record but its id, into row ``i`` of the columns."""
    embedding = obj["embedding"]
    dim = cols["embeddings"].shape[1]
    if len(embedding) != dim:
        raise TraceValidationError(f"embedding has length {len(embedding)}, expected {dim}")
    if not {float, int}.issuperset(map(type, embedding)):
        j, value = next((j, v) for j, v in enumerate(embedding) if type(v) not in (float, int))
        raise bad_value(f"embedding[{j}]", value, "a JSON number", TraceValidationError)
    cols["embeddings"][i] = embedding
    tier_info = obj["tier_info"]
    if tier_info.keys() != set(TIER_LABELS):
        raise TraceValidationError(
            f"tier_info must hold exactly device, edge and cloud; got {sorted(tier_info)}")
    tiers = []
    for label in TIER_LABELS:
        try:
            tiers.append(frozen_tier(tier_info[label]))
        except TraceValidationError as exc:
            raise TraceValidationError(f"tier {label}: {exc}") from exc
    for name, values in zip(_TIER_COLUMNS, zip(*tiers)):
        cols[name][i] = values
    for name in _SCORE_FIELDS:
        cols[name][i] = frozen_field(obj, name, float, math.nan)
    cols["has_reference"][i] = frozen_field(obj, "has_reference", bool, False)


def frozen_read_record(obj, i, cols):
    """A record object into row ``i`` of the columns; returns its id."""
    rid = obj["id"]
    if type(rid) is not str:
        raise bad_value("id", rid, "a string", TypeError)
    try:
        rid.encode()
    except UnicodeEncodeError:
        raise bad_value("id", rid, "a string without lone surrogates", ValueError) from None
    try:
        frozen_read_fields(obj, i, cols)
    except TraceValidationError as exc:
        raise TraceValidationError(f"record {rid!r}: {exc}") from exc
    return rid


def record_outcome(read_record, obj, dim):
    """What ``read_record`` makes of ``obj`` alone: its id and every column's
    bytes, or the exception's class and message."""
    cols = _empty_columns(1, dim)
    try:
        rid = read_record(obj, cols)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    return rid, [(name, col.tobytes()) for name, col in cols.items()]


def column_read(obj, cols):
    ids = []
    _read_record(obj, ids, cols)
    return ids


def test_field_reads_match_frozen_reference():
    seen = {"read": 0, "refused": 0}

    @settings(max_examples=400, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(record(0, 3), st.integers(0, 2**32))
    def check(obj, seed):
        text = json_text(obj, random.Random(seed))
        for decode in (json.loads, orjson.loads):
            try:
                decoded = decode(text)
            except (ValueError, RecursionError):  # the unclosed arrays, or orjson's refusals
                continue
            got = record_outcome(column_read, decoded, 3)
            want = record_outcome(lambda obj, cols: [frozen_read_record(obj, 0, cols)],
                                  decoded, 3)
            assert got == want
            seen["refused" if isinstance(got[0], type) else "read"] += 1

    check()
    assert all(seen.values()), seen


def test_ints_past_2_53_read_as_float(tmp_path):
    """An int where a float is read gives ``float(v)``'s bits, in a chunk as alone."""
    big = 2**60 + 129  # float(big) rounds up to 2**60 + 256; truncation would not
    objs = list(map(json.loads, chunked_file(tmp_path).read_text().splitlines()[1:6]))
    objs[1]["embedding"][2] = -big
    objs[2]["tier_info"]["edge"]["compute_seconds"] = big
    objs[3]["sim_edge"] = big
    cols = _empty_columns(len(objs), 4)
    _read_rows(objs, [], cols)
    assert cols["embeddings"][1, 2] == float(-big) != -big
    assert cols["compute_s"][2, 1] == cols["sim_edge"][3] == float(big)
    for i, obj in enumerate(objs):
        assert record_outcome(column_read, obj, 4) == record_outcome(
            lambda obj, cols: [frozen_read_record(obj, 0, cols)], obj, 4)


def two_record_file(tmp_path) -> Path:
    path = tmp_path / "trace.jsonl"
    save_trace(column_trace([[0.5, 1.0, 2.0], [1.5, 1.0, 2.0]]), path)
    return path


def expect_exit_2(tmp_path, capsys, path, *needles):
    assert main(["train", "--trace", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    for needle in (str(path), *needles):
        assert needle in err


class TestMalformedLines:
    def test_invalid_utf8_in_a_record(self, tmp_path, capsys):
        path = two_record_file(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"q1"', b'"q\xff1"'))
        expect_exit_2(tmp_path, capsys, path, "line 3: malformed record",
                      "can't decode byte 0xff")

    def test_invalid_utf8_in_the_header(self, tmp_path, capsys):
        path = two_record_file(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"prompt_text": "', b'"prompt_text": "\xff'))
        expect_exit_2(tmp_path, capsys, path, "line 1: bad header", "can't decode byte 0xff")

    def test_nested_too_deep(self, tmp_path, capsys):
        path = two_record_file(tmp_path)
        path.write_bytes(path.read_bytes() + b"[" * 5000 + b"\n")
        expect_exit_2(tmp_path, capsys, path, "line 4: malformed record",
                      "maximum recursion depth exceeded")

    def test_bare_cr_line_ends(self, tmp_path, capsys):
        path = two_record_file(tmp_path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        expect_exit_2(tmp_path, capsys, path, "line 1: bad header (Extra data")

    def test_lone_surrogate_in_id(self, tmp_path, capsys):
        path = two_record_file(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"q0"', b'"\\ud800q0"'))
        expect_exit_2(tmp_path, capsys, path, "line 2: malformed record (id must be")

    def test_crlf_trace_loads_identically(self, tmp_path):
        path = two_record_file(tmp_path)
        crlf = tmp_path / "crlf.jsonl"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        want = outcome(load_trace, path)
        assert outcome(load_trace, crlf) == outcome(reference_load, crlf) == want


# ---------------------------------------------------------------------------
# Chunks read column by column
# ---------------------------------------------------------------------------

N_CHUNKED = 3 * _CHUNK_LINES + 40  # records: the fourth chunk is a short one


@pytest.fixture
def per_line_reads(monkeypatch):
    """The number of records read one at a time by ``_read_record``."""
    calls = [0]
    read_record = trace_module._read_record

    def counted(*args):
        calls[0] += 1
        return read_record(*args)

    monkeypatch.setattr(trace_module, "_read_record", counted)
    return calls


def chunked_trace() -> Trace:
    return generate_synthetic_trace(SyntheticConfig(n_queries=N_CHUNKED, embedding_dim=4,
                                                    n_latent_clusters=2, seed=5))[0]


def chunked_file(tmp_path) -> Path:
    path = tmp_path / "trace.jsonl"
    save_trace(chunked_trace(), path)
    return path


def edit_line(path, lineno, edit) -> None:
    """Rewrite the record on line ``lineno`` as ``edit`` leaves its object."""
    lines = path.read_bytes().split(b"\n")
    obj = json.loads(lines[lineno - 1])
    edit(obj)
    lines[lineno - 1] = json.dumps(obj, sort_keys=True).encode()
    path.write_bytes(b"\n".join(lines))


def test_saved_trace_loads_without_per_line_reads(tmp_path, per_line_reads):
    path = chunked_file(tmp_path)
    got = outcome(load_trace, path)
    assert per_line_reads[0] == 0
    assert got == outcome(reference_load, path)
    assert len(got[0]) == N_CHUNKED


def sparse_trace() -> Trace:
    """``chunked_trace`` in every form ``save_trace`` writes: in each chunk,
    each score is absent on some rows, and some rows without references have
    a tier without a correct bit and a tier with a null one."""
    trace = chunked_trace()
    rows = np.arange(len(trace))
    for j, name in enumerate(_SCORE_FIELDS):
        getattr(trace, name)[rows % 7 == j] = np.nan
    picked = rows[rows % 11 == 0]
    trace.has_reference[picked] = False
    trace.correct[picked, picked // 11 % 3] = CORRECT_ABSENT
    trace.correct[picked, (picked // 11 + 1) % 3] = CORRECT_NULL
    return trace


def test_sparse_saved_trace_loads_without_per_line_reads(tmp_path, per_line_reads):
    trace = sparse_trace()
    path = tmp_path / "trace.jsonl"
    save_trace(trace, path)
    got = outcome(load_trace, path)
    assert per_line_reads[0] == 0
    assert got == outcome(reference_load, path) == outcome(lambda _: trace, path)
    resaved = tmp_path / "resaved.jsonl"
    save_trace(load_trace(path), resaved)
    assert resaved.read_bytes() == path.read_bytes()


def tier(obj, label):
    return obj["tier_info"][label]


# A tier may lack a correct bit only in a record without references.
LENIENT = {
    "int score": lambda obj: obj.update(sim_edge=1),
    "absent score": lambda obj: obj.pop("judge_cloud"),
    "absent request_bytes": lambda obj: tier(obj, "edge").pop("request_bytes"),
    "absent prompt_tokens": lambda obj: tier(obj, "device").pop("prompt_tokens"),
    "absent has_reference": lambda obj: obj.pop("has_reference"),
    "int compute_seconds": lambda obj: tier(obj, "device").update(compute_seconds=2),
    "long int compute_seconds": lambda obj: tier(obj, "cloud").update(
        compute_seconds=2**60 + 129),
    "int embedding value": lambda obj: obj["embedding"].__setitem__(0, 0),
    "long int embedding value": lambda obj: obj["embedding"].__setitem__(3, -2**60 - 129),
    "correct null": lambda obj: (tier(obj, "cloud").update(correct=None),
                                 obj.update(has_reference=False)),
    "absent correct": lambda obj: (tier(obj, "cloud").pop("correct"),
                                   obj.update(has_reference=False)),
    "extra key": lambda obj: obj.update(note={"a": [1, None]}),
}


@pytest.mark.parametrize("form", [*LENIENT, "blank line"])
def test_lenient_record_in_a_middle_chunk(tmp_path, per_line_reads, form):
    path = chunked_file(tmp_path)
    lineno = 2 + _CHUNK_LINES + 100  # in the second of four chunks
    if form == "blank line":
        lines = path.read_bytes().split(b"\n")
        path.write_bytes(b"\n".join(lines[:lineno - 1] + [b""] + lines[lineno - 1:]))
    else:
        edit_line(path, lineno, LENIENT[form])
    got = outcome(load_trace, path)
    assert got == outcome(reference_load, path)
    assert got[0] == chunked_trace().ids
    # Every valid form is read column by column, and a blank line is no record.
    assert per_line_reads[0] == 0


def move_coordinate(obj):
    obj["embedding"].append(0.5)  # this record's embedding one too long ...


def drop_coordinate(obj):
    obj["embedding"].pop()  # ... and the next one's one too short: the chunk's count holds


REFUSED = {
    "embedding lengths": [move_coordinate, drop_coordinate],
    "bool token count": [lambda obj: tier(obj, "edge").update(generated_tokens=True)],
    "int correct bit": [lambda obj: tier(obj, "device").update(correct=1)],
    "int64 overflow": [lambda obj: tier(obj, "cloud").update(response_bytes=2**63)],
    "number id": [lambda obj: obj.update(id=7.5)],
    "tiers missing": [lambda obj: obj["tier_info"].pop("edge")],
}


@pytest.mark.parametrize("form", REFUSED)
def test_refused_record_in_a_middle_chunk(tmp_path, form):
    path = chunked_file(tmp_path)
    for offset, edit in enumerate(REFUSED[form]):
        edit_line(path, 2 + _CHUNK_LINES + 100 + offset, edit)
    got = outcome(load_trace, path)
    assert got == outcome(reference_load, path)
    assert issubclass(got[0], TierRouteError) and f"line {2 + _CHUNK_LINES + 100}:" in got[1]


@pytest.mark.parametrize("where, edit", [
    ("tier edge: compute_seconds", lambda obj: tier(obj, "edge").update(compute_seconds=10**400)),
    ("sim_cloud", lambda obj: obj.update(sim_cloud=-10**309)),
])
def test_integer_beyond_float_range_names_record_and_key(tmp_path, capsys, where, edit):
    path = chunked_file(tmp_path)
    lineno = 2 + _CHUNK_LINES + 100
    edit_line(path, lineno, edit)
    got = outcome(load_trace, path)
    assert got == outcome(reference_load, path)
    assert got[0] is TraceValidationError
    rid = chunked_trace().ids[lineno - 2]
    expect_exit_2(tmp_path, capsys, path,
                  f"line {lineno}: record {rid!r}: {where} must be a finite number; got ")


def test_malformed_record_in_the_third_chunk_names_its_line(tmp_path, capsys):
    path = chunked_file(tmp_path)
    lineno = 2 + 2 * _CHUNK_LINES + 7
    lines = path.read_bytes().split(b"\n")
    lines[lineno - 1] = lines[lineno - 1][:40]  # cut short
    path.write_bytes(b"\n".join(lines))
    expect_exit_2(tmp_path, capsys, path, f"line {lineno}: malformed record")


@pytest.fixture
def orjson_decodes(monkeypatch):
    """The number of lines ``load_trace`` hands to ``orjson.loads``."""
    calls = [0]

    class Counted:
        @staticmethod
        def loads(data):
            calls[0] += 1
            return orjson.loads(data)

    monkeypatch.setattr(trace_module, "orjson", Counted)
    return calls


def add_note(lines, lineno, note: bytes) -> None:
    """Give the record on line ``lineno`` an extra key, written as raw JSON text."""
    lines[lineno - 1] = b'{"note": ' + note + b", " + lines[lineno - 1][1:]


def test_refused_chunk_is_decoded_by_json_alone(tmp_path, capsys, orjson_decodes):
    """In a chunk orjson refuses, a line nested deeper than ``json.loads`` can
    follow fails as in the reference, though orjson reads it and the reader
    ignores the deep key; no line of the chunk is decoded by orjson twice."""
    path = chunked_file(tmp_path)
    lines = path.read_bytes().split(b"\n")
    add_note(lines, 6, b"NaN")  # orjson refuses the first chunk here
    add_note(lines, 10, b"[" * 3000 + b"]" * 3000)
    assert orjson.loads(lines[9])["id"] == chunked_trace().ids[8]
    path.write_bytes(b"\n".join(lines))
    got = outcome(load_trace, path)
    assert got == outcome(reference_load, path)
    assert got[0] is TraceFormatError
    assert "line 10: malformed record (maximum recursion depth exceeded" in got[1]
    assert orjson_decodes[0] <= _CHUNK_LINES
    expect_exit_2(tmp_path, capsys, path, "line 10: malformed record")


def test_refused_chunks_load_with_one_orjson_decode_a_line(tmp_path, orjson_decodes):
    """A line orjson refuses in each of the first three chunks: they load as
    in the reference, and orjson decodes no line more than once."""
    path = chunked_file(tmp_path)
    lines = path.read_bytes().split(b"\n")
    for chunk in range(3):
        add_note(lines, 2 + chunk * _CHUNK_LINES + 50, b"NaN")
    path.write_bytes(b"\n".join(lines))
    got = outcome(load_trace, path)
    assert got == outcome(reference_load, path)
    assert got[0] == chunked_trace().ids
    assert orjson_decodes[0] <= N_CHUNKED


def test_tiled_records_match_json_reference(tmp_path_factory, per_line_reads):
    """The fuzz's records, tiled across chunks, some read column by column."""
    path = tmp_path_factory.mktemp("tiled") / "trace.jsonl"
    seen = {"chunked": 0, "loaded": 0, "refused": 0}

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(tiled_trace_bytes())
    def check(data):
        path.write_bytes(data)
        per_line_reads[0] = 0
        got, want = outcome(load_trace, path), outcome(reference_load, path)
        assert got == want
        if isinstance(got[0], type):
            assert issubclass(got[0], TierRouteError)
            seen["refused"] += 1
        else:
            seen["loaded"] += 1
            seen["chunked"] += per_line_reads[0] < len(got[0])

    check()
    assert seen["loaded"] > 0 and seen["refused"] > 0 and seen["chunked"] > 0
