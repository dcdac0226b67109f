"""Record lines are decoded by orjson, with stdlib json as the reference.

A differential fuzz compares ``load_trace`` with a copy of the json-only loop
it replaced: on every generated file both must give bit-identical columns and
ids, or the same exception class and message. The other tests pin the
malformed files that the json-only loop let through as internal errors.
"""

import json
import math
import random
import struct
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import column_trace
from tierroute.cli import main
from tierroute.errors import TierRouteError, TraceFormatError, TraceValidationError
from tierroute.fields import bad_value, read
from tierroute.trace import (
    _ARRAY_COLUMNS, Trace, TraceHeader, _empty_columns, _read_fields, load_trace, save_trace,
)


def reference_load(path) -> Trace:
    """``load_trace`` as it was with stdlib json only: text-mode lines, each
    decoded by ``json.loads``. The one change is RecursionError among the
    decode errors, where it used to escape as an internal error."""
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
                _read_fields(obj, len(ids), cols)
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
def float_text(draw, values) -> Raw:
    """A float from ``values``, in shortest form or a longer one."""
    x = draw(values)
    if not math.isfinite(x):
        return Raw(json.dumps(x))  # NaN, Infinity, -Infinity
    form = draw(st.sampled_from(("{!r}", "{!r}", "{:.17e}", "{:.30e}", "{:.25g}", "{:.17E}",
                                 "{:.40f}")))
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
# Number tokens that a field may not hold, or that only stdlib json reads.
ODD_NUMBER = (float_text(float64()) | long_int_text(400)
              | st.sampled_from(("NaN", "Infinity", "-Infinity", "1e400", "-1e400")).map(Raw))
ID = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def record(draw, i: int, dim: int):
    """One record object. Three in four are valid; in the others any number
    may be an odd one."""
    odd = draw(st.integers(0, 3)) == 0

    def number(plain):
        return draw(ODD_NUMBER if odd and draw(st.booleans()) else plain)

    has_reference = draw(st.booleans())
    tiers = {}
    for label in ("device", "edge", "cloud"):
        sub = Obj([("generated_tokens", number(GENERATED)), ("prompt_tokens", number(PROMPT)),
                   ("compute_seconds", number(SECONDS))])
        for key in ("request_bytes", "response_bytes"):
            if draw(st.booleans()):
                sub.append((key, number(BYTES)))
        bit = draw(st.booleans() if has_reference and not odd
                   else st.sampled_from((True, False, None, "absent")))
        if bit != "absent":
            sub.append(("correct", bit))
        tiers[label] = sub
    embedding = Raw("[" * 5000) if odd and draw(st.integers(0, 9)) == 0 else [
        number(COORDINATE) for _ in range(dim)]
    obj = Obj([("id", draw(ID) + f"#{i}"), ("embedding", embedding), ("tier_info", tiers),
               ("has_reference", has_reference)])
    for name in ("sim_cloud", "sim_edge", "judge_cloud", "judge_edge"):
        if draw(st.booleans()):
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
