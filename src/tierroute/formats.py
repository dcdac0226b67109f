"""Every file the program writes, in one of four formats, and the reader of
the JSON files that come from outside.

* JSON (``write_json``, whose text is ``json_text``): one value, keys sorted,
  indented by 2, a final newline.
* JSON lines (``write_json_lines``): one compact, key-sorted value per line;
  ``write_lines`` writes lines that a caller made in that form (``trace``).
* Tables (``write_table``, or ``write_tables`` for several that take columns
  from one mapping): CSV with a header row, cells joined by ``,`` and rows
  ended by ``\\r\\n``. A float cell is Python's shortest round-trip text
  (``repr``), an int its digits, None or an absent column an empty cell, any
  other value its ``str``. A cell that holds ``,``, ``"``, CR or LF is wrapped
  in ``"`` with each ``"`` doubled, and a row of one empty cell is ``""``:
  the bytes the ``csv`` module writes with its default dialect.
* Arrays (``write_arrays``): one JSON header line (keys sorted), then float64
  arrays, little-endian and row-major, one after another.

Text is UTF-8, and JSON escapes every non-ASCII character.

Float text in bulk (``float_texts``): the text of every value of a float64
array, from one ``orjson`` call. For ±0.0 and 1e-4 <= |x| < 1e16 orjson's
shortest round-trip digits are exactly ``repr``'s; any other value, NaN and
±inf included, takes the text of the format it goes into (``repr`` in a CSV
cell, ``json.dumps``' in JSON), so the bytes are those of the plain writers.

A JSON file the program reads (``read_json``, or ``read_json_lines`` for one
object per line), a table of numbers (``read_table``) and an arrays file's
header (``header_line``) are decoded here. A file that cannot be read, is not
UTF-8 or is not JSON, or nests too deep to decode, raises the caller's error
class naming the file, and the line as ``<file>: line N``. Trace records are
decoded in ``trace``.
"""

from __future__ import annotations

import json
import re
from contextlib import ExitStack
from pathlib import Path

import numpy as np
import orjson

from .fields import typed

# Rows formatted at a time, so a file's text never sits in memory at once. A
# float's text cell takes about 70 bytes, so a chunk of a seven-float table
# (labels.csv) holds under 0.5 MiB of cells.
CHUNK_ROWS = 1024


def exact_floats(values: np.ndarray) -> np.ndarray:
    """Where orjson's text of a float is ``repr``'s: ±0.0 and 1e-4 <= |x| < 1e16.
    Outside that range it lays the same value out otherwise (``0.00001`` for
    ``1e-05``, ``1e16`` for ``1e+16``), and it writes ``null`` for NaN and ±inf."""
    magnitude = np.abs(values)
    return (values == 0) | ((magnitude >= 1e-4) & (magnitude < 1e16))


def float_texts(values: np.ndarray, reference=repr) -> list[str]:
    """The text of every value of a float64 array, in row-major order: orjson's
    where ``exact_floats`` holds, ``reference(value)`` elsewhere."""
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if not flat.size:
        return []
    texts = orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    for i in np.flatnonzero(~exact_floats(flat)).tolist():
        texts[i] = reference(flat[i].item())
    return texts


def json_text(obj) -> str:
    """The text ``write_json`` writes for ``obj``."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json_text(obj), encoding="utf-8")


def write_json_lines(path: str | Path, objs) -> None:
    """One line per value of the iterable ``objs``, written as it is produced."""
    write_lines(path, (json.dumps(obj, sort_keys=True) + "\n" for obj in objs))


def write_lines(path: str | Path, texts) -> None:
    """The strings of the iterable ``texts``, each written as it is produced;
    each holds whole lines, every one ending in LF."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(texts)


def write_table(path: str | Path, columns: dict) -> None:
    """A CSV table from ``{header: column}``, in order. A column is a NumPy array,
    a sequence, or None for empty cells; all others have one length."""
    write_tables(columns, {path: tuple(columns)})


def write_tables(columns: dict, tables: dict) -> None:
    """CSV tables ``{path: headers}`` of one row count, each taking its columns,
    in ``headers`` order, from ``{header: column}``. They are written in step, so
    a column that several tables hold is formatted once per chunk of rows."""
    lengths = {len(col) for col in columns.values() if col is not None}
    if len(lengths) != 1:
        raise ValueError(f"table columns need one common length; got {sorted(lengths)}")
    (n,) = lengths
    with ExitStack() as stack:
        files = {}
        for path, headers in tables.items():
            files[path] = stack.enter_context(Path(path).open("w", encoding="utf-8", newline=""))
            header = _texts(headers)
            files[path].write(_rows([[text] for text in header]) if header else "\r\n")
        for start in range(0, n, CHUNK_ROWS):
            rows = slice(start, start + CHUNK_ROWS)
            size = min(CHUNK_ROWS, n - start)
            cells = {name: _cells(col, rows, size) for name, col in columns.items()}
            for path, headers in tables.items():
                files[path].write(_rows([cells[name] for name in headers]))
            del cells  # before the next chunk's are made


# A cell that holds one of these is quoted.
_SPECIAL = re.compile(r'[,"\r\n]')


def _rows(columns: list[list[str]]) -> str:
    """The CSV lines of the rows that columns of cell texts make."""
    if len(columns) == 1:  # a row of one empty cell is written quoted
        columns = [[cell or '""' for cell in columns[0]]]
    return "\r\n".join(map(",".join, zip(*columns))) + "\r\n" if columns else ""


def _texts(values) -> list[str]:
    """Cell texts of a sequence of values, each quoted where it must be."""
    texts = values if {str}.issuperset(map(type, values)) else [
        "" if value is None else str(value) for value in values]  # str is repr for a float
    if not _SPECIAL.search("".join(texts)):
        return texts
    return ['"' + text.replace('"', '""') + '"' if _SPECIAL.search(text) else text
            for text in texts]


def _cells(col, rows: slice, size: int) -> list[str]:
    """The ``size`` cells of one chunk of a column: a float array's made in bulk
    by ``float_texts``, an int array's its digits, an absent column's empty."""
    if col is None:
        return [""] * size
    if not isinstance(col, np.ndarray):
        return _texts(col[rows])
    if col.dtype.kind == "f":
        return float_texts(col[rows])
    if col.dtype.kind in "iu":
        return list(map(str, col[rows].tolist()))
    return _texts(col[rows].tolist())


def write_arrays(path: str | Path, header: dict, *arrays) -> None:
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for array in arrays:
            fh.write(np.asarray(array, dtype="<f8").tobytes())


def read_file(path: str | Path, error: type[Exception]) -> bytes:
    """A file's bytes; an OSError raises ``error`` naming the file."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from exc


def _object(data: bytes, where: str, error: type[Exception]) -> dict:
    """The JSON object that the UTF-8 ``data`` holds; errors name ``where``."""
    try:
        obj = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{where}: bad JSON ({exc})") from exc
    return typed(obj, dict, where, error)


def read_json(path: str | Path, error: type[Exception]) -> dict:
    """The JSON object a file holds."""
    return _object(read_file(path, error), str(path), error)


def read_json_lines(path: str | Path, error: type[Exception]) -> list[tuple[str, dict]]:
    """The JSON objects of a file that holds one per line, each with its name
    ``<file>: line N``. A line ends at LF; blank lines are skipped."""
    lines = read_file(path, error).split(b"\n")
    named = [(f"{path}: line {lineno}", line)
             for lineno, line in enumerate(lines, start=1) if line.strip()]
    return [(where, _object(line, where, error)) for where, line in named]


def read_table(path: str | Path, header: str, error: type[Exception]):
    """Yield each row of a table as its name ``<file>: line N`` and its cells.
    The first line must be ``header``. Lines end at CRLF, CR or LF; blank ones
    are skipped but counted. Cells split at every comma and are never unquoted."""
    try:
        lines = re.split(r"\r\n?|\n", read_file(path, error).decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not a readable CSV file ({exc})") from exc
    if lines[0] != header:
        raise error(f"{path}: line 1: header must be {header!r}")
    width = header.count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != width:
            more = "more" if len(cells) > width else "fewer"
            raise error(f"{path}: line {lineno}: {more} cells than the header")
        yield f"{path}: line {lineno}", cells


def header_line(path: str | Path, fmt: str, error: type[Exception]) -> tuple[dict, bytes]:
    """Split a file that ``write_arrays`` wrote into its JSON header line, whose
    ``format`` must be ``fmt``, and the payload after it."""
    head, newline, body = read_file(path, error).partition(b"\n")
    if not newline:
        raise error(f"{path}: missing header line")
    header = _object(head, f"{path}: header", error)
    if header.get("format") != fmt:
        raise error(f"{path}: unknown format {header.get('format')!r}")
    return header, body


def payload_arrays(path: str | Path, body: bytes, error: type[Exception],
                   **sizes: int) -> list[np.ndarray]:
    """Split the payload after ``header_line`` into float64 arrays of the given
    sizes, in order. The sizes must add up to the payload, and every entry
    must be finite."""
    total = sum(sizes.values())
    if len(body) != total * 8:
        raise error(f"{path}: payload holds {len(body)} bytes, expected {total * 8}")
    flat = np.frombuffer(body, dtype="<f8").astype(np.float64)
    arrays, offset = [], 0
    for name, size in sizes.items():
        array = flat[offset:offset + size]
        bad = np.flatnonzero(~np.isfinite(array))
        if bad.size:
            raise error(f"{path}: {name}[{bad[0]}] is {array[bad[0]]}, not a finite number")
        arrays.append(array)
        offset += size
    return arrays
