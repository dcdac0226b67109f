"""Every file the program writes, in one of four formats.

* JSON (``write_json``): one value, keys sorted, indented by 2, a final newline.
* JSON lines (``write_json_lines``): one compact, key-sorted value per line.
* Tables (``write_table``, or ``write_tables`` for several that take columns
  from one mapping): CSV with a header row and the ``csv`` module's
  ``\\r\\n`` line ends. A float cell is Python's shortest round-trip text
  (``repr``), an int its digits, an absent column empty cells.
* Arrays (``write_arrays``): one JSON header line (keys sorted), then float64
  arrays, little-endian and row-major, one after another.

Text is UTF-8, and JSON escapes every non-ASCII character.
"""

from __future__ import annotations

import csv
import json
from contextlib import ExitStack
from itertools import repeat
from pathlib import Path

import numpy as np

from .fields import typed

# Rows formatted at a time, so a table's text never sits in memory at once.
_TABLE_CHUNK = 4096


def write_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def write_json_lines(path: str | Path, objs) -> None:
    """One line per value of the iterable ``objs``, written as it is produced."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


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
        writers = {}
        for path, headers in tables.items():
            writers[path] = csv.writer(stack.enter_context(
                Path(path).open("w", encoding="utf-8", newline="")))
            writers[path].writerow(headers)
        for start in range(0, n, _TABLE_CHUNK):
            rows = slice(start, start + _TABLE_CHUNK)
            cells = {name: _cells(col, rows, len(tables) > 1) for name, col in columns.items()}
            for path, headers in tables.items():
                writers[path].writerows(zip(*(cells[name] for name in headers)))
            del cells  # before the next chunk's are made


def _cells(col, rows: slice, shared: bool):
    """One chunk of a column as cells: an array's as Python scalars, converted in
    bulk; an absent column's empty. A float array's cells are ``repr`` text, the
    form ``csv`` gives a float, when several tables write them, so that the text
    is made once; one table keeps the floats, which take less memory."""
    if col is None:
        return repeat("")
    if not isinstance(col, np.ndarray):
        return col[rows]
    values = col[rows].tolist()
    return list(map(repr, values)) if shared and col.dtype.kind == "f" else values


def write_arrays(path: str | Path, header: dict, *arrays) -> None:
    with Path(path).open("wb") as fh:
        fh.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for array in arrays:
            fh.write(np.asarray(array, dtype="<f8").tobytes())


def header_line(path: str | Path, fmt: str, error: type[Exception]) -> tuple[dict, bytes]:
    """Split a file that ``write_arrays`` wrote into its JSON header line, whose
    ``format`` must be ``fmt``, and the payload after it."""
    try:
        head, newline, body = Path(path).read_bytes().partition(b"\n")
    except OSError as exc:
        raise error(f"{path}: cannot read ({exc.strerror})") from exc
    if not newline:
        raise error(f"{path}: missing header line")
    try:
        header = json.loads(head.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"{path}: bad header ({exc})") from exc
    header = typed(header, dict, f"{path}: header", error)
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
