"""How a value from outside the program becomes a typed field.

Every value that a config file, a ``--set`` flag, a trace file, a scenario
file or a router bundle gives reaches the program through this module. A
dataclass declaration is the schema: ``read`` checks each field of a JSON
object against the field's type hint. The rules are JSON's, strictly:

* ``int`` takes a JSON integer, never a boolean or a float;
* ``float`` takes a finite JSON number, never a boolean, and holds it as a
  float, so ``1`` becomes ``1.0``;
* ``bool`` takes true or false, ``str`` a string and ``dict`` an object;
* ``X | None`` also takes null, and ``tuple[...]`` takes an array.

A value that breaks a rule raises the caller's error class (a TierRouteError
subclass), with a message naming where the value came from and its key.
"""

from __future__ import annotations

import dataclasses
import math
import re
import sys
import types
import typing
from contextlib import contextmanager

MISSING = dataclasses.MISSING  # an absent key

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", dict: "a JSON object", tuple: "a JSON array"}
# A cell's number text, in JSON's ASCII syntax: no "1_0", " 2", "+1", "007", "1." or ".5".
_NUMBER_TEXT = {int: re.compile(r"-?(?:0|[1-9][0-9]*)"),
                float: re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?")}


def bad_value(name: str, value, kind: str, error: type[Exception]) -> Exception:
    try:  # a value that json decoded may nest too deep for repr
        found = "nothing" if value is MISSING else repr(value)
    except RecursionError:
        found = "a value nested too deep to show"
    return error(f"{name} must be {kind}; got {found}")


def typed(value, hint, name: str, error: type[Exception], minimum: int | None = None):
    """``value`` as a field of type ``hint`` named ``name``; ints may have a ``minimum``."""
    if type(hint) is type:  # a plain class, checked before any typing call
        if hint is float:
            if (type(value) is float and math.isfinite(value)
                    or type(value) is int and abs(value) <= sys.float_info.max):
                return float(value)
            raise bad_value(name, value, _KINDS[float], error)
        if type(value) is not hint or minimum is not None and value < minimum:
            kind = _KINDS[hint] + ("" if minimum is None else f" >= {minimum}")
            raise bad_value(name, value, kind, error)
        return value
    origin = typing.get_origin(hint)
    if origin is types.UnionType or origin is typing.Union:  # X | None
        if value is None:
            return None
        (hint,) = [arg for arg in typing.get_args(hint) if arg is not type(None)]
        return typed(value, hint, name, error, minimum)
    if origin is tuple:
        if type(value) is not list:
            raise bad_value(name, value, _KINDS[tuple], error)
        args = typing.get_args(hint)
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise bad_value(name, value, f"a JSON array of {len(args)} values", error)
        return tuple(typed(v, arg, f"{name}[{i}]", error)
                     for i, (v, arg) in enumerate(zip(value, args)))
    raise TypeError(f"{name}: no typed-read rule for {hint!r}")


@contextmanager
def building(where: str, error: type[Exception]):
    """Raise a ValueError from building an object out of outside values as
    ``error``, naming ``where``."""
    try:
        yield
    except ValueError as exc:
        raise error(f"{where}: {exc}") from exc


def read(cls, obj, where: str, *, error: type[Exception], **given):
    """The dataclass ``cls`` from the JSON object ``obj``. Fields in ``given``
    come from the program; an absent field takes its default; keys that are
    not fields are ignored. Errors name ``where.key``."""
    obj = typed(obj, dict, where, error)
    hints = typing.get_type_hints(cls)
    values = {f.name: typed(obj.get(f.name, MISSING), hints[f.name], f"{where}.{f.name}", error)
              for f in dataclasses.fields(cls) if f.name not in given
              and (f.name in obj or f.default is MISSING and f.default_factory is MISSING)}
    with building(where, error):
        return cls(**values, **given)


def cell(text, hint, name: str, error: type[Exception]):
    """A number written as text, in a CSV cell or a flag, checked like a JSON one."""
    try:  # a mismatch is None, which cannot be indexed
        return typed(hint(_NUMBER_TEXT[hint].fullmatch(text)[0]), hint, name, error)
    except (TypeError, ValueError, error):
        raise bad_value(name, text, _KINDS[hint], error) from None

