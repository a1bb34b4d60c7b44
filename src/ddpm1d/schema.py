"""The JSON config format, derived from the fields of the config dataclasses.

``check`` runs in each config's ``__post_init__``, so keyword construction,
``dataclasses.replace`` and ``from_json`` all obey the same field rules:

    bool    true or false only
    int     an integral, non-bool number (3.0 becomes 3)
    float   a finite, non-bool number (7 becomes 7.0)
    str     a string, one of ``field(metadata={"choices": ...})`` when set
    config  an instance of the annotated config class

A number must also meet its field's bounds, any of ``">="``, ``"<="`` and
``">"`` in its metadata, as in ``field(default=1, metadata={">=": 1})``. A
field's JSON key is its name.
"""

from __future__ import annotations

import dataclasses
import operator
import sys
import typing
from functools import cache

from .errors import ConfigError

_TAKES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}
_BOUNDS = {">=": operator.ge, "<=": operator.le, ">": operator.gt}


@cache
def _fields(cls) -> tuple[tuple[str, type, typing.Mapping], ...]:
    # resolving the string annotations is the slow part: once per class
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f.metadata) for f in dataclasses.fields(cls))


def _accepts(typ: type, value, choices: tuple | None) -> bool:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if typ is bool:
        return isinstance(value, bool)
    if typ is int:
        return number and (isinstance(value, int) or value.is_integer())
    if typ is float:
        # compares exactly, so an int beyond float range fails instead of overflowing
        return number and abs(value) <= sys.float_info.max
    if typ is str:
        return isinstance(value, str) and (choices is None or value in choices)
    return isinstance(value, typ)


def check(obj) -> None:
    """Reject a field value its annotation or bounds do not allow, naming the
    JSON key; store accepted numbers as the annotated type."""
    for name, typ, meta in _fields(type(obj)):
        value = getattr(obj, name)
        choices = meta.get("choices")
        if not _accepts(typ, value, choices):
            takes = f"one of {choices}" if choices else _TAKES.get(typ, f"a {typ.__name__}")
            raise ConfigError(f"config key {name!r} must be {takes}, got {value!r}")
        for op, holds in _BOUNDS.items():
            if op in meta and not holds(value, meta[op]):
                raise ConfigError(f"config key {name!r} must be {op} {meta[op]}, got {value!r}")
        if (typ is int or typ is float) and type(value) is not typ:
            object.__setattr__(obj, name, typ(value))


def from_json(cls, d, where: str = "config"):
    """Build ``cls`` from a JSON object; a nested config is read by its own
    class's ``from_dict``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    fields = _fields(cls)
    unknown = sorted(set(d) - {name for name, _, _ in fields}, key=str)
    if unknown:  # the first 10 keys, so that a huge object gives a short message
        more = f" and {len(unknown) - 10} more" if len(unknown) > 10 else ""
        raise ConfigError(f"unknown {where} key(s): {unknown[:10]}{more}")
    return cls(**{name: typ.from_dict(d[name]) if dataclasses.is_dataclass(typ) else d[name]
                  for name, typ, _ in fields if name in d})


def to_json(obj) -> dict:
    """Every field of ``obj`` under its name, so ``from_json`` inverts it."""
    return {name: to_json(getattr(obj, name)) if dataclasses.is_dataclass(typ)
            else getattr(obj, name) for name, typ, _ in _fields(type(obj))}
