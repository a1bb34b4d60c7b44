"""The JSON config format, derived from the fields of the config dataclasses.

``check`` runs in each config's ``__post_init__``, so keyword construction,
``dataclasses.replace`` and ``from_json`` all obey the same field rules:

    bool    true or false only
    int     an integral, non-bool number (3.0 becomes 3)
    float   a finite, non-bool number (7 becomes 7.0)
    str     a string, one of ``field(metadata={"choices": ...})`` when set
    config  an instance of the annotated config class

A field's JSON key is its name unless ``field(metadata={"key": ...})`` renames it.
"""

from __future__ import annotations

import dataclasses
import sys
import typing
from functools import cache

from .errors import ConfigError

_TAKES = {bool: "true or false", int: "an integer", float: "a finite number", str: "a string"}


@cache
def _fields(cls) -> tuple[tuple[str, str, type, tuple | None], ...]:
    # resolving the string annotations is the slow part: once per class
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name), hints[f.name], f.metadata.get("choices"))
                 for f in dataclasses.fields(cls))


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
    """Reject a field value its annotation does not allow, naming the JSON
    key; store accepted numbers as the annotated type."""
    for name, key, typ, choices in _fields(type(obj)):
        value = getattr(obj, name)
        if not _accepts(typ, value, choices):
            takes = f"one of {choices}" if choices else _TAKES.get(typ, f"a {typ.__name__}")
            raise ConfigError(f"config key {key!r} must be {takes}, got {value!r}")
        if (typ is int or typ is float) and type(value) is not typ:
            object.__setattr__(obj, name, typ(value))


def from_json(cls, d, where: str = "config"):
    """Build ``cls`` from a JSON object; a nested config is read by its own
    class's ``from_dict``."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where} must be a JSON object, got {d!r}")
    fields = _fields(cls)
    unknown = set(d) - {key for _, key, _, _ in fields}
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {sorted(unknown, key=str)}")
    return cls(**{name: typ.from_dict(d[key]) if dataclasses.is_dataclass(typ) else d[key]
                  for name, key, typ, _ in fields if key in d})


def to_json(obj) -> dict:
    """Every field of ``obj`` under its JSON key, so ``from_json`` inverts it."""
    return {key: to_json(getattr(obj, name)) if dataclasses.is_dataclass(typ)
            else getattr(obj, name) for name, key, typ, _ in _fields(type(obj))}
