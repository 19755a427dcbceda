"""Flat key=value run configuration with include support.

Lines are ``key = value`` pairs; ``#`` starts a comment; ``include <path>``
splices another file (relative to the including file). Later assignments win.
Every run writes a resolved snapshot next to its outputs for reproducibility.
A config dataclass declares each setting the command line reads as an
:func:`option` field; :func:`options` turns those fields into options. A type
``Annotated[type, value set]`` declares a range of ints or a tuple of choices.
"""

from __future__ import annotations

import functools
import math
import os
import typing
from dataclasses import field, fields
from typing import Annotated

from .checkpoint import write_atomic


class ConfigError(Exception):
    """Invalid, unknown, or uncoercible configuration input."""


def parse_config_file(path) -> dict:
    """Read a config file into an ordered {key: raw string} mapping."""
    return _parse(os.path.abspath(path), frozenset())


def _parse(path, seen) -> dict:
    if path in seen:
        raise ConfigError(f"include cycle at {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    seen = seen | {path}
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("include "):
                target = line[len("include "):].strip()
                target = os.path.join(os.path.dirname(path), target)
                out.update(_parse(os.path.abspath(target), seen))
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            out[key] = value.strip()
    return out


def coerce(raw: dict, schema: dict) -> dict:
    """Convert each value of ``raw`` by its type in ``schema`` {key: type};
    unknown keys, and numbers that are negative, infinite or NaN, are
    rejected: no option takes one."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, value in raw.items():
        kind = getattr(schema[key], "__origin__", schema[key])  # Annotated[t, ...] is t
        try:
            out[key] = number = _CONVERTERS[kind](value)
            if isinstance(number, (int, float)) and not 0 <= number < math.inf:
                raise ValueError("not a finite number >= 0")  # NaN fails both
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key!r}: {value!r} ({exc})")
    return out


def parse_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    v = str(value).strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


def write_snapshot(path, resolved: dict):
    """Write the resolved configuration as sorted key=value lines."""
    text = "".join(f"{key}={resolved[key]}\n" for key in sorted(resolved))
    write_atomic(path, [text.encode("utf-8")])


def _opt_int(value):
    return None if str(value).lower() in ("", "none") else int(value)


# Option type -> converter of its raw string.
_CONVERTERS = {int: int, float: float, str: str, bool: parse_bool,
               int | None: _opt_int}


def option(default, help: str, flag: str = ""):
    """A dataclass field that the command line sets, as ``--flag`` or, by
    default, ``--`` and the field name with dashes; the field's type hint
    picks the converter."""
    return field(default=default, metadata={"help": help, "flag": flag})


def _option_fields(cls) -> dict:
    return {f.metadata["flag"] or f.name.replace("_", "-"): f
            for f in fields(cls) if "help" in f.metadata}


def options(cls) -> dict:
    """{option name: (type, default, help)} for ``cls``'s option fields."""
    hints = typing.get_type_hints(cls, include_extras=True)
    return {name: (hints[f.name], f.default, f.metadata["help"])
            for name, f in _option_fields(cls).items()}


POSITIVE = range(1, 2**63)  # the value set of a size; every declared range starts at 1
Size = Annotated[int, POSITIVE]
OptionalSize = Annotated[int | None, POSITIVE]

# {field name: type} of a config class's fields that declare a value set, once per class
declared = functools.cache(lambda cls: {
    name: kind for name, kind in typing.get_type_hints(cls, include_extras=True).items()
    if hasattr(kind, "__metadata__")})


def describe(kind) -> str:
    """The value set ``kind`` declares, as help and errors name it."""
    valid = kind.__metadata__[0]
    if isinstance(valid, tuple):
        return "one of " + "|".join(map(str, valid))
    return "positive" + ("" if valid.stop == POSITIVE.stop else f" and at most {valid.stop - 1}")


def check(values: dict, kinds: dict):
    """Refuse the first of ``values`` {name: value} outside the value set its
    type in ``kinds`` declares; None passes where the type admits it."""
    for name, kind in kinds.items():
        valid, value = kind.__metadata__[0], values[name]
        if not (value is None and type(None) in typing.get_args(kind.__origin__) or (
                value in valid if isinstance(valid, tuple) else valid.start <= value < valid.stop)):
            raise ValueError(f"{name} must be {describe(kind)}, got {value!r}")


def build(cls, resolved: dict):
    """A ``cls`` whose option fields take their ``resolved`` values."""
    return cls(**{f.name: resolved[name]
                  for name, f in _option_fields(cls).items()})
