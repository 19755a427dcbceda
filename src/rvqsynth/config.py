"""Flat key=value run configuration with include support.

Lines are ``key = value`` pairs; ``#`` starts a comment; ``include <path>``
splices another file (relative to the including file). Later assignments win.
Every run writes a resolved snapshot next to its outputs for reproducibility.
A config dataclass declares each setting the command line reads as an
:func:`option` field; :func:`options` turns those fields into options.
"""

from __future__ import annotations

import math
import os
import typing
from dataclasses import field, fields

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
        try:
            out[key] = number = _CONVERTERS[schema[key]](value)
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
    hints = typing.get_type_hints(cls)
    return {name: (hints[f.name], f.default, f.metadata["help"])
            for name, f in _option_fields(cls).items()}


def check_positive(config, *names):
    """Refuse a config whose named sizes are not positive, before any work."""
    for name in names:
        if getattr(config, name) < 1:
            raise ValueError(f"{name} must be positive, got {getattr(config, name)}")


def build(cls, resolved: dict):
    """A ``cls`` whose option fields take their ``resolved`` values."""
    return cls(**{f.name: resolved[name]
                  for name, f in _option_fields(cls).items()})
