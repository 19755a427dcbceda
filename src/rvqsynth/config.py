"""Flat key=value run configuration with include support.

Lines are ``key = value`` pairs; ``#`` starts a comment; ``include <path>``
splices another file (relative to the including file). Later assignments win.
Every run writes a resolved snapshot next to its outputs for reproducibility.
"""

from __future__ import annotations

import os

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
    """Validate ``raw`` against {key: converter}; unknown keys are rejected."""
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    out = {}
    for key, value in raw.items():
        conv = schema[key]
        try:
            out[key] = conv(value)
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
