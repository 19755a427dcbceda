"""Self-describing binary checkpoint container.

Layout: magic ``RVQC``, u32 format version, u64 JSON header length, the JSON
header, then the raw little-endian float64 payload of every parameter listed
in the header. The reader ignores tensors and header keys it does not use,
such as the Adam moments and ``steps`` that files of the old layout hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
import typing
from pathlib import Path

import numpy as np

MAGIC = b"RVQC"
FORMAT_VERSION = 1
_HEADER_KEYS = ("arch", "seed", "extra", "tensors")


class ContainerError(ValueError):
    """Raised on a malformed checkpoint file."""


def write_atomic(path, chunks):
    """Write the byte strings ``chunks`` to ``path`` all or nothing.

    They go to a temporary file in the same directory, which replaces
    ``path`` only once every chunk is written; if a write fails, the
    temporary file is removed and an existing ``path`` is left as it was.
    This guards against an interrupted run, not against power loss (there
    is no fsync).
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_container(path, arch: dict, params: dict, seed: int, extra: dict | None = None):
    """Write the values of named parameters and an architecture spec."""
    items = sorted(params.items())
    entries = [{"name": name, "shape": list(p.data.shape)} for name, p in items]
    blobs = [np.ascontiguousarray(p.data, dtype="<f8").tobytes() for _, p in items]
    header = {
        "arch": arch,  # json writes tuples as lists
        "seed": int(seed),
        "extra": extra or {},
        "tensors": entries,
    }
    hjson = json.dumps(header, sort_keys=True).encode("utf-8")
    write_atomic(path, [MAGIC, struct.pack("<IQ", FORMAT_VERSION, len(hjson)),
                        hjson, *blobs])


def _is_shape(shape) -> bool:
    return isinstance(shape, list) and all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 0 for n in shape)


def load_container(path):
    """Read a checkpoint; returns (arch, arrays, seed, extra)."""
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:4] != MAGIC:
        raise ContainerError(f"bad magic in {path}")
    version = struct.unpack("<I", raw[4:8])[0]
    if version != FORMAT_VERSION:
        raise ContainerError(f"unsupported checkpoint version {version}")
    hlen = struct.unpack("<Q", raw[8:16])[0]
    if len(raw) < 16 + hlen:
        raise ContainerError(f"truncated header in {path}")
    try:
        header = json.loads(raw[16:16 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"malformed header in {path}: {exc}") from exc
    missing = [k for k in _HEADER_KEYS
               if not isinstance(header, dict) or k not in header]
    if missing:
        raise ContainerError(f"header in {path} lacks {', '.join(missing)}")
    arrays = {}
    offset = 16 + hlen
    tensors = header["tensors"]
    if not isinstance(tensors, list):
        raise ContainerError(f"header in {path} has no tensor list")
    if not isinstance(header["extra"], dict):
        raise ContainerError(f"header in {path} needs an extra dict")
    for entry in tensors:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and _is_shape(entry.get("shape"))):
            raise ContainerError(
                f"tensor entry {entry!r} in {path} needs a name and a shape "
                f"of non-negative ints")
        end = offset + 8 * math.prod(entry["shape"])
        if end > len(raw):
            raise ContainerError(f"truncated payload in {path}")
        arr = np.frombuffer(raw[offset:end], dtype="<f8").astype(np.float64)
        if not np.isfinite(arr).all():
            raise ContainerError(f"tensor {entry['name']!r} in {path} is not finite")
        arrays[entry["name"]] = arr.reshape(entry["shape"])
        offset = end
    if offset != len(raw):
        raise ContainerError(f"{len(raw) - offset} bytes after the last tensor in {path}")
    return header["arch"], arrays, header["seed"], header["extra"]


# JSON value types a config field may hold, matched exactly (a bool is no
# int); a tuple field is a list of ints
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,),
               tuple: (list,), int | None: (int, type(None))}


def _fits(value, hint) -> bool:
    return type(value) in _JSON_TYPES[hint] and (
        hint is not tuple or all(type(v) is int for v in value))


def load_model(path, kind: str, config_cls, build):
    """Read a checkpoint of the model ``kind``: build its ``config_cls`` from
    the architecture spec, the model as ``build(config, extra)``, and restore
    its parameters; returns (model, extra). A spec of another kind, a config
    value of the wrong JSON type or a spec that cannot build the config or
    the model raises ``ContainerError``."""
    arch, arrays, _, extra = load_container(path)
    if not isinstance(arch, dict) or arch.get("model") != kind:
        raise ContainerError(f"{path} is not a {kind} checkpoint")
    fields = arch.get("config")
    if not isinstance(fields, dict):
        raise ContainerError(f"{path} has no {kind} config")
    hints = typing.get_type_hints(config_cls)
    try:  # an unknown key or a value of the wrong JSON type is a TypeError
        for name, value in fields.items():
            if name in hints and not _fits(value, hints[name]):
                raise TypeError(f"{name} cannot be {value!r}")
        model = build(config_cls(**fields), extra)
    except (TypeError, ValueError) as exc:
        raise ContainerError(f"bad {kind} config in {path}: {exc}") from exc
    restore_params(model.parameters(), arrays)
    return model, extra


def restore_params(params: dict, arrays: dict):
    """Load saved arrays into an existing parameter dict (shapes must match)."""
    for name, p in params.items():
        if name not in arrays:
            raise ContainerError(f"checkpoint missing tensor {name!r}")
        if arrays[name].shape != p.data.shape:
            raise ContainerError(
                f"shape mismatch for {name!r}: "
                f"{arrays[name].shape} vs {p.data.shape}")
        p.data = arrays[name].copy()


def file_checksum(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
