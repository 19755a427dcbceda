import numpy as np
import pytest

from rvqsynth.checkpoint import (ContainerError, file_checksum, load_container,
                                 restore_params, save_container)
from rvqsynth.nn import Parameter


def make_params():
    rng = np.random.default_rng(3)
    params = {"w": Parameter(rng.normal(0.0, 1.0, (2, 3))),
              "b": Parameter(rng.normal(0.0, 1.0, 3))}
    params["w"].adam_m[:] = 0.5
    params["w"].adam_v[:] = 0.25
    params["w"].adam_step = 7
    return params


def test_container_roundtrip_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    params = make_params()
    save_container(path, {"model": "demo", "config": {"width": 3}}, params,
                   seed=11, extra={"note": "x"})
    arch, arrays, steps, seed, extra = load_container(path)
    assert arch == {"model": "demo", "config": {"width": 3}}
    assert seed == 11 and extra == {"note": "x"}
    np.testing.assert_array_equal(arrays["w"], params["w"].data)
    np.testing.assert_array_equal(arrays["w.adam_m"], params["w"].adam_m)
    np.testing.assert_array_equal(arrays["w.adam_v"], params["w"].adam_v)
    assert steps["w"] == 7

    fresh = {"w": Parameter(np.zeros((2, 3))), "b": Parameter(np.zeros(3))}
    restore_params(fresh, arrays, steps)
    np.testing.assert_array_equal(fresh["w"].data, params["w"].data)
    np.testing.assert_array_equal(fresh["w"].adam_m, params["w"].adam_m)
    assert fresh["w"].adam_step == 7


def test_container_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ContainerError):
        load_container(path)


def test_container_truncated_payload(tmp_path):
    path = tmp_path / "model.ckpt"
    save_container(path, {"model": "demo"}, make_params(), seed=0)
    path.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ContainerError):
        load_container(path)


def test_container_unsupported_version(tmp_path):
    path = tmp_path / "model.ckpt"
    save_container(path, {"model": "demo"}, make_params(), seed=0)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError):
        load_container(path)


def _with_header(path, header: bytes):
    """Rewrite a checkpoint's JSON header, keeping the rest of the layout."""
    path.write_bytes(b"RVQC" + (1).to_bytes(4, "little")
                     + len(header).to_bytes(8, "little") + header)


def test_container_malformed_header_json(tmp_path):
    path = tmp_path / "model.ckpt"
    _with_header(path, b'{"arch": ')
    with pytest.raises(ContainerError):
        load_container(path)


def test_container_header_without_tensors(tmp_path):
    path = tmp_path / "model.ckpt"
    _with_header(path, b'{"arch": {}, "seed": 0, "extra": {}, "steps": {}}')
    with pytest.raises(ContainerError, match="tensors"):
        load_container(path)


@pytest.mark.parametrize("entry", [
    b'{"shape": [2]}',                      # no name
    b'{"name": "w"}',                       # no shape
    b'{"name": "w", "shape": [2, -1]}',     # negative extent
    b'{"name": "w", "shape": [2.5]}',       # not an int
    b'{"name": "w", "shape": 3}',           # not a list
])
def test_container_malformed_tensor_entry(tmp_path, entry):
    path = tmp_path / "model.ckpt"
    _with_header(path, b'{"arch": {}, "seed": 0, "extra": {}, "steps": {}, '
                       b'"tensors": [' + entry + b']}')
    with pytest.raises(ContainerError, match="tensor entry"):
        load_container(path)


def test_restore_rejects_missing_and_mismatched(tmp_path):
    path = tmp_path / "model.ckpt"
    save_container(path, {"model": "demo"}, make_params(), seed=0)
    _, arrays, steps, _, _ = load_container(path)
    with pytest.raises(ContainerError):
        restore_params({"missing": Parameter(np.zeros(3))}, arrays, steps)
    with pytest.raises(ContainerError):
        restore_params({"w": Parameter(np.zeros((5, 5)))}, arrays, steps)
    del arrays["w.adam_v"]
    with pytest.raises(ContainerError, match="adam_v"):
        restore_params({"w": Parameter(np.zeros((2, 3)))}, arrays, steps)


def test_file_checksum_detects_change(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    a = file_checksum(path)
    assert a == file_checksum(path)
    path.write_bytes(b"abd")
    assert file_checksum(path) != a
