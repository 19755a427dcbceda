import builtins
import json
import math

import numpy as np
import pytest

from rvqsynth import checkpoint
from rvqsynth.armodel import ARConfig, ARModel
from rvqsynth.checkpoint import (ContainerError, file_checksum, load_container,
                                 restore_params, save_container)
from rvqsynth.codec import Codec, CodecConfig, write_grid
from rvqsynth.config import write_snapshot
from rvqsynth.data import (CorpusConfig, MotionSequence, generate_corpus,
                           save_corpus, write_audio, write_sequence)
from rvqsynth.metrics import StyleConfig, StyleNet, SyncConfig, SyncNet
from rvqsynth.nn import Parameter
from rvqsynth.sampling import SamplingConfig, generate_batch


def make_params():
    rng = np.random.default_rng(3)
    return {"w": Parameter(rng.normal(0.0, 1.0, (2, 3))),
            "b": Parameter(rng.normal(0.0, 1.0, 3))}


def test_container_roundtrip_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    params = make_params()
    save_container(path, {"model": "demo", "config": {"width": 3}}, params,
                   seed=11, extra={"note": "x"})
    arch, arrays, seed, extra = load_container(path)
    assert arch == {"model": "demo", "config": {"width": 3}}
    assert seed == 11 and extra == {"note": "x"}
    assert sorted(arrays) == ["b", "w"]
    np.testing.assert_array_equal(arrays["w"], params["w"].data)

    fresh = {"w": Parameter(np.zeros((2, 3))), "b": Parameter(np.zeros(3))}
    restore_params(fresh, arrays)
    np.testing.assert_array_equal(fresh["w"].data, params["w"].data)
    np.testing.assert_array_equal(fresh["b"].data, params["b"].data)


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
    _, arrays, _, _ = load_container(path)
    with pytest.raises(ContainerError):
        restore_params({"missing": Parameter(np.zeros(3))}, arrays)
    with pytest.raises(ContainerError):
        restore_params({"w": Parameter(np.zeros((5, 5)))}, arrays)
    del arrays["w"]
    with pytest.raises(ContainerError, match="missing tensor 'w'"):
        restore_params({"w": Parameter(np.zeros((2, 3)))}, arrays)


def test_container_rejects_non_finite_payload(tmp_path):
    path = tmp_path / "model.ckpt"
    Codec(CodecConfig(input_dim=6, depth=1, codebook_size=2,
                      code_dim=2)).save(path)
    raw = bytearray(path.read_bytes())
    hlen = int.from_bytes(raw[8:16], "little")
    first = json.loads(raw[16:16 + hlen])["tensors"][0]["name"]
    raw[16 + hlen:24 + hlen] = np.array([np.inf], dtype="<f8").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(ContainerError, match=f"'{first}'.*not finite"):
        Codec.load(path)


def test_container_rejects_bytes_after_the_last_tensor(tmp_path):
    """A checkpoint longer than its tensors is malformed, as a sequence file
    longer than its header says is; the file as saved still loads."""
    path = tmp_path / "model.ckpt"
    codec = Codec(CodecConfig(input_dim=6, depth=1, codebook_size=2, code_dim=2))
    codec.save(path)
    raw = path.read_bytes()
    np.testing.assert_array_equal(Codec.load(path).codebook.data, codec.codebook.data)
    path.write_bytes(raw + bytes(24))
    with pytest.raises(ContainerError, match="24 bytes after the last tensor"):
        Codec.load(path)


# kind -> (config, field values its __post_init__ refuses or None,
# save(config, path), load(path) returning the model)
MODEL_KINDS = {
    "codec": (CodecConfig(input_dim=6, depth=1, codebook_size=2, code_dim=2),
              None, lambda cfg, path: Codec(cfg).save(path), Codec.load),
    "ar": (ARConfig(code_dim=2, codebook_size=2, depth=1, width=4, audio_dim=2,
                    motion_dim=6, heads=2, depth_layers=1,
                    temporal_dilations=(1,)),
           {"temporal": "rnn"},
           lambda cfg, path: ARModel(cfg, np.zeros((2, 2))).save(path),
           ARModel.load),
    "sync": (SyncConfig(motion_dim=6, audio_dim=2, width=4, emb_dim=2,
                        batch=4, clips_per_batch=1, window=4),
             {"batch": 5}, lambda cfg, path: SyncNet(cfg).save(path),
             SyncNet.load),
    "style": (StyleConfig(motion_dim=6, width=4, emb_dim=2), None,
              lambda cfg, path: StyleNet(cfg).save(path, [0]),
              lambda path: StyleNet.load(path)[0]),
}


def _edit_arch(path, edit):
    """Rewrite the architecture spec of a saved checkpoint with ``edit``."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    header["arch"] = edit(header["arch"])
    hjson = json.dumps(header).encode()
    path.write_bytes(raw[:8] + len(hjson).to_bytes(8, "little") + hjson
                     + raw[16 + hlen:])


def _flip_key(cfg):
    key = sorted(cfg)[0]
    return {("H" + k[1:] if k == key else k): v for k, v in cfg.items()}


def _retype(value):
    """An edit setting the config's ``depth`` and ``width``, where it has
    them, to ``value``."""
    return lambda arch: {**arch, "config": {
        **arch["config"], **{k: value for k in ("depth", "width")
                             if k in arch["config"]}}}


ARCH_EDITS = [
    ("no config", lambda arch: {"model": arch["model"]}, "has no .* config"),
    ("arch not a dict", lambda arch: [arch], "is not a .* checkpoint"),
    ("config not a dict", lambda arch: {**arch, "config": [1]},
     "has no .* config"),
    ("flipped key", lambda arch: {**arch, "config": _flip_key(arch["config"])},
     "unexpected keyword argument 'H"),
    ("other kind", lambda arch: {**arch, "model": "other"},
     "is not a .* checkpoint"),
    ("str for an int", _retype("x"),
     "bad .* config.*(depth|width) cannot be 'x'"),
    ("float for an int", _retype(8.5), "(depth|width) cannot be 8.5"),
    ("bool for an int", _retype(True), "(depth|width) cannot be True"),
    ("str for a float",
     lambda arch: {**arch, "config": {**arch["config"], "lr": "x"}},
     "lr cannot be 'x'"),
]


def _set(**values):
    return lambda arch: {**arch, "config": {**arch["config"], **values}}


# (kind, name, edit, message): every kind gets each ARCH_EDITS row; the
# rows after it are values of the right JSON types that cannot build a model
MALFORMED_ARCHS = [(kind, *e) for kind in sorted(MODEL_KINDS)
                   for e in ARCH_EDITS] + [
    ("ar", "zero heads", _set(heads=0), "bad ar config.*heads must be positive"),
    ("ar", "heads not dividing width", _set(heads=3), "bad ar config.*divisible"),
    ("ar", "negative width", _set(width=-4),
     "bad ar config.*width must be positive"),
    ("ar", "str dilation", _set(temporal_dilations=["x"]),
     r"temporal_dilations cannot be \['x'\]"),
    ("ar", "zero dilation", _set(temporal_dilations=[0]),
     "bad ar config.*dilations must be positive"),
    ("sync", "str shift", _set(shifts=[0, "1", 2, 4]),
     r"shifts cannot be \[0, '1', 2, 4\]"),
]


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_load_model_builds_config(tmp_path, kind):
    cfg, _, save, load = MODEL_KINDS[kind]
    path = tmp_path / "model.ckpt"
    save(cfg, path)
    assert load(path).config == cfg


@pytest.mark.parametrize("kind, edit, message",
                         [(e[0], e[2], e[3]) for e in MALFORMED_ARCHS],
                         ids=[f"{e[0]}-{e[1]}" for e in MALFORMED_ARCHS])
def test_load_model_rejects_malformed_arch(tmp_path, kind, edit, message):
    cfg, _, save, load = MODEL_KINDS[kind]
    path = tmp_path / "model.ckpt"
    save(cfg, path)
    _edit_arch(path, edit)
    with pytest.raises(ContainerError, match=message):
        load(path)


@pytest.mark.parametrize("kind", [k for k in sorted(MODEL_KINDS)
                                  if MODEL_KINDS[k][1] is not None])
def test_load_model_rejects_config_its_dataclass_refuses(tmp_path, kind):
    cfg, bad, save, load = MODEL_KINDS[kind]
    path = tmp_path / "model.ckpt"
    save(cfg, path)
    _edit_arch(path, lambda arch: {**arch, "config": {**arch["config"], **bad}})
    with pytest.raises(ContainerError, match=f"bad {kind} config"):
        load(path)


def test_ar_load_rejects_missing_codebook(tmp_path):
    cfg, _, save, _ = MODEL_KINDS["ar"]
    path = tmp_path / "model.ckpt"
    save(cfg, path)
    path.write_bytes(path.read_bytes().replace(b'"codebook"', b'"codebooX"'))
    with pytest.raises(ContainerError, match="missing tensor 'codebook'"):
        ARModel.load(path)


def test_container_rejects_a_non_dict_extra(tmp_path):
    path = tmp_path / "model.ckpt"
    _with_header(path, b'{"arch": {}, "seed": 0, "extra": [], "tensors": []}')
    with pytest.raises(ContainerError, match="extra dict"):
        load_container(path)


def with_optimizer_state(path):
    """Rewrite a checkpoint in the layout that also held Adam's state: each
    tensor followed by its ``.adam_m`` and ``.adam_v`` moments, and a
    ``steps`` header entry with a count per tensor."""
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    rng = np.random.default_rng(5)
    offset, entries, blobs = 16 + hlen, [], []
    for entry in header["tensors"]:
        end = offset + 8 * math.prod(entry["shape"])
        entries.append(entry)
        blobs.append(raw[offset:end])
        offset = end
        for suffix in (".adam_m", ".adam_v"):
            entries.append({"name": entry["name"] + suffix, "shape": entry["shape"]})
            blobs.append(rng.uniform(0.0, 1.0, entry["shape"]).astype("<f8").tobytes())
    header["tensors"] = entries
    header["steps"] = {entry["name"]: 7 for entry in header["tensors"]}
    hjson = json.dumps(header, sort_keys=True).encode()
    path.write_bytes(b"RVQC" + (1).to_bytes(4, "little")
                     + len(hjson).to_bytes(8, "little") + hjson + b"".join(blobs))


def trained_looking(model):
    """``model`` with every parameter drawn anew, so that no zero bias
    hides a value that is not restored."""
    for i, p in enumerate(model.parameters().values()):
        p.data = np.random.default_rng(i).normal(0.0, 0.5, p.data.shape)
    return model


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_checkpoint_holds_each_parameter_value_once(tmp_path, kind):
    """Tensor names are the model's parameter names, no header holds
    ``steps``, and the payload is the parameter values alone."""
    cfg, _, save, load = MODEL_KINDS[kind]
    path = tmp_path / "model.ckpt"
    save(cfg, path)
    params = load(path).parameters()
    raw = path.read_bytes()
    hlen = int.from_bytes(raw[8:16], "little")
    header = json.loads(raw[16:16 + hlen])
    assert [entry["name"] for entry in header["tensors"]] == sorted(params)
    assert sorted(header) == ["arch", "extra", "seed", "tensors"]
    assert len(raw) == 16 + hlen + 8 * sum(p.data.size for p in params.values())


@pytest.mark.parametrize("kind", sorted(MODEL_KINDS))
def test_checkpoint_with_optimizer_state_loads_the_same_parameters(tmp_path, kind):
    cfg, _, save, load = MODEL_KINDS[kind]
    path = tmp_path / "model.ckpt"
    save(cfg, path)
    saved = trained_looking(load(path))
    # the models' own ``save`` with the parameters drawn anew
    if kind == "style":
        saved.save(path, [0])
    else:
        saved.save(path)
    old = tmp_path / "old.ckpt"
    old.write_bytes(path.read_bytes())
    with_optimizer_state(old)
    assert len(old.read_bytes()) > 2 * len(path.read_bytes())
    want, got = saved.parameters(), load(old).parameters()
    assert sorted(got) == sorted(want)
    for name in want:
        assert got[name].data.tobytes() == want[name].data.tobytes(), name


def test_ar_checkpoint_with_optimizer_state_generates_the_same_grids(tmp_path):
    cfg = MODEL_KINDS["ar"][0]
    codec = Codec(CodecConfig(input_dim=6, depth=1, codebook_size=2, code_dim=2))
    model = trained_looking(ARModel(cfg, codec.codebook.data.copy()))
    model.codebook.data = codec.codebook.data.copy()
    path, old = tmp_path / "ar.ckpt", tmp_path / "old.ckpt"
    model.save(path)
    old.write_bytes(path.read_bytes())
    with_optimizer_state(old)
    rng = np.random.default_rng(1)
    y, s = rng.normal(0.0, 1.0, (6, 2)), rng.normal(0.0, 1.0, (4, 6))
    scfg = SamplingConfig(strategy="average", n=3, seed=2)
    want = generate_batch(model, codec, y, s, scfg, 2)
    for loaded in (ARModel.load(path), ARModel.load(old)):
        got = generate_batch(loaded, codec, y, s, scfg, 2)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()


def test_file_checksum_detects_change(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(b"abc")
    a = file_checksum(path)
    assert a == file_checksum(path)
    path.write_bytes(b"abd")
    assert file_checksum(path) != a


def _corpus(seed):
    return generate_corpus(CorpusConfig(num_speakers=4, seqs_per_speaker=1,
                                        frames=4, vertices=2, audio_dim=2,
                                        seed=seed))


# (file name, writer(path, version)): each version writes different bytes
ATOMIC_WRITERS = {
    "checkpoint": ("model.ckpt", lambda path, v: save_container(
        path, {"model": "x"}, make_params(), seed=v)),
    "grid": ("grid.rvqj", lambda path, v: write_grid(
        np.full((2, 3), v), 8, path)),
    "sequence": ("clip.rvqm", lambda path, v: write_sequence(
        MotionSequence(np.full((3, 6), float(v)), 2, np.arange(2)), path)),
    "audio": ("clip.rvqa", lambda path, v: write_audio(
        np.full((3, 2), float(v)), path)),
    "manifest": ("manifest.txt", lambda path, v: save_corpus(
        _corpus(v), path.parent)),
    "snapshot": ("run.config", lambda path, v: write_snapshot(
        path, {"seed": v})),
}


@pytest.mark.parametrize("kind", sorted(ATOMIC_WRITERS))
def test_failed_write_keeps_old_file_and_leaves_no_temporary(
        tmp_path, monkeypatch, kind):
    name, write = ATOMIC_WRITERS[kind]
    path = tmp_path / name
    write(path, 1)
    old = path.read_bytes()
    before = sorted(tmp_path.iterdir())

    class FailsPartWay:
        """Writes half of the first chunk through, then fails."""

        def __init__(self, file):
            self.file = file

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.file.close()

        def write(self, chunk):
            self.file.write(chunk[:len(chunk) // 2])
            raise OSError("no space left on device")

    def failing_open(file, mode="r", *args, **kwargs):
        real = builtins.open(file, mode, *args, **kwargs)
        # only the temporary file of the target fails
        return FailsPartWay(real) if f".{name}." in str(file) else real

    monkeypatch.setattr(checkpoint, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        write(path, 2)
    assert path.read_bytes() == old
    assert sorted(tmp_path.iterdir()) == before
    monkeypatch.undo()
    write(path, 2)
    assert path.read_bytes() != old
    assert sorted(tmp_path.iterdir()) == before
