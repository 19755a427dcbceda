"""Every model's conv stacks come from ``nn.conv_layers``, and ``Conv1d``
alone refuses the frames they cannot take."""

import numpy as np
import pytest

from rvqsynth.armodel import ARConfig, ARModel
from rvqsynth.codec import Codec, CodecConfig
from rvqsynth.metrics import StyleConfig, StyleNet, SyncConfig, SyncNet
from rvqsynth.nn import Conv1d, conv_stack
from rvqsynth.tensor import ShapeError

CODEC = CodecConfig(input_dim=12, depth=3, codebook_size=8, code_dim=6)
AR = ARConfig(code_dim=6, codebook_size=8, depth=3, width=8, audio_dim=4,
              motion_dim=12, heads=2, depth_layers=1, temporal_layers=1, audio_layers=3)
SYNC = SyncConfig(motion_dim=12, audio_dim=4, width=8, emb_dim=6, window=8,
                  batch=16, clips_per_batch=4)
STYLE = StyleConfig(motion_dim=12, width=8, emb_dim=6, num_classes=3)
SEED = 7


def hand_built(rng, layers):
    """The stacks as the models built them by hand: (in, out, kernel, mode) each."""
    return [Conv1d(i, o, k, rng, mode=mode) for i, o, k, mode in layers]


def uniform(rng, fan_in, shape):
    return rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), size=shape)


def reference(kind, variant):
    """(stacks by attribute, the parameter each constructor draws next, its
    name) of the hand-built layout, from ``SEED``."""
    rng = np.random.default_rng(SEED)
    if kind == "codec":
        c = CODEC
        stacks = {
            "enc_layers": hand_built(rng, [(c.input_dim, c.hidden, 1, "same"),
                                           (c.hidden, c.hidden, 3, "causal"),
                                           (c.hidden, c.code_dim, 3, "causal")]),
            "dec_layers": hand_built(rng, [(c.code_dim, c.hidden, 3, "causal"),
                                           (c.hidden, c.hidden, 3, "causal"),
                                           (c.hidden, c.input_dim, 1, "same")]),
        }
        return stacks, "codebook", rng.normal(0.0, 0.1, (c.codebook_size, c.code_dim))
    if kind == "ar":
        c, H = AR, AR.width
        dims = [c.audio_dim] + [H] * c.audio_layers
        stacks = {
            "audio_convs": hand_built(rng, [(dims[i], dims[i + 1], c.audio_kernel, "same")
                                            for i in range(c.audio_layers)]),
            "style_convs": hand_built(rng, [(c.motion_dim, H, 1, "same"),
                                            (H, H, 3, "same"), (H, H, 3, "same")]),
        }
        return stacks, "style_proj.weight", uniform(rng, H, (H, H))
    if kind == "sync":
        c = SYNC
        stacks = {
            "mesh_convs": hand_built(rng, [(c.motion_dim, c.width, 1, "same"),
                                           (c.width, c.width, 3, "same"),
                                           (c.width, c.emb_dim, 3, "same")]),
            "audio_convs": hand_built(rng, [(c.audio_dim, c.width, 3, "same"),
                                            (c.width, c.emb_dim, 3, "same")]),
        }
        return stacks, "mesh_proj.weight", uniform(rng, c.window * c.emb_dim,
                                                   (c.window * c.emb_dim, c.emb_dim))
    c = STYLE
    stacks = {"convs": hand_built(rng, [(c.motion_dim, c.width, 1, "same"),
                                        (c.width, c.width, 3, "same"),
                                        (c.width, c.emb_dim, 3, "same")])}
    return stacks, "class_weights", rng.normal(0.0, 0.1, (c.num_classes, c.emb_dim))


def build(kind, variant):
    rng = np.random.default_rng(SEED)
    if kind == "codec":
        return Codec(CODEC, rng)
    if kind == "ar":
        codebook = np.random.default_rng(0).normal(0.0, 1.0, (AR.codebook_size, AR.code_dim))
        return ARModel(ARConfig(**{**vars(AR), "temporal": variant}), codebook, rng)
    if kind == "sync":
        return SyncNet(SyncConfig(**{**vars(SYNC), "variant": variant}), rng)
    return StyleNet(STYLE, rng)


MODELS = [("codec", None), ("ar", "conv"), ("ar", "transformer"), ("sync", 1),
          ("sync", 2), ("style", None)]


@pytest.mark.parametrize("kind,variant", MODELS)
def test_stacks_equal_the_hand_built_lists(kind, variant):
    """Each stack holds the hand-built layers' parameter names, shapes and
    values, drawn in the same RNG order, so the parameter the constructor
    draws next is the same too; each stack maps an input to the same bits
    (a kernel-1 layer pads nothing, whatever its mode)."""
    model = build(kind, variant)
    stacks, next_name, next_value = reference(kind, variant)
    params = model.parameters()
    rng = np.random.default_rng(1)
    for attr, layers in stacks.items():
        built = getattr(model, attr)
        assert isinstance(built, list) and len(built) == len(layers)
        for i, (new, old) in enumerate(zip(built, layers)):
            for name in ("weight", "bias"):
                p = params[f"{attr}.{i}.{name}"]
                assert p is getattr(new, name)
                assert p.data.shape == getattr(old, name).data.shape
                assert p.data.tobytes() == getattr(old, name).data.tobytes()
            spec, ref = dict(new.spec), dict(old.spec)
            if new.kernel == 1:
                del spec["mode"], ref["mode"]
            assert spec == ref
        x = rng.normal(0.0, 1.0, (2, 5, layers[0].in_dim))
        assert conv_stack(x, built).tobytes() == conv_stack(x, layers).tobytes()
    assert params[next_name].data.tobytes() == next_value.tobytes()


def codec_encode(motion, _audio):
    return build("codec", None).encode(motion)


def codec_decode(motion, _audio):
    """A grid of the motion's frames; one of more depths than the codec has
    stands for a wrong width."""
    depths = CODEC.depth + (motion.shape[-1] != CODEC.input_dim)
    return build("codec", None).decode(np.zeros(motion.shape[:-1] + (depths,), dtype=np.int64))


def context_features(_motion, audio):
    model = build("ar", "conv")
    return model.context_features(audio, np.zeros((6, AR.motion_dim)))


def forward_logits(_motion, audio):
    """A batch of the one driving signal; a 1-D one is passed as it is."""
    y = audio[None] if audio.ndim == 2 else audio
    grids = np.zeros((1, 10, AR.depth), dtype=np.int64)
    return build("ar", "conv").forward_logits(y, np.zeros((1, 6, AR.motion_dim)), grids)


def embed_mesh(motion, _audio):
    return build("sync", 2).embed_mesh(motion)


def score(motion, audio):
    return build("sync", 1).score(motion, audio)


def style_embed(motion, _audio):
    return build("style", None).embed(motion)


ENTRIES = [codec_encode, codec_decode, context_features, forward_logits, embed_mesh,
           score, style_embed]


def inputs(bad):
    """A (T, 3V) motion and a (T, A) driving signal, made ``bad`` on their
    frames: rank 1, zero frames or one channel short."""
    rng = np.random.default_rng(2)
    motion = rng.normal(0.0, 1.0, (10, 12))
    audio = rng.normal(0.0, 1.0, (10, 4))
    cut = {"rank 1": lambda a: a[0], "zero frames": lambda a: a[:0],
           "wrong width": lambda a: a[:, :-1]}[bad]
    return cut(motion), cut(audio)


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", ["rank 1", "zero frames", "wrong width"])
def test_every_stack_refuses_frames_it_cannot_take(entry, bad):
    """Rank 1, zero frames and a wrong width raise ``ShapeError`` at every
    entry into a conv stack, where they raised ``IndexError`` or a bare
    ``ValueError``, or returned NaN or empty arrays."""
    with pytest.raises(ShapeError):
        entry(*inputs(bad))


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda f: f.__name__)
def test_every_entry_takes_well_formed_frames(entry):
    """The same calls on well-formed frames return finite values, so each
    refusal above is the frames'."""
    rng = np.random.default_rng(2)
    out = entry(rng.normal(0.0, 1.0, (10, 12)), rng.normal(0.0, 1.0, (10, 4)))
    for o in out if isinstance(out, tuple) else (out,):
        assert np.isfinite(getattr(o, "data", o)).all()
