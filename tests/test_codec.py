import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqsynth.armodel import soft_target_distributions
from rvqsynth.codec import (Codec, CodecConfig, grid_residuals, reconstruction_mse,
                            rvq_quantize_frames, sample_categorical, train_codec,
                            write_grid)
from rvqsynth.nn import DivergenceError
from rvqsynth.tensor import ShapeError


def exhaustive_quantize(z, codebook, depth):
    """Reference implementation: plain per-depth argmin loops."""
    residual = z.astype(np.float64).copy()
    idx = []
    for _ in range(depth):
        best, best_d = 0, np.inf
        for c in range(codebook.shape[0]):
            d = float(((residual - codebook[c]) ** 2).sum())
            if d < best_d - 1e-15:
                best, best_d = c, d
        idx.append(best)
        residual = residual - codebook[best]
    return np.array(idx)


def test_quantizer_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for _ in range(50):
        C = int(rng.integers(2, 16))
        E = int(rng.integers(1, 8))
        D = int(rng.integers(1, 5))
        codebook = rng.normal(0.0, 1.0, (C, E))
        z = rng.normal(0.0, 1.0, (3, E))
        res = rvq_quantize_frames(z, codebook, D)
        for t in range(3):
            np.testing.assert_array_equal(
                res.grid[t], exhaustive_quantize(z[t], codebook, D))
        np.testing.assert_allclose(res.quantized,
                                   codebook[res.grid].sum(axis=1), atol=1e-12)


def test_quantizer_tie_breaks_to_lowest_index():
    codebook = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
    idx = rvq_quantize_frames(np.array([[1.0, 0.0]]), codebook, 2).grid[0]
    assert idx[0] == 0
    # after subtracting code 0 the residual is 0; codes 2 and the residual tie
    assert idx[1] == 2


def test_quantizer_prefix_determinism():
    rng = np.random.default_rng(1)
    codebook = rng.normal(0.0, 1.0, (8, 4))
    z = rng.normal(0.0, 1.0, (6, 4))
    full = rvq_quantize_frames(z, codebook, 4).grid
    for d in range(1, 4):
        np.testing.assert_array_equal(
            rvq_quantize_frames(z, codebook, d).grid, full[:, :d])


def test_quantizer_residual_norms_non_increasing():
    rng = np.random.default_rng(2)
    codebook = np.concatenate([np.zeros((1, 4)),
                               rng.normal(0.0, 1.0, (7, 4))])
    z = rng.normal(0.0, 1.0, (10, 4))
    res = rvq_quantize_frames(z, codebook, 5)
    residuals = grid_residuals(z, codebook, res.grid)
    norms = np.linalg.norm(np.concatenate([residuals[:, 1:], (z - res.quantized)[:, None]],
                                          axis=1), axis=2)
    assert np.all(np.diff(norms, axis=1) <= 1e-12)


def test_quantizer_rejects_bad_depth():
    with pytest.raises(ValueError):
        rvq_quantize_frames(np.zeros((2, 3)), np.zeros((4, 3)), 0)


@pytest.mark.parametrize("codebook", [np.zeros(4), np.zeros((0, 3)), np.zeros((2, 2, 3))])
def test_quantizer_refuses_a_malformed_codebook(codebook):
    """A codebook that is not (|C| >= 1, N_C) raises ShapeError at the entry,
    not an IndexError or numpy's argmin of an empty sequence."""
    with pytest.raises(ShapeError, match=r"codebook is \(\|C\| >= 1, N_C\)"):
        rvq_quantize_frames(np.zeros((2, 3)), codebook, 2)


@pytest.mark.parametrize("depth_limit", [2.5, "2", None])
def test_quantizer_refuses_a_depth_limit_not_an_int(depth_limit):
    with pytest.raises(ValueError, match="depth_limit must be an int >= 1"):
        rvq_quantize_frames(np.zeros((2, 3)), np.eye(4, 3), depth_limit)


@pytest.mark.parametrize("grid, message", [
    (np.zeros(3, dtype=np.int64), r"for 3 frames of latents, not \(3,\)"),
    (np.zeros((3, 2)), "integer code indices"),
    (np.full((3, 2), 99), r"code index out of range \[0, 8\)"),
    (np.zeros((4, 2), dtype=np.int64), r"for 3 frames of latents, not \(4, 2\)"),
    (np.zeros((3, 0), dtype=np.int64), r"D >= 1\) grid for 3 frames of latents, not \(3, 0\)"),
])
def test_grid_residuals_refuses_a_malformed_grid(grid, message):
    """A 1-D grid, a float grid, a code past the codebook, another T or no
    depths raise a typed error naming the fault at the entry."""
    codebook = np.random.default_rng(0).normal(0.0, 1.0, (8, 4))
    error = ShapeError if "frames" in message else ValueError
    with pytest.raises(error, match=message):
        grid_residuals(np.zeros((3, 4)), codebook, grid)


def test_quantizer_refuses_a_temperature_it_cannot_draw_at():
    z, codebook, rng = np.zeros((2, 3)), np.eye(4, 3), np.random.default_rng(0)
    for temperature, draws in ((-0.1, rng), (np.nan, rng), (np.inf, rng), (0.5, None)):
        with pytest.raises(ValueError, match="temperature"):
            rvq_quantize_frames(z, codebook, 2, temperature, draws)
    assert rvq_quantize_frames(z, codebook, 2, 0.5, rng).grid.shape == (2, 2)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_quantizer_additivity_property(seed):
    rng = np.random.default_rng(seed)
    codebook = rng.normal(0.0, 1.0, (int(rng.integers(2, 32)),
                                     int(rng.integers(1, 16))))
    z = rng.normal(0.0, 1.0, (5, codebook.shape[1]))
    res = rvq_quantize_frames(z, codebook, 3)
    np.testing.assert_array_equal(
        res.quantized, codebook[res.grid].sum(axis=1))


@pytest.fixture(scope="module")
def small_codec(tiny_corpus):
    cfg = CodecConfig(input_dim=12, depth=3, codebook_size=8, code_dim=6,
                      epochs=6, seed=0)
    codec, history = train_codec(tiny_corpus, cfg)
    return codec, history


def test_training_without_truncated_depths_is_finite_and_repeatable(tiny_corpus):
    cfg = CodecConfig(input_dim=12, depth=3, codebook_size=8, code_dim=6,
                      epochs=1, recon_all_depths=False, seed=2)
    (c1, h1), (c2, h2) = (train_codec(tiny_corpus, cfg) for _ in range(2))
    assert np.isfinite([row["loss"] for row in h1]).all() and h1 == h2
    for name, p in c1.parameters().items():
        assert p.data.tobytes() == c2.parameters()[name].data.tobytes(), name


def test_training_reduces_reconstruction_loss(small_codec):
    _, history = small_codec
    assert history[-1]["recon"] < history[0]["recon"]


def test_encode_decode_shapes_and_validation(small_codec, tiny_corpus):
    codec, _ = small_codec
    rec = tiny_corpus.records[0]
    z = codec.encode(rec.motion)
    assert z.shape == (rec.motion.shape[0], 6)
    res = codec.quantize(z)
    assert res.grid.shape == (rec.motion.shape[0], 3)
    xhat = codec.decode(res.grid)
    assert xhat.shape == rec.motion.shape
    with pytest.raises(ShapeError):
        codec.encode(rec.motion[:, :5])
    with pytest.raises(ValueError):
        codec.decode(np.full((4, 3), 99))


def test_decode_refuses_a_grid_deeper_than_the_codec_or_not_integer():
    """A (4, 6) grid for D = 4 would sum six codes, and a float grid index the
    codebook; both are refused at the entry."""
    codec = Codec(CodecConfig(input_dim=12, depth=4, codebook_size=8, code_dim=4))
    with pytest.raises(ShapeError, match="D <= 4"):
        codec.decode(np.zeros((4, 6), dtype=np.int64))
    with pytest.raises(ValueError, match="integer code indices"):
        codec.decode(np.zeros((4, 4)))
    assert codec.decode(np.zeros((4, 4), dtype=np.int64)).shape == (4, 12)


@pytest.mark.parametrize("depth_limit", [1.5, np.float64(2.0), "2", 0, 5, -1])
def test_decode_refuses_a_depth_limit_not_an_int_in_range(depth_limit):
    """``decode``'s ``depth_limit`` follows ``rvq_quantize_frames``' rule, an
    int >= 1, and is at most the grid's depth: a float or a string raised a
    TypeError in the slice or the comparison."""
    codec = Codec(CodecConfig(input_dim=12, depth=4, codebook_size=8, code_dim=4))
    grid = np.zeros((3, 4), dtype=np.int64)
    with pytest.raises(ValueError, match=r"depth_limit must be an int in \[1, 4\]"):
        codec.decode(grid, depth_limit)
    np.testing.assert_array_equal(codec.decode(grid, np.int64(2)), codec.decode(grid, 2))


def test_quantizers_refuse_latents_of_another_width():
    """Latents (T, 5) against a codebook of N_C = 4 raise ShapeError before
    the depth loop, through every function that walks the residuals."""
    codec = Codec(CodecConfig(input_dim=12, depth=4, codebook_size=8, code_dim=4))
    codebook, z = codec.codebook.data, np.zeros((3, 5))
    rng = np.random.default_rng(0)
    for call in (lambda: codec.quantize(z),
                 lambda: rvq_quantize_frames(z, codebook, 2),
                 lambda: rvq_quantize_frames(z, codebook, 2, 0.05, rng),
                 lambda: soft_target_distributions(z, np.zeros((3, 2), dtype=np.int64),
                                                   codebook, 0.1, 0.1)):
        with pytest.raises(ShapeError, match=r"latents must be \(T, 4\)"):
            call()
    assert codec.quantize(np.zeros((3, 4))).grid.shape == (3, 4)


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("T", [1, 5])
@pytest.mark.parametrize("depth_limit", [None, 2])
def test_batched_decode_matches_per_sequence(small_codec, B, T, depth_limit):
    codec, _ = small_codec
    grids = np.random.default_rng(10 * B + T).integers(0, 8, (B, T, 3))
    batched = codec.decode(grids, depth_limit)
    assert batched.shape == (B, T, 12)
    for i in range(B):
        np.testing.assert_array_equal(batched[i],
                                      codec.decode(grids[i], depth_limit))
    stacked = codec.decode(grids[None].repeat(2, axis=0), depth_limit)
    np.testing.assert_array_equal(stacked, np.stack([batched, batched]))


@pytest.mark.parametrize("B", [1, 3])
def test_batched_encode_matches_per_sequence(small_codec, tiny_corpus, B):
    codec, _ = small_codec
    x = np.stack([r.motion for r in tiny_corpus.records[:B]])
    batched = codec.encode(x)
    assert batched.shape == x.shape[:2] + (6,)
    for i in range(B):
        single = codec.encode(x[i])
        assert single.shape == (x.shape[1], 6)
        np.testing.assert_array_equal(batched[i], single)
    np.testing.assert_array_equal(codec.encode(x[None].repeat(2, axis=0)),
                                  np.stack([batched, batched]))
    with pytest.raises(ShapeError):
        codec.encode(x[0, 0])


def test_decode_rejects_a_grid_without_a_time_axis(small_codec):
    codec, _ = small_codec
    with pytest.raises(ShapeError):
        codec.decode(np.zeros(3, dtype=np.int64))


def test_encoder_is_causal(small_codec, tiny_corpus):
    codec, _ = small_codec
    x = tiny_corpus.records[0].motion
    base = codec.encode(x)
    x2 = x.copy()
    x2[10:] += 5.0
    np.testing.assert_array_equal(codec.encode(x2)[:10], base[:10])


def test_codec_checkpoint_roundtrip(small_codec, tiny_corpus, tmp_path):
    codec, _ = small_codec
    path = tmp_path / "codec.ckpt"
    codec.save(path, seed=3)
    back = Codec.load(path)
    x = tiny_corpus.records[0].motion
    np.testing.assert_array_equal(back.encode(x), codec.encode(x))
    np.testing.assert_array_equal(back.decode(back.quantize(back.encode(x)).grid),
                                  codec.decode(codec.quantize(codec.encode(x)).grid))
    np.testing.assert_array_equal(back.codebook.data, codec.codebook.data)


def test_training_diverges_cleanly(tiny_corpus):
    cfg = CodecConfig(input_dim=12, depth=2, codebook_size=4, code_dim=4,
                      epochs=3, lr=1e80, seed=0)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(DivergenceError):
        train_codec(tiny_corpus, cfg)


def test_reconstruction_mse_is_per_sequence(small_codec, tiny_corpus):
    codec, _ = small_codec
    records = tiny_corpus.split("val")
    out = reconstruction_mse(codec, records)
    assert out.shape == (len(records),)
    assert np.all(out >= 0.0)


def test_grid_file_layout(tmp_path):
    grid = np.array([[0, 3, 1], [2, 2, 0]], dtype=np.int64)
    path = tmp_path / "grid.rvqj"
    write_grid(grid, 8, path)
    assert path.read_bytes() == (b"RVQJ" + struct.pack("<III", 2, 3, 8)
                                 + grid.astype("<u2").tobytes())


@pytest.mark.parametrize("grid, codebook_size, message", [
    ([[70000, 3]], 70001, "codebook_size must be positive and at most 65536"),
    ([[70000, 3]], 65536, "code index out of range"),
    ([[-1, 3]], 8, "code index out of range"),
    ([[1.7, 3.0]], 8, "integer code indices"),
    ([1, 3], 8, r"a grid is \(T, D\)"),
])
def test_write_grid_refuses_what_u16_cannot_store(tmp_path, grid, codebook_size,
                                                  message):
    path = tmp_path / "grid.rvqj"
    with pytest.raises(ValueError, match=message):
        write_grid(np.array(grid), codebook_size, path)
    assert not path.exists()


@pytest.mark.parametrize("grid, message", [
    (np.zeros((4, 2), dtype=np.int64), r"for 3 frames of latents, not \(4, 2\)"),
    (np.full((3, 2), 8), r"code index out of range \[0, 8\)"),
    (np.zeros((3, 2)), "integer code indices"),
    (np.zeros(3, dtype=np.int64), r"for 3 frames of latents, not \(3,\)"),
    (np.zeros((3, 0), dtype=np.int64), r"for 3 frames of latents, not \(3, 0\)"),
])
def test_soft_targets_refuse_a_malformed_grid(grid, message):
    codebook = np.random.default_rng(0).normal(0.0, 1.0, (8, 4))
    with pytest.raises(ValueError, match=message):
        soft_target_distributions(np.zeros((3, 4)), grid, codebook, 0.1, 0.1)


class ConstantDraws:
    """An rng stub whose every uniform draw is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self, shape):
        return np.full(shape, self.u)


def categorical_rows(n=20_000, C=32):
    return np.random.default_rng(4).normal(0.0, 3.0, (n, C))


def test_sample_categorical_never_returns_codebook_size():
    """``Generator.random``'s largest draw, 1 − 2⁻⁵³, lies above the last
    cdf entry of rows that rounding leaves short of 1; such a draw takes
    the last index, not |C|."""
    logits = categorical_rows()
    p = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    top = 1.0 - 2.0 ** -53
    assert (np.cumsum(p, axis=-1)[:, -1] < top).any()
    idx = sample_categorical(logits, 1.0, ConstantDraws(top))
    assert idx.min() >= 0 and idx.max() == logits.shape[1] - 1


@pytest.mark.parametrize("temperature", [0.3, 1.0, 4.0])
def test_sample_categorical_keeps_in_range_draws(temperature):
    """Every draw the count over the whole cdf put in range keeps its
    index."""
    logits = categorical_rows(5_000)
    idx = sample_categorical(logits, temperature, np.random.default_rng(7))
    z = logits / temperature
    p = np.exp(z - z.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    u = np.random.default_rng(7).random((logits.shape[0], 1))
    old = (u > np.cumsum(p, axis=-1)).sum(axis=-1)
    assert old.max() < logits.shape[1]
    np.testing.assert_array_equal(idx, old)


def sample_categorical_reference(logits, temperature, rng):
    """``sample_categorical`` as it was written with the ndarray methods and
    ``np.cumsum``, before it called the ufuncs themselves."""
    if temperature == 0.0:
        return np.argmin(-logits, axis=-1)
    z = logits / temperature
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z, out=z)
    p /= p.sum(axis=-1, keepdims=True)
    cdf = np.cumsum(p, axis=-1, out=p)
    u = rng.random(logits.shape[:-1] + (1,))
    return (u > cdf[..., :-1]).sum(axis=-1)


@pytest.mark.parametrize("draws", ["generator", 0.0, 0.5, 1.0 - 2.0 ** -53])
@pytest.mark.parametrize("temperature", [0.0, 1e-310, 1e-12, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("shape", [(1, 1), (7, 5), (4, 32), (160, 32)])
def test_sample_categorical_matches_method_reference(shape, temperature, draws):
    """The ufunc reductions against the method-call body: the same indices
    and dtype, with a real Generator (same seed on both sides) or a stub
    whose every draw is one value, including 1 − 2⁻⁵³. Below temperature
    1e-9, where logits / temperature can overflow, the draw is the argmax."""
    logits = np.random.default_rng(sum(shape)).normal(0.0, 3.0, shape)
    make = ((lambda: np.random.default_rng(3)) if draws == "generator"
            else (lambda: ConstantDraws(draws)))
    got = sample_categorical(logits, temperature, make())
    want = (np.argmax(logits, axis=-1) if 0.0 < temperature < 1e-9
            else sample_categorical_reference(logits, temperature, make()))
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)

