"""Residual vector-quantized autoencoder over motion sequences.

A causal convolutional encoder maps (T, 3V) deformations to per-frame
latents, each frame is quantized by recursive nearest-code projection against
a single codebook shared across depths, and a causal decoder maps the summed
codes back to motion space. Training uses a straight-through estimator with
commitment and codebook losses at every depth.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .config import Annotated, OptionalSize, Size, check, declared, option
from .nn import Module, Parameter, conv_layers, conv_stack, fit, minibatches
from .tensor import ShapeError, Tensor, straight_through

GRID_MAGIC = b"RVQJ"
# A codebook of at most 65,536 codes, the most a u16 grid file can index.
CodebookSize = Annotated[int, range(1, 65_537)]


@dataclass
class QuantizationResult:
    grid: np.ndarray            # (T, D) codebook indices
    quantized: np.ndarray       # (T, N_C), exactly the sum of selected codes


@dataclass
class CodecConfig:
    input_dim: Size = 60        # 3V
    depth: Size = option(4, "RVQ depth D")
    codebook_size: CodebookSize = option(32, "codebook size |C|")
    code_dim: Size = option(16, "code dimension N_C")
    hidden: OptionalSize = None  # defaults to 4 * code_dim
    beta: float = option(0.25, "commitment loss weight")
    lr: float = option(2e-3, "Adam learning rate")
    epochs: int = option(60, "training epochs")
    batch: Size = option(16, "batch size")
    recon_all_depths: bool = option(
        True, "also reconstruct at random truncated depths")
    seed: int = option(0, "training seed")

    def __post_init__(self):
        if self.hidden is None:
            self.hidden = 4 * self.code_dim
        check(vars(self), declared(CodecConfig))


def squared_distances(x: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances (N, |C|) from each row of x to each code."""
    return ((x[:, None, :] - codebook[None, :, :]) ** 2).sum(axis=2)


def sample_categorical(logits: np.ndarray, temperature: float,
                       rng: np.random.Generator) -> np.ndarray:
    """One inverse-CDF draw per row from softmax(logits / temperature); below
    1e-9, where that may overflow, the argmax (lowest index on ties). The ufuncs
    skip numpy's wrappers: at (4, 32) np.cumsum 2.6 µs, np.add.accumulate 1.1."""
    if temperature < 1e-9:
        return np.argmin(-logits, axis=-1)
    z = logits / temperature
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    p = np.exp(z, out=z)
    p /= np.add.reduce(p, axis=-1, keepdims=True)
    cdf = np.add.accumulate(p, axis=-1, out=p)
    u = rng.random(logits.shape[:-1] + (1,))
    return np.add.reduce(u > cdf[..., :-1], axis=-1)  # never |C|, even if cdf[-1] < u


def check_codes(grid: np.ndarray, codebook_size: int):
    """Refuse a grid that is not integer code indices in [0, codebook_size)."""
    if grid.dtype.kind not in "iu":
        raise ValueError(f"a grid holds integer code indices, not {grid.dtype}")
    if grid.size and not 0 <= grid.min() <= grid.max() < codebook_size:
        raise ValueError(f"code index out of range [0, {codebook_size})")


def _latents(z: np.ndarray, codebook: np.ndarray) -> np.ndarray:
    """(T, N_C) float64 latents of a (|C| >= 1, N_C) codebook, or ShapeError
    for any other shape of either."""
    if np.ndim(codebook) != 2 or not len(codebook):
        raise ShapeError(f"a codebook is (|C| >= 1, N_C), not {np.shape(codebook)}")
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.ndim != 2 or z.shape[1] != codebook.shape[1]:
        raise ShapeError(f"latents must be (T, {codebook.shape[1]}), got {z.shape}")
    return z


def rvq_quantize_frames(z: np.ndarray, codebook: np.ndarray, depth_limit: int,
                        temperature: float = 0.0,
                        rng: np.random.Generator | None = None) -> QuantizationResult:
    """Quantize (T, N_C) latent frames to ``depth_limit`` codes: at each depth
    every frame draws a code from softmax(−d² / temperature) over its residual's
    squared distances d² to the codes (at 0 the nearest, the lowest index on
    ties; above 0 by ``rng``) and subtracts it from the residual."""
    if not isinstance(depth_limit, (int, np.integer)) or depth_limit < 1:
        raise ValueError(f"depth_limit must be an int >= 1, not {depth_limit!r}")
    if not 0 <= temperature < np.inf or (temperature > 0 and rng is None):
        raise ValueError(f"temperature {temperature} is not 0, or finite with an rng")
    residual = _latents(z, codebook)
    indices = np.zeros((len(residual), depth_limit), dtype=np.int64)
    quantized = np.zeros_like(residual)
    for d in range(depth_limit):
        idx = sample_categorical(-squared_distances(residual, codebook), temperature, rng)
        indices[:, d] = idx
        residual = residual - codebook[idx]
        quantized = quantized + codebook[idx]
    return QuantizationResult(indices, quantized)


def grid_residuals(z: np.ndarray, codebook: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The residuals (T, D, N_C) that the depths of a (T, D) ``grid`` quantize:
    z, then z less each code in turn, subtracted in the quantizer's order. A
    grid of another shape, D = 0 included, or of codes outside the codebook
    is refused."""
    z, grid = _latents(z, codebook), np.asarray(grid)
    check_codes(grid, len(codebook))
    if grid.ndim != 2 or len(grid) != len(z) or not grid.shape[1]:
        raise ShapeError(f"a (T, D >= 1) grid for {len(z)} frames of latents, not {grid.shape}")
    steps = np.concatenate([z[:, None], codebook[grid[:, :-1]]], axis=1)
    return np.subtract.accumulate(steps, axis=1)


class Codec(Module):
    def __init__(self, config: CodecConfig, rng: np.random.Generator | None = None):
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        c = config
        self.enc_layers = conv_layers([c.input_dim, c.hidden, c.hidden, c.code_dim],
                                      [1, 3, 3], rng, "causal")
        self.dec_layers = conv_layers([c.code_dim, c.hidden, c.hidden, c.input_dim],
                                      [3, 3, 1], rng, "causal")
        self.codebook = Parameter(rng.normal(0.0, 0.1, (c.codebook_size, c.code_dim)))

    # -- forward ----------------------------------------------------------

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Map a (T, 3V) sequence to (T, N_C) latents; a stack of sequences
        (..., T, 3V) is encoded in one pass to (..., T, N_C), each sequence
        with the same bits as on its own."""
        return conv_stack(np.asarray(x, dtype=np.float64), self.enc_layers)

    def quantize(self, z: np.ndarray) -> QuantizationResult:
        return rvq_quantize_frames(z, self.codebook.data, self.config.depth)

    def decode(self, grid, depth_limit: int | None = None) -> np.ndarray:
        """Decode a CodeGrid to motion space.

        A (T, D) grid of integer codes, D at most the codec's depth, gives
        (T, 3V) motion; a stack of grids (..., T, D) is decoded in one pass
        to (..., T, 3V), each sequence with the same bits as on its own.
        """
        grid = np.asarray(grid)
        if grid.ndim < 2 or grid.shape[-1] > self.config.depth:
            raise ShapeError(f"expected a (..., T, D) grid with D <= "
                             f"{self.config.depth}, got {grid.shape}")
        d = grid.shape[-1] if depth_limit is None else depth_limit
        if not isinstance(d, (int, np.integer)) or not 1 <= d <= grid.shape[-1]:
            raise ValueError(f"depth_limit must be an int in [1, {grid.shape[-1]}], not {d!r}")
        check_codes(grid, self.config.codebook_size)
        zq = self.codebook.data[grid[..., :d]].sum(axis=-2)  # (..., T, N_C)
        return conv_stack(zq, self.dec_layers)

    # -- persistence --------------------------------------------------------

    def save(self, path, seed: int = 0):
        checkpoint.save_container(path, {"model": "codec", "config": vars(self.config)},
                                  self.parameters(), seed)

    @classmethod
    def load(cls, path) -> "Codec":
        return checkpoint.load_model(path, "codec", CodecConfig,
                                     lambda cfg, _: cls(cfg))[0]


def init_codebook(codec: Codec, records, rng: np.random.Generator):
    """Seed codes from encoder outputs of a warmup pass."""
    warmup = records[: max(4, codec.config.codebook_size)]
    pool = codec.encode(np.stack([rec.motion for rec in warmup]))
    pool = pool.reshape(-1, codec.config.code_dim)
    n = codec.config.codebook_size
    pick = rng.choice(pool.shape[0], size=min(n, pool.shape[0]), replace=False)
    codes = pool[pick]
    if codes.shape[0] < n:
        extra = rng.normal(0.0, 0.1, (n - codes.shape[0], codec.config.code_dim))
        codes = np.concatenate([codes, extra], axis=0)
    codes = codes + rng.normal(0.0, 1e-3, codes.shape)
    codec.codebook.data = codes


def train_codec(corpus, config: CodecConfig, log=None):
    """Train on the corpus train split; returns (codec, per-epoch history)."""
    records = corpus.split("train")
    if not records:
        raise ValueError("corpus has no training sequences")
    rng = np.random.default_rng(config.seed)
    codec = Codec(config, rng)
    init_codebook(codec, records, rng)
    D = config.depth
    usage = np.zeros(config.codebook_size, dtype=np.int64)

    def step(batch):
        x = Tensor(np.stack([rec.motion for rec in batch]))
        z = conv_stack(x, codec.enc_layers)
        B, T, NC = z.shape
        flat = z.data.reshape(B * T, NC)
        res = rvq_quantize_frames(flat, codec.codebook.data, D)
        np.add.at(usage, res.grid.reshape(-1), 1)
        partials = np.cumsum(codec.codebook.data[res.grid], axis=1)  # (BT, D, NC)

        def recon_at(d):
            zq = partials[:, d - 1].reshape(B, T, NC)
            xhat = conv_stack(straight_through(zq, z), codec.dec_layers)
            return ((xhat - x) ** 2.0).mean()

        recon = recon_at(D)
        if config.recon_all_depths and D > 1:
            d_rand = int(rng.integers(1, D))
            recon = recon * 0.5 + recon_at(d_rand) * 0.5

        commit = cbloss = 0.0
        zflat = z.reshape(B * T, NC)
        residuals = grid_residuals(flat, codec.codebook.data, res.grid)
        for d in range(D):
            gathered = codec.codebook[res.grid[:, d]]
            cbloss = cbloss + ((gathered - Tensor(residuals[:, d])) ** 2.0).mean()
            commit = commit + ((zflat - Tensor(partials[:, d])) ** 2.0).mean()
        commit = commit * (1.0 / D)
        cbloss = cbloss * (1.0 / D)
        return {"loss": recon + config.beta * commit + cbloss, "recon": recon,
                "commit": commit, "codebook": cbloss}

    def reseed_dead_codes(epoch):
        """Reseed codes unused for the whole epoch from encoder outputs."""
        dead = np.flatnonzero(usage == 0)
        if dead.size:
            seed_rec = records[int(rng.integers(len(records)))]
            lat = codec.encode(seed_rec.motion)
            pick = rng.integers(lat.shape[0], size=dead.size)
            codec.codebook.data[dead] = lat[pick] + rng.normal(
                0.0, 1e-3, (dead.size, config.code_dim))
        usage[:] = 0

    history = fit(codec.parameters(), config.epochs, config.lr,
                  lambda: minibatches(rng, records, config.batch), step, log, reseed_dead_codes)
    return codec, history


def reconstruction_mse(codec: Codec, records, depth_limit: int | None = None) -> np.ndarray:
    """Per-sequence mean squared reconstruction error."""
    x = np.stack([rec.motion for rec in records])
    z = codec.encode(x)
    grid = codec.quantize(z.reshape(-1, z.shape[-1])).grid
    xhat = codec.decode(grid.reshape(z.shape[:-1] + (-1,)), depth_limit)
    return ((xhat - x) ** 2).mean(axis=(-2, -1))


# -- CodeGrid file format -------------------------------------------------------


def write_grid(grid: np.ndarray, codebook_size: int, path):
    """Write a (T, D) grid: magic ``RVQJ``, u32 T, D and |C|, then the
    indices row by row as little-endian u16."""
    grid = np.asarray(grid)
    check({"codebook_size": codebook_size}, {"codebook_size": CodebookSize})
    check_codes(grid, codebook_size)
    if grid.ndim != 2:
        raise ShapeError(f"a grid is (T, D), not {grid.shape}")
    T, D = grid.shape
    checkpoint.write_atomic(path, [
        GRID_MAGIC, struct.pack("<III", T, D, codebook_size),
        np.ascontiguousarray(grid, dtype="<u2").tobytes()])
