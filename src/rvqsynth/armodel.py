"""Two-stage autoregressive model over code grids.

Stage one (temporal model) produces a per-frame audio-visual context from the
driving-signal features and the depth-summed code embeddings of previous
frames. Stage two (depth model) is a masked self-attention stack over a
length D+1 token sequence whose first token is the style embedding, predicting
one code index per depth; ``ARModel.depth_prefix`` runs the style token once
per style, for teacher-forced training and sampling. Inference runs off the
tape: ``TemporalStream`` steps the temporal model one frame at a time and
``ARModel.depth_step`` one depth at a time over a K/V cache.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .config import Annotated, Size, check, declared, option
from .codec import CodebookSize, check_codes, grid_residuals, rvq_quantize_frames, squared_distances
from .nn import (Conv1d, Dense, KVCache, Module, Parameter, TransformerBlock, affine, conv_layers,
                 conv_stack, decode_step, fit, matmul_for, minibatches, operand, tap_sum)
from .tensor import (ShapeError, Tensor, broadcast_to, concat, cross_entropy,
                     leaky_relu, log_softmax, mean)


@dataclass
class ARConfig:
    code_dim: Size = 16
    codebook_size: CodebookSize = 32
    depth: Size = 4
    width: Size = option(64, "model width")
    audio_dim: Size = 8
    motion_dim: Size = 60
    max_frames: Size = 256
    depth_layers: Size = option(2, "depth-model attention layers")
    heads: Size = option(4, "attention heads")
    temporal: Annotated[str, ("conv", "transformer")] = option("conv", "temporal model kind")
    temporal_dilations: tuple = (1, 2, 4, 8)
    temporal_layers: Size = option(2, "transformer temporal layers")
    audio_layers: Size = 2
    audio_kernel: Size = 3
    style_mode: Annotated[str, ("depth", "temporal")] = option("depth", "style token target")
    lr: float = option(1e-3, "Adam learning rate")
    epochs: int = option(40, "training epochs")
    batch: Size = option(16, "batch size")
    seed: int = option(0, "training seed")
    stochastic_targets: bool = option(
        False, "sample target grids from quantizer softmax")
    stochastic_tau: float = 0.05
    soft_targets: bool = option(False, "smooth targets over near-tied codes")
    soft_eps: float = 0.1
    soft_alpha: float = 0.1

    def __post_init__(self):
        self.temporal_dilations = tuple(self.temporal_dilations)
        check(vars(self), declared(ARConfig))
        if self.width % self.heads:
            raise ValueError(f"width {self.width} must be divisible by heads {self.heads}")
        if any(d < 1 for d in self.temporal_dilations):
            raise ValueError(f"temporal dilations must be positive, got "
                             f"{self.temporal_dilations}")


class ARModel(Module):
    def __init__(self, config: ARConfig, codebook: np.ndarray,
                 rng: np.random.Generator | None = None,
                 codec_checksum: str = ""):
        codebook = np.asarray(codebook, dtype=np.float64)
        if codebook.shape != (config.codebook_size, config.code_dim):
            raise ShapeError(
                f"codebook shape {codebook.shape} does not match config "
                f"({config.codebook_size}, {config.code_dim})")
        self.config = config
        self.codec_checksum = codec_checksum
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        c = config
        H = c.width
        self.codebook = Parameter(codebook)  # frozen; excluded from updates
        # audio encoder: centered convolutions, window radius self.audio_radius
        self.audio_convs = conv_layers([c.audio_dim] + [H] * c.audio_layers,
                                       [c.audio_kernel] * c.audio_layers, rng)
        # style encoder: codec-encoder shape, non-causal convolutions
        self.style_convs = conv_layers([c.motion_dim, H, H, H], [1, 3, 3], rng)
        self.style_proj = Dense(H, H, rng)
        # temporal model
        self.code_proj = Dense(c.code_dim, H, rng)
        self.start_token = Parameter(rng.normal(0.0, 0.05, H))
        if c.temporal == "conv":
            self.temporal_convs = [Conv1d(H, H, 2, rng, dilation=d, mode="causal")
                                   for d in c.temporal_dilations]
        else:
            self.temporal_pos = Parameter(rng.normal(0.0, 0.05, (c.max_frames, H)))
            self.temporal_blocks = [TransformerBlock(H, c.heads, rng)
                                    for _ in range(c.temporal_layers)]
        # depth model
        self.depth_pos = Parameter(rng.normal(0.0, 0.05, (c.depth + 1, H)))
        self.prefix_proj = Dense(c.code_dim, H, rng)
        self.depth_blocks = [TransformerBlock(H, c.heads, rng)
                             for _ in range(c.depth_layers)]
        self.head = Dense(H, c.codebook_size, rng)
        self.style_const = Parameter(rng.normal(0.0, 0.05, H))
        # candidate passes (S·N per depth) and rows the depth stack ran
        self.depth_pass_count = self.depth_row_count = 0

    # -- small helpers ----------------------------------------------------

    @property
    def audio_radius(self) -> int:
        """Frames of past/future driving signal visible at each frame."""
        return sum(conv.radius for conv in self.audio_convs)

    def frame_embedding(self, grid_rows: np.ndarray) -> np.ndarray:
        """Depth-summed code embedding e~(j_t) for rows of indices (..., D')."""
        return self.codebook.data[grid_rows].sum(axis=-2)

    def trainable_parameters(self) -> dict:
        return {k: v for k, v in self.parameters().items() if k != "codebook"}

    # -- forward passes -----------------------------------------------------

    def encode_audio(self, y):
        return conv_stack(y, self.audio_convs)

    def encode_style(self, s):
        """Mean-pooled embedding of a (B, T_s, 3V) style reference."""
        if s.ndim != 3:
            raise ShapeError(f"style references must be (B, T_s, 3V), got {s.shape}")
        return mean(conv_stack(s, self.style_convs), axis=1)

    def temporal_context(self, audio_feats, frame_embs: np.ndarray,
                         style_emb=None):
        """h_av (B, T, H), on the tape for Tensor ``audio_feats``. ``frame_embs``
        (B, T, N_C) holds e~(j_t), read shifted by one so h_av[t] sees only rows
        < t; the audio features and the style may have one row for all B."""
        B, T, H = len(frame_embs), *audio_feats.shape[1:]
        code_in = self.code_proj(operand(audio_feats, frame_embs))
        start = broadcast_to(operand(code_in, self.start_token).reshape(1, 1, H), (B, 1, H))
        shifted = concat([start, code_in[:, :-1, :]], axis=1) if T > 1 else start
        h = audio_feats + shifted
        if self.config.style_mode == "temporal" and style_emb is not None:
            h = h + self.style_proj(style_emb).reshape(-1, 1, H)
        if self.config.temporal == "conv":
            for conv in self.temporal_convs:
                h = h + leaky_relu(conv(h))
        else:
            if T > self.config.max_frames:
                raise ShapeError(f"{T} frames exceed the transformer temporal "
                                 f"model's max_frames={self.config.max_frames}")
            h = h + operand(h, self.temporal_pos)[:T]
            for block in self.temporal_blocks:
                h = block(h)
        return h

    def depth_logits_full(self, h_av, style_emb, grids: np.ndarray):
        """Teacher-forced logits (B, T, D, |C|), on the tape for a Tensor ``h_av``.
        The D tokens of all B·T frames attend to each layer's ``depth_prefix``."""
        B, T, H = h_av.shape
        D, C = self.config.depth, self.config.codebook_size
        cache = [broadcast_to(kv, (B, T, 2 * H)).reshape(B * T, 1, 2 * H)
                 for kv in self.depth_prefix(style_emb)]
        v = h_av.reshape(B * T, 1, H)
        if D > 1:
            codes = np.cumsum(self.codebook.data[grids][:, :, :D - 1], axis=2)
            v = concat([v, self.prefix_proj(operand(v, codes.reshape(B * T, D - 1, -1)))],
                       axis=1)
        v = v + operand(v, self.depth_pos)[1:].reshape(1, D, H)
        for block, kv in zip(self.depth_blocks, cache):
            v = block(v, kv)
        return self.head(v).reshape(B, T, D, C)

    def forward_logits(self, y: np.ndarray, s: np.ndarray, grids: np.ndarray,
                       temporal_grids: np.ndarray | None = None) -> Tensor:
        """End-to-end teacher-forced logits from raw inputs (batched).

        ``temporal_grids``, when given, feeds the temporal model while
        ``grids`` feeds the depth model (used by distillation relabeling).
        """
        audio = self.encode_audio(Tensor(y))
        style = self.encode_style(Tensor(s))
        tg = grids if temporal_grids is None else temporal_grids
        frame_embs = self.frame_embedding(tg)
        h_av = self.temporal_context(audio, frame_embs, style)
        return self.depth_logits_full(h_av, style, grids)

    # -- inference-side incremental API -------------------------------------

    def context_features(self, y: np.ndarray, s: np.ndarray):
        """(audio features (T, H), style embedding (H,)) of y (T, A), s (T_s, 3V)."""
        if np.ndim(y) != 2 or np.ndim(s) != 2:
            raise ShapeError(f"expected (T, A) audio and (T_s, 3V) style, "
                             f"got {np.shape(y)} and {np.shape(s)}")
        return self.encode_audio(y[None])[0], self.encode_style(s[None])[0]

    def depth_prefix(self, style_emb) -> list:
        """Each depth layer's keys and values ``[k | v]`` (B, 1, 2H) of the
        style tokens of style embeddings (B, H), on the tape for a Tensor. The
        style token is the first causal position and sees only itself, so one
        prefix serves every frame and row drawn with its style."""
        if style_emb.shape[1:] != (self.config.width,):
            raise ShapeError(f"style embeddings must be (B, width), got {style_emb.shape}")
        B, H = style_emb.shape
        if self.config.style_mode == "depth":
            v = self.style_proj(style_emb)
        else:
            v = broadcast_to(operand(style_emb, self.style_const), (B, H))
        v = (v + operand(style_emb, self.depth_pos)[0]).reshape(B, 1, H)
        prefix = []
        for block in self.depth_blocks:
            # a lone token's softmax is exactly 1: its attention is its value
            qkv = block.attn.wqkv(v)
            prefix.append(qkv[..., H:])
            v = v + block.attn.wo(qkv[..., 2 * H:])
            v = v + block.ff2(leaky_relu(block.ff1(v)))
        return prefix

    def depth_caches(self, style_emb: np.ndarray, rows: int, depths: int) -> "DepthCaches":
        """One ``KVCache`` per depth layer for ``rows`` rows and ``depths``
        steps, slot 0 holding the ``depth_prefix`` of one style embedding
        (1, H) in every row, written here, with the arrays ``depth_step`` runs
        on, read now: once per call, as Adam rebinds them."""
        caches = DepthCaches(KVCache(1 + depths, rows, self.config.width, self.config.heads)
                             for _ in self.depth_blocks)
        for cache, kv in zip(caches, self.depth_prefix(style_emb)):
            cache.k[0], cache.v[0] = np.split(kv[0], 2, axis=1)
            cache.fill = 1
        caches.blocks = [block.arrays() for block in self.depth_blocks]
        caches.prefix_proj, caches.head, caches.pos = (
            self.prefix_proj.arrays(), self.head.arrays(), self.depth_pos.data)
        return caches

    def depth_step(self, x: np.ndarray, d: int, caches: "DepthCaches") -> np.ndarray:
        """Logits (N, |C|) for depth ``d`` of N rows; adds N to
        ``depth_row_count``. ``x`` is the rows' h_av (N, H) at d = 0, and
        after that the sum (N, N_C) of the d codes each row drew; each row's
        token runs through ``decode_step`` as one (N, H) decode row.

        ``caches`` (``depth_caches``) holds each layer's ``KVCache`` of the d + 1
        tokens before; d = 0 rewinds them to the style prefix and may fill n·N rows.
        """
        self.depth_row_count += len(x)
        if not d:
            for cache in caches:
                cache.fill = 1
        mm, (wp, bp), (wh, bh) = matmul_for(x), caches.prefix_proj, caches.head
        v = (mm(x, wp) + bp if d else x) + caches.pos[d + 1]
        for cache, arrays in zip(caches, caches.blocks):
            v = decode_step(v, cache, arrays)
        return mm(v, wh) + bh

    # -- scoring -----------------------------------------------------------

    def sequence_log_prob(self, grid: np.ndarray, y: np.ndarray,
                          s: np.ndarray) -> float:
        return float(self.sequence_log_probs(grid[None], y, s)[0])

    def sequence_log_probs(self, grids: np.ndarray, y: np.ndarray,
                           s: np.ndarray) -> np.ndarray:
        """Teacher-forced log-probabilities of grids (G, T, D) for one (y, s),
        off the tape. Each encoder runs once, and its one row serves them all."""
        grids = np.asarray(grids)
        if grids.shape[1:] != (len(y), self.config.depth) or not len(grids):
            raise ShapeError(f"grids {grids.shape} are not "
                             f"(G, {len(y)}, {self.config.depth}) with G >= 1")
        check_codes(grids, self.config.codebook_size)
        audio, style = (f[None] for f in self.context_features(y, s))
        h_av = self.temporal_context(audio, self.frame_embedding(grids), style)
        logp = log_softmax(self.depth_logits_full(h_av, style, grids), axis=-1)
        picked = np.take_along_axis(logp, grids[..., None], axis=-1)[..., 0]
        return picked.sum(axis=(1, 2))

    # -- persistence --------------------------------------------------------

    def save(self, path, seed: int = 0):
        checkpoint.save_container(
            path, {"model": "ar", "config": vars(self.config)},
            self.parameters(), seed, extra={"codec_checksum": self.codec_checksum})

    @classmethod
    def load(cls, path) -> "ARModel":
        # the codebook is restored with the other parameters
        return checkpoint.load_model(path, "ar", ARConfig, lambda cfg, extra: cls(
            cfg, np.zeros((cfg.codebook_size, cfg.code_dim)),
            codec_checksum=extra.get("codec_checksum", "")))[0]


class DepthCaches(list):
    """Per-layer ``KVCache``s with ``blocks``, ``prefix_proj``, ``head``, ``pos``."""


class TemporalStream:
    """The temporal stage run a frame at a time, off the tape, on arrays read at the start.

    ``step`` returns h_av of the next frame for every sequence, given the
    depth-summed code embedding each sequence committed for the frame before.
    Each causal conv keeps its last (k−1)·d + 1 input rows in a ring buffer,
    as in Fast WaveNet generation, and computes one output row from them with
    ``tap_sum``, the kernel of ``conv1d``, so with convs a frame costs the
    same at any position; the transformer variant keeps a ``KVCache`` of
    T positions per block and runs each frame through ``decode_step`` as one
    (S, H) decode row. Its products have S rows, so up to ``nn.DOT_ROWS``
    samples take ``ndarray.dot`` (``nn.matmul_for``), 0.6–0.8 µs a call less
    than matmul at S = 4. Past the last frame ``step`` raises ``ShapeError``.
    """

    def __init__(self, model: ARModel, audio_feats: np.ndarray,
                 style_emb: np.ndarray, samples: int):
        c = model.config
        if np.ndim(audio_feats) != 2 or audio_feats.shape[1] != c.width:
            raise ShapeError(f"audio features {np.shape(audio_feats)} are not (T, {c.width})")
        T, H = audio_feats.shape
        if c.temporal == "transformer" and T > c.max_frames:
            raise ShapeError(f"{T} frames exceed the transformer temporal "
                             f"model's max_frames={c.max_frames}")
        self.audio, self.t = audio_feats, 0
        self.start = np.broadcast_to(model.start_token.data, (samples, H))
        self.code_proj = model.code_proj.arrays()
        self.style_term = (model.style_proj(np.broadcast_to(style_emb, (samples, H)))
                           if c.style_mode == "temporal" else None)
        self.convs, self.blocks = [], []
        if c.temporal == "conv":
            # a ring of input rows, indexed modulo its length; the zeros
            # not yet written stand for the conv's causal padding
            self.convs = [(np.zeros((samples, (conv.kernel - 1) * conv.dilation + 1, H)),
                           conv.dilation, conv.weight.data, conv.bias.data)
                          for conv in model.temporal_convs]
        else:
            self.pos = model.temporal_pos.data
            self.blocks = [(KVCache(T, samples, H, c.heads), block.arrays())
                           for block in model.temporal_blocks]

    def step(self, prev_emb: np.ndarray | None) -> np.ndarray:
        """h_av (S, H) of the next frame; ``prev_emb`` (S, N_C) is the
        embedding committed for the frame before, None at the first frame."""
        t = self.t
        if t == len(self.audio):
            raise ShapeError(f"the stream has only {t} frames")
        if prev_emb is not None and prev_emb.shape != (len(self.start), len(self.code_proj[0])):
            raise ShapeError(f"embeddings must be (samples, code_dim), got {prev_emb.shape}")
        x = self.audio[t] + (self.start if prev_emb is None
                             else affine(prev_emb, *self.code_proj))
        if self.style_term is not None:
            x = x + self.style_term
        for rows, d, weight, bias in self.convs:
            rows[:, ((len(weight) - 1) * d + t) % rows.shape[1]] = x
            taps = [rows[:, (t + tap * d) % rows.shape[1]] for tap in range(len(weight))]
            x = x + leaky_relu(tap_sum(taps, weight, bias))
        if self.blocks:
            x = x + self.pos[t]
        for cache, arrays in self.blocks:
            x = decode_step(x, cache, arrays)
        self.t = t + 1
        return x


# -- target construction ----------------------------------------------------


def soft_target_distributions(z: np.ndarray, grid: np.ndarray,
                              codebook: np.ndarray, eps: float,
                              alpha: float) -> np.ndarray:
    """Label smoothing toward codes nearly as close as the selected one: at each
    depth of the (T, D) grid of latents z, the codes within (1 + eps) times its
    distance to the residual share ``alpha`` and it keeps the rest (all, if none)."""
    grid = np.asarray(grid)
    residuals = grid_residuals(z, codebook, grid)  # checks the grid
    T, D = grid.shape
    dist = np.sqrt(squared_distances(residuals.reshape(T * D, -1), codebook))
    sel = grid.reshape(T * D, 1)
    near = dist <= (1.0 + eps) * np.take_along_axis(dist, sel, axis=1)
    np.put_along_axis(near, sel, False, axis=1)
    counts = near.sum(axis=1, keepdims=True)
    out = near * np.where(counts > 0, alpha / np.maximum(counts, 1), 0.0)
    np.put_along_axis(out, sel, np.where(counts > 0, 1.0 - alpha, 1.0), axis=1)
    return out.reshape(T, D, -1)


@dataclass
class PreparedSequence:
    audio: np.ndarray
    style: np.ndarray
    latents: np.ndarray
    grid: np.ndarray


def prepare_sequences(codec, corpus, records, rng: np.random.Generator) -> list:
    """Freeze latents/grids and pick a same-speaker style clip per record
    of the training ``records``, which must not be empty."""
    from .data import style_reference
    if not records:
        raise ValueError("corpus has no training sequences")
    z = codec.encode(np.stack([rec.motion for rec in records]))
    grids = codec.quantize(z.reshape(-1, z.shape[-1])).grid.reshape(
        z.shape[:-1] + (-1,))
    return [PreparedSequence(rec.audio, style_reference(corpus, rec, rng),
                             z[i], grids[i]) for i, rec in enumerate(records)]


def train_ar(codec, corpus, config: ARConfig, log=None,
             codec_checksum: str = ""):
    """Teacher-forced training against grids from a frozen codec."""
    if (codec.config.code_dim != config.code_dim
            or codec.config.codebook_size != config.codebook_size
            or codec.config.depth != config.depth):
        raise ValueError("codec and AR config disagree on codebook geometry")
    rng = np.random.default_rng(config.seed)
    model = ARModel(config, codec.codebook.data.copy(), rng,
                    codec_checksum=codec_checksum)
    prepared = prepare_sequences(codec, corpus, corpus.split("train"), rng)
    C = config.codebook_size

    def step(batch):
        if config.stochastic_targets:
            grids = np.stack([rvq_quantize_frames(
                p.latents, model.codebook.data, config.depth,
                config.stochastic_tau, rng).grid for p in batch])
        else:
            grids = np.stack([p.grid for p in batch])
        y = np.stack([p.audio for p in batch])
        s = np.stack([p.style for p in batch])
        logits = model.forward_logits(y, s, grids)
        if config.soft_targets:
            tgt = soft_target_distributions(
                np.concatenate([p.latents for p in batch]), grids.reshape(-1, config.depth),
                model.codebook.data, config.soft_eps, config.soft_alpha)
            return {"loss": cross_entropy(logits.reshape(-1, C), tgt.reshape(-1, C))}
        return {"loss": cross_entropy(logits.reshape(-1, C), grids.reshape(-1))}

    history = fit(model.trainable_parameters(), config.epochs, config.lr,
                  lambda: minibatches(rng, prepared, config.batch), step, log)
    return model, history
