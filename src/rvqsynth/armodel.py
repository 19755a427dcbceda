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
from typing import Optional

import numpy as np

from . import checkpoint
from .codec import rvq_recursion, sample_categorical
from .nn import (Conv1d, Dense, KVCache, Module, Parameter, TransformerBlock,
                 conv_stack, fit, operand, tap_sum)
from .tensor import (ShapeError, Tensor, broadcast_to, concat, cross_entropy,
                     leaky_relu, log_softmax, mean)


@dataclass
class ARConfig:
    code_dim: int = 16
    codebook_size: int = 32
    depth: int = 4
    width: int = 64
    audio_dim: int = 8
    motion_dim: int = 60
    max_frames: int = 256
    depth_layers: int = 2
    heads: int = 4
    temporal: str = "conv"          # "conv" or "transformer"
    temporal_dilations: tuple = (1, 2, 4, 8)
    temporal_layers: int = 2        # transformer temporal variant
    audio_layers: int = 2
    audio_kernel: int = 3
    style_mode: str = "depth"       # "depth" (ours) or "temporal" (ablation)
    lr: float = 1e-3
    epochs: int = 40
    batch: int = 16
    seed: int = 0
    stochastic_targets: bool = False
    stochastic_tau: float = 0.05
    soft_targets: bool = False
    soft_eps: float = 0.1
    soft_alpha: float = 0.1

    def __post_init__(self):
        self.temporal_dilations = tuple(self.temporal_dilations)
        if self.temporal not in ("conv", "transformer"):
            raise ValueError(f"unknown temporal model {self.temporal!r}")
        if self.style_mode not in ("depth", "temporal"):
            raise ValueError(f"unknown style mode {self.style_mode!r}")
        for name in ("code_dim", "codebook_size", "depth", "width", "audio_dim",
                     "motion_dim", "max_frames", "depth_layers", "heads",
                     "temporal_layers", "audio_layers", "audio_kernel", "batch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
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
        dims = [c.audio_dim] + [H] * c.audio_layers
        self.audio_convs = [Conv1d(dims[i], dims[i + 1], c.audio_kernel, rng,
                                   mode="same") for i in range(c.audio_layers)]
        # style encoder: codec-encoder shape, non-causal convolutions
        self.style_convs = [
            Conv1d(c.motion_dim, H, 1, rng, mode="same"),
            Conv1d(H, H, 3, rng, mode="same"),
            Conv1d(H, H, 3, rng, mode="same"),
        ]
        self.style_proj = Dense(H, H, rng)
        # temporal model
        self.code_proj = Dense(c.code_dim, H, rng)
        self.start_token = Parameter(rng.normal(0.0, 0.05, H))
        if c.temporal == "conv":
            self.temporal_convs = [Conv1d(H, H, 2, rng, dilation=d, mode="causal")
                                   for d in c.temporal_dilations]
        else:
            self.temporal_pos = Parameter(rng.normal(0.0, 0.05, (c.max_frames, H)))
            self.temporal_blocks = [TransformerBlock(H, c.heads, rng, causal=True)
                                    for _ in range(c.temporal_layers)]
        # depth model
        self.depth_pos = Parameter(rng.normal(0.0, 0.05, (c.depth + 1, H)))
        self.prefix_proj = Dense(c.code_dim, H, rng)
        self.depth_blocks = [TransformerBlock(H, c.heads, rng, causal=True)
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
        if y.shape[-1] != self.config.audio_dim:
            raise ShapeError(f"audio features must have dim "
                             f"{self.config.audio_dim}, got {y.shape}")
        return conv_stack(y, self.audio_convs)

    def encode_style(self, s):
        """Mean-pooled embedding of a (B, T_s, 3V) style reference."""
        if s.ndim != 3 or s.shape[1] < 1:
            raise ShapeError("style reference needs at least one frame")
        return mean(conv_stack(s, self.style_convs), axis=1)

    def temporal_context(self, audio_feats: Tensor, frame_embs: np.ndarray,
                         style_emb: Optional[Tensor] = None) -> Tensor:
        """h_av over all frames. ``frame_embs`` holds e~(j_t) per frame; the
        model reads it shifted by one so h_av[t] sees only rows < t."""
        B, T, H = audio_feats.shape
        code_in = self.code_proj(Tensor(frame_embs))
        start = broadcast_to(self.start_token.reshape(1, 1, H), (B, 1, H))
        shifted = concat([start, code_in[:, :-1, :]], axis=1) if T > 1 else start
        h = audio_feats + shifted
        if self.config.style_mode == "temporal" and style_emb is not None:
            h = h + self.style_proj(style_emb).reshape(B, 1, H)
        if self.config.temporal == "conv":
            for conv in self.temporal_convs:
                h = h + leaky_relu(conv(h), 0.1)
        else:
            if T > self.config.max_frames:
                raise ShapeError(f"{T} frames exceed the transformer temporal "
                                 f"model's max_frames={self.config.max_frames}")
            h = h + self.temporal_pos[:T]
            for block in self.temporal_blocks:
                h = block(h)
        return h

    def depth_logits_full(self, h_av: Tensor, style_emb: Tensor,
                          grids: np.ndarray) -> Tensor:
        """Teacher-forced logits (B, T, D, |C|). Each sequence's ``depth_prefix``
        is repeated to its T frames, whose D tokens run over it."""
        B, T, H = h_av.shape
        D, C = self.config.depth, self.config.codebook_size
        cache = [[broadcast_to(a.reshape((B, 1) + a.shape[1:]),
                               (B, T) + a.shape[1:]).reshape((B * T,) + a.shape[1:])
                  for a in kv] for kv in self.depth_prefix(style_emb)]
        v = h_av.reshape(B * T, 1, H)
        if D > 1:
            codes = np.cumsum(self.codebook.data[grids][:, :, :D - 1], axis=2)
            v = concat([v, self.prefix_proj(Tensor(codes.reshape(B * T, D - 1, -1)))],
                       axis=1)
        v = v + self.depth_pos[1:].reshape(1, D, H)
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
        """Precompute (audio features (T, H), style embedding (H,))."""
        return self.encode_audio(y[None])[0], self.encode_style(s[None])[0]

    def start_stream(self, audio_feats: np.ndarray, style_emb: np.ndarray,
                     samples: int) -> "TemporalStream":
        """A frame-by-frame temporal stage for ``samples`` sequences that
        share the audio features (T, H) and the style embedding (H,)."""
        return TemporalStream(self, audio_feats, style_emb, samples)

    def depth_prefix(self, style_emb) -> list:
        """Each depth layer's ``[k, v]`` (B, heads, 1, H / heads) of the style
        tokens of style embeddings (B, H), on the tape for a Tensor. The style
        token is the first causal position and sees only itself, so one prefix
        serves every frame and row drawn with its style."""
        B, H = style_emb.shape
        if self.config.style_mode == "depth":
            v = self.style_proj(style_emb)
        else:
            v = broadcast_to(operand(style_emb, self.style_const), (B, H))
        v = (v + operand(style_emb, self.depth_pos)[0]).reshape(B, 1, H)
        prefix = [[] for _ in self.depth_blocks]
        for block, kv in zip(self.depth_blocks, prefix):
            v = block(v, kv)
        return prefix

    def depth_caches(self, prefix: list, rows: int, depths: int) -> list:
        """One ``KVCache`` per depth layer for ``rows`` rows and ``depths``
        steps, slot 0 holding one style's ``depth_prefix`` in every row."""
        return [KVCache(1 + depths, rows, self.config.width, self.config.heads)
                .append(*(a.reshape(1, -1) for a in kv)) for kv in prefix]

    def depth_step(self, x: np.ndarray, d: int, cache: list) -> np.ndarray:
        """Logits (N, |C|) for depth ``d`` of N rows; adds N to
        ``depth_row_count``. ``x`` is the rows' h_av (N, H) at d = 0, and
        after that the sum (N, N_C) of the d codes each row drew.

        ``cache`` holds each layer's ``KVCache`` (``depth_caches``) of the d + 1
        tokens before; at d = 0 it may have n·N rows, n candidates per row.
        """
        self.depth_row_count += len(x)
        v = (x if d == 0 else self.prefix_proj(x)) + self.depth_pos.data[d + 1]
        v = v[:, None]
        for block, kv in zip(self.depth_blocks, cache):
            v = block(v, kv)
        return self.head(v[:, -1])

    # -- scoring -----------------------------------------------------------

    def sequence_log_prob(self, grid: np.ndarray, y: np.ndarray,
                          s: np.ndarray) -> float:
        return float(self.sequence_log_probs(grid[None], y, s)[0])

    def sequence_log_probs(self, grids: np.ndarray, y: np.ndarray,
                           s: np.ndarray) -> np.ndarray:
        """Teacher-forced log-probabilities of many grids for one (y, s). Each
        encoder runs once; its features are copied to the G grids, not
        broadcast, since BLAS takes no stride-0 operand."""
        G = grids.shape[0]
        audio, style = (Tensor(np.repeat(f[None], G, axis=0))
                        for f in self.context_features(y, s))
        h_av = self.temporal_context(audio, self.frame_embedding(grids), style)
        logits = self.depth_logits_full(h_av, style, grids)
        logp = log_softmax(logits, axis=-1).data
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


class TemporalStream:
    """The temporal stage run one frame at a time, off the tape.

    ``step`` returns h_av of the next frame for every sequence, given the
    depth-summed code embedding each sequence committed for the frame before.
    Each causal conv keeps the rows of its input seen so far, as in Fast
    WaveNet generation, and computes one output row from them with
    ``tap_sum``, the kernel of ``conv1d``, so with convs a frame costs the
    same at any position; the transformer variant keeps a ``KVCache`` of
    T positions per block. Past the last frame ``step`` raises ``ShapeError``.
    """

    def __init__(self, model: ARModel, audio_feats: np.ndarray,
                 style_emb: np.ndarray, samples: int):
        c = model.config
        T, H = audio_feats.shape
        if c.temporal == "transformer" and T > c.max_frames:
            raise ShapeError(f"{T} frames exceed the transformer temporal "
                             f"model's max_frames={c.max_frames}")
        self.model = model
        self.audio = audio_feats
        self.samples = samples
        self.t = 0
        self.style_term = None
        if c.style_mode == "temporal":
            self.style_term = model.style_proj(
                np.broadcast_to(style_emb, (samples, H)))
        if c.temporal == "conv":
            # input rows, each behind the conv's causal zero padding
            self.inputs = [np.zeros((samples, (conv.kernel - 1) * conv.dilation
                                     + T, H)) for conv in model.temporal_convs]
        else:
            self.caches = [KVCache(T, samples, H, c.heads)
                           for _ in model.temporal_blocks]

    def step(self, prev_emb: np.ndarray | None) -> np.ndarray:
        """h_av (S, H) of the next frame; ``prev_emb`` (S, N_C) is the
        embedding committed for the frame before, None at the first frame."""
        m, t = self.model, self.t
        if t == len(self.audio):
            raise ShapeError(f"the stream has only {t} frames")
        if prev_emb is None:
            shifted = np.broadcast_to(m.start_token.data,
                                      (self.samples, m.config.width))
        else:
            shifted = m.code_proj(prev_emb)
        x = self.audio[t] + shifted
        if self.style_term is not None:
            x = x + self.style_term
        if m.config.temporal == "conv":
            for conv, rows in zip(m.temporal_convs, self.inputs):
                k, d = conv.kernel, conv.dilation
                rows[:, (k - 1) * d + t] = x
                taps = [rows[:, t + tap * d] for tap in range(k)]
                x = x + leaky_relu(tap_sum(taps, conv.weight.data,
                                           conv.bias.data), 0.1)
        else:
            x = (x + m.temporal_pos.data[t])[:, None]
            for block, cache in zip(m.temporal_blocks, self.caches):
                x = block(x, cache)
            x = x[:, 0]
        self.t = t + 1
        return x


# -- target construction ----------------------------------------------------


def stochastic_grid(z: np.ndarray, codebook: np.ndarray, depth: int,
                    tau: float, rng: np.random.Generator) -> np.ndarray:
    """Boltzmann-sample quantizer indices instead of the argmin at each depth."""
    return rvq_recursion(
        z, codebook, depth,
        lambda d, d2: sample_categorical(-d2, max(tau, 1e-9), rng)).grid


def soft_target_distributions(z: np.ndarray, grid: np.ndarray,
                              codebook: np.ndarray, eps: float,
                              alpha: float) -> np.ndarray:
    """Label smoothing toward codes nearly as close as the selected one."""
    T, D = grid.shape
    C = codebook.shape[0]
    out = np.zeros((T, D, C))

    def smooth(d, d2):
        dist = np.sqrt(d2)
        sel = grid[:, d]
        dmin = dist[np.arange(T), sel]
        near = dist <= (1.0 + eps) * dmin[:, None]
        near[np.arange(T), sel] = False
        counts = near.sum(axis=1)
        out[np.arange(T), d, sel] = np.where(counts > 0, 1.0 - alpha, 1.0)
        spread = np.where(counts > 0, alpha / np.maximum(counts, 1), 0.0)
        out[:, d] += near * spread[:, None]
        return sel

    rvq_recursion(z, codebook, D, smooth)
    return out


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

    def batches():
        order = rng.permutation(len(prepared))
        for start in range(0, len(prepared), config.batch):
            batch = [prepared[i] for i in order[start:start + config.batch]]
            if config.stochastic_targets:
                grids = np.stack([stochastic_grid(p.latents, model.codebook.data,
                                                  config.depth,
                                                  config.stochastic_tau, rng)
                                  for p in batch])
            else:
                grids = np.stack([p.grid for p in batch])
            yield batch, grids

    def step(batch_grids):
        batch, grids = batch_grids
        y = np.stack([p.audio for p in batch])
        s = np.stack([p.style for p in batch])
        logits = model.forward_logits(y, s, grids)
        if config.soft_targets:
            tgt = np.stack([soft_target_distributions(
                p.latents, g, model.codebook.data,
                config.soft_eps, config.soft_alpha)
                for p, g in zip(batch, grids)])
            return {"loss": cross_entropy(logits.reshape(-1, C),
                                          tgt.reshape(-1, C))}
        return {"loss": cross_entropy(logits.reshape(-1, C), grids.reshape(-1))}

    history = fit(model.trainable_parameters(), config.epochs, config.lr,
                  batches, step, log)
    return model, history
