"""Evaluation suite: probabilistic lip errors, synchronization networks,
Fréchet distances over embeddings, style recognition, and the evaluation of
a sampling method over the test split."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import checkpoint
from .config import option
from .data import SequenceFormatError, style_reference
from .nn import (Conv1d, Dense, Module, Parameter, conv1d, conv_stack, fit,
                 operand)
from .sampling import generate_batch
from .tensor import ShapeError, Tensor, cross_entropy, leaky_relu, mean


# -- lip vertex errors ---------------------------------------------------------


def _lip_deltas(x: np.ndarray, xhat: np.ndarray, lip_indices) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    xhat = np.asarray(xhat, dtype=np.float64)
    if x.shape != xhat.shape:
        raise ShapeError(f"sequence shapes differ: {x.shape} vs {xhat.shape}")
    lip = np.asarray(lip_indices, dtype=np.int64)
    if lip.size == 0:
        raise ValueError("lip vertex set is empty")
    T = x.shape[0]
    diff = (x - xhat).reshape(T, -1, 3)
    return np.sqrt((diff[:, lip, :] ** 2).sum(axis=2))


def lip_vertex_error(x: np.ndarray, xhat: np.ndarray, lip_indices) -> float:
    """Max over frames and lip vertices of the Euclidean position error."""
    return float(_lip_deltas(x, xhat, lip_indices).max())


def coverage_error(x: np.ndarray, samples, lip_indices) -> float:
    """Smallest lip vertex error over a sample set."""
    samples = list(samples)
    if not samples:
        raise ValueError("sample set must be nonempty")
    return min(lip_vertex_error(x, s, lip_indices) for s in samples)


def mean_estimate_error(x: np.ndarray, samples, lip_indices) -> float:
    """Lip vertex error of the framewise mean of the sample set."""
    samples = list(samples)
    if not samples:
        raise ValueError("sample set must be nonempty")
    mean = np.mean(np.stack(samples), axis=0)
    return lip_vertex_error(x, mean, lip_indices)


# -- Fréchet distance ----------------------------------------------------------


def gaussian_stats(embeddings: np.ndarray):
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if embeddings.ndim != 2 or embeddings.shape[0] < 2:
        raise ValueError("need at least 2 embeddings for Gaussian statistics")
    mu = embeddings.mean(axis=0)
    sigma = np.cov(embeddings, rowvar=False)
    return mu, np.atleast_2d(sigma)


def frechet_distance(a: np.ndarray, b: np.ndarray) -> float:
    """2-Wasserstein distance between Gaussian fits of two embedding sets.

    The cross-covariance square root uses a symmetric eigendecomposition of
    the symmetrized product with negative eigenvalues clamped to zero.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"embedding dims differ: {a.shape[1]} vs {b.shape[1]}")
    mu_a, sig_a = gaussian_stats(a)
    mu_b, sig_b = gaussian_stats(b)
    prod = sig_a @ sig_b
    sym = 0.5 * (prod + prod.T)
    eigvals = np.linalg.eigvalsh(sym)
    sqrt_trace = np.sqrt(np.clip(eigvals, 0.0, None)).sum()
    d2 = ((mu_a - mu_b) ** 2).sum() + np.trace(sig_a) + np.trace(sig_b) \
        - 2.0 * sqrt_trace
    return float(d2)


# -- shared helpers ------------------------------------------------------------


def _normalize_rows(t):
    sumsq = (t * t).sum(axis=-1, keepdims=True)
    return t * (sumsq + 1e-12) ** -0.5


# -- synchronization networks ----------------------------------------------------


@dataclass
class SyncConfig:
    variant: int = option(2, "1 = fusion scorer, 2 = cosine embeddings")
    motion_dim: int = 60
    audio_dim: int = 8
    width: int = option(24, "conv width")
    emb_dim: int = option(16, "embedding dimension")
    temperature: float = 0.07
    lr: float = option(3e-3, "Adam learning rate")
    epochs: int = 12
    batch: int = 64
    clips_per_batch: int = 16
    shifts: tuple = (0, 1, 2, 4)
    window: int = option(20, "scoring window in frames")
    seed: int = option(0, "training seed")

    def __post_init__(self):
        self.shifts = tuple(self.shifts)
        if self.clips_per_batch * len(self.shifts) != self.batch:
            raise ValueError("batch must equal clips_per_batch * len(shifts)")


class SyncNet(Module):
    """Scores audio-motion correspondence over a fixed temporal window.

    Both variants embed each modality with a small convolutional stack; the
    frame features of the window are then flattened through a linear layer so
    the embedding is sensitive to frame-level alignment. Variant 1 fuses
    per-frame motion and audio features along time and scores through a
    linear head; variant 2 scores by cosine similarity of the normalized
    window embeddings.
    """

    def __init__(self, config: SyncConfig, rng: np.random.Generator | None = None):
        if config.variant not in (1, 2):
            raise ValueError("variant must be 1 or 2")
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        c = config
        self.mesh_convs = [
            Conv1d(c.motion_dim, c.width, 1, rng, mode="same"),
            Conv1d(c.width, c.width, 3, rng, mode="same"),
            Conv1d(c.width, c.emb_dim, 3, rng, mode="same"),
        ]
        self.audio_convs = [
            Conv1d(c.audio_dim, c.width, 3, rng, mode="same"),
            Conv1d(c.width, c.emb_dim, 3, rng, mode="same"),
        ]
        self.mesh_proj = Dense(c.window * c.emb_dim, c.emb_dim, rng)
        self.audio_proj = Dense(c.window * c.emb_dim, c.emb_dim, rng)
        if c.variant == 1:
            self.fuse_conv = Conv1d(2 * c.emb_dim, c.width, 3, rng, mode="same")
            self.score_head = Dense(c.width, 1, rng)

    def mesh_frames(self, x):
        return conv_stack(x, self.mesh_convs)

    def audio_frames(self, y):
        return conv_stack(y, self.audio_convs)

    def _window_embed(self, frames, proj: Dense):
        """Normalized window embeddings (B, emb) of (B, W, E) frames."""
        B, W, E = frames.shape
        if W != self.config.window:
            raise ShapeError(f"expected window {self.config.window}, got {W}")
        return _normalize_rows(proj(frames.reshape(B, W * E)))

    def _fit_window(self, seq: np.ndarray) -> np.ndarray:
        """Crop the time axis (-2) to the last W frames or left-pad it by
        repeating the first frame."""
        seq = np.asarray(seq, dtype=np.float64)
        W = self.config.window
        T = seq.shape[-2]
        if T >= W:
            return seq[..., -W:, :]
        pad = np.repeat(seq[..., :1, :], W - T, axis=-2)
        return np.concatenate([pad, seq], axis=-2)

    def embed_mesh(self, x: np.ndarray) -> np.ndarray:
        """Normalized window embedding (E,) of a (T, 3V) sequence, or
        (..., E) of a stack (..., T, 3V) in one pass: the mesh stack gives
        each sequence its own bits, and the projection is one GEMM over all
        of them, which matches one row at a time to rounding."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim < 2:
            raise ShapeError(f"expected (T, 3V) or (..., T, 3V) motion, got {x.shape}")
        frames = self.mesh_frames(self._fit_window(x.reshape((-1,) + x.shape[-2:])))
        emb = self._window_embed(frames, self.mesh_proj)
        return emb.reshape(x.shape[:-2] + emb.shape[-1:])

    def _fused_scores(self, mesh_f, audio_f):
        """Variant-1 scores of every (mesh, audio) pair, (B_m, B_a).
        ``fuse_conv`` is linear in the concatenated (mesh, audio) channels,
        so each half is convolved once and ``pair_hidden`` adds the halves."""
        E = mesh_f.shape[-1]
        conv = self.fuse_conv
        weight = operand(mesh_f, conv.weight)
        m = conv1d(mesh_f, weight[:, :E], None, conv.dilation, conv.mode)
        a = conv1d(audio_f, weight[:, E:], operand(audio_f, conv.bias),
                   conv.dilation, conv.mode)
        h = pair_hidden(m, a)
        return self.score_head(h).reshape(h.shape[:-1])

    def score_matrix(self, mesh_f, audio_f):
        """All-pairs scores, shape (B, B)."""
        if self.config.variant == 1:
            return self._fused_scores(mesh_f, audio_f)
        return (self._window_embed(mesh_f, self.mesh_proj)
                @ self._window_embed(audio_f, self.audio_proj).swapaxes(0, 1))

    def score(self, x: np.ndarray, y: np.ndarray):
        """Synchronization score of one (T, 3V) motion against one (T, A)
        audio window, a float; or of each of B motions (B, T, 3V) against
        the same window, an array (B,).

        The audio stack runs once, and the mesh stack and the projection
        once for all B motions. A batched score equals the score of its
        pair on its own to rounding: the projection is one GEMM over B
        rows instead of one over a single row.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim not in (2, 3) or np.ndim(y) != 2:
            raise ShapeError(f"expected (T, 3V) or (B, T, 3V) motion and (T, A) "
                             f"audio, got {x.shape} and {np.shape(y)}")
        if x.shape[-2] != y.shape[0]:
            raise ShapeError("motion and audio must be frame-aligned")
        mesh_f = self.mesh_frames(self._fit_window(x.reshape((-1,) + x.shape[-2:])))
        audio_f = self.audio_frames(self._fit_window(y)[None])
        if self.config.variant == 1:
            scores = self._fused_scores(mesh_f, audio_f)[:, 0]
        else:
            scores = (self._window_embed(mesh_f, self.mesh_proj)
                      * self._window_embed(audio_f, self.audio_proj)).sum(axis=-1)
        return float(scores[0]) if x.ndim == 2 else scores

    def save(self, path, seed: int = 0):
        checkpoint.save_container(path, {"model": "sync", "config": vars(self.config)},
                                  self.parameters(), seed)

    @classmethod
    def load(cls, path) -> "SyncNet":
        return checkpoint.load_model(path, "sync", SyncConfig,
                                     lambda cfg, _: cls(cfg))[0]


def pair_hidden(m, a):
    """``mean_W(leaky_relu(m_i + a_j))`` (B_m, B_a, O) of all pairs of rows of
    (B_m, W, O) ``m`` and (B_a, W, O) ``a`` in blocks of m rows, never the
    whole (B_m, B_a, W, O) sum. Arrays give an array, Tensors one node whose
    backward recomputes each block's z: dz = dh/W ∘ (z > 0 ? 1 : 0.1),
    dm_i = Σ_j dz_ij, da = Σ_i dz_ij row by row (the broadcast form's bits)."""
    tape = isinstance(m, Tensor)
    md, ad = (m.data, a.data) if tape else (m, a)
    rows = max(1, (1 << 15) // ad.size)  # blocks of ~256 KB stay in L2
    blocks = [slice(i, i + rows) for i in range(0, md.shape[0], rows)]
    h = np.concatenate([leaky_relu(md[b, None] + ad).sum(axis=-2)
                        for b in blocks]) * (1.0 / md.shape[1])
    if not tape:
        return h

    def backward(g):
        g = g[:, :, None] * (1.0 / md.shape[1])
        dm, da = np.empty(md.shape), np.zeros(ad.shape)
        for b in blocks:
            dz = np.maximum(md[b, None] + ad > 0.0, 0.1) * g[b]  # the mask, as leaky_relu
            dm[b] = dz.sum(axis=1)
            for row in dz:  # one row at a time, as numpy sums over i
                da += row
        m._accumulate(dm)
        a._accumulate(da)

    return Tensor._make(h, (m, a), backward)


def infonce_batch(records, config: SyncConfig, rng: np.random.Generator):
    """One contrastive batch: clips x temporal offsets, so negatives mix
    cross-clip (semantic) and same-clip shifted (temporal) misalignment."""
    T = records[0].motion.shape[0]
    W = config.window
    max_shift = max(config.shifts)
    if W + max_shift > T:
        raise ValueError("window plus max shift exceeds clip length")
    picks = rng.choice(len(records), size=config.clips_per_batch, replace=False)
    meshes, audios = [], []
    for i in picks:
        rec = records[i]
        t0 = int(rng.integers(0, T - W - max_shift + 1))
        for off in config.shifts:
            meshes.append(rec.motion[t0 + off: t0 + off + W])
            audios.append(rec.audio[t0 + off: t0 + off + W])
    return np.stack(meshes), np.stack(audios)


def infonce_loss(net: SyncNet, meshes: np.ndarray, audios: np.ndarray) -> Tensor:
    mesh_f = net.mesh_frames(Tensor(meshes))
    audio_f = net.audio_frames(Tensor(audios))
    scores = net.score_matrix(mesh_f, audio_f) * (1.0 / net.config.temperature)
    targets = np.arange(meshes.shape[0])
    return cross_entropy(scores, targets)


def train_sync_net(corpus, variant: int, config: SyncConfig | None = None,
                   log=None):
    """InfoNCE training of the selected variant on the corpus train split."""
    cfg = replace(config if config is not None else SyncConfig(),
                  variant=variant)
    records = corpus.split("train")
    if len(records) < cfg.clips_per_batch:
        raise ValueError("batch larger than corpus")
    rng = np.random.default_rng(cfg.seed)
    net = SyncNet(cfg, rng)
    steps_per_epoch = max(1, len(records) // cfg.clips_per_batch)

    def batches():
        for _ in range(steps_per_epoch):
            yield infonce_batch(records, cfg, rng)

    def step(batch):
        return {"loss": infonce_loss(net, *batch)}

    history = fit(net.parameters(), cfg.epochs, cfg.lr, batches, step, log)
    return net, history


def shift_detection_rate(net: SyncNet, records, shift: int = 1,
                         window: int | None = None) -> float:
    """Fraction of clips whose aligned score beats a ``shift``-frame offset."""
    wins = 0
    for rec in records:
        T = rec.motion.shape[0]
        W = window if window is not None else min(net.config.window, T - shift)
        aligned = net.score(rec.motion[:W], rec.audio[:W])
        shifted = net.score(rec.motion[:W], rec.audio[shift:W + shift])
        wins += aligned > shifted
    return wins / len(records)


# -- style recognition ------------------------------------------------------------


@dataclass
class StyleConfig:
    motion_dim: int = 60
    width: int = option(48, "conv width")
    emb_dim: int = option(24, "embedding dimension")
    margin: float = option(0.3, "angular margin")
    scale: float = option(16.0, "logit scale")
    lr: float = option(1e-3, "Adam learning rate")
    epochs: int = option(10, "training epochs")
    batch: int = option(32, "batch size")
    seed: int = option(0, "training seed")
    num_classes: int = 0  # set on the trained net's copy of the config


class StyleNet(Module):
    """Speaker-style recognizer trained with an angular-margin loss.

    Encoder mirrors the codec encoder with standard (centered) convolutions.
    """

    def __init__(self, config: StyleConfig, rng: np.random.Generator | None = None):
        self.config = config
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        c = config
        self.convs = [
            Conv1d(c.motion_dim, c.width, 1, rng, mode="same"),
            Conv1d(c.width, c.width, 3, rng, mode="same"),
            Conv1d(c.width, c.emb_dim, 3, rng, mode="same"),
        ]
        n = max(1, c.num_classes)
        self.class_weights = Parameter(rng.normal(0.0, 0.1, (n, c.emb_dim)))

    def embed(self, x):
        """Embedding (emb,) of a (T, 3V) motion sequence, or (..., emb) of a
        stack (..., T, 3V), each sequence with the same bits as on its own;
        a Tensor stack is recorded on the tape."""
        return mean(conv_stack(x, self.convs), axis=-2)

    def margin_logits(self, emb: Tensor, labels: np.ndarray) -> Tensor:
        cfg = self.config
        e = _normalize_rows(emb)
        w = _normalize_rows(self.class_weights)
        cos = e @ w.swapaxes(0, 1)  # (B, n_classes)
        B = emb.shape[0]
        onehot = np.zeros(cos.shape)
        onehot[np.arange(B), labels] = 1.0
        cos_t = (cos * Tensor(onehot)).sum(axis=1)
        sin_t = (1.0 - cos_t * cos_t + 1e-12) ** 0.5
        phi = cos_t * np.cos(cfg.margin) - sin_t * np.sin(cfg.margin)
        adjust = (phi - cos_t).reshape(B, 1) * Tensor(onehot)
        return (cos + adjust) * cfg.scale

    def save(self, path, speaker_ids, seed: int = 0):
        checkpoint.save_container(
            path, {"model": "style", "config": dict(vars(self.config))},
            self.parameters(), seed, extra={"speaker_ids": list(map(int, speaker_ids))})

    @classmethod
    def load(cls, path):
        net, extra = checkpoint.load_model(path, "style", StyleConfig,
                                           lambda cfg, _: cls(cfg))
        return net, extra.get("speaker_ids", [])


def train_style_net(corpus, config: StyleConfig | None = None, log=None):
    """Angular-margin training over the train-split speakers."""
    records = corpus.split("train")
    speakers = corpus.speakers("train")
    if len(speakers) < 2:
        raise ValueError("style training needs at least 2 speakers")
    cfg = replace(config if config is not None else StyleConfig(),
                  num_classes=len(speakers))
    class_of = {sid: i for i, sid in enumerate(speakers)}
    rng = np.random.default_rng(cfg.seed)
    net = StyleNet(cfg, rng)

    def batches():
        order = rng.permutation(len(records))
        for start in range(0, len(records), cfg.batch):
            batch = [records[i] for i in order[start:start + cfg.batch]]
            yield (np.stack([r.motion for r in batch]),
                   np.array([class_of[r.speaker_id] for r in batch]))

    def step(batch):
        x, labels = batch
        emb = net.embed(Tensor(x))
        return {"loss": cross_entropy(net.margin_logits(emb, labels), labels)}

    history = fit(net.parameters(), cfg.epochs, cfg.lr, batches, step, log)
    return net, speakers, history


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.sqrt((a * a).sum()) + 1e-12
    nb = np.sqrt((b * b).sum()) + 1e-12
    return float((a * b).sum() / (na * nb))


def speaker_centroids(records, embs: np.ndarray) -> dict:
    """Per-speaker mean of the records' style embeddings ``embs``."""
    groups: dict = {}
    for rec, emb in zip(records, embs):
        groups.setdefault(rec.speaker_id, []).append(emb)
    return {sid: np.mean(np.stack(v), axis=0) for sid, v in sorted(groups.items())}


def style_rank(query_emb: np.ndarray, target_speaker: int,
               centroids: dict) -> int:
    """1-based rank of the target speaker among centroids by cosine."""
    if target_speaker not in centroids:
        raise KeyError(f"no centroid for speaker {target_speaker}")
    sims = {sid: cosine_similarity(query_emb, c) for sid, c in centroids.items()}
    target = sims[target_speaker]
    return 1 + sum(1 for sid, v in sims.items()
                   if sid != target_speaker and v > target)


# -- evaluation -------------------------------------------------------------------


def run_evaluation(corpus, codec, model, sync1, sync2, stylenet, scfg,
                   n_samples: int, n_clips: int, seed: int,
                   reject_sync=None) -> dict:
    """Evaluate one sampling method over test clips; returns metric dict.

    Each network embeds a clip's sample set, and the real set of up to
    1,000 records, in one call; the style net embeds every record once, for
    the speaker centroids and its real set. Fewer than one clip or sample
    raises ``ValueError``; a corpus without a test split raises
    ``SequenceFormatError``."""
    if min(n_clips, n_samples) < 1:
        raise ValueError(f"need a clip and a sample, got {n_clips} and {n_samples}")
    lip = corpus.lip_indices
    test = corpus.split("test")[:n_clips]
    if not test:
        raise SequenceFormatError("corpus has no test split")
    rng = np.random.default_rng(seed)
    syncs = {v: net for v, net in ((1, sync1), (2, sync2)) if net is not None}
    results: dict = {"method": scfg.strategy, "clips": len(test),
                     "samples": n_samples}
    l_vertex, l_cover, l_mean, diversity = [], [], [], []
    sync_scores = {v: [] for v in syncs}
    gen_sync = {v: [] for v in syncs}
    style_sim, style_other, style_ranks, gen_style = [], [], [], []
    real = np.stack([q.motion for q in corpus.records])
    if stylenet is not None:
        real_style = stylenet.embed(real)
        centroids = speaker_centroids(corpus.records, real_style)
    for rec in test:
        sref = style_reference(corpus, rec, rng)
        motions, _ = generate_batch(model, codec, rec.audio, sref, scfg,
                                    n_samples=n_samples,
                                    sync_model=reject_sync, rng=rng)
        l_vertex.append(lip_vertex_error(rec.motion, motions[0], lip))
        l_cover.append(coverage_error(rec.motion, motions, lip))
        l_mean.append(mean_estimate_error(rec.motion, motions, lip))
        diversity.append(float(motions.var(axis=0).mean()))
        for variant, net in syncs.items():
            sync_scores[variant].append(net.score(motions[0], rec.audio))
            gen_sync[variant].append(net.embed_mesh(motions))
        if stylenet is not None:
            other = corpus.records[rng.choice(
                [i for i, q in enumerate(corpus.records)
                 if q.speaker_id != rec.speaker_id])]
            embs = stylenet.embed(np.concatenate(
                [motions, [sref, other.motion]]))
            style_sim.append(cosine_similarity(embs[0], embs[-2]))
            style_other.append(cosine_similarity(embs[0], embs[-1]))
            style_ranks.append(style_rank(embs[0], rec.speaker_id, centroids))
            gen_style.append(embs[:-2])
    results["l_vertex"] = float(np.mean(l_vertex))
    results["l_cover"] = float(np.mean(l_cover))
    results["l_mean"] = float(np.mean(l_mean))
    results["diversity"] = float(np.mean(diversity))
    for variant, net in syncs.items():
        results[f"sync{variant}_score"] = float(np.mean(sync_scores[variant]))
        results[f"sync{variant}_fd"] = frechet_distance(
            net.embed_mesh(real[:1000]), np.concatenate(gen_sync[variant])[:1000])
    if stylenet is not None:
        results["style_similarity"] = float(np.mean(style_sim))
        results["style_similarity_other"] = float(np.mean(style_other))
        results["style_rank"] = float(np.mean(style_ranks))
        results["style_rank_chance"] = (len(centroids) + 1) / 2.0
        results["style_fd"] = frechet_distance(
            real_style[:1000], np.concatenate(gen_style)[:1000])
    return results
