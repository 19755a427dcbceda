"""Generation and the diversity/fidelity trade-off machinery.

Ancestral sampling plus three aggregation strategies (KNN mean, code
averaging, sync-score rejection). Aggregation operates on the depth-summed
frame embedding; the aggregate is re-projected through the RVQ recursion so
the grid fed back to the temporal model always contains legal code indices.
Also implements distillation of aggregated sampling into a student model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .armodel import ARConfig, ARModel, TemporalStream, prepare_sequences
from .codec import rvq_quantize_frames, sample_categorical
from .config import Annotated, OptionalSize, Size, check, declared, option
from .nn import fit, minibatches
from .tensor import ShapeError, cross_entropy

STRATEGIES = ("default", "knn", "average", "syncnet-rejection")


@dataclass
class SamplingConfig:
    strategy: Annotated[str, STRATEGIES] = option("default", "sampling strategy")
    n: Size = option(1, "candidate codes drawn per frame")
    k: Size = option(3, "neighborhood size for knn aggregation")
    keep_fraction: float = option(1.0, "fraction kept by syncnet-rejection")
    depth_limit: OptionalSize = option(None, "truncate generation to d* depths")
    temperature: float = option(1.0, "sampling temperature (0 = greedy)")
    seed: int = option(0, "sampling seed")

    def __post_init__(self):
        """Every check that needs no model depth; see :meth:`validate`."""
        check(vars(self), declared(SamplingConfig))
        if self.strategy == "knn" and self.k > self.n:
            raise ValueError("k must be <= n")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        if not 0.0 <= self.temperature < np.inf:  # NaN fails both comparisons
            raise ValueError("temperature must be finite and >= 0")

    def validate(self, depth: int):
        d = depth if self.depth_limit is None else self.depth_limit
        if d > depth:
            raise ValueError(f"depth_limit must be in [1, {depth}]")
        return d


def average_aggregate(embs: np.ndarray) -> np.ndarray:
    """Arithmetic mean (..., E) of each candidate set (..., N, E)."""
    embs = np.asarray(embs, dtype=np.float64)
    if embs.ndim < 2 or embs.shape[-2] < 1:
        raise ValueError("candidate set must be nonempty")
    return embs.mean(axis=-2)


def knn_aggregate(embs: np.ndarray, anchor: np.ndarray, k: int) -> np.ndarray:
    """Mean (..., E) of the candidates (..., N, E) within the k-th nearest-neighbor
    radius of their anchor (..., E); an anchor among them counts, at distance
    zero. The sum runs over all N rows in order, those outside adding zeros."""
    embs = np.asarray(embs, dtype=np.float64)
    if embs.ndim < 2 or not 1 <= k <= embs.shape[-2]:
        raise ValueError(f"k must be in [1, N] of (..., N, E) candidates {embs.shape}, not {k}")
    dist = np.sqrt(((embs - np.expand_dims(anchor, -2)) ** 2).sum(axis=-1))
    near = dist <= np.sort(dist, axis=-1)[..., k - 1:k]
    return (embs * near[..., None]).sum(axis=-2) / near.sum(axis=-1, keepdims=True)


def syncnet_reject(embs: np.ndarray, scores: np.ndarray,
                   keep_fraction: float) -> np.ndarray:
    """Keep the top fraction of each candidate set (..., N, E) by its sync
    scores (..., N), in the original order."""
    embs = np.asarray(embs, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    if embs.ndim < 2 or scores.shape != embs.shape[:-1]:
        raise ShapeError(f"scores {scores.shape} do not match candidates {embs.shape}")
    m = max(1, int(round(keep_fraction * embs.shape[-2])))
    keep = np.sort(np.argsort(-scores, axis=-1, kind="stable")[..., :m], axis=-1)
    return np.take_along_axis(embs, keep[..., None], axis=-2)


def _sample_candidates(model: ARModel, h: np.ndarray, caches: list,
                       n: int, d_star: int, temperature: float,
                       rng: np.random.Generator):
    """Draw ``n`` code rows of ``d_star`` depths from the depth model for
    each of the R context vectors ``h`` (R, H); returns the rows (R, n,
    d_star) and their ``model.frame_embedding`` (R, n, N_C), bit for bit.

    Depth 0 runs on the R context rows over ``caches``, ``model.depth_caches``
    of R·n candidates, and writes its keys and values, and its logits when
    n > 1 (so the draws keep their order), to them; they run depths ≥ 1 on
    the running sum of their codes, which is the embedding. Counts R·n passes
    per depth in ``depth_pass_count``.
    """
    R = h.shape[0]
    logits = model.depth_step(h, 0, caches)
    if n > 1:
        logits = np.repeat(logits, n, axis=0)
    rows = np.zeros((R * n, d_star), dtype=np.int64)
    for d in range(d_star):
        if d:
            logits = model.depth_step(emb, d, caches)
        rows[:, d] = sample_categorical(logits, temperature, rng)
        code = model.codebook.data[rows[:, d]]
        emb = code if d == 0 else emb + code
    model.depth_pass_count += R * n * d_star
    return rows.reshape(R, n, d_star), emb.reshape(R, n, -1)


def _aggregate(cand_embs: np.ndarray, config: SamplingConfig,
               codebook: np.ndarray, d_star: int, scores=None):
    """Aggregate the R candidate sets (R, N, N_C) with the configured strategy
    and reproject the results onto the codebook. ``scores`` (R, N) are the
    sync scores that syncnet-rejection needs."""
    if config.strategy == "knn":
        agg = knn_aggregate(cand_embs, cand_embs[:, 0], config.k)
    elif config.strategy == "syncnet-rejection":
        agg = average_aggregate(syncnet_reject(cand_embs, scores, config.keep_fraction))
    else:
        agg = average_aggregate(cand_embs)
    return rvq_quantize_frames(agg, codebook, d_star)


def generate_batch(model: ARModel, codec, y: np.ndarray, s: np.ndarray,
                   config: SamplingConfig, n_samples: int = 1,
                   sync_model=None, rng: np.random.Generator | None = None):
    """Draw ``n_samples`` motion sequences for one (driving signal, style).

    Returns (motions (S, T, 3V), grids (S, T, d*)).
    """
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError(f"n_samples must be an int >= 1, not {n_samples!r}")
    if np.ndim(y) < 1 or len(y) < 1:
        raise ShapeError(f"the driving signal has no frames: shape {np.shape(y)}")
    if not (np.isfinite(y).all() and np.isfinite(s).all()):
        raise ValueError("the driving signal and the style reference must be finite")
    d_star = config.validate(model.config.depth)
    if config.strategy == "syncnet-rejection" and sync_model is None:
        raise ValueError("syncnet-rejection requires a trained sync model")
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    S, N = n_samples, config.n
    T = y.shape[0]
    audio, style = model.context_features(y, s)
    stream = TemporalStream(model, audio, style, S)
    caches = model.depth_caches(style[None], S * N, d_star)
    grids = np.zeros((S, T, d_star), dtype=np.int64)
    committed = None  # (S, NC) embeddings of the frame before
    R = model.audio_radius
    for t in range(T):
        h = stream.step(committed)  # (S, H)
        cand_rows, cand_embs = _sample_candidates(model, h, caches, N, d_star,
                                                  config.temperature, rng)
        if config.strategy == "default":
            grids[:, t] = cand_rows[:, 0]
            committed = cand_embs[:, 0]
            continue
        scores = None
        if config.strategy == "syncnet-rejection":
            scores = _candidate_sync_scores(codec, sync_model, y, grids,
                                            cand_rows, t, R)
        res = _aggregate(cand_embs, config, codec.codebook.data, d_star, scores)
        grids[:, t] = res.grid
        committed = res.quantized
    return codec.decode(grids), grids


def _candidate_sync_scores(codec, sync_model, y, grids, cand_rows, t, radius):
    """Sync scores (S, N) of the candidate rows (S, N, d*) of frame t.

    Each candidate is decoded as the last row of the local window ending at
    t, after its sample's committed rows of ``grids`` (S, T, d*); all S*N
    windows go through one decode and one score call.
    """
    lo = max(0, t - radius)
    S, N, d_star = cand_rows.shape
    L = t + 1 - lo
    windows = np.empty((S, N, L, d_star), dtype=grids.dtype)
    windows[:, :, :-1] = grids[:, None, lo:t]  # rows < t are committed
    windows[:, :, -1] = cand_rows
    motions = codec.decode(windows.reshape(S * N, L, d_star))
    return sync_model.score(motions, y[lo:t + 1]).reshape(S, N)


# -- knowledge distillation ---------------------------------------------------


def relabel_grids(teacher: ARModel, codec, prepared,
                  config: SamplingConfig, rng: np.random.Generator):
    """Build aggregated-and-reprojected target grids for each sequence.

    Temporal context is computed teacher-forced on the ground-truth grid, off
    the tape; depth-model candidates are sampled without teacher forcing,
    aggregated, and reprojected to the codebook. There is no sync model here,
    so syncnet-rejection is refused.
    """
    d_star = config.validate(teacher.config.depth)
    if config.strategy == "syncnet-rejection":
        raise ValueError("distillation does not support syncnet-rejection")
    if not all(np.isfinite(p.audio).all() and np.isfinite(p.style).all() for p in prepared):
        raise ValueError("every driving signal and style reference must be finite")
    relabeled = []
    for p in prepared:
        audio, style = teacher.context_features(p.audio, p.style)
        frame_embs = teacher.frame_embedding(p.grid)[None]
        h_av = teacher.temporal_context(audio[None], frame_embs, style[None])[0]  # (T, H)
        caches = teacher.depth_caches(style[None], len(h_av) * config.n, d_star)
        _, cand_embs = _sample_candidates(teacher, h_av, caches, config.n,
                                          d_star, config.temperature, rng)
        res = _aggregate(cand_embs, config, codec.codebook.data, d_star)
        relabeled.append(res.grid)
    return relabeled


def distill(teacher: ARModel, codec, corpus, sampling_config: SamplingConfig,
            student_config: ARConfig | None = None, log=None,
            codec_checksum: str = ""):
    """Train a student on relabeled depth targets; see ``relabel_grids``.

    The student keeps ground-truth grids as temporal-model input and uses the
    relabeled grids as both depth-model input and target, so its inference
    cost equals plain single-sample generation.
    """
    if not np.array_equal(teacher.codebook.data, codec.codebook.data):
        raise ValueError("teacher and codec disagree on the codebook")
    depth = teacher.config.depth
    if sampling_config.validate(depth) < depth:
        raise ValueError(f"distillation relabels all {depth} depths: "
                         f"depth_limit must be {depth} or unset")
    cfg = student_config if student_config is not None else replace(
        teacher.config)
    rng = np.random.default_rng(cfg.seed + 1)
    student = ARModel(cfg, codec.codebook.data.copy(), rng,
                      codec_checksum=codec_checksum)
    records = corpus.split("train")
    prepared = prepare_sequences(codec, corpus, records, rng)
    targets = relabel_grids(teacher, codec, prepared, sampling_config, rng)
    C = cfg.codebook_size

    def step(batch):
        y = np.stack([p.audio for p, _ in batch])
        s = np.stack([p.style for p, _ in batch])
        gt = np.stack([p.grid for p, _ in batch])
        tgt = np.stack([t for _, t in batch])
        logits = student.forward_logits(y, s, tgt, temporal_grids=gt)
        return {"loss": cross_entropy(logits.reshape(-1, C), tgt.reshape(-1))}

    pairs = list(zip(prepared, targets))
    history = fit(student.trainable_parameters(), cfg.epochs, cfg.lr,
                  lambda: minibatches(rng, pairs, cfg.batch), step, log)
    return student, history
