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

from .armodel import ARConfig, ARModel, prepare_sequences
from .codec import rvq_quantize_frames, sample_categorical
from .nn import fit
from .tensor import Tensor, cross_entropy

STRATEGIES = ("default", "knn", "average", "syncnet-rejection")


@dataclass
class SamplingConfig:
    strategy: str = "default"
    n: int = 1
    k: int = 3
    keep_fraction: float = 1.0
    depth_limit: int | None = None
    temperature: float = 1.0
    seed: int = 0

    def validate(self, depth: int):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.strategy != "default" and self.k > self.n:
            raise ValueError("k must be <= n")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")
        d = depth if self.depth_limit is None else self.depth_limit
        if not 1 <= d <= depth:
            raise ValueError(f"depth_limit must be in [1, {depth}]")
        if self.temperature < 0.0:
            raise ValueError("temperature must be >= 0")
        return d


def average_aggregate(embs: np.ndarray) -> np.ndarray:
    """Arithmetic mean of the candidate set (N, E)."""
    embs = np.asarray(embs, dtype=np.float64)
    if embs.shape[0] < 1:
        raise ValueError("candidate set must be nonempty")
    return embs.mean(axis=0)


def knn_aggregate(embs: np.ndarray, anchor: np.ndarray, k: int) -> np.ndarray:
    """Mean of all candidates within the k-th nearest-neighbor radius of the
    anchor (the anchor itself counts, at distance zero)."""
    embs = np.asarray(embs, dtype=np.float64)
    if not 1 <= k <= embs.shape[0]:
        raise ValueError("k must be in [1, N]")
    dist = np.sqrt(((embs - anchor) ** 2).sum(axis=1))
    radius = np.sort(dist)[k - 1]
    return embs[dist <= radius].mean(axis=0)


def syncnet_reject(embs: np.ndarray, scores: np.ndarray,
                   keep_fraction: float) -> np.ndarray:
    """Keep the top fraction of candidates by sync score (original order)."""
    embs = np.asarray(embs, dtype=np.float64)
    scores = np.asarray(scores, dtype=np.float64)
    m = max(1, int(round(keep_fraction * embs.shape[0])))
    keep = np.argsort(-scores, kind="stable")[:m]
    return embs[np.sort(keep)]


def _sample_candidates(model: ARModel, h: np.ndarray, prefix: list,
                       n: int, d_star: int, temperature: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw ``n`` code rows of ``d_star`` depths from the depth model for
    each of the R context vectors ``h`` (R, H) over the style's
    ``model.depth_prefix``; returns (R, n, d_star).

    Depth 0 runs on the R context rows over ``model.depth_caches`` of R·n
    candidates and writes its keys and values, and its logits when n > 1 (so
    the draws keep their order), to them; they run depths ≥ 1 on the running
    sum of their codes. Counts R·n passes per depth in ``depth_pass_count``.
    """
    R = h.shape[0]
    cache = model.depth_caches(prefix, R * n, d_star)
    logits = model.depth_step(h, 0, cache)
    if n > 1:
        logits = np.repeat(logits, n, axis=0)
    rows = np.zeros((R * n, d_star), dtype=np.int64)
    for d in range(d_star):
        if d:
            logits = model.depth_step(emb, d, cache)
        rows[:, d] = sample_categorical(logits, temperature, rng)
        code = model.codebook.data[rows[:, d]]
        emb = code if d == 0 else emb + code
    model.depth_pass_count += R * n * d_star
    return rows.reshape(R, n, d_star)


def _aggregate(cand_embs: np.ndarray, config: SamplingConfig,
               codebook: np.ndarray, d_star: int, scores=None):
    """Aggregate each of R candidate sets (R, N, N_C) with the configured
    strategy and reproject the results onto the codebook. ``scores`` (R, N)
    are the sync scores that syncnet-rejection needs."""
    agg = np.zeros((cand_embs.shape[0], cand_embs.shape[2]))
    for i, embs in enumerate(cand_embs):
        if config.strategy == "knn":
            agg[i] = knn_aggregate(embs, embs[0], config.k)
        elif config.strategy == "syncnet-rejection":
            agg[i] = average_aggregate(
                syncnet_reject(embs, scores[i], config.keep_fraction))
        else:
            agg[i] = average_aggregate(embs)
    return rvq_quantize_frames(agg, codebook, d_star)


def generate_batch(model: ARModel, codec, y: np.ndarray, s: np.ndarray,
                   config: SamplingConfig, n_samples: int = 1,
                   sync_model=None, rng: np.random.Generator | None = None):
    """Draw ``n_samples`` motion sequences for one (driving signal, style).

    Returns (motions (S, T, 3V), grids (S, T, d*)).
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    if y.shape[0] < 1:
        raise ValueError("the driving signal has no frames")
    d_star = config.validate(model.config.depth)
    if config.strategy == "syncnet-rejection" and sync_model is None:
        raise ValueError("syncnet-rejection requires a trained sync model")
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    S, N = n_samples, config.n
    T = y.shape[0]
    audio, style = model.context_features(y, s)
    stream = model.start_stream(audio, style, S)
    prefix = model.depth_prefix(style[None])
    grids = np.zeros((S, T, d_star), dtype=np.int64)
    committed = None  # (S, NC) embeddings of the frame before
    R = model.audio_radius
    for t in range(T):
        h = stream.step(committed)  # (S, H)
        cand_rows = _sample_candidates(model, h, prefix, N, d_star,
                                       config.temperature, rng)
        cand_embs = model.frame_embedding(cand_rows)  # (S, N, NC)
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

    Temporal context is computed teacher-forced on the ground-truth grid;
    depth-model candidates are sampled without teacher forcing, aggregated,
    and reprojected to the codebook. There is no sync model here, so
    syncnet-rejection is refused.
    """
    d_star = config.validate(teacher.config.depth)
    if config.strategy == "syncnet-rejection":
        raise ValueError("distillation does not support syncnet-rejection")
    relabeled = []
    for p in prepared:
        audio, style = teacher.context_features(p.audio, p.style)
        frame_embs = teacher.frame_embedding(p.grid)
        se = None if teacher.config.style_mode == "depth" else Tensor(style[None])
        h_av = teacher.temporal_context(Tensor(audio[None]), frame_embs[None],
                                        se).data[0]  # (T, H)
        cand_rows = _sample_candidates(teacher, h_av,
                                       teacher.depth_prefix(style[None]),
                                       config.n, d_star, config.temperature, rng)
        res = _aggregate(teacher.frame_embedding(cand_rows), config,
                         codec.codebook.data, d_star)
        relabeled.append(res.grid)
    return relabeled


def distill(teacher: ARModel, codec, corpus, sampling_config: SamplingConfig,
            student_config: ARConfig | None = None, log=None,
            checkpoint_hook=None, codec_checksum: str = ""):
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

    def batches():
        order = rng.permutation(len(prepared))
        for start in range(0, len(prepared), cfg.batch):
            yield order[start:start + cfg.batch]

    def step(take):
        y = np.stack([prepared[i].audio for i in take])
        s = np.stack([prepared[i].style for i in take])
        gt = np.stack([prepared[i].grid for i in take])
        tgt = np.stack([targets[i] for i in take])
        logits = student.forward_logits(y, s, tgt, temporal_grids=gt)
        return {"loss": cross_entropy(logits.reshape(-1, C), tgt.reshape(-1))}

    if checkpoint_hook is not None:
        checkpoint_hook(0, student)
    history = fit(student.trainable_parameters(), cfg.epochs, cfg.lr,
                  batches, step, log,
                  end_epoch=None if checkpoint_hook is None
                  else lambda epoch: checkpoint_hook(epoch + 1, student))
    return student, history
