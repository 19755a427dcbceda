from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqsynth import sampling
from rvqsynth.armodel import ARConfig, ARModel, prepare_sequences
from rvqsynth.codec import Codec, CodecConfig, sample_categorical, train_codec
from rvqsynth.metrics import SyncConfig, SyncNet, run_evaluation
from rvqsynth.sampling import (STRATEGIES, SamplingConfig, average_aggregate,
                               distill, generate_batch, knn_aggregate,
                               relabel_grids, syncnet_reject)
from rvqsynth.tensor import ShapeError, Tensor

TINY_AR = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                   epochs=2, batch=4, seed=0)


@pytest.fixture(scope="module")
def stack(tiny_corpus):
    cfg = CodecConfig(input_dim=12, depth=2, codebook_size=3, code_dim=4,
                      epochs=2, seed=0)
    codec, _ = train_codec(tiny_corpus, cfg)
    rng = np.random.default_rng(0)
    model = ARModel(TINY_AR, codec.codebook.data.copy(), rng)
    rec = tiny_corpus.records[0]
    return codec, model, rec


# -- aggregation algebra -------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_knn_with_k_equal_n_is_average(seed, n):
    rng = np.random.default_rng(seed)
    embs = rng.normal(0.0, 1.0, (n, 5))
    np.testing.assert_array_equal(knn_aggregate(embs, embs[0], n),
                                  average_aggregate(embs))


def test_average_of_single_candidate_is_identity():
    rng = np.random.default_rng(0)
    e = rng.normal(0.0, 1.0, (1, 7))
    np.testing.assert_array_equal(average_aggregate(e), e[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
def test_reject_keep_all_is_average(seed, n):
    rng = np.random.default_rng(seed)
    embs = rng.normal(0.0, 1.0, (n, 5))
    scores = rng.normal(0.0, 1.0, n)
    survivors = syncnet_reject(embs, scores, keep_fraction=1.0)
    np.testing.assert_array_equal(average_aggregate(survivors),
                                  average_aggregate(embs))


def test_knn_uses_anchor_neighborhood():
    embs = np.array([[0.0], [0.1], [10.0]])
    np.testing.assert_allclose(knn_aggregate(embs, embs[0], 2), [0.05])


def test_reject_keeps_top_scores_in_original_order():
    embs = np.arange(8.0).reshape(4, 2)
    scores = np.array([0.1, 0.9, 0.5, 0.7])
    kept = syncnet_reject(embs, scores, keep_fraction=0.5)
    np.testing.assert_array_equal(kept, embs[[1, 3]])
    best = syncnet_reject(embs, scores, keep_fraction=0.1)
    np.testing.assert_array_equal(best, embs[[1]])


def test_batched_aggregation_equals_per_row_calls():
    """Stacks (A, R, N, E) of candidate sets aggregate to the per-row calls
    over the leading axes, bit for bit, and each (N, E) call to the per-set
    form it replaced (kept here), duplicated candidates and tied scores
    included. E ≥ 2: for E = 1 numpy sums a contiguous axis pairwise, so the
    masked knn sum may differ from the selected rows' by rounding."""
    for seed in range(40):
        check_batched_aggregation(np.random.default_rng(seed), duplicates=seed % 2)


def check_batched_aggregation(rng, duplicates):
    A, R, N, E = 2, int(rng.integers(1, 5)), int(rng.integers(1, 21)), int(rng.choice([2, 3, 16]))
    embs = rng.normal(0.0, 1.0, (A, R, N, E))
    if duplicates:
        embs = np.ascontiguousarray(embs[:, :, rng.integers(0, N, N)])
    scores = np.round(rng.normal(0.0, 1.0, (A, R, N)))  # ties
    k, keep = int(rng.integers(1, N + 1)), float(rng.uniform(0.05, 1.0))
    rows = [(a, r) for a in range(A) for r in range(R)]

    def per_row(f):
        return np.stack([f(a, r) for a, r in rows]).reshape(A, R, E)

    def old_knn(e):
        dist = np.sqrt(((e - e[0]) ** 2).sum(axis=1))
        return e[dist <= np.sort(dist)[k - 1]].mean(axis=0)

    def old_reject(e, s):
        m = max(1, int(round(keep * len(e))))
        return e[np.sort(np.argsort(-s, kind="stable")[:m])].mean(axis=0)

    cases = [
        (average_aggregate(embs), lambda a, r: average_aggregate(embs[a, r]),
         lambda a, r: embs[a, r].mean(axis=0)),
        (knn_aggregate(embs, embs[:, :, 0], k), lambda a, r: knn_aggregate(
            embs[a, r], embs[a, r, 0], k), lambda a, r: old_knn(embs[a, r])),
        (average_aggregate(syncnet_reject(embs, scores, keep)),
         lambda a, r: average_aggregate(syncnet_reject(embs[a, r], scores[a, r], keep)),
         lambda a, r: old_reject(embs[a, r], scores[a, r])),
    ]
    for batched, row, old in cases:
        assert batched.tobytes() == per_row(row).tobytes() == per_row(old).tobytes()


def test_aggregate_input_validation():
    with pytest.raises(ValueError):
        average_aggregate(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        knn_aggregate(np.zeros((3, 2)), np.zeros(2), 4)
    with pytest.raises(ValueError, match=r"\(\.\.\., N, E\) candidates \(3,\)"):
        knn_aggregate(np.zeros(3), np.zeros(3), 1)
    for embs, scores in ((np.zeros((4, 2)), np.zeros(3)), (np.zeros((2, 4, 2)), np.zeros(4)),
                         (np.zeros(4), np.zeros(()))):
        with pytest.raises(ShapeError, match="do not match candidates"):
            syncnet_reject(embs, scores, 0.5)


# -- sampling configuration ------------------------------------------------------


def test_sampling_config_validation():
    assert SamplingConfig().validate(4) == 4
    assert SamplingConfig(depth_limit=2).validate(4) == 2
    with pytest.raises(ValueError, match="depth_limit"):
        SamplingConfig(depth_limit=9).validate(4)
    # every check that needs no model depth runs when the config is built
    for bad in [dict(strategy="magic"), dict(n=0), dict(k=0), dict(strategy="knn", n=2, k=5),
                dict(keep_fraction=0.0), dict(depth_limit=0), dict(temperature=-1.0),
                dict(temperature=float("nan")), dict(temperature=float("inf"))]:
        with pytest.raises(ValueError):
            SamplingConfig(**bad)


@pytest.mark.parametrize("strategy", ["average", "syncnet-rejection"])
def test_only_knn_needs_k_candidates(strategy):
    """``k`` is read by knn alone, so fewer candidates than ``k`` are fine
    for the other strategies."""
    assert SamplingConfig(strategy=strategy, n=2).validate(4) == 4
    with pytest.raises(ValueError, match="k must"):
        SamplingConfig(strategy="knn", n=2).validate(4)


# -- generation ------------------------------------------------------------------


def test_generate_shapes_and_determinism(stack):
    codec, model, rec = stack
    cfg = SamplingConfig(strategy="default", seed=3)
    (m1,), (g1,) = generate_batch(model, codec, rec.audio, rec.motion, cfg,
                                  n_samples=1)
    (m2,), (g2,) = generate_batch(model, codec, rec.audio, rec.motion, cfg,
                                  n_samples=1)
    assert m1.shape == rec.motion.shape
    assert g1.shape == (rec.motion.shape[0], 2)
    np.testing.assert_array_equal(m1, m2)
    np.testing.assert_array_equal(g1, g2)


def test_temperature_zero_is_greedy_and_seed_independent(stack):
    codec, model, rec = stack
    a = generate_batch(model, codec, rec.audio, rec.motion,
                       SamplingConfig(temperature=0.0, seed=1), n_samples=1)[1]
    b = generate_batch(model, codec, rec.audio, rec.motion,
                       SamplingConfig(temperature=0.0, seed=99), n_samples=1)[1]
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
def test_greedy_codes_are_teacher_forced_argmax(stack, temporal):
    codec, _, rec = stack
    cfg = replace(TINY_AR, temporal=temporal, temporal_layers=1)
    model = ARModel(cfg, codec.codebook.data.copy(), np.random.default_rng(4))
    S = 3
    _, grids = generate_batch(model, codec, rec.audio, rec.motion,
                              SamplingConfig(temperature=0.0), n_samples=S)
    logits = model.forward_logits(
        np.broadcast_to(rec.audio, (S,) + rec.audio.shape),
        np.broadcast_to(rec.motion, (S,) + rec.motion.shape), grids).data
    np.testing.assert_array_equal(logits.argmax(axis=-1), grids)


def test_over_long_transformer_input_fails_before_sampling(stack):
    codec, _, rec = stack
    T = rec.audio.shape[0]
    cfg = replace(TINY_AR, temporal="transformer", temporal_layers=1,
                  max_frames=T - 1)
    model = ARModel(cfg, codec.codebook.data.copy(), np.random.default_rng(4))
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError, match=f"max_frames={T - 1}"):
        generate_batch(model, codec, rec.audio, rec.motion, SamplingConfig(),
                       n_samples=2, rng=rng)
    assert model.depth_pass_count == 0
    assert rng.random() == np.random.default_rng(0).random()


def test_knn_k_equals_n_matches_average_generation(stack):
    codec, model, rec = stack
    a = generate_batch(model, codec, rec.audio, rec.motion,
                       SamplingConfig(strategy="knn", n=4, k=4, seed=5),
                       n_samples=1)
    b = generate_batch(model, codec, rec.audio, rec.motion,
                       SamplingConfig(strategy="average", n=4, seed=5),
                       n_samples=1)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_array_equal(a[1], b[1])


def test_depth_truncated_generation(stack):
    codec, model, rec = stack
    (motion,), (grid,) = generate_batch(model, codec, rec.audio, rec.motion,
                                        SamplingConfig(depth_limit=1, seed=2),
                                        n_samples=1)
    assert grid.shape[1] == 1
    assert motion.shape == rec.motion.shape


def test_generate_batch_needs_a_sample(stack):
    codec, model, rec = stack
    with pytest.raises(ValueError, match="n_samples"):
        generate_batch(model, codec, rec.audio, rec.motion, SamplingConfig(),
                       n_samples=0)


@pytest.mark.parametrize("n_samples", [-1, 2.5, 1.0, np.float64(2.0), "2"])
def test_generate_batch_needs_a_whole_number_of_samples(stack, n_samples):
    """An ``n_samples`` that is not an int >= 1 raises ValueError at entry;
    2.5 raised numpy's TypeError in ``TemporalStream``."""
    codec, model, rec = stack
    with pytest.raises(ValueError, match=r"n_samples must be an int >= 1"):
        generate_batch(model, codec, rec.audio, rec.motion, SamplingConfig(),
                       n_samples=n_samples)


def test_generate_batch_takes_a_numpy_integer_sample_count(stack):
    codec, model, rec = stack
    motions, grids = generate_batch(model, codec, rec.audio, rec.motion,
                                    SamplingConfig(seed=3), n_samples=np.int64(2))
    assert motions.shape[0] == grids.shape[0] == 2


def test_generate_batch_needs_a_frame(stack):
    codec, model, rec = stack
    for y in (rec.audio[:0], np.float64(0.5)):  # no frames; no frame axis
        with pytest.raises(ShapeError, match="no frames"):
            generate_batch(model, codec, y, rec.motion, SamplingConfig())


def test_rejection_requires_sync_model(stack):
    codec, model, rec = stack
    with pytest.raises(ValueError):
        generate_batch(model, codec, rec.audio, rec.motion,
                       SamplingConfig(strategy="syncnet-rejection", n=4,
                                      keep_fraction=0.5), n_samples=1)


def per_candidate_sync_scores(codec, sync_model, y, grids, cand_rows, t,
                              radius):
    """Reference oracle: the loop the batched scorer replaced, one decode
    and one score call per (sample, candidate) window."""
    lo = max(0, t - radius)
    scores = np.zeros(cand_rows.shape[:2])
    for i in range(cand_rows.shape[0]):
        history = grids[i, lo:t]
        for j in range(cand_rows.shape[1]):
            window = np.concatenate([history, cand_rows[i, j][None]], axis=0)
            scores[i, j] = sync_model.score(codec.decode(window), y[lo:t + 1])
    return scores


@pytest.mark.parametrize("variant", [1, 2])
def test_batched_rejection_matches_per_candidate_oracle(stack, monkeypatch,
                                                        variant):
    codec, model, rec = stack
    sync = SyncNet(SyncConfig(variant=variant, motion_dim=12, audio_dim=4,
                              width=8, emb_dim=6, window=8, batch=8,
                              clips_per_batch=2, seed=variant))
    cfg = SamplingConfig(strategy="syncnet-rejection", n=5, keep_fraction=0.4,
                         seed=3)
    motions, grids = generate_batch(model, codec, rec.audio, rec.motion, cfg,
                                    3, sync)
    batched = sampling._candidate_sync_scores
    calls = []

    def oracle(*args):
        ref = per_candidate_sync_scores(*args)
        np.testing.assert_allclose(batched(*args), ref, rtol=1e-12, atol=1e-15)
        calls.append(ref.shape)
        return ref

    monkeypatch.setattr(sampling, "_candidate_sync_scores", oracle)
    ref_motions, ref_grids = generate_batch(model, codec, rec.audio,
                                            rec.motion, cfg, 3, sync)
    assert calls == [(3, 5)] * rec.audio.shape[0]
    np.testing.assert_array_equal(grids, ref_grids)
    np.testing.assert_array_equal(motions, ref_motions)
    for i in range(3):
        np.testing.assert_array_equal(motions[i], codec.decode(grids[i]))


def repeated_rows_candidates(model, h, style, n, d_star, temperature, rng):
    """Reference oracle: the depth loop before the shared prefix. Each
    context vector is repeated to its n candidate rows, and every row feeds
    its own style and h_av tokens at depth 0. Each layer's tokens attend to
    the key/value block of the layer's earlier inputs, from its ``wqkv``."""
    h_rows = np.repeat(h, n, axis=0)
    N, H = h_rows.shape
    rows = np.zeros((N, 0), dtype=np.int64)
    cache = [np.zeros((N, 0, 2 * H)) for _ in model.depth_blocks]
    for d in range(d_star):
        if d == 0:
            v = np.empty((N, 2, H))
            if model.config.style_mode == "depth":
                v[:, 0] = model.style_proj(style[None])[0]
            else:
                v[:, 0] = model.style_const.data
            v[:, 1] = h_rows
            v = v + model.depth_pos.data[:2]
        else:
            prefix = model.codebook.data[rows].cumsum(axis=1)[:, -1]
            v = model.prefix_proj(prefix) + model.depth_pos.data[d + 1]
            v = v[:, None]
        for i, block in enumerate(model.depth_blocks):
            kv = block.attn.wqkv(v)[..., H:]
            v = block(v, cache[i])
            cache[i] = np.concatenate([cache[i], kv], axis=1)
        idx = sample_categorical(model.head(v[:, -1]), temperature, rng)
        rows = np.concatenate([rows, idx[:, None]], axis=1)
    model.depth_pass_count += N * d_star
    return rows.reshape(h.shape[0], n, d_star)


def use_repeated_rows_oracle(monkeypatch, model):
    """Route sampling through the oracle; it gets the style embedding where
    ``_sample_candidates`` gets the caches over the style's depth prefix,
    and its rows' embeddings are gathered by ``frame_embedding``."""
    def oracle(model, h, style, *args):
        rows = repeated_rows_candidates(model, h, style, *args)
        return rows, model.frame_embedding(rows)

    monkeypatch.setattr(model, "depth_caches", lambda styles, rows, depths: styles[0])
    monkeypatch.setattr(sampling, "_sample_candidates", oracle)


PREFIX_CODEC = CodecConfig(input_dim=12, depth=3, codebook_size=5, code_dim=4,
                           seed=1)


def prefix_model(style_mode, temporal):
    cfg = replace(TINY_AR, depth=3, codebook_size=5, depth_layers=2,
                  temporal=temporal, temporal_layers=1, style_mode=style_mode)
    codec = Codec(PREFIX_CODEC)
    return codec, ARModel(cfg, codec.codebook.data.copy(),
                          np.random.default_rng(6))


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_shared_prefix_matches_repeated_rows_oracle(tiny_corpus, monkeypatch,
                                                    strategy, style_mode,
                                                    temporal):
    codec, model = prefix_model(style_mode, temporal)
    sync = SyncNet(SyncConfig(variant=2, motion_dim=12, audio_dim=4, width=8,
                              emb_dim=6, window=8, batch=8, clips_per_batch=2,
                              seed=2))
    rec = tiny_corpus.records[1]
    configs = [SamplingConfig(strategy=strategy, n=n, k=min(n, 2),
                              keep_fraction=0.5, depth_limit=limit,
                              temperature=temperature, seed=4)
               for n in (1, 4) for limit in (1, 3) for temperature in (0.0, 1.0)]

    def run_all():
        return [generate_batch(model, codec, rec.audio, rec.motion, cfg, 3,
                               sync) for cfg in configs]

    shared = run_all()
    with monkeypatch.context() as patch:
        use_repeated_rows_oracle(patch, model)
        repeated = run_all()
    for cfg, (motions, grids), (ref_motions, ref_grids) in zip(
            configs, shared, repeated):
        np.testing.assert_array_equal(grids, ref_grids, err_msg=str(cfg))
        np.testing.assert_array_equal(motions, ref_motions, err_msg=str(cfg))


@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("strategy", ["default", "knn", "average"])
def test_shared_prefix_relabel_matches_repeated_rows_oracle(
        tiny_corpus, monkeypatch, strategy, style_mode):
    codec, model = prefix_model(style_mode, "conv")
    prepared = prepare_sequences(codec, tiny_corpus, tiny_corpus.records[:3],
                                 np.random.default_rng(0))
    cfg = SamplingConfig(strategy=strategy, n=4, k=2)
    shared = relabel_grids(model, codec, prepared, cfg,
                           np.random.default_rng(8))
    use_repeated_rows_oracle(monkeypatch, model)
    repeated = relabel_grids(model, codec, prepared, cfg,
                             np.random.default_rng(8))
    for grid, ref in zip(shared, repeated, strict=True):
        np.testing.assert_array_equal(grid, ref)


def test_generation_counts_passes_and_rows(tiny_corpus, monkeypatch):
    codec, model = prefix_model("depth", "conv")
    prefixes = []
    depth_prefix = model.depth_prefix
    monkeypatch.setattr(model, "depth_prefix",
                        lambda style: prefixes.append(1) or depth_prefix(style))
    rec = tiny_corpus.records[0]
    T = rec.audio.shape[0]
    S, N, d_star = 3, 5, 3
    passes, rows = model.depth_pass_count, model.depth_row_count
    generate_batch(model, codec, rec.audio, rec.motion,
                   SamplingConfig(strategy="average", n=N), S)
    assert model.depth_pass_count - passes == S * N * T * d_star
    assert model.depth_row_count - rows == T * (S + S * N * (d_star - 1))
    assert prefixes == [1]


def test_generation_allocates_the_depth_caches_once(tiny_corpus, monkeypatch):
    """One set of depth caches per ``generate_batch`` call, rewound for each
    frame; relabeling allocates one per sequence."""
    codec, model = prefix_model("depth", "transformer")
    sizes = []
    depth_caches = model.depth_caches
    monkeypatch.setattr(model, "depth_caches", lambda style, rows, depths: (
        sizes.append((rows, depths)) or depth_caches(style, rows, depths)))
    rec = tiny_corpus.records[0]
    for strategy, n in (("default", 1), ("average", 4)):
        sizes.clear()
        generate_batch(model, codec, rec.audio, rec.motion,
                       SamplingConfig(strategy=strategy, n=n, depth_limit=2), 3)
        assert sizes == [(3 * n, 2)]
    sizes.clear()
    prepared = prepare_sequences(codec, tiny_corpus, tiny_corpus.records[:2],
                                 np.random.default_rng(0))
    relabel_grids(model, codec, prepared, SamplingConfig(strategy="average", n=2),
                  np.random.default_rng(1))
    assert sizes == [(2 * len(p.grid), 3) for p in prepared]


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("d_star", [1, 2, 3])
def test_rewound_caches_give_the_logits_of_fresh_ones(monkeypatch, n, d_star):
    """Candidates over caches allocated once and rewound for every frame get
    the logits, at every depth, and the draws of caches made fresh for each
    frame, bit for bit; their embeddings are ``frame_embedding`` of their
    rows, bit for bit."""
    _, model = prefix_model("depth", "conv")
    R, H = 3, model.config.width
    style = np.ones((1, H))
    frames = np.random.default_rng(2).normal(0.0, 1.0, (4, R, H))
    logits = []
    depth_step = model.depth_step
    monkeypatch.setattr(model, "depth_step", lambda *args: (
        logits.append(depth_step(*args)) or logits[-1]))

    def run(caches):
        logits.clear()
        rng = np.random.default_rng(5)
        drawn = [sampling._sample_candidates(model, h, caches(), n, d_star,
                                             1.0, rng) for h in frames]
        for rows, embs in drawn:
            assert rows.shape == (R, n, d_star)
            np.testing.assert_array_equal(embs, model.frame_embedding(rows))
        return list(logits), [rows for rows, _ in drawn]

    once = model.depth_caches(style, R * n, d_star)
    rewound = run(lambda: once)
    fresh = run(lambda: model.depth_caches(style, R * n, d_star))
    assert len(rewound[0]) == len(frames) * d_star
    for got, want in zip(rewound, fresh, strict=True):
        for a, b in zip(got, want, strict=True):
            np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
def test_a_call_after_a_weight_update_decodes_with_the_new_weights(
        tiny_corpus, tmp_path, monkeypatch, style_mode, temporal):
    """Generation binds the weight arrays per call: after a call, rebinding a
    depth-layer weight and two temporal ones as ``adam_step`` does (``p.data = …``)
    changes the next call's logits, and that call matches a fresh model
    loaded with the new weights, bit for bit."""
    codec, model = prefix_model(style_mode, temporal)
    rec = tiny_corpus.records[1]
    cfg = SamplingConfig(strategy="average", n=3, seed=4)
    logits = []
    depth_step = ARModel.depth_step

    def recording(self, *args):
        logits.append(depth_step(self, *args))
        return logits[-1]

    def run(m):
        logits.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ARModel, "depth_step", recording)
            return generate_batch(m, codec, rec.audio, rec.motion, cfg, 2), list(logits)

    _, before = run(model)
    temporal_weight = (model.temporal_convs[0].weight if temporal == "conv"
                       else model.temporal_blocks[0].ff1.weight)
    for p in (model.depth_blocks[1].attn.wqkv.weight, temporal_weight,
              model.code_proj.weight):
        p.data = p.data * 1.5
    got, after = run(model)
    model.save(tmp_path / "ar.ckpt")
    want, fresh = run(ARModel.load(tmp_path / "ar.ckpt"))
    assert before[0].tobytes() != after[0].tobytes()
    for a, b in zip(after, fresh, strict=True):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(got, want, strict=True):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("where,bad", [("y", np.nan), ("y", np.inf), ("s", -np.inf)])
def test_generate_batch_refuses_a_non_finite_input(tiny_corpus, monkeypatch, where, bad):
    """A non-finite driving signal or style reference raises ValueError
    before any sampling: no stream, no depth pass."""
    codec, model = prefix_model("depth", "conv")
    rec = tiny_corpus.records[1]
    y, s = rec.audio.copy(), rec.motion.copy()
    (y if where == "y" else s)[3, 1] = bad
    monkeypatch.setattr(sampling, "TemporalStream", None)  # a call would raise TypeError
    with pytest.raises(ValueError, match="must be finite"):
        generate_batch(model, codec, y, s, SamplingConfig(strategy="average", n=2), 2)
    assert model.depth_row_count == model.depth_pass_count == 0


@pytest.mark.parametrize("where", ["y", "s"])
def test_generate_batch_refuses_a_one_dimensional_input(stack, where):
    codec, model, rec = stack
    y, s = rec.audio, rec.motion
    y, s = (y[:, 0], s) if where == "y" else (y, s[:, 0])
    with pytest.raises(ShapeError, match=r"\(T, A\) audio and \(T_s, 3V\) style"):
        generate_batch(model, codec, y, s, SamplingConfig(), 2)


def with_bad_audio(corpus, split):
    """A copy of ``corpus`` whose first ``split`` clip has a NaN audio frame."""
    rec = corpus.split(split)[0]
    bad = replace(rec, audio=rec.audio.copy())
    bad.audio[2] = np.nan
    return replace(corpus, records=[bad if r is rec else r for r in corpus.records])


@pytest.mark.parametrize("field", ["audio", "style"])
def test_relabel_grids_refuses_a_non_finite_input(tiny_corpus, monkeypatch, field):
    """``relabel_grids`` checks every sequence's driving signal and style
    reference before it samples any: a NaN in the last one raises
    ValueError with no candidate drawn."""
    codec, model = prefix_model("depth", "conv")
    prepared = prepare_sequences(codec, tiny_corpus, tiny_corpus.records[:3],
                                 np.random.default_rng(0))
    setattr(prepared[-1], field, getattr(prepared[-1], field).copy())
    getattr(prepared[-1], field)[1, 0] = np.nan
    monkeypatch.setattr(sampling, "_sample_candidates", None)  # a call raises TypeError
    with pytest.raises(ValueError, match="must be finite"):
        relabel_grids(model, codec, prepared, SamplingConfig(strategy="average", n=2),
                      np.random.default_rng(1))


def test_distill_refuses_a_non_finite_training_clip(tiny_corpus):
    """``distill`` inherits the check through ``relabel_grids``."""
    codec, model = prefix_model("depth", "conv")
    with pytest.raises(ValueError, match="must be finite"):
        sampling.distill(model, codec, with_bad_audio(tiny_corpus, "train"),
                         SamplingConfig(strategy="average", n=2),
                         replace(model.config, epochs=1))


def test_run_evaluation_refuses_a_non_finite_test_clip(tiny_corpus):
    """``run_evaluation`` inherits ``generate_batch``'s check."""
    codec, model = prefix_model("depth", "conv")
    corpus = with_bad_audio(tiny_corpus, "test")
    with pytest.raises(ValueError, match="must be finite"):
        run_evaluation(corpus, codec, model, None, None, None, SamplingConfig(),
                       n_samples=2, n_clips=1, seed=0)


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
def test_generation_runs_off_the_tape(tiny_corpus, monkeypatch, style_mode,
                                      temporal):
    """Generation, scoring and relabeling hand arrays to every layer, so they
    record no tape node."""
    codec, model = prefix_model(style_mode, temporal)
    sync = SyncNet(SyncConfig(variant=2, motion_dim=12, audio_dim=4, width=8,
                              emb_dim=6, window=8, batch=8, clips_per_batch=2,
                              seed=2))
    rec = tiny_corpus.records[1]
    prepared = prepare_sequences(codec, tiny_corpus, tiny_corpus.records[:2],
                                 np.random.default_rng(0))
    grids = np.random.default_rng(1).integers(0, 5, (4, len(rec.audio), 3))
    made = []
    make = Tensor._make
    monkeypatch.setattr(Tensor, "_make", staticmethod(
        lambda *args: made.append(1) or make(*args)))
    for strategy in STRATEGIES:
        generate_batch(model, codec, rec.audio, rec.motion,
                       SamplingConfig(strategy=strategy, n=3, k=2,
                                      keep_fraction=0.5), 2, sync)
    model.sequence_log_probs(grids, rec.audio, rec.motion)
    for strategy in ("default", "average", "knn"):
        relabel_grids(model, codec, prepared,
                      SamplingConfig(strategy=strategy, n=3, k=2),
                      np.random.default_rng(2))
    assert made == []


def test_batch_samples_are_independent(stack):
    codec, model, rec = stack
    motions, _ = generate_batch(model, codec, rec.audio, rec.motion,
                                SamplingConfig(seed=7), n_samples=4)
    assert motions.shape[0] == 4
    assert motions.var(axis=0).mean() > 0.0


# -- distillation ----------------------------------------------------------------


def test_distill_trains_student_and_logs_every_epoch(stack, tiny_corpus):
    codec, model, _ = stack
    seen = []
    student, history = distill(
        model, codec, tiny_corpus,
        SamplingConfig(strategy="average", n=4, seed=0), log=seen.append)
    assert seen == history
    assert [row["epoch"] for row in history] == list(range(TINY_AR.epochs))
    np.testing.assert_array_equal(student.codebook.data, model.codebook.data)


def test_distill_rejects_syncnet_rejection(stack, tiny_corpus):
    codec, model, _ = stack
    with pytest.raises(ValueError, match="syncnet-rejection"):
        distill(model, codec, tiny_corpus,
                SamplingConfig(strategy="syncnet-rejection", n=4))


def test_distill_rejects_depth_limit_before_relabeling(stack, tiny_corpus,
                                                      monkeypatch):
    codec, model, _ = stack
    monkeypatch.setattr(sampling, "relabel_grids", None)  # must not be reached
    with pytest.raises(ValueError, match="depth_limit must be 2 or unset"):
        distill(model, codec, tiny_corpus,
                SamplingConfig(strategy="average", n=4, depth_limit=1))


def test_distill_rejects_codebook_mismatch(stack, tiny_corpus):
    codec, model, _ = stack
    other = Codec(CodecConfig(input_dim=12, depth=2, codebook_size=3,
                              code_dim=4, seed=9))
    with pytest.raises(ValueError):
        distill(model, other, tiny_corpus, SamplingConfig(strategy="average", n=2))
