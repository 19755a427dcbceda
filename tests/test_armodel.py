import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rvqsynth.armodel import (ARConfig, ARModel, prepare_sequences,
                              soft_target_distributions, stochastic_grid,
                              train_ar)
from rvqsynth.codec import CodecConfig, train_codec
from rvqsynth.nn import TransformerBlock
from rvqsynth.tensor import (ShapeError, Tensor, broadcast_to, concat,
                             cross_entropy, log_softmax)

TINY_AR = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                   epochs=2, batch=4, seed=0)


def make_model(config=TINY_AR, seed=0):
    rng = np.random.default_rng(seed)
    codebook = rng.normal(0.0, 1.0, (config.codebook_size, config.code_dim))
    return ARModel(config, codebook, rng)


def random_inputs(config, T, seed=1):
    rng = np.random.default_rng(seed)
    y = rng.normal(0.0, 1.0, (T, config.audio_dim))
    s = rng.normal(0.0, 1.0, (6, config.motion_dim))
    return y, s


def test_config_rejects_unknown_temporal_and_style_mode():
    with pytest.raises(ValueError, match="temporal"):
        ARConfig(temporal="bogus")
    with pytest.raises(ValueError, match="style mode"):
        ARConfig(style_mode="bogus")


def test_codebook_shape_validated():
    with pytest.raises(ShapeError):
        ARModel(TINY_AR, np.zeros((5, 9)))


def test_grid_probabilities_sum_to_one():
    """Brute-force enumeration over every possible code grid."""
    model = make_model()
    y, s = random_inputs(TINY_AR, T=2)
    C, D, T = 3, 2, 2
    grids = np.array(list(itertools.product(range(C), repeat=T * D)),
                     dtype=np.int64).reshape(-1, T, D)
    assert grids.shape[0] == C ** (T * D) == 81
    logps = model.sequence_log_probs(grids, y, s)
    total = np.exp(logps).sum()
    assert abs(total - 1.0) <= 1e-9


def test_future_frames_do_not_affect_past_logits():
    model = make_model()
    y, s = random_inputs(TINY_AR, T=6)
    rng = np.random.default_rng(2)
    grid = rng.integers(0, 3, (6, 2))
    base = model.forward_logits(y[None], s[None], grid[None]).data.copy()
    tampered = grid.copy()
    tampered[4:] = (tampered[4:] + 1) % 3
    out = model.forward_logits(y[None], s[None], tampered[None]).data
    np.testing.assert_array_equal(out[:, :4], base[:, :4])


def test_same_or_later_depths_do_not_affect_depth_logits():
    model = make_model()
    y, s = random_inputs(TINY_AR, T=4)
    rng = np.random.default_rng(3)
    grid = rng.integers(0, 3, (4, 2))
    base = model.forward_logits(y[None], s[None], grid[None]).data.copy()
    tampered = grid.copy()
    tampered[2, 1] = (tampered[2, 1] + 1) % 3  # depth 1 of frame 2
    out = model.forward_logits(y[None], s[None], tampered[None]).data
    # logits for (frame 2, depths <= 1) must be unchanged; frames < 2 too
    np.testing.assert_array_equal(out[:, :2], base[:, :2])
    np.testing.assert_array_equal(out[:, 2, :2], base[:, 2, :2])


def test_audio_outside_window_does_not_affect_logits():
    model = make_model()
    T = 12
    y, s = random_inputs(TINY_AR, T=T)
    rng = np.random.default_rng(4)
    grid = rng.integers(0, 3, (T, 2))
    base = model.forward_logits(y[None], s[None], grid[None]).data.copy()
    # frame t sees raw audio up to index t + R only (centered audio convs,
    # causal temporal convs), so perturbing from t + R + 1 on is invisible
    R = model.audio_radius
    t = 2
    y2 = y.copy()
    y2[t + R + 1:] += 7.0
    assert t + R + 1 < T
    out = model.forward_logits(y2[None], s[None], grid[None]).data
    np.testing.assert_array_equal(out[:, :t + 1], base[:, :t + 1])


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("D,T", [(1, 3), (2, 17), (4, 64)])
def test_stream_matches_teacher_forced_logits(temporal, style_mode, D, T):
    cfg = ARConfig(code_dim=4, codebook_size=5, depth=D, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=2,
                   temporal=temporal, temporal_layers=2,
                   style_mode=style_mode, max_frames=64)
    model = make_model(cfg)
    y, s = random_inputs(cfg, T=T)
    S = 3
    grids = np.random.default_rng(5).integers(0, 5, (S, T, D))
    full = model.forward_logits(np.broadcast_to(y, (S,) + y.shape),
                                np.broadcast_to(s, (S,) + s.shape),
                                grids).data
    audio, style = model.context_features(y, s)
    stream = model.start_stream(audio, style, S)
    prefix = model.depth_prefix(style[None])
    committed = None
    for t in range(T):
        h = stream.step(committed)
        cache = model.depth_caches(prefix, S, D)
        for d in range(D):
            x = h if d == 0 else model.frame_embedding(grids[:, t, :d])
            logits = model.depth_step(x, d, cache)
            np.testing.assert_allclose(logits, full[:, t, d], rtol=0,
                                       atol=1e-10)
        committed = model.frame_embedding(grids[:, t])


def repeated_style_logits(model, h_av, style_emb, grids):
    """Reference oracle: teacher-forced depth logits before the shared
    prefix. The style token is row 0 of each of the B·T sequences of D + 1
    tokens, and no cache is used."""
    B, T, H = h_av.shape
    D, C = model.config.depth, model.config.codebook_size
    if model.config.style_mode == "depth":
        style_tok = model.style_proj(style_emb).reshape(B, 1, H)
    else:
        style_tok = model.style_const.reshape(1, 1, H)
    parts = [broadcast_to(style_tok, (B, T, H)).reshape(B * T, 1, H),
             h_av.reshape(B * T, 1, H)]
    if D > 1:
        prefix = np.cumsum(model.codebook.data[grids], axis=2)[:, :, :D - 1]
        parts.append(model.prefix_proj(Tensor(prefix.reshape(B * T, D - 1, -1))))
    v = concat(parts, axis=1) + model.depth_pos.reshape(1, D + 1, H)
    for block in model.depth_blocks:
        v = block(v)
    return model.head(v[:, 1:]).reshape(B, T, D, C)


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("D", [1, 2, 4])
def test_shared_style_prefix_matches_repeated_style_oracle(temporal,
                                                           style_mode, D):
    cfg = ARConfig(code_dim=4, codebook_size=5, depth=D, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=2,
                   temporal=temporal, temporal_layers=2,
                   style_mode=style_mode)
    model = make_model(cfg)
    B, T = 3, 7
    rng = np.random.default_rng(9)
    y = rng.normal(0.0, 1.0, (B, T, cfg.audio_dim))
    s = rng.normal(0.0, 1.0, (B, 5, cfg.motion_dim))
    grids = rng.integers(0, cfg.codebook_size, (B, T, D))

    def logits_and_grads(depth_logits):
        model.zero_grad()
        style = model.encode_style(Tensor(s))
        h_av = model.temporal_context(model.encode_audio(Tensor(y)),
                                      model.frame_embedding(grids), style)
        logits = depth_logits(h_av, style, grids)
        cross_entropy(logits.reshape(-1, cfg.codebook_size),
                      grids.reshape(-1)).backward()
        # a parameter the loss does not reach keeps no gradient (None)
        return logits.data, {name: np.zeros_like(p.data) if p.grad is None
                             else p.grad.copy()
                             for name, p in model.trainable_parameters().items()}

    logits, grads = logits_and_grads(model.depth_logits_full)
    ref, ref_grads = logits_and_grads(
        lambda h_av, style, g: repeated_style_logits(model, h_av, style, g))
    assert np.abs(logits - ref).max() <= 1e-12 * np.abs(ref).max()
    # one bound for all parameters: some gradients are zero up to rounding
    # (wqkv.bias's key block: softmax is shift-invariant) and have no
    # relative error
    scale = max(np.abs(g).max() for g in ref_grads.values())
    assert scale > 0.0
    for name, g in grads.items():
        assert np.abs(g - ref_grads[name]).max() <= 1e-12 * scale, name


def test_training_runs_each_style_token_once(monkeypatch):
    """The depth blocks see B style rows, then B·T rows of D tokens."""
    cfg = ARConfig(code_dim=4, codebook_size=5, depth=3, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=2)
    model = make_model(cfg)
    seen = []
    call = TransformerBlock.__call__
    monkeypatch.setattr(TransformerBlock, "__call__", lambda block, x, cache=None:
                        seen.append((model.depth_blocks.index(block), x.shape))
                        or call(block, x, cache))
    B, T = 2, 5
    y, s = random_inputs(cfg, T)
    grids = np.random.default_rng(3).integers(0, 5, (B, T, 3))
    model.forward_logits(np.broadcast_to(y, (B,) + y.shape),
                         np.broadcast_to(s, (B,) + s.shape), grids)
    assert seen == [(0, (B, 1, 8)), (1, (B, 1, 8)),
                    (0, (B * T, 3, 8)), (1, (B * T, 3, 8))]


@pytest.mark.parametrize("temporal,style_mode", [
    ("conv", "depth"), ("transformer", "depth"), ("conv", "temporal")])
def test_sequence_log_probs_encodes_once_for_all_grids(temporal, style_mode,
                                                       monkeypatch):
    """Each encoder runs once for G grids and the log-probabilities match
    the G-copy oracle, which runs both encoders on G copies of (y, s)."""
    cfg = replace(TINY_AR, temporal=temporal, style_mode=style_mode)
    model = make_model(cfg)
    y, s = random_inputs(cfg, T=5)
    G = 6
    grids = np.random.default_rng(2).integers(0, cfg.codebook_size,
                                              (G, 5, cfg.depth))
    logits = model.forward_logits(np.broadcast_to(y, (G,) + y.shape),
                                  np.broadcast_to(s, (G,) + s.shape), grids)
    logp = log_softmax(logits, axis=-1).data
    want = np.take_along_axis(logp, grids[..., None], -1)[..., 0].sum(axis=(1, 2))
    calls = []
    for name in ("encode_audio", "encode_style"):
        def counted(x, name=name, encode=getattr(model, name)):
            calls.append((name, x.shape[0]))
            return encode(x)
        monkeypatch.setattr(model, name, counted)
    got = model.sequence_log_probs(grids, y, s)
    assert calls == [("encode_audio", 1), ("encode_style", 1)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


def test_depth_caches_spread_depth_zero_to_the_candidates():
    """At depth 0, R rows over caches of R·n rows give the logits of the same
    rows over caches of R rows, and leave each row's keys and values in its
    n candidates' rows, as ``np.repeat(…, n, axis=0)`` would."""
    model = make_model(replace(TINY_AR, depth_layers=2))
    R, n = 3, 4
    h = np.random.default_rng(9).normal(0.0, 1.0, (R, TINY_AR.width))
    prefix = model.depth_prefix(np.ones((1, TINY_AR.width)))
    wide, narrow = (model.depth_caches(prefix, rows, TINY_AR.depth)
                    for rows in (R * n, R))
    np.testing.assert_array_equal(model.depth_step(h, 0, wide),
                                  model.depth_step(h, 0, narrow))
    for w, c in zip(wide, narrow):
        assert w.fill == c.fill == 2
        for a, b in ((w.k, c.k), (w.v, c.v)):
            np.testing.assert_array_equal(a[:2], np.repeat(b[:2], n, axis=1))


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
def test_stream_refuses_a_step_past_the_last_frame(temporal):
    model = make_model(replace(TINY_AR, temporal=temporal, temporal_layers=1))
    y, s = random_inputs(TINY_AR, T=3)
    stream = model.start_stream(*model.context_features(y, s), 2)
    committed = None
    for _ in range(3):
        stream.step(committed)
        committed = np.zeros((2, TINY_AR.code_dim))
    with pytest.raises(ShapeError, match="3 frames"):
        stream.step(committed)


def test_depth_pass_counter_counts_rows():
    model = make_model()
    h = np.zeros((3, TINY_AR.width))
    cache = model.depth_caches(model.depth_prefix(np.zeros((1, TINY_AR.width))),
                               3, TINY_AR.depth)
    model.depth_step(h, 0, cache)
    model.depth_step(np.zeros((3, TINY_AR.code_dim)), 1, cache)
    assert model.depth_row_count == 6
    assert model.depth_pass_count == 0  # logical passes count in sampling


def test_style_conditioning_changes_depth_logits():
    model = make_model()
    y, s = random_inputs(TINY_AR, T=3)
    rng = np.random.default_rng(6)
    grid = rng.integers(0, 3, (3, 2))
    a = model.forward_logits(y[None], s[None], grid[None]).data
    b = model.forward_logits(y[None], (s + 1.0)[None], grid[None]).data
    assert not np.allclose(a, b)


@pytest.fixture(scope="module")
def trained(tiny_corpus):
    codec_cfg = CodecConfig(input_dim=12, depth=2, codebook_size=4,
                            code_dim=4, epochs=3, seed=0)
    codec, _ = train_codec(tiny_corpus, codec_cfg)
    ar_cfg = ARConfig(code_dim=4, codebook_size=4, depth=2, width=8,
                      audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                      epochs=3, batch=8, seed=0)
    model, history = train_ar(codec, tiny_corpus, ar_cfg)
    return codec, model, history


def test_training_reduces_cross_entropy(trained):
    _, _, history = trained
    assert history[-1]["loss"] < history[0]["loss"]


def test_geometry_mismatch_rejected(trained, tiny_corpus):
    codec, _, _ = trained
    bad = ARConfig(code_dim=4, codebook_size=8, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, epochs=1)
    with pytest.raises(ValueError):
        train_ar(codec, tiny_corpus, bad)


def held_out_cross_entropy(model, codec, corpus, records, seed=0):
    """Mean per-position cross-entropy on a record list (teacher forced)."""
    prepared = prepare_sequences(codec, corpus, records,
                                 np.random.default_rng(seed))
    total = sum(-model.sequence_log_prob(p.grid, p.audio, p.style)
                for p in prepared)
    return total / sum(p.grid.size for p in prepared)


def test_held_out_cross_entropy_finite(trained, tiny_corpus):
    codec, model, _ = trained
    ce = held_out_cross_entropy(model, codec, tiny_corpus,
                                tiny_corpus.split("val")[:4])
    assert np.isfinite(ce) and ce > 0.0


def test_checkpoint_roundtrip_bit_exact(trained, tmp_path):
    _, model, _ = trained
    path = tmp_path / "ar.ckpt"
    model.save(path, seed=1)
    back = ARModel.load(path)
    y, s = random_inputs(back.config, T=4)
    rng = np.random.default_rng(7)
    grid = rng.integers(0, back.config.codebook_size, (4, 2))
    np.testing.assert_array_equal(
        back.forward_logits(y[None], s[None], grid[None]).data,
        model.forward_logits(y[None], s[None], grid[None]).data)


def test_transformer_temporal_variant_runs():
    cfg = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                   temporal="transformer", temporal_layers=1, epochs=1)
    model = make_model(cfg)
    y, s = random_inputs(cfg, T=4)
    grid = np.zeros((4, 2), dtype=np.int64)
    out = model.forward_logits(y[None], s[None], grid[None])
    assert out.shape == (1, 4, 2, 3)


def test_transformer_temporal_variant_rejects_too_many_frames():
    cfg = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                   temporal="transformer", temporal_layers=1, max_frames=5)
    model = make_model(cfg)
    y, s = random_inputs(cfg, T=6)
    grid = np.zeros((6, 2), dtype=np.int64)
    with pytest.raises(ShapeError, match="max_frames=5"):
        model.forward_logits(y[None], s[None], grid[None])
    y, s = random_inputs(cfg, T=5)
    assert model.forward_logits(y[None], s[None], grid[None, :5]).shape == (1, 5, 2, 3)


def test_transformer_stream_rejects_too_many_frames_up_front():
    cfg = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                   temporal="transformer", temporal_layers=1, max_frames=5)
    model = make_model(cfg)
    audio, style = model.context_features(*random_inputs(cfg, T=6))
    with pytest.raises(ShapeError, match="max_frames=5"):
        model.start_stream(audio, style, 2)
    assert model.start_stream(audio[:5], style, 2).step(None).shape == (2, 8)


def test_stochastic_grid_tends_to_argmin_at_low_tau():
    rng = np.random.default_rng(8)
    codebook = rng.normal(0.0, 1.0, (6, 4))
    z = rng.normal(0.0, 1.0, (10, 4))
    from rvqsynth.codec import rvq_quantize_frames
    hard = rvq_quantize_frames(z, codebook, 3).grid
    soft = stochastic_grid(z, codebook, 3, tau=1e-9,
                           rng=np.random.default_rng(9))
    np.testing.assert_array_equal(soft, hard)


def test_soft_targets_are_distributions():
    rng = np.random.default_rng(10)
    codebook = rng.normal(0.0, 1.0, (6, 4))
    z = rng.normal(0.0, 1.0, (5, 4))
    from rvqsynth.codec import rvq_quantize_frames
    grid = rvq_quantize_frames(z, codebook, 2).grid
    tgt = soft_target_distributions(z, grid, codebook, eps=0.3, alpha=0.1)
    np.testing.assert_allclose(tgt.sum(axis=-1), 1.0, atol=1e-12)
    # the selected code always keeps the largest share
    np.testing.assert_array_equal(tgt.argmax(axis=-1), grid)


def test_prepare_sequences_freezes_grids(trained, tiny_corpus):
    codec, _, _ = trained
    rng = np.random.default_rng(11)
    prepared = prepare_sequences(codec, tiny_corpus,
                                 tiny_corpus.split("train")[:3], rng)
    for p in prepared:
        np.testing.assert_array_equal(p.grid, codec.quantize(p.latents).grid)


def test_train_ar_peak_memory_is_bounded(tiny_corpus, tiny_codec):
    """tracemalloc sees numpy's buffers: one epoch at width 32 peaked 39.3 MB
    above its start while each step's graph lived through the next step and
    every interior gradient lived until its graph died, and 17.2 MB with
    both released as soon as backward has used them."""
    cfg = ARConfig(code_dim=6, codebook_size=8, depth=3, width=32,
                   audio_dim=4, motion_dim=12, epochs=1, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train_ar(tiny_codec, tiny_corpus, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 28e6, peak
