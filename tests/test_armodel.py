import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rvqsynth.armodel import (ARConfig, ARModel, TemporalStream, prepare_sequences,
                              soft_target_distributions, train_ar)
from rvqsynth.codec import (CodecConfig, rvq_quantize_frames, sample_categorical,
                            squared_distances, train_codec)
from rvqsynth import sampling
from rvqsynth.nn import DOT_ROWS, Dense, KVCache, operand, tap_sum
from rvqsynth.tensor import (ShapeError, Tensor, broadcast_to, concat,
                             cross_entropy, leaky_relu, log_softmax)

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
    with pytest.raises(ValueError, match="style_mode"):
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


@pytest.mark.parametrize("case", ["codes", "depth", "frames"])
def test_sequence_log_probs_refuses_a_malformed_grid(case):
    """Codes outside [0, |C|), a depth other than D and a T other than the
    audio's raise typed errors at the entry, not inside numpy."""
    model = make_model()
    y, s = random_inputs(TINY_AR, T=4)
    grids = np.zeros((2, 4, TINY_AR.depth), dtype=np.int64)
    assert np.isfinite(model.sequence_log_probs(grids, y, s)).all()
    if case == "codes":
        for code in (TINY_AR.codebook_size, -1):
            grids[1, 2, 1] = code
            with pytest.raises(ValueError, match="out of range"):
                model.sequence_log_probs(grids, y, s)
        return
    for bad in ((grids[..., :1], np.zeros((2, 4, 3), dtype=np.int64)) if case == "depth"
                else (grids[:, :3], np.zeros((2, 5, 2), dtype=np.int64))):
        with pytest.raises(ShapeError, match=r"not \(G, 4, 2\)"):
            model.sequence_log_probs(bad, y, s)


def test_sequence_log_probs_refuses_no_grids():
    """G = 0 grids failed in a reshape inside the depth model."""
    model = make_model()
    y, s = random_inputs(TINY_AR, T=4)
    with pytest.raises(ShapeError, match=r"not \(G, 4, 2\) with G >= 1"):
        model.sequence_log_probs(np.zeros((0, 4, 2), dtype=np.int64), y, s)


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
    stream = TemporalStream(model, audio, style, S)
    committed = None
    for t in range(T):
        h = stream.step(committed)
        cache = model.depth_caches(style[None], S, D)
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
    """The depth blocks (their fused projections) see B style rows, then B·T
    rows of D tokens."""
    cfg = ARConfig(code_dim=4, codebook_size=5, depth=3, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=2)
    model = make_model(cfg)
    seen = []
    wqkvs = [block.attn.wqkv for block in model.depth_blocks]
    call = Dense.__call__
    monkeypatch.setattr(Dense, "__call__", lambda layer, x: (
        layer in wqkvs and seen.append((wqkvs.index(layer), x.shape))) or call(layer, x))
    B, T = 2, 5
    y, s = random_inputs(cfg, T)
    grids = np.random.default_rng(3).integers(0, 5, (B, T, 3))
    model.forward_logits(np.broadcast_to(y, (B,) + y.shape),
                         np.broadcast_to(s, (B,) + s.shape), grids)
    assert seen == [(0, (B, 1, 8)), (1, (B, 1, 8)),
                    (0, (B * T, 3, 8)), (1, (B * T, 3, 8))]


@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("D", [1, 2, 4])
def test_lone_style_token_matches_the_block_call(style_mode, D, monkeypatch):
    """``depth_prefix`` runs each layer's style token through its projection,
    its value, ``wo`` and the feed-forward. Against the token run through
    ``TransformerBlock.__call__``, with each block taken from the projection
    its attention computes, the prefix blocks (arrays and Tensors) and every
    parameter gradient of a loss through ``depth_logits_full`` match bit for
    bit."""
    cfg = ARConfig(code_dim=4, codebook_size=5, depth=D, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=2,
                   style_mode=style_mode)
    model = make_model(cfg)
    B, T, H = 3, 7, cfg.width
    rng = np.random.default_rng(9)
    y = rng.normal(0.0, 1.0, (B, T, cfg.audio_dim))
    s = rng.normal(0.0, 1.0, (B, 5, cfg.motion_dim))
    grids = rng.integers(0, cfg.codebook_size, (B, T, D))
    lone = model.depth_prefix

    def block_call_prefix(style_emb):
        if style_mode == "depth":
            v = model.style_proj(style_emb)
        else:
            v = broadcast_to(operand(style_emb, model.style_const), (style_emb.shape[0], H))
        v = (v + operand(style_emb, model.depth_pos)[0]).reshape(-1, 1, H)
        projected = []
        for block in model.depth_blocks:
            with monkeypatch.context() as patch:
                patch.setattr(block.attn, "wqkv", lambda x, dense=block.attn.wqkv:
                              projected.append(dense(x)) or projected[-1])
                v = block(v)
        return [qkv[..., H:] for qkv in projected]

    for style in (np.ones((1, H)), model.encode_style(Tensor(s))):
        for a, b in zip(lone(style), block_call_prefix(style), strict=True):
            a, b = (getattr(t, "data", t) for t in (a, b))
            assert a.shape == (style.shape[0], 1, 2 * H) and a.tobytes() == b.tobytes()

    def grads(depth_prefix):
        model.zero_grad()
        with monkeypatch.context() as patch:
            patch.setattr(model, "depth_prefix", depth_prefix)
            logits = model.forward_logits(y, s, grids)
        cross_entropy(logits.reshape(-1, cfg.codebook_size),
                      grids.reshape(-1)).backward()
        return {name: None if p.grad is None else p.grad.tobytes()
                for name, p in model.trainable_parameters().items()}

    assert grads(lone) == grads(block_call_prefix)


@pytest.mark.parametrize("temporal,style_mode", [
    ("conv", "depth"), ("transformer", "depth"), ("conv", "temporal")])
def test_sequence_log_probs_encodes_once_for_all_grids(temporal, style_mode,
                                                       monkeypatch):
    """Each encoder runs once for G grids, its one row reaches
    ``temporal_context`` uncopied, and the log-probabilities match the G-copy
    oracle, which runs both encoders on G copies of (y, s)."""
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
    for name in ("encode_audio", "encode_style", "temporal_context"):
        def counted(x, *rest, name=name, encode=getattr(model, name)):
            calls.append((name, x.shape[0]))
            return encode(x, *rest)
        monkeypatch.setattr(model, name, counted)
    got = model.sequence_log_probs(grids, y, s)
    assert calls == [("encode_audio", 1), ("encode_style", 1),
                     ("temporal_context", 1)]
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("B", [1, 3])
def test_teacher_forced_arrays_match_the_tape(temporal, style_mode, B):
    """``temporal_context`` and ``depth_logits_full`` given arrays return
    arrays within 1e-12 relative of their Tensor path. The arrays hold one
    row of audio features and style for the B grids, the Tensors B copies."""
    cfg = ARConfig(code_dim=4, codebook_size=5, depth=3, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=2,
                   temporal=temporal, temporal_layers=2, style_mode=style_mode)
    model = make_model(cfg)
    y, s = random_inputs(cfg, T=7)
    grids = np.random.default_rng(4).integers(0, cfg.codebook_size, (B, 7, 3))
    frame_embs = model.frame_embedding(grids)
    audio, style = (f[None] for f in model.context_features(y, s))
    h_av = model.temporal_context(audio, frame_embs, style)
    logits = model.depth_logits_full(h_av, style, grids)
    audio, style = (Tensor(np.repeat(f, B, axis=0)) for f in (audio, style))
    h_ref = model.temporal_context(audio, frame_embs, style)
    ref = model.depth_logits_full(h_ref, style, grids)
    for got, want in ((h_av, h_ref), (logits, ref)):
        assert type(got) is np.ndarray and isinstance(want, Tensor)
        assert got.shape == want.shape
        assert np.abs(got - want.data).max() <= 1e-12 * np.abs(want.data).max()


def test_depth_caches_spread_depth_zero_to_the_candidates():
    """At depth 0, R rows over caches of R·n rows give the logits of the same
    rows over caches of R rows, and leave each row's keys and values in its
    n candidates' rows, as ``np.repeat(…, n, axis=0)`` would."""
    model = make_model(replace(TINY_AR, depth_layers=2))
    R, n = 3, 4
    h = np.random.default_rng(9).normal(0.0, 1.0, (R, TINY_AR.width))
    wide, narrow = (model.depth_caches(np.ones((1, TINY_AR.width)), rows, TINY_AR.depth)
                    for rows in (R * n, R))
    np.testing.assert_array_equal(model.depth_step(h, 0, wide),
                                  model.depth_step(h, 0, narrow))
    for w, c in zip(wide, narrow):
        assert w.fill == c.fill == 2
        for a, b in ((w.k, c.k), (w.v, c.v)):
            np.testing.assert_array_equal(a[:2], np.repeat(b[:2], n, axis=1))


@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("R,n", [(1, 1), (3, 4), (8, 20)])
def test_depth_caches_hold_the_style_prefix_in_slot_zero(R, n, style_mode):
    """``depth_caches(style, R·n, D)`` writes each layer's ``depth_prefix``
    keys and values to slot 0 of its cache in every row, bit for bit, with
    ``fill`` at 1 and room for D more slots."""
    model = make_model(replace(TINY_AR, depth_layers=2, style_mode=style_mode))
    style = np.random.default_rng(10).normal(0.0, 1.0, (1, TINY_AR.width))
    caches = model.depth_caches(style, R * n, TINY_AR.depth)
    prefix = model.depth_prefix(style)
    assert len(caches) == len(prefix) == 2
    for cache, kv in zip(caches, prefix):
        assert cache.fill == 1 and len(cache.k) == len(cache.v) == 1 + TINY_AR.depth
        keys, values = np.split(kv[0], 2, axis=1)
        assert cache.k[0].tobytes() == np.repeat(keys, R * n, axis=0).tobytes()
        assert cache.v[0].tobytes() == np.repeat(values, R * n, axis=0).tobytes()


def decode_attention_reference(qkv, heads, cache):
    """The attention-decode kernel as ``attend`` ran it over a ``KVCache``
    before the decode state was bound: the keys and values written to the
    next slot, its rows read every (rows/B)-th, the ufunc reductions."""
    B, W = len(qkv), qkv.shape[1] // 3
    cache.k[cache.fill].reshape(B, -1, W)[:] = qkv[:, None, W:2 * W]
    cache.v[cache.fill].reshape(B, -1, W)[:] = qkv[:, None, 2 * W:]
    cache.fill += 1
    K = cache.k[:cache.fill, ::len(cache.k[0]) // B]
    V = cache.v[:cache.fill, ::len(cache.v[0]) // B]
    s = ((K * qkv[:, :W]).reshape(-1, W) @ cache.E).reshape(len(K), B, heads)
    s -= np.maximum.reduce(s, axis=0)
    a = np.exp(np.multiply(s, cache.scale, out=s), out=s)
    a /= np.add.reduce(a, axis=0)
    out = (a.reshape(-1, heads) @ cache.Et).reshape(K.shape)
    return np.add.reduce(np.multiply(out, V, out=out), axis=0)


def layer_composed_block(block, x, cache):
    """Reference oracle: a block's decode step composed of its layers, read
    through the model at every call, as ``TransformerBlock`` ran it over a
    ``KVCache``."""
    qkv = block.attn.wqkv(x)
    x = x + block.attn.wo(decode_attention_reference(qkv, block.attn.heads, cache))
    return x + block.ff2(leaky_relu(block.ff1(x)))


def layer_composed_depth_step(model, x, d, caches):
    """Reference oracle: ``ARModel.depth_step`` composed of the layers."""
    model.depth_row_count += len(x)
    if d == 0:
        for cache in caches:
            cache.fill = 1
    v = (x if d == 0 else model.prefix_proj(x)) + model.depth_pos.data[d + 1]
    for block, cache in zip(model.depth_blocks, caches):
        v = layer_composed_block(block, v, cache)
    return model.head(v)


def layer_composed_stream(model, audio, style, S):
    """Reference oracle: ``TemporalStream.step`` composed of the layers, as a
    function of (t, the committed embedding of frame t − 1 or None)."""
    c = model.config
    T, H = audio.shape
    style_term = (model.style_proj(np.broadcast_to(style, (S, H)))
                  if c.style_mode == "temporal" else None)
    convs = model.temporal_convs if c.temporal == "conv" else []
    inputs = [np.zeros((S, (conv.kernel - 1) * conv.dilation + T, H)) for conv in convs]
    caches = [] if convs else [KVCache(T, S, H, c.heads) for _ in model.temporal_blocks]

    def step(t, prev_emb):
        x = audio[t] + (np.broadcast_to(model.start_token.data, (S, H))
                        if prev_emb is None else model.code_proj(prev_emb))
        if style_term is not None:
            x = x + style_term
        for conv, rows in zip(convs, inputs):
            k, d = conv.kernel, conv.dilation
            rows[:, (k - 1) * d + t] = x
            taps = [rows[:, t + tap * d] for tap in range(k)]
            x = x + leaky_relu(tap_sum(taps, conv.weight.data, conv.bias.data))
        if caches:
            x = x + model.temporal_pos.data[t]
            for block, cache in zip(model.temporal_blocks, caches):
                x = layer_composed_block(block, x, cache)
        return x

    return step


def oracle_model(temporal, style_mode, D=3):
    cfg = ARConfig(code_dim=4, codebook_size=5, depth=D, width=8, audio_dim=4,
                   motion_dim=12, heads=2, depth_layers=2, temporal=temporal,
                   temporal_layers=2, style_mode=style_mode, max_frames=16)
    model = make_model(cfg)
    # trained-looking parameters: the zero biases of a fresh model would
    # hide a bias added twice or not at all
    for i, p in enumerate(model.trainable_parameters().values()):
        p.data = np.random.default_rng(i).normal(0.0, 0.5, p.data.shape)
    return model


# (R, n): R = 2 keeps the ids of n alone; the others put the R·n rows of
# every product on both sides of ``DOT_ROWS``
ROWS_AND_CANDIDATES = [pytest.param(2, n, id=str(n)) for n in (1, 3)] + [
    pytest.param(R, 1, id=f"R{R}-1") for R in (1, DOT_ROWS, DOT_ROWS + 1, 160)]


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
@pytest.mark.parametrize("R,n", ROWS_AND_CANDIDATES)
@pytest.mark.parametrize("d_star", [1, 3])
@pytest.mark.parametrize("temperature", [1.0, 0.0])
def test_bound_depth_step_matches_the_layer_composed_oracle(
        monkeypatch, temporal, style_mode, R, n, d_star, temperature):
    """Candidates drawn through ``depth_step`` on the arrays bound by
    ``depth_caches`` against the layer-composed oracle over caches of their
    own: every call's logits, the KVCache contents after each frame, the rows
    drawn and ``depth_row_count``, bit for bit."""
    model = oracle_model(temporal, style_mode)
    H = model.config.width
    style = np.random.default_rng(1).normal(0.0, 1.0, (1, H))
    frames = np.random.default_rng(2).normal(0.0, 1.0, (4, R, H))
    bound = model.depth_step

    def run(step):
        caches = model.depth_caches(style, R * n, d_star)
        logits, drawn, contents = [], [], []
        rows_before = model.depth_row_count
        rng = np.random.default_rng(3)
        with monkeypatch.context() as patch:
            patch.setattr(model, "depth_step", lambda *args: (
                logits.append(step(*args)) or logits[-1]))
            for h in frames:
                drawn.append(sampling._sample_candidates(
                    model, h, caches, n, d_star, temperature, rng))
                contents.append([(c.fill, c.k[:c.fill].tobytes(), c.v[:c.fill].tobytes())
                                 for c in caches])
        return logits, drawn, contents, model.depth_row_count - rows_before

    got = run(bound)
    want = run(lambda *args: layer_composed_depth_step(model, *args))
    assert len(got[0]) == len(frames) * d_star
    for a, b in zip(got[0], want[0], strict=True):
        assert a.tobytes() == b.tobytes()
    for (rows, embs), (ref_rows, ref_embs) in zip(got[1], want[1], strict=True):
        np.testing.assert_array_equal(rows, ref_rows)
        assert embs.tobytes() == ref_embs.tobytes()
    assert got[2] == want[2]
    assert got[3] == want[3] == len(frames) * R * (1 + n * (d_star - 1))


# (temporal, S): S = 3 keeps the ids of the temporal kind alone; the others
# put the S rows on both sides of ``DOT_ROWS``
TEMPORAL_AND_SAMPLES = [pytest.param(kind, 3, id=kind) for kind in ("conv", "transformer")] + [
    pytest.param(kind, S, id=f"{kind}-S{S}") for kind in ("conv", "transformer")
    for S in (1, DOT_ROWS, DOT_ROWS + 1, 160)]


@pytest.mark.parametrize("temporal,S", TEMPORAL_AND_SAMPLES)
@pytest.mark.parametrize("style_mode", ["depth", "temporal"])
def test_bound_stream_matches_the_layer_composed_oracle(temporal, S, style_mode):
    """``TemporalStream.step`` on the arrays bound at its construction
    against the layer-composed oracle: every frame's rows, bit for bit."""
    model = oracle_model(temporal, style_mode)
    T = 9
    audio, style = model.context_features(*random_inputs(model.config, T))
    stream, oracle = TemporalStream(model, audio, style, S), layer_composed_stream(
        model, audio, style, S)
    embs = np.random.default_rng(4).normal(0.0, 1.0, (T, S, model.config.code_dim))
    for t in range(T):
        prev = None if t == 0 else embs[t - 1]
        assert stream.step(prev).tobytes() == oracle(t, prev).tobytes(), f"frame {t}"


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
def test_stream_refuses_a_step_past_the_last_frame(temporal):
    model = make_model(replace(TINY_AR, temporal=temporal, temporal_layers=1))
    y, s = random_inputs(TINY_AR, T=3)
    stream = TemporalStream(model, *model.context_features(y, s), 2)
    committed = None
    for _ in range(3):
        stream.step(committed)
        committed = np.zeros((2, TINY_AR.code_dim))
    with pytest.raises(ShapeError, match="3 frames"):
        stream.step(committed)


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
def test_stream_refuses_embeddings_of_another_shape(temporal):
    """``step`` takes (S, N_C) embeddings of the frame before: another row
    count, another width or one row for all raises ``ShapeError``, and the
    stream stays at its frame."""
    model = make_model(replace(TINY_AR, temporal=temporal, temporal_layers=1))
    stream = TemporalStream(model, *model.context_features(*random_inputs(TINY_AR, T=3)), 2)
    stream.step(None)
    for bad in ((3, TINY_AR.code_dim), (2, TINY_AR.code_dim + 1), (TINY_AR.code_dim,)):
        with pytest.raises(ShapeError, match=r"\(samples, code_dim\)"):
            stream.step(np.zeros(bad))
    assert stream.step(np.zeros((2, TINY_AR.code_dim))).shape == (2, TINY_AR.width)
    assert stream.t == 2


@pytest.mark.parametrize("temporal", ["conv", "transformer"])
def test_stream_refuses_audio_features_that_are_not_t_by_width(temporal):
    """``TemporalStream`` takes the (T, H) audio features of one driving
    signal: 1-D features or another width raise ``ShapeError``."""
    model = make_model(replace(TINY_AR, temporal=temporal, temporal_layers=1))
    audio, style = model.context_features(*random_inputs(TINY_AR, T=3))
    for bad in (audio[0], audio[:, :-1], audio[None]):
        with pytest.raises(ShapeError, match=r"are not \(T, 8\)"):
            TemporalStream(model, bad, style, 2)


def test_context_and_style_prefix_refuse_inputs_of_another_rank():
    """A driving signal or style reference that is not 2-D, or style
    embeddings that are not (B, width), raise ``ShapeError`` at the entry of
    ``context_features`` and of ``depth_prefix`` (so ``depth_caches``)."""
    model = make_model()
    y, s = random_inputs(TINY_AR, T=4)
    for bad in ((y[:, 0], s), (y, s[:, 0]), (y[None], s), (y, s[None])):
        with pytest.raises(ShapeError, match=r"\(T, A\) audio and \(T_s, 3V\) style"):
            model.context_features(*bad)
    style = model.context_features(y, s)[1]
    for bad in (style, style[None, None], np.zeros((1, TINY_AR.width + 1))):
        with pytest.raises(ShapeError, match=r"\(B, width\)"):
            model.depth_prefix(bad)
        with pytest.raises(ShapeError, match=r"\(B, width\)"):
            model.depth_caches(bad, 2, TINY_AR.depth)
    with pytest.raises(ShapeError, match="rows >= 1"):
        model.depth_caches(style[None], 0, TINY_AR.depth)


def test_stream_conv_memory_does_not_grow_with_frames():
    """Each causal conv keeps a ring of (k − 1)·d + 1 input rows, so a conv
    stream built and stepped over T = 4,096 frames allocates no more than
    over T = 8; buffers of (k − 1)·d + T rows took 4 MB more."""
    model = make_model()
    peaks = []
    for T in (8, 4096):
        audio, style = model.context_features(*random_inputs(TINY_AR, T))
        tracemalloc.start()
        try:
            stream = TemporalStream(model, audio, style, 4)
            for t in range(8):
                stream.step(None if t == 0 else np.zeros((4, TINY_AR.code_dim)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 4096, peaks


def test_depth_pass_counter_counts_rows():
    model = make_model()
    h = np.zeros((3, TINY_AR.width))
    cache = model.depth_caches(np.zeros((1, TINY_AR.width)), 3, TINY_AR.depth)
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
        TemporalStream(model, audio, style, 2)
    assert TemporalStream(model, audio[:5], style, 2).step(None).shape == (2, 8)


def test_stochastic_grid_tends_to_argmin_at_low_tau():
    rng = np.random.default_rng(8)
    codebook = rng.normal(0.0, 1.0, (6, 4))
    z = rng.normal(0.0, 1.0, (10, 4))
    from rvqsynth.codec import rvq_quantize_frames
    hard = rvq_quantize_frames(z, codebook, 3).grid
    soft = rvq_quantize_frames(z, codebook, 3, temperature=1e-9,
                               rng=np.random.default_rng(9)).grid
    np.testing.assert_array_equal(soft, hard)


def callback_walk(z, codebook, depth, choose):
    """The grid of the residual walk that ``choose(d, d2)`` steers, as the
    quantizer walked before its temperature replaced the callback."""
    residual = np.asarray(z, dtype=np.float64).copy()
    grid = np.zeros((len(residual), depth), dtype=np.int64)
    for d in range(depth):
        grid[:, d] = choose(d, squared_distances(residual, codebook))
        residual = residual - codebook[grid[:, d]]
    return grid


def callback_soft_targets(z, grid, codebook, eps, alpha):
    """Soft targets as a side effect of a callback walk along ``grid``."""
    T, D = grid.shape
    out = np.zeros((T, D, codebook.shape[0]))

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

    callback_walk(z, codebook, D, smooth)
    return out


def tie_heavy_case(rng):
    """Latents and a codebook on an integer lattice, scaled by a power of two
    (so exact ties stay exact), with a duplicated code."""
    C, E, T = int(rng.integers(2, 9)), int(rng.integers(1, 5)), int(rng.integers(1, 7))
    scale = 2.0 ** int(rng.integers(-10, 11))
    codebook, z = rng.integers(-2, 3, (C, E)) * scale, rng.integers(-3, 4, (T, E)) * scale
    if rng.random() < 0.5:  # real-valued instead, at a scale from 1e-3 to 1e3
        scale = 10.0 ** rng.uniform(-3, 3)
        codebook, z = rng.normal(0, scale, (C, E)), rng.normal(0, scale, (T, E))
    codebook[-1] = codebook[0]
    return z, codebook


def test_soft_targets_match_the_callback_walk_bitwise():
    rng = np.random.default_rng(12)
    for _ in range(200):
        z, codebook = tie_heavy_case(rng)
        D = int(rng.integers(1, 5))
        grid = (rvq_quantize_frames(z, codebook, D).grid if rng.random() < 0.5
                else rng.integers(0, len(codebook), (len(z), D)))  # not the argmin
        eps, alpha = rng.choice([0.0, 0.1, 2.0]), rng.choice([0.0, 0.1, 0.9])
        want = callback_soft_targets(z, grid, codebook, eps, alpha)
        got = soft_target_distributions(z, grid, codebook, eps, alpha)
        assert got.tobytes() == want.tobytes()


def test_quantizer_at_a_temperature_matches_the_callback_walk_bitwise():
    """Temperature 0 is the argmin walk; a positive one the Boltzmann walk
    with the same draws from the same seed."""
    rng = np.random.default_rng(13)
    for case in range(200):
        z, codebook = tie_heavy_case(rng)
        D = int(rng.integers(1, 5))
        np.testing.assert_array_equal(
            rvq_quantize_frames(z, codebook, D).grid,
            callback_walk(z, codebook, D, lambda _, d2: np.argmin(d2, axis=1)))
        tau = float(rng.choice([1e-3, 0.05, 1.0])) * float(np.abs(codebook).max() + 1) ** 2
        draws = np.random.default_rng(case)
        want = callback_walk(z, codebook, D,
                             lambda _, d2: sample_categorical(-d2, tau, draws))
        got = rvq_quantize_frames(z, codebook, D, tau, np.random.default_rng(case)).grid
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("stochastic,soft", [(True, False), (False, True), (True, True)])
def test_train_ar_with_sampled_or_smoothed_targets(tiny_corpus, tiny_codec, stochastic, soft):
    """One epoch per target mode: a finite history, the same bits twice."""
    cfg = ARConfig(code_dim=6, codebook_size=8, depth=3, width=8, audio_dim=4,
                   motion_dim=12, heads=2, depth_layers=1, epochs=1, batch=8, seed=4,
                   stochastic_targets=stochastic, soft_targets=soft)
    (m1, h1), (m2, h2) = (train_ar(tiny_codec, tiny_corpus, cfg) for _ in range(2))
    assert np.isfinite([row["loss"] for row in h1]).all() and h1 == h2
    for name, p in m1.parameters().items():
        assert p.data.tobytes() == m2.parameters()[name].data.tobytes(), name


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
