import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvqsynth.metrics import (StyleConfig, StyleNet, SyncConfig, SyncNet,
                              cosine_similarity, coverage_error,
                              frechet_distance, gaussian_stats,
                              infonce_batch, infonce_loss, lip_vertex_error,
                              mean_estimate_error, pair_hidden,
                              shift_detection_rate, speaker_centroids,
                              style_rank, train_style_net, train_sync_net)
from rvqsynth.nn import finite_difference_grad
from rvqsynth.tensor import (ShapeError, Tensor, broadcast_to, concat,
                             leaky_relu, mean)


# -- lip vertex errors -----------------------------------------------------------


def test_lip_vertex_error_manual_case():
    x = np.zeros((2, 9))       # 3 vertices
    xhat = np.zeros((2, 9))
    xhat[1, 3:6] = [3.0, 4.0, 0.0]   # vertex 1 displaced by 5
    assert lip_vertex_error(x, xhat, [0, 1]) == 5.0
    assert lip_vertex_error(x, xhat, [0]) == 0.0


def test_lip_error_input_validation():
    with pytest.raises(ShapeError):
        lip_vertex_error(np.zeros((2, 9)), np.zeros((3, 9)), [0])
    with pytest.raises(ValueError):
        lip_vertex_error(np.zeros((2, 9)), np.zeros((2, 9)), [])


def test_errors_coincide_for_deterministic_generator():
    rng = np.random.default_rng(0)
    x = rng.normal(0.0, 1.0, (5, 12))
    sample = rng.normal(0.0, 1.0, (5, 12))
    samples = [sample.copy() for _ in range(6)]
    lip = [0, 1]
    lv = lip_vertex_error(x, sample, lip)
    assert coverage_error(x, samples, lip) == lv
    assert mean_estimate_error(x, samples, lip) == lv


def test_coverage_error_monotone_under_sample_growth():
    rng = np.random.default_rng(1)
    x = rng.normal(0.0, 1.0, (4, 12))
    samples = [rng.normal(0.0, 1.0, (4, 12)) for _ in range(10)]
    lip = [0, 2]
    prev = np.inf
    for n in range(1, 11):
        cur = coverage_error(x, samples[:n], lip)
        assert cur <= prev
        prev = cur


# -- Fréchet distance ------------------------------------------------------------


def test_fd_of_identical_sets_is_zero():
    rng = np.random.default_rng(2)
    a = rng.normal(0.0, 1.0, (200, 6))
    assert abs(frechet_distance(a, a)) <= 1e-8


def test_fd_matches_1d_closed_form():
    rng = np.random.default_rng(3)
    a = rng.normal(0.0, 1.0, (10000, 1))
    b = rng.normal(3.0, 1.0, (10000, 1))
    # closed form for 1-D Gaussians: (mu_a-mu_b)^2 + (sigma_a-sigma_b)^2
    mu_a, sig_a = a.mean(), a.std(ddof=1)
    mu_b, sig_b = b.mean(), b.std(ddof=1)
    want = (mu_a - mu_b) ** 2 + (sig_a - sig_b) ** 2
    got = frechet_distance(a, b)
    assert abs(got - want) <= 0.05 * max(want, 1e-12)


def test_fd_is_symmetric_and_nonnegative():
    rng = np.random.default_rng(4)
    a = rng.normal(0.0, 1.0, (300, 4))
    b = rng.normal(0.5, 2.0, (300, 4))
    ab, ba = frechet_distance(a, b), frechet_distance(b, a)
    assert abs(ab - ba) < 1e-8
    assert ab > 0.0


def test_gaussian_stats_validation():
    with pytest.raises(ValueError):
        gaussian_stats(np.zeros((1, 3)))
    with pytest.raises(ShapeError):
        frechet_distance(np.zeros((5, 3)), np.zeros((5, 4)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_fd_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 1.0, (50, 3))
    b = rng.normal(rng.normal(), np.exp(rng.normal(0, 0.3)), (50, 3))
    assert frechet_distance(a, b) >= -1e-10


# -- sync nets -------------------------------------------------------------------


def sync_cfg(variant):
    return SyncConfig(variant=variant, motion_dim=12, audio_dim=4, width=8,
                      emb_dim=6, window=8, epochs=2, batch=8,
                      clips_per_batch=2, shifts=(0, 1, 2, 4), seed=0)


@pytest.mark.parametrize("variant", [1, 2])
def test_sync_training_reduces_loss(tiny_corpus, variant):
    net, history = train_sync_net(tiny_corpus, variant, sync_cfg(variant))
    assert history[-1]["loss"] < history[0]["loss"]


def test_trainers_leave_caller_config_unchanged(tiny_corpus):
    sync = sync_cfg(2)
    net, _ = train_sync_net(tiny_corpus, 1, sync)
    assert sync == sync_cfg(2) and net.config.variant == 1
    style = replace(style_cfg(), epochs=1)
    net, speakers, _ = train_style_net(tiny_corpus, style)
    assert style == replace(style_cfg(), epochs=1)
    assert net.config.num_classes == len(speakers)


def test_sync_variant2_score_is_cosine(tiny_corpus):
    net = SyncNet(sync_cfg(2))
    rec = tiny_corpus.records[0]
    score = net.score(rec.motion, rec.audio)
    m = net.embed_mesh(rec.motion)
    a_f = net.audio_frames(Tensor(net._fit_window(rec.audio)[None]))
    from rvqsynth.metrics import _normalize_rows
    a = _normalize_rows(net._window_embed(a_f, net.audio_proj)).data[0]
    assert abs(score - float(m @ a)) < 1e-12
    assert -1.0 - 1e-9 <= score <= 1.0 + 1e-9


def sync1_net():
    """A variant-1 net whose biases are nonzero, so the bias path is tested."""
    net = SyncNet(sync_cfg(1))
    rng = np.random.default_rng(5)
    for p in (net.fuse_conv.bias, net.score_head.bias):
        p.data = rng.normal(0.0, 1.0, p.data.shape)
    return net


def replicated_score_matrix(net, mesh_f, audio_f):
    """All-pairs variant-1 scores by running fuse_conv on all B*B
    concatenated (mesh, audio) windows."""
    B, W, E = mesh_f.shape
    mrep = broadcast_to(mesh_f.reshape(B, 1, W, E), (B, B, W, E))
    arep = broadcast_to(audio_f.reshape(1, B, W, E), (B, B, W, E))
    fused = concat([mrep.reshape(B * B, W, E), arep.reshape(B * B, W, E)], axis=2)
    h = leaky_relu(net.fuse_conv(fused)).mean(axis=1)
    return net.score_head(h).reshape(B, B)


def test_factored_score_matrix_matches_replicated_pairs():
    net = sync1_net()
    rng = np.random.default_rng(6)
    mesh = rng.normal(0.0, 1.0, (5, 8, 6))
    audio = rng.normal(0.0, 1.0, (5, 8, 6))
    weights = rng.normal(0.0, 1.0, (5, 5))

    def run(score_matrix):
        net.zero_grad()
        m, a = Tensor(mesh, requires_grad=True), Tensor(audio, requires_grad=True)
        scores = score_matrix(m, a)
        (scores * Tensor(weights)).sum().backward()
        # a parameter the scores do not reach keeps no gradient (None)
        grads = {k: np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                 for k, p in net.parameters().items()}
        return scores.data, m.grad, a.grad, grads

    new = run(net.score_matrix)
    ref = run(lambda m, a: replicated_score_matrix(net, m, a))
    for a, b in zip(new[:3], ref[:3]):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    assert new[3].keys() == ref[3].keys()
    for name in new[3]:
        np.testing.assert_allclose(new[3][name], ref[3][name],
                                   rtol=1e-12, atol=1e-12, err_msg=name)


def composed_pair_hidden(m, a):
    """The pair node's broadcast form over the whole (B_m, B_a, W, O) sum."""
    (Bm, W, O), Ba = m.shape, a.shape[0]
    return mean(leaky_relu(m.reshape(Bm, 1, W, O) + a.reshape(1, Ba, W, O)), axis=-2)


# (B_m, B_a, W, O): one block; blocks of 3 rows and a last of 1; one row per
# block (the default SyncConfig's shape); one audio row, as SyncNet.score
PAIR_SHAPES = [(5, 5, 8, 6), (10, 10, 20, 48), (64, 64, 20, 24), (7, 1, 20, 24)]


@pytest.mark.parametrize("shape", PAIR_SHAPES)
def test_pair_node_matches_broadcast_composition(shape):
    """h, dm and da bit for bit; an array gives an array with h's bits."""
    Bm, Ba, W, O = shape
    r = np.random.default_rng(8)
    md, ad = r.normal(0.0, 1.0, (Bm, W, O)), r.normal(0.0, 1.0, (Ba, W, O))
    w = r.normal(0.0, 1.0, (Bm, Ba, O))

    def run(fn):
        m, a = Tensor(md, requires_grad=True), Tensor(ad, requires_grad=True)
        h = fn(m, a)
        (h * Tensor(w)).sum().backward()
        return h.data, m.grad, a.grad

    got, want = run(pair_hidden), run(composed_pair_hidden)
    for g, h in zip(got, want):
        np.testing.assert_array_equal(g.view(np.uint64), h.view(np.uint64))
    out = pair_hidden(md, ad)
    assert type(out) is np.ndarray
    np.testing.assert_array_equal(out.view(np.uint64), want[0].view(np.uint64))


@pytest.mark.parametrize("Bm,Ba", [(3, 4), (4, 1)])
def test_pair_node_grads_match_finite_differences(Bm, Ba):
    r = np.random.default_rng(9)
    md, ad = r.normal(0.0, 1.0, (Bm, 5, 3)), r.normal(0.0, 1.0, (Ba, 5, 3))
    w = r.normal(0.0, 1.0, (Bm, Ba, 3))
    m, a = Tensor(md, requires_grad=True), Tensor(ad, requires_grad=True)
    (pair_hidden(m, a) * Tensor(w)).sum().backward()
    for x, grad, loss in (
            (md, m.grad, lambda x: float((pair_hidden(x, ad) * w).sum())),
            (ad, a.grad, lambda x: float((pair_hidden(md, x) * w).sum()))):
        np.testing.assert_allclose(grad, finite_difference_grad(loss, x.copy()),
                                   rtol=1e-6, atol=1e-8)


def test_sync1_infonce_step_never_holds_a_pairs_array():
    """tracemalloc sees numpy's buffers: one variant-1 InfoNCE forward and
    backward at the default shapes peaks below one (B, B, W, width) array."""
    cfg = SyncConfig(variant=1)
    net = SyncNet(cfg)
    r = np.random.default_rng(10)
    meshes = r.normal(0.0, 1.0, (cfg.batch, cfg.window, cfg.motion_dim))
    audios = r.normal(0.0, 1.0, (cfg.batch, cfg.window, cfg.audio_dim))
    tracemalloc.start()
    try:
        infonce_loss(net, meshes, audios).backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < cfg.batch ** 2 * cfg.window * cfg.width * 8


@pytest.mark.parametrize("variant", [1, 2])
def test_sync_score_is_score_matrix_diagonal(tiny_corpus, variant):
    net = sync1_net() if variant == 1 else SyncNet(sync_cfg(2))
    recs = tiny_corpus.records[:4]
    meshes = np.stack([net._fit_window(r.motion) for r in recs])
    audios = np.stack([net._fit_window(r.audio) for r in recs])
    matrix = net.score_matrix(net.mesh_frames(Tensor(meshes)),
                              net.audio_frames(Tensor(audios))).data
    scores = [net.score(r.motion, r.audio) for r in recs]
    np.testing.assert_allclose(np.diag(matrix), scores, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("variant", [1, 2])
@pytest.mark.parametrize("T", [3, 8, 12])  # below, at and above the window
def test_batched_score_matches_per_pair(tiny_corpus, variant, T):
    net = sync1_net() if variant == 1 else SyncNet(sync_cfg(2))
    motions = np.random.default_rng(T).normal(0.0, 1.0, (5, T, 12))
    y = tiny_corpus.records[0].audio[:T]
    batched = net.score(motions, y)
    assert batched.shape == (5,)
    pairs = [net.score(m, y) for m in motions]
    np.testing.assert_allclose(batched, pairs, rtol=1e-12, atol=1e-15)
    assert net.score(motions[:1], y).tolist() == pairs[:1]


@pytest.mark.parametrize("variant", [1, 2])
@pytest.mark.parametrize("T", [3, 8, 12])  # below, at and above the window
@pytest.mark.parametrize("B", [1, 3])
def test_batched_mesh_embedding_matches_per_sequence(variant, T, B):
    net = sync1_net() if variant == 1 else SyncNet(sync_cfg(2))
    motions = np.random.default_rng(T).normal(0.0, 1.0, (B, T, 12))
    batched = net.embed_mesh(motions)
    assert batched.shape == (B, 6)
    singles = [net.embed_mesh(m) for m in motions]
    assert singles[0].shape == (6,)
    np.testing.assert_allclose(batched, singles, rtol=1e-12, atol=1e-15)
    if B == 1:
        np.testing.assert_array_equal(batched[0], singles[0])
    np.testing.assert_array_equal(net.embed_mesh(motions[None]), batched[None])


def test_sync_score_requires_aligned_lengths(tiny_corpus):
    net = SyncNet(sync_cfg(1))
    rec = tiny_corpus.records[0]
    with pytest.raises(ShapeError):
        net.score(rec.motion, rec.audio[:-1])
    with pytest.raises(ShapeError):
        net.score(rec.motion[None], rec.audio[:-1])
    with pytest.raises(ShapeError):
        net.score(rec.motion[None, None], rec.audio)


def test_sync_net_refuses_a_one_dimensional_motion_or_audio(tiny_corpus):
    net = SyncNet(sync_cfg(2))
    rec = tiny_corpus.records[0]
    with pytest.raises(ShapeError, match=r"\(T, 3V\) or \(\.\.\., T, 3V\) motion"):
        net.embed_mesh(rec.motion[0])
    with pytest.raises(ShapeError, match=r"\(T, A\) audio"):
        net.score(rec.motion, rec.audio[:, 0])
    with pytest.raises(ShapeError, match=r"\(T, A\) audio"):
        net.score(rec.motion[None], rec.audio[None])


def test_sync_window_fitting():
    net = SyncNet(sync_cfg(2))
    long = np.arange(20.0)[:, None] * np.ones((1, 12))
    np.testing.assert_array_equal(net._fit_window(long), long[-8:])
    short = np.arange(3.0)[:, None] * np.ones((1, 12))
    fitted = net._fit_window(short)
    assert fitted.shape[0] == 8
    np.testing.assert_array_equal(fitted[:6], np.zeros((6, 12)))


def test_infonce_batch_layout(tiny_corpus):
    cfg = sync_cfg(2)
    rng = np.random.default_rng(0)
    meshes, audios = infonce_batch(tiny_corpus.split("train"), cfg, rng)
    assert meshes.shape == (8, 8, 12)
    assert audios.shape == (8, 8, 4)
    net = SyncNet(cfg)
    loss = infonce_loss(net, meshes, audios)
    assert np.isfinite(loss.data)


def test_sync_checkpoint_roundtrip(tiny_corpus, tmp_path):
    net, _ = train_sync_net(tiny_corpus, 1, sync_cfg(1))
    path = tmp_path / "sync.ckpt"
    net.save(path)
    back = SyncNet.load(path)
    rec = tiny_corpus.records[0]
    assert back.score(rec.motion, rec.audio) == net.score(rec.motion, rec.audio)


def test_shift_detection_rate_range(tiny_corpus):
    net, _ = train_sync_net(tiny_corpus, 2, sync_cfg(2))
    rate = shift_detection_rate(net, tiny_corpus.split("val"), shift=1)
    assert 0.0 <= rate <= 1.0


# -- style net -------------------------------------------------------------------


def style_cfg():
    return StyleConfig(motion_dim=12, width=8, emb_dim=6, epochs=15,
                       lr=3e-3, batch=8, seed=0)


@pytest.fixture(scope="module")
def style(tiny_corpus):
    return train_style_net(tiny_corpus, style_cfg())


def test_style_training_reduces_loss(style):
    _, _, history = style
    assert history[-1]["loss"] < history[0]["loss"]


def test_style_embeddings_separate_train_speakers(style, tiny_corpus):
    net, speakers, _ = style
    train = tiny_corpus.split("train")
    cents = speaker_centroids(train, net.embed(np.stack([r.motion for r in train])))
    correct = total = 0
    for rec in tiny_corpus.split("train"):
        emb = net.embed(rec.motion)
        pred = max(cents, key=lambda s: cosine_similarity(emb, cents[s]))
        correct += pred == rec.speaker_id
        total += 1
    assert correct / total > 0.5


def test_style_rank_definition():
    cents = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0]),
             2: np.array([-1.0, 0.0])}
    q = np.array([0.9, 0.1])
    assert style_rank(q, 0, cents) == 1
    assert style_rank(q, 1, cents) == 2
    assert style_rank(q, 2, cents) == 3
    with pytest.raises(KeyError):
        style_rank(q, 9, cents)


def test_margin_penalizes_true_class_logit(style):
    net, _, _ = style
    rng = np.random.default_rng(0)
    emb = Tensor(rng.normal(0.0, 1.0, (4, 6)))
    labels = np.array([0, 1, 2, 3])
    from rvqsynth.metrics import _normalize_rows
    logits = net.margin_logits(emb, labels).data
    plain = (_normalize_rows(emb).data
             @ _normalize_rows(net.class_weights).data.T) * net.config.scale
    picked = logits[np.arange(4), labels]
    plain_picked = plain[np.arange(4), labels]
    assert np.all(picked <= plain_picked + 1e-12)
    off = ~np.eye(logits.shape[1], dtype=bool)[labels.clip(max=logits.shape[1] - 1)]
    np.testing.assert_allclose(logits[off], plain[off], atol=1e-12)


def test_style_checkpoint_roundtrip(style, tiny_corpus, tmp_path):
    net, speakers, _ = style
    path = tmp_path / "style.ckpt"
    net.save(path, speakers)
    back, back_speakers = StyleNet.load(path)
    assert back_speakers == list(speakers)
    rec = tiny_corpus.records[0]
    np.testing.assert_array_equal(back.embed(rec.motion), net.embed(rec.motion))


def test_style_training_needs_two_speakers(tiny_corpus):
    from rvqsynth.data import Corpus
    records = [r for r in tiny_corpus.records if r.speaker_id ==
               tiny_corpus.split("train")[0].speaker_id]
    solo = Corpus(config=tiny_corpus.config, records=records)
    with pytest.raises(ValueError):
        train_style_net(solo, style_cfg())


@pytest.mark.parametrize("B", [1, 3])
def test_batched_style_embedding_matches_per_sequence(style, tiny_corpus, B):
    net, _, _ = style
    x = np.stack([r.motion for r in tiny_corpus.records[:B]])
    batched = net.embed(x)
    assert batched.shape == (B, 6)
    for i in range(B):
        single = net.embed(x[i])
        assert single.shape == (6,)
        np.testing.assert_array_equal(batched[i], single)
    np.testing.assert_array_equal(net.embed(Tensor(x)).data, batched)
    assert cosine_similarity(batched[0], batched[-1]) == pytest.approx(
        cosine_similarity(batched[-1], batched[0]), abs=1e-12)
