"""Acceptance gate: twelve binary criteria, one PASS/FAIL line each.

Criteria 1-4, 6, 7, and 11 are property/oracle checks on small models;
criteria 5, 8, 9, 10, and 12 run against the desk-scale pipeline trained once
per session by the ``pipeline`` fixture (see conftest).
"""

import itertools
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rvqsynth.armodel import ARConfig, ARModel
from rvqsynth.cli import run_evaluation
from rvqsynth.codec import (Codec, CodecConfig, reconstruction_mse,
                            rvq_quantize_frames, train_codec)
from rvqsynth.data import CorpusConfig, generate_corpus
from rvqsynth.metrics import (StyleNet, SyncNet, coverage_error,
                              cosine_similarity, frechet_distance,
                              lip_vertex_error, mean_estimate_error,
                              shift_detection_rate, speaker_centroids,
                              style_rank)
from rvqsynth.nn import (Conv1d, Dense, SelfAttention, finite_difference_grad)
from rvqsynth.sampling import (SamplingConfig, average_aggregate, distill,
                               generate_batch, knn_aggregate, syncnet_reject)
from rvqsynth.tensor import Tensor


_capture_disabled = None


@pytest.fixture(autouse=True)
def _live_reports(capfd):
    """Let the one-line criterion verdicts through pytest's capture."""
    global _capture_disabled
    _capture_disabled = capfd.disabled
    yield
    _capture_disabled = None


def report(criterion: str, ok: bool, detail: str):
    line = f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}"
    if _capture_disabled is not None:
        with _capture_disabled():
            print(f"\n{line}")
    else:
        print(f"\n{line}")
    assert ok, f"{criterion}: {detail}"


TINY_AR = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                   seed=0)


def tiny_model(seed=0):
    rng = np.random.default_rng(seed)
    codebook = rng.normal(0.0, 1.0, (3, 4))
    return ARModel(TINY_AR, codebook, rng)


# -- 1. gradient correctness -----------------------------------------------------


def _layer_instances(rng):
    """One randomized instance per layer kind, cycling."""
    makers = [
        lambda: (Dense(3, 2, rng), (2, 3)),
        lambda: (Conv1d(2, 3, 3, rng, mode="causal"), (1, 5, 2)),
        lambda: (Conv1d(2, 2, 3, rng, mode="same"), (1, 5, 2)),
        lambda: (Conv1d(2, 2, 2, rng, dilation=2, mode="causal"), (1, 6, 2)),
        lambda: (SelfAttention(4, 2, rng, causal=True), (1, 3, 4)),
        lambda: (SelfAttention(4, 2, rng, causal=False), (1, 3, 4)),
    ]
    for i in itertools.count():
        yield makers[i % len(makers)]()


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    worst = 0.0
    gen = _layer_instances(rng)
    for _ in range(100):
        layer, shape = next(gen)
        x0 = rng.normal(0.0, 1.0, shape)
        weights = rng.normal(0.0, 1.0, shape[:-1] + (layer.spec.get(
            "out_dim", shape[-1]),))

        def scalar_from(x):
            return float((layer(Tensor(x)) * Tensor(weights)).sum().data)

        t = Tensor(x0.copy(), requires_grad=True)
        layer.zero_grad()
        (layer(t) * Tensor(weights)).sum().backward()
        checks = [(t.grad, finite_difference_grad(scalar_from, x0.copy()))]
        for p in layer.parameters().values():
            def scalar_from_param(arr, p=p):
                saved = p.data
                p.data = arr
                out = scalar_from(x0)
                p.data = saved
                return out
            checks.append((p.grad,
                           finite_difference_grad(scalar_from_param,
                                                  p.data.copy())))
        for got, num in checks:
            # floor the denominator: some gradients are analytically zero
            # (e.g. key bias under softmax), leaving only roundoff noise
            scale = max(np.linalg.norm(num), 1e-4)
            worst = max(worst, np.linalg.norm(got - num) / scale)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-4 and elapsed < 30.0
    report("criterion 1 (gradient correctness)", ok,
           f"worst rel err {worst:.2e} over 100 instances in {elapsed:.1f}s "
           f"(bounds: 1e-4, 30s)")


# -- 2. quantizer oracle -----------------------------------------------------------


def _exhaustive(z, codebook, depth):
    residual = z.astype(np.float64).copy()
    out = []
    for _ in range(depth):
        best, best_d = 0, np.inf
        for c in range(codebook.shape[0]):
            d = float(((residual - codebook[c]) ** 2).sum())
            if d < best_d:
                best, best_d = c, d
        out.append(best)
        residual = residual - codebook[best]
    return np.array(out)


def test_criterion_02_quantizer_oracle():
    rng = np.random.default_rng(1)
    mismatches = 0
    for _ in range(1000):
        C = int(rng.integers(2, 65))
        E = int(rng.integers(1, 17))
        D = int(rng.integers(1, 5))
        codebook = rng.normal(0.0, 1.0, (C, E))
        z = rng.normal(0.0, 1.0, (1, E))
        res = rvq_quantize_frames(z, codebook, D)
        if not np.array_equal(res.grid[0], _exhaustive(z[0], codebook, D)):
            mismatches += 1
            continue
        # additive composition, exact
        if not np.array_equal(res.quantized[0],
                              codebook[res.grid[0]].sum(axis=0)):
            mismatches += 1
            continue
        # prefix determinism, exact
        for d in range(1, D):
            if not np.array_equal(rvq_quantize_frames(z, codebook, d).grid,
                                  res.grid[:, :d]):
                mismatches += 1
                break
    report("criterion 2 (quantizer oracle)", mismatches == 0,
           f"{mismatches}/1000 instances disagreed with exhaustive argmin")


# -- 3. AR normalization ------------------------------------------------------------


def test_criterion_03_ar_normalization():
    model = tiny_model()
    rng = np.random.default_rng(2)
    y = rng.normal(0.0, 1.0, (2, 4))
    s = rng.normal(0.0, 1.0, (4, 12))
    grids = np.array(list(itertools.product(range(3), repeat=4)),
                     dtype=np.int64).reshape(-1, 2, 2)
    total = float(np.exp(model.sequence_log_probs(grids, y, s)).sum())
    err = abs(total - 1.0)
    report("criterion 3 (AR normalization)", err <= 1e-9,
           f"sum over 81 grids = 1 {'+' if total >= 1 else '-'} {err:.2e} "
           f"(tolerance 1e-9)")


# -- 4. causality -------------------------------------------------------------------


def test_criterion_04_causality():
    model = tiny_model()
    rng = np.random.default_rng(3)
    T = 10
    R = model.audio_radius
    fails = {"temporal-future": 0, "depth-later": 0, "audio-window": 0}
    for _ in range(200):
        y = rng.normal(0.0, 1.0, (T, 4))
        s = rng.normal(0.0, 1.0, (4, 12))
        grid = rng.integers(0, 3, (T, 2))
        base = model.forward_logits(y[None], s[None], grid[None]).data[0]

        # (a) perturb codes of strictly future frames
        t = int(rng.integers(0, T - 1))
        g2 = grid.copy()
        g2[t + 1:] = rng.integers(0, 3, g2[t + 1:].shape)
        out = model.forward_logits(y[None], s[None], g2[None]).data[0]
        fails["temporal-future"] += not np.array_equal(out[:t + 1],
                                                       base[:t + 1])

        # (b) perturb the same-or-later depth at the current frame
        t = int(rng.integers(0, T))
        d = int(rng.integers(0, 2))
        g3 = grid.copy()
        g3[t, d] = (g3[t, d] + 1 + int(rng.integers(0, 2))) % 3
        out = model.forward_logits(y[None], s[None], g3[None]).data[0]
        fails["depth-later"] += not (np.array_equal(out[:t], base[:t]) and
                                     np.array_equal(out[t, :d + 1],
                                                    base[t, :d + 1]))

        # (c) perturb audio beyond the visible window: frame t sees raw
        # audio through index t + R only
        t = int(rng.integers(0, T - R - 1))
        horizon = t + R + 1
        y2 = y.copy()
        y2[horizon:] += rng.normal(0.0, 5.0, y2[horizon:].shape)
        out = model.forward_logits(y2[None], s[None], grid[None]).data[0]
        fails["audio-window"] += not np.array_equal(out[:t + 1], base[:t + 1])
    total = sum(fails.values())
    report("criterion 4 (causality)", total == 0,
           f"bit-exact failures over 3x200 trials: {fails}")


# -- 5. coarse-to-fine ---------------------------------------------------------------


def test_criterion_05_coarse_to_fine(pipeline, trained_corpus, trained_codec):
    corpus, codec = trained_corpus, trained_codec
    val = corpus.split("val")
    var = float(np.var(np.stack([r.motion for r in val])))
    D = codec.config.depth
    mses = np.stack([reconstruction_mse(codec, val, depth_limit=d)
                     for d in range(1, D + 1)])
    mono_frac = float(np.all(np.diff(mses, axis=0) <= 1e-12, axis=0).mean())
    ratio = float(mses[-1].mean() / var)
    train_time = pipeline["timings"]["train-codec"]
    ok = mono_frac >= 0.95 and ratio <= 0.10 and train_time < 600.0
    report("criterion 5 (coarse-to-fine)", ok,
           f"monotone {mono_frac:.3f} (>=0.95), full-depth MSE/variance "
           f"{ratio:.3f} (<=0.10), codec training {train_time:.0f}s (<600s)")


# -- 6. metric identities --------------------------------------------------------------


def test_criterion_06_metric_identities():
    rng = np.random.default_rng(4)
    problems = []

    x = rng.normal(0.0, 1.0, (5, 12))
    sample = rng.normal(0.0, 1.0, (5, 12))
    lip = [0, 1]
    lv = lip_vertex_error(x, sample, lip)
    dup = [sample.copy() for _ in range(4)]
    if not (coverage_error(x, dup, lip) == lv
            and mean_estimate_error(x, dup, lip) == lv):
        problems.append("deterministic-generator equality")

    for case in range(500):
        crng = np.random.default_rng(case)
        xq = crng.normal(0.0, 1.0, (3, 12))
        pool = [crng.normal(0.0, 1.0, (3, 12)) for _ in range(6)]
        errs = [coverage_error(xq, pool[:n], lip) for n in range(1, 7)]
        if np.any(np.diff(errs) > 0.0):
            problems.append(f"coverage monotonicity (case {case})")
            break

    a = rng.normal(0.0, 1.0, (500, 6))
    fd_self = frechet_distance(a, a)
    if not abs(fd_self) <= 1e-8:
        problems.append(f"FD(A,A) = {fd_self:.2e}")

    g1 = rng.normal(0.0, 1.0, (10000, 1))
    g2 = rng.normal(3.0, 1.0, (10000, 1))
    closed = float((g1.mean() - g2.mean()) ** 2
                   + (g1.std(ddof=1) - g2.std(ddof=1)) ** 2)
    fd = frechet_distance(g1, g2)
    if not abs(fd - closed) <= 0.05 * closed:
        problems.append(f"1-D Gaussian FD {fd:.4f} vs closed form {closed:.4f}")

    report("criterion 6 (metric identities)", not problems,
           "all identities hold" if not problems else "; ".join(problems))


# -- 7. sampling algebra ----------------------------------------------------------------


def test_criterion_07_sampling_algebra():
    problems = []
    for case in range(200):
        rng = np.random.default_rng(case)
        n = int(rng.integers(1, 16))
        embs = rng.normal(0.0, 1.0, (n, 6))
        if not np.array_equal(knn_aggregate(embs, embs[0], n),
                              average_aggregate(embs)):
            problems.append(f"knn K=N != average (case {case})")
            break
        scores = rng.normal(0.0, 1.0, n)
        kept = syncnet_reject(embs, scores, keep_fraction=1.0)
        if not np.array_equal(average_aggregate(kept),
                              average_aggregate(embs)):
            problems.append(f"reject kf=1 != average (case {case})")
            break
    single = np.random.default_rng(0).normal(0.0, 1.0, (1, 9))
    if not np.array_equal(average_aggregate(single), single[0]):
        problems.append("average N=1 not identity")
    report("criterion 7 (sampling algebra)", not problems,
           "exact over 200 random cases" if not problems
           else "; ".join(problems))


# -- 8 & 9: desk-scale sampling trends ----------------------------------------------------


N_TREND_CLIPS = 4
N_TREND_SAMPLES = 8


@pytest.fixture(scope="module")
def trend_runs(pipeline, trained_corpus, trained_codec):
    """Default vs average-N20 evaluations over three evaluation seeds."""
    model = ARModel.load(pipeline["ar"])
    sync2 = SyncNet.load(pipeline["sync2"])
    stylenet, _ = StyleNet.load(pipeline["style"])
    runs = {}
    for strategy, n in (("default", 1), ("average", 20)):
        for seed in range(3):
            cfg = SamplingConfig(strategy=strategy, n=n, seed=seed)
            runs[(strategy, seed)] = run_evaluation(
                trained_corpus, trained_codec, model, None, sync2, stylenet,
                cfg, N_TREND_SAMPLES, N_TREND_CLIPS, seed)
    return runs


def test_criterion_08_tradeoff_trend(trend_runs):
    sync_wins = var_wins = 0
    details = []
    for seed in range(3):
        d = trend_runs[("default", seed)]
        a = trend_runs[("average", seed)]
        sync_wins += a["sync2_score"] > d["sync2_score"]
        var_wins += a["diversity"] < d["diversity"]
        details.append(f"seed {seed}: sync {d['sync2_score']:.3f}->"
                       f"{a['sync2_score']:.3f}, var {d['diversity']:.4f}->"
                       f"{a['diversity']:.4f}")
    ok = sync_wins >= 2 and var_wins >= 2
    report("criterion 8 (diversity/fidelity trade-off)", ok,
           f"avg-N20 sync higher {sync_wins}/3, variance lower {var_wins}/3; "
           + "; ".join(details))


def test_criterion_09_style_trend(trend_runs):
    sim_wins = rank_wins = 0
    details = []
    for seed in range(3):
        d = trend_runs[("default", seed)]
        sim_wins += d["style_similarity"] > d["style_similarity_other"]
        rank_wins += d["style_rank"] < d["style_rank_chance"]
        details.append(f"seed {seed}: sim {d['style_similarity']:.3f} vs "
                       f"other {d['style_similarity_other']:.3f}, rank "
                       f"{d['style_rank']:.1f} vs chance "
                       f"{d['style_rank_chance']:.1f}")
    ok = sim_wins >= 2 and rank_wins >= 2
    report("criterion 9 (style pathway trend)", ok,
           f"similarity wins {sim_wins}/3, rank wins {rank_wins}/3; "
           + "; ".join(details))


# -- 10. sync-net sanity ---------------------------------------------------------------


def test_criterion_10_sync_shift_detection(pipeline, trained_corpus):
    held_out = trained_corpus.split("test") + trained_corpus.split("val")
    rates = {}
    for variant in (1, 2):
        net = SyncNet.load(pipeline[f"sync{variant}"])
        rates[variant] = shift_detection_rate(net, held_out, shift=1)
    ok = all(r >= 0.80 for r in rates.values())
    report("criterion 10 (sync-net shift detection)", ok,
           f"1-frame detection on {len(held_out)} held-out clips: "
           f"variant 1 = {rates[1]:.3f}, variant 2 = {rates[2]:.3f} (>=0.80)")


# -- 11. distillation ------------------------------------------------------------------


def test_criterion_11_distillation():
    corpus = generate_corpus(CorpusConfig(num_speakers=6, seqs_per_speaker=4,
                                          frames=8, vertices=4, audio_dim=4,
                                          seed=1))
    codec_cfg = CodecConfig(input_dim=12, depth=2, codebook_size=3,
                            code_dim=4, epochs=3, seed=0)
    codec, _ = train_codec(corpus, codec_cfg)
    cfg = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                   audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                   epochs=5, lr=5e-3, batch=8, seed=0)
    teacher = ARModel(cfg, codec.codebook.data.copy(),
                      np.random.default_rng(0))

    # the student after e = 0, ..., epochs epochs: a fit of e epochs makes
    # the draws of a longer fit's first e epochs, so it is that fit's
    # checkpoint at epoch e, bit for bit
    checkpoints = []
    for epochs in range(cfg.epochs + 1):
        student, _ = distill(
            teacher, codec, corpus, SamplingConfig(strategy="average", n=4,
                                                   seed=0),
            student_config=replace(cfg, epochs=epochs))
        checkpoints.append({k: p.data.copy() for k, p in student.parameters().items()})

    # KL from the aggregated target distribution to the student is the mean
    # negative log-likelihood of the relabeled grids (deterministic targets),
    # evaluated by exact sequence enumeration at every checkpoint.
    from rvqsynth.armodel import prepare_sequences
    from rvqsynth.sampling import relabel_grids
    rng = np.random.default_rng(cfg.seed + 1)
    prepared = prepare_sequences(codec, corpus, corpus.split("train"), rng)
    targets = relabel_grids(teacher, codec, prepared,
                            SamplingConfig(strategy="average", n=4, seed=0),
                            rng)
    params = student.parameters()
    kls = []
    for snap in checkpoints:
        for k, p in params.items():
            p.data = snap[k]
        total = 0.0
        for p, tgt in zip(prepared, targets):
            total -= student.sequence_log_prob(tgt, p.audio, p.style)
        kls.append(total / len(prepared))
    monotone = bool(np.all(np.diff(kls) < 0.0))

    # exactly one depth pass per (t, d) during plain student inference
    student.depth_pass_count = 0
    rec = corpus.split("test")[0]
    generate_batch(student, codec, rec.audio, rec.motion,
                   SamplingConfig(strategy="default", n=1, seed=0))
    T, D = rec.audio.shape[0], cfg.depth
    passes_ok = student.depth_pass_count == T * D
    ok = monotone and passes_ok
    report("criterion 11 (distillation)", ok,
           f"KL sequence {[round(k, 4) for k in kls]} monotone={monotone}; "
           f"depth passes {student.depth_pass_count} (expected {T * D})")


# -- 12. end-to-end smoke ---------------------------------------------------------------


def test_criterion_12_end_to_end_smoke(pipeline):
    timings = pipeline["timings"]
    total = sum(timings.values())
    table = Path(pipeline["eval_dir"], "table.txt").read_text()
    expected = ("l_vertex", "l_cover", "l_mean", "diversity", "sync1_score",
                "sync1_fd", "sync2_score", "sync2_fd", "style_similarity",
                "style_rank", "style_fd")
    missing = [k for k in expected if k not in table]
    ok = total < 1800.0 and not missing
    steps = ", ".join(f"{k} {v:.0f}s" for k, v in timings.items())
    report("criterion 12 (end-to-end smoke)", ok,
           f"pipeline total {total:.0f}s (<1800s): {steps}; "
           f"missing table rows: {missing or 'none'}")
