"""Seeded inputs, op checks and the result layout of the benchmark."""

import json
import math
from pathlib import Path

import numpy as np

import harness
import workloads
from rvqsynth import data

ROOT = Path(__file__).resolve().parents[2]
GENERATE_KINDS = (workloads.WORKLOADS["generate-long"].kinds
                  + workloads.WORKLOADS["generate-aggregate"].kinds)


def test_same_seed_gives_same_inputs():
    a = data.generate_corpus(workloads.corpus_config(7))
    b = data.generate_corpus(workloads.corpus_config(7))
    c = data.generate_corpus(workloads.corpus_config(8))
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.motion, rb.motion)
        np.testing.assert_array_equal(ra.audio, rb.audio)
    assert not np.array_equal(a.records[0].motion, c.records[0].motion)
    state_a, state_b = workloads.State(a, None), workloads.State(b, None)
    for kind in GENERATE_KINDS:
        x = kind.inputs(state_a, 7, 3)
        y = kind.inputs(state_b, 7, 3)
        np.testing.assert_array_equal(x["y"], y["y"])
        np.testing.assert_array_equal(x["style"], y["style"])
        assert x["rng"].random() == y["rng"].random()
    long_kind = workloads.WORKLOADS["generate-long"].kinds[0]
    assert not np.array_equal(long_kind.inputs(state_a, 7, 3)["y"],
                              long_kind.inputs(state_a, 7, 4)["y"])


SAMPLES, N, T, D, C = 2, 3, 5, 2, 4


def _generate_kind(output):
    return workloads.OpKind(
        "fake", lambda state, seed, index: {"y": np.zeros((T, 8))},
        lambda state, inputs: output,
        lambda state, inputs, out: workloads.check_generated(
            state, inputs, out, SAMPLES, N),
        lambda state: SAMPLES * T, frames=SAMPLES * T)


def _generate_state():
    model = type("M", (), {})()
    model.config = type("Cfg", (), {"depth": D, "codebook_size": C})()
    return workloads.State(None, None, model=model)


def _good_output():
    grids = np.arange(SAMPLES * T * D).reshape(SAMPLES, T, D) % C
    return np.zeros((SAMPLES, T, workloads.MOTION_DIM)), grids, SAMPLES * N * T * D


def _run(kind, state):
    counts = harness.Counts()
    done = harness._run_op(kind, state, 0, 0, counts)
    return done, counts


def test_good_generate_output_passes_and_is_fingerprinted():
    done, counts = _run(_generate_kind(_good_output()), _generate_state())
    assert (counts.attempted, counts.failed) == (1, 0)
    seconds, fingerprint = done
    assert seconds >= 0.0 and len(fingerprint["grids_sha256"]) == 64


def test_corrupted_generate_output_is_a_failed_op():
    motions, grids, passes = _good_output()
    bad_index = grids.copy()
    bad_index[1, 2, 1] = C
    nan_motion = motions.copy()
    nan_motion[0, 0, 0] = np.nan
    for output in [(motions, bad_index, passes),
                   (motions, grids[:, :, :1], passes),
                   (nan_motion, grids, passes),
                   (motions, grids, passes - 1)]:
        done, counts = _run(_generate_kind(output), _generate_state())
        assert done is None and (counts.attempted, counts.failed) == (1, 1)


def _train_kind(history):
    return workloads.OpKind("train_fake", lambda state, seed, index: {},
                            lambda state, inputs: history,
                            workloads._check_history("train_fake"),
                            lambda state: 1)


def test_non_finite_or_irreproducible_history_is_a_failed_op():
    state = workloads.State(None, None)
    good = [{"epoch": e, "loss": 1.0 / (e + 1)} for e in range(workloads.TRAIN_EPOCHS)]
    assert _run(_train_kind(good), state)[1].failed == 0
    nan_loss = [dict(row) for row in good]
    nan_loss[-1]["loss"] = math.nan
    drifted = [dict(row) for row in good]
    drifted[-1]["loss"] += 1e-9
    for history in (nan_loss, good[:1], drifted):
        done, counts = _run(_train_kind(history), state)
        assert done is None and counts.failed == 1


def test_tail_needs_ten_samples_beyond():
    assert harness.tail(range(10)) is None
    assert harness.tail(range(1, 12)) == (100.0 / 11, 1)
    assert harness.tail(range(1, 101)) == (90.0, 90)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == harness.per_layer_metrics()


def test_traced_run_reports_every_metric(tmp_path):
    result = harness.run(workloads.WORKLOADS["generate-long"], 3, 0.01, True,
                         tmp_path, setup_repeats=1)
    assert result.counts.failed == 0
    assert set(harness.end_to_end(result)) == set(harness.END_TO_END)
    layers = harness.per_layer(result)
    assert [name for name, _, _ in harness.per_layer_metrics()] == list(layers)
    assert layers["armodel.depth_passes_per_frame"]["value"] == 4.0
    assert layers["sampling.generate_batch.calls"]["value"] == 1.0
    assert layers["tensor.backward.calls"]["value"] == 0.0
    assert list(tmp_path.iterdir()) == []
