"""The benchmark's workloads: seeded inputs, set-up, ops and output checks.

Every workload is a closed loop driven by one client. An op is one call of a
public ``rvqsynth`` function; it fails if it raises or its output check
fails. A round is one op of each kind of the workload, in a fixed order.

- ``train``: one fit from fresh init per op, one trainer per kind, in
  pipeline order. Loads the tape backward pass, Adam, Conv1d/attention
  forward and ``rvq_quantize_frames``; never touches ``sampling``.
- ``generate-long``: ancestral sampling over a T=256 driving signal.
  ``temporal_context`` reruns over the whole prefix at every frame, so the
  cost grows as T**2 while the depth stage is narrow (S rows).
- ``generate-aggregate``: the three aggregating strategies on T=32 clips.
  The depth stage runs wide (S*N rows) and the temporal prefix is short;
  rejection adds one ``Codec.decode`` and one ``SyncNet.score`` per
  candidate.

All calls go through module attributes (``codec.train_codec``, not a name
bound at import), so spans installed by ``spans.installed`` see them.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from rvqsynth import armodel, codec, data, metrics, sampling

# Desk per-clip shape with fewer speakers: 4 speakers give 2 train speakers
# (32 clips), 1 validation and 1 test speaker (16 clips), so each fit lasts
# about a second.
CORPUS = dict(num_speakers=4, seqs_per_speaker=16, frames=32, vertices=20,
              audio_dim=8)
MOTION_DIM = 3 * CORPUS["vertices"]
TRAIN_EPOCHS = 2        # epochs per fit in the train workload
SETUP_EPOCHS = 1        # brief training of the models the generate ops use
LONG_FRAMES = 256


class OpCheckError(Exception):
    """An op returned output that fails its check."""


@dataclass
class OpKind:
    name: str
    inputs: Callable    # (state, seed, index) -> dict, untimed
    run: Callable       # (state, inputs) -> output, timed
    check: Callable     # (state, inputs, output) -> fingerprint dict
    items: Callable     # (state) -> examples or sampled frames per op
    frames: int = 0     # sampled frames per op (0 for training)


@dataclass
class Workload:
    name: str
    setup: Callable     # (seed, workdir) -> state
    kinds: list


@dataclass
class State:
    corpus: data.Corpus
    codec: codec.Codec
    model: armodel.ARModel | None = None
    sync: metrics.SyncNet | None = None
    reference: dict = field(default_factory=dict)  # kind -> first history


# -- set-up --------------------------------------------------------------------


def corpus_config(seed: int) -> data.CorpusConfig:
    return data.CorpusConfig(**CORPUS, seed=seed)


def _setup(seed: int, workdir, with_ar: bool, with_sync: bool) -> State:
    """Generate the corpus, briefly train the needed models, and round-trip
    each through a checkpoint file; the loaded copies are used."""
    workdir = Path(workdir)
    corpus = data.generate_corpus(corpus_config(seed))
    cdc, _ = codec.train_codec(corpus, codec.CodecConfig(
        input_dim=MOTION_DIM, epochs=SETUP_EPOCHS, seed=seed))
    cdc.save(workdir / "codec.ckpt", seed=seed)
    state = State(corpus, codec.Codec.load(workdir / "codec.ckpt"))
    if with_ar:
        model, _ = armodel.train_ar(state.codec, corpus, _ar_config(seed, SETUP_EPOCHS))
        model.save(workdir / "ar.ckpt", seed=seed)
        state.model = armodel.ARModel.load(workdir / "ar.ckpt")
    if with_sync:
        net, _ = metrics.train_sync_net(corpus, 2, metrics.SyncConfig(
            motion_dim=MOTION_DIM, audio_dim=CORPUS["audio_dim"],
            epochs=SETUP_EPOCHS, seed=seed))
        net.save(workdir / "sync2.ckpt", seed=seed)
        state.sync = metrics.SyncNet.load(workdir / "sync2.ckpt")
    return state


def _ar_config(seed: int, epochs: int) -> armodel.ARConfig:
    return armodel.ARConfig(audio_dim=CORPUS["audio_dim"], motion_dim=MOTION_DIM,
                            epochs=epochs, seed=seed)


# -- train ops -----------------------------------------------------------------


def _train_inputs(state, seed, index):
    # Every fit starts from the same init, so every round must reproduce the
    # first round's loss history bit for bit.
    return {"seed": seed}


def _check_history(kind: str):
    def check(state, inputs, history):
        if len(history) != TRAIN_EPOCHS:
            raise OpCheckError(f"{kind}: {len(history)} history rows, "
                               f"expected {TRAIN_EPOCHS}")
        for i, row in enumerate(history):
            if row["epoch"] != i:
                raise OpCheckError(f"{kind}: row {i} is epoch {row['epoch']}")
            for key, value in row.items():
                if not math.isfinite(value):
                    raise OpCheckError(f"{kind}: non-finite {key} at epoch {i}")
        first = state.reference.setdefault(kind, history)
        if history != first:
            raise OpCheckError(f"{kind}: history differs from the first fit")
        return dict(history[-1])
    return check


def _train_clips(state):
    return len(state.corpus.split("train")) * TRAIN_EPOCHS


def _sync_windows(state):
    cfg = metrics.SyncConfig()
    steps = len(state.corpus.split("train")) // cfg.clips_per_batch
    return steps * cfg.batch * TRAIN_EPOCHS


def _fit_codec(state, inputs):
    return codec.train_codec(state.corpus, codec.CodecConfig(
        input_dim=MOTION_DIM, epochs=TRAIN_EPOCHS, seed=inputs["seed"]))[1]


def _fit_ar(state, inputs):
    return armodel.train_ar(state.codec, state.corpus,
                            _ar_config(inputs["seed"], TRAIN_EPOCHS))[1]


def _fit_sync(variant):
    def run(state, inputs):
        return metrics.train_sync_net(state.corpus, variant, metrics.SyncConfig(
            motion_dim=MOTION_DIM, audio_dim=CORPUS["audio_dim"],
            epochs=TRAIN_EPOCHS, seed=inputs["seed"]))[1]
    return run


def _fit_style(state, inputs):
    return metrics.train_style_net(state.corpus, metrics.StyleConfig(
        motion_dim=MOTION_DIM, epochs=TRAIN_EPOCHS, seed=inputs["seed"]))[2]


def _train_kind(name, run, items):
    return OpKind(name, _train_inputs, run, _check_history(name), items)


# -- generate ops --------------------------------------------------------------


def _long_inputs(state, seed, index):
    rng = np.random.default_rng([seed, index])
    test = state.corpus.split("test")
    y = data.driving_signal(LONG_FRAMES, CORPUS["audio_dim"], rng)
    style = test[int(rng.integers(len(test)))].motion
    return {"y": y, "style": style, "rng": rng}


def _clip_inputs(state, seed, index):
    rng = np.random.default_rng([seed, index])
    test = state.corpus.split("test")
    rec = test[index % len(test)]
    return {"y": rec.audio, "style": data.style_reference(state.corpus, rec, rng),
            "rng": rng}


def _generate(config: sampling.SamplingConfig, samples: int):
    def run(state, inputs):
        before = state.model.depth_pass_count
        motions, grids = sampling.generate_batch(
            state.model, state.codec, inputs["y"], inputs["style"], config,
            n_samples=samples, sync_model=state.sync, rng=inputs["rng"])
        return motions, grids, state.model.depth_pass_count - before
    return run


def check_generated(state, inputs, output, samples: int, n: int):
    """Shapes, index range, finiteness and the depth-pass count of one call."""
    motions, grids, passes = output
    T = inputs["y"].shape[0]
    D = state.model.config.depth
    C = state.model.config.codebook_size
    if grids.shape != (samples, T, D):
        raise OpCheckError(f"grid shape {grids.shape}, expected {(samples, T, D)}")
    if grids.min() < 0 or grids.max() >= C:
        raise OpCheckError(f"code index outside [0, {C})")
    if motions.shape != (samples, T, MOTION_DIM):
        raise OpCheckError(f"motion shape {motions.shape}")
    if not np.all(np.isfinite(motions)):
        raise OpCheckError("non-finite motion")
    if passes != samples * n * T * D:
        raise OpCheckError(f"{passes} depth passes, expected {samples * n * T * D}")
    digest = hashlib.sha256(np.ascontiguousarray(grids, dtype="<i8").tobytes())
    return {"grids_sha256": digest.hexdigest(), "motion_sum": float(motions.sum())}


def _generate_kind(name, inputs, config: sampling.SamplingConfig, samples: int,
                   frames: int):
    def check(state, inp, output):
        return check_generated(state, inp, output, samples, config.n)
    return OpKind(name, inputs, _generate(config, samples), check,
                  lambda state: samples * frames, frames=samples * frames)


# -- registry ------------------------------------------------------------------


WORKLOADS = {
    "train": Workload(
        "train",
        lambda seed, workdir: _setup(seed, workdir, with_ar=False, with_sync=False),
        [
            _train_kind("train_codec", _fit_codec, _train_clips),
            _train_kind("train_ar", _fit_ar, _train_clips),
            _train_kind("train_sync1", _fit_sync(1), _sync_windows),
            _train_kind("train_sync2", _fit_sync(2), _sync_windows),
            _train_kind("train_style", _fit_style, _train_clips),
        ]),
    "generate-long": Workload(
        "generate-long",
        lambda seed, workdir: _setup(seed, workdir, with_ar=True, with_sync=False),
        [
            _generate_kind("generate_long", _long_inputs,
                           sampling.SamplingConfig(), 4, LONG_FRAMES),
        ]),
    "generate-aggregate": Workload(
        "generate-aggregate",
        lambda seed, workdir: _setup(seed, workdir, with_ar=True, with_sync=True),
        [
            _generate_kind("generate_average", _clip_inputs,
                           sampling.SamplingConfig(strategy="average", n=20),
                           8, CORPUS["frames"]),
            _generate_kind("generate_knn", _clip_inputs,
                           sampling.SamplingConfig(strategy="knn", n=20, k=5),
                           8, CORPUS["frames"]),
            _generate_kind("generate_rejection", _clip_inputs,
                           sampling.SamplingConfig(strategy="syncnet-rejection",
                                                   n=8, keep_fraction=0.5),
                           4, CORPUS["frames"]),
        ]),
}

KIND_NAMES = tuple(k.name for w in WORKLOADS.values() for k in w.kinds)
