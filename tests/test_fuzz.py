"""Fuzz tests for every reader of an on-disk format.

Each test mutates a valid file by truncation, by overwriting bytes of its
header or by flipping bits anywhere in it, and asserts that the reader either
returns or raises its typed error (``ContainerError`` for checkpoints,
``SequenceFormatError`` for sequence, audio and manifest files), which the
CLI maps to exit code 3. ``FUZZ_EXAMPLES`` sets the examples per format.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rvqsynth.armodel import ARConfig, ARModel
from rvqsynth.checkpoint import ContainerError
from rvqsynth.codec import Codec, CodecConfig
from rvqsynth.data import (CorpusConfig, MotionSequence, SequenceFormatError,
                           generate_corpus, load_corpus, read_audio,
                           read_sequence, save_corpus, write_audio,
                           write_sequence)
from rvqsynth.metrics import StyleConfig, StyleNet, SyncConfig, SyncNet

EXAMPLES = int(os.environ.get("FUZZ_EXAMPLES", "200"))
FUZZ = settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def mutated(draw, blob: bytes, header: int) -> bytes:
    """``blob`` cut short, with bytes of its first ``header`` bytes
    overwritten, or with one to eight bits flipped."""
    raw = bytearray(blob)
    kind = draw(st.sampled_from(["truncate", "overwrite", "flip"]))
    if kind == "truncate":
        return bytes(raw[:draw(st.integers(0, len(raw) - 1))])
    if kind == "overwrite":
        at = draw(st.integers(0, header - 1))
        new = draw(st.binary(min_size=1, max_size=8))[:header - at]
        raw[at:at + len(new)] = new
        return bytes(raw)
    for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1,
                             max_size=8)):
        raw[bit // 8] ^= 1 << bit % 8
    return bytes(raw)


def _checkpoint(kind, path):
    """A saved tiny model of ``kind`` and its loader."""
    if kind == "ar":
        cfg = ARConfig(code_dim=4, codebook_size=3, depth=2, width=8,
                       audio_dim=4, motion_dim=12, heads=2, depth_layers=1,
                       max_frames=16)
        ARModel(cfg, np.zeros((3, 4)), np.random.default_rng(0)).save(path)
        return ARModel.load
    if kind == "codec":
        Codec(CodecConfig(input_dim=12, depth=2, codebook_size=3,
                          code_dim=4)).save(path)
        return Codec.load
    if kind == "sync":
        SyncNet(SyncConfig(variant=2, motion_dim=12, audio_dim=4, width=8,
                           emb_dim=6, window=8)).save(path)
        return SyncNet.load
    StyleNet(StyleConfig(motion_dim=12, width=8, emb_dim=6,
                         num_classes=2)).save(path, [0, 1])
    return StyleNet.load


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("kind", ["ar", "codec", "sync", "style"])
def test_fuzzed_checkpoint_fails_typed(workdir, kind):
    """``load_container`` and ``load_model``, through each model's
    ``load``; the four kinds share the format's example budget."""
    path = workdir / f"{kind}.ckpt"
    load = _checkpoint(kind, path)
    blob = path.read_bytes()
    header = 16 + int.from_bytes(blob[8:16], "little")

    @settings(FUZZ, max_examples=max(1, EXAMPLES // 4))
    @given(mutated(blob, header))
    def check(raw):
        path.write_bytes(raw)
        try:
            load(path)
        except ContainerError:
            pass

    check()


def _fuzz_reader(path, blob, header, read):
    @FUZZ
    @given(mutated(blob, header))
    def check(raw):
        path.write_bytes(raw)
        try:
            read(path)
        except SequenceFormatError:
            pass

    check()


def test_fuzzed_sequence_file_fails_typed(workdir):
    path = workdir / "clip.rvqm"
    rng = np.random.default_rng(0)
    write_sequence(MotionSequence(rng.normal(0.0, 1.0, (5, 12)), 4,
                                  np.array([0, 2])), path)
    _fuzz_reader(path, path.read_bytes(), 20 + 4 * 2, read_sequence)


def test_fuzzed_audio_file_fails_typed(workdir):
    path = workdir / "clip.rvqa"
    write_audio(np.random.default_rng(0).normal(0.0, 1.0, (5, 4)), path)
    _fuzz_reader(path, path.read_bytes(), 16, read_audio)


def test_fuzzed_manifest_fails_typed(workdir):
    """Every byte of the manifest is header; the clips stay intact."""
    root = workdir / "corpus"
    save_corpus(generate_corpus(CorpusConfig(
        num_speakers=3, seqs_per_speaker=2, frames=4, vertices=2,
        audio_dim=2)), root)
    manifest = root / "manifest.txt"
    blob = manifest.read_bytes()
    _fuzz_reader(manifest, blob, len(blob), lambda _: load_corpus(root))
