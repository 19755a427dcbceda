import numpy as np
import pytest

from rvqsynth.data import (BadMagicError, CorpusConfig, FormatVersionError,
                           MotionSequence, SequenceFormatError,
                           TruncatedPayloadError,
                           driving_signal, generate_corpus, load_corpus,
                           make_speaker, read_audio, read_sequence,
                           sample_motion, save_corpus, shared_bases,
                           style_reference, write_audio, write_sequence)

CFG = CorpusConfig(num_speakers=8, seqs_per_speaker=4, frames=24, vertices=6,
                   audio_dim=4, seed=5)


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(CFG)


def speaker_profile(cfg, speaker_id):
    """The profile that ``generate_corpus(cfg)`` draws for ``speaker_id``."""
    rng = np.random.default_rng(cfg.seed)
    bases = shared_bases(cfg.vertices, cfg.audio_dim, rng)
    return [make_speaker(i, cfg.upper_noise, rng, bases)
            for i in range(speaker_id + 1)][-1]


def test_corpus_shapes_and_counts(corpus):
    assert len(corpus.records) == CFG.num_speakers * CFG.seqs_per_speaker
    for rec in corpus.records:
        assert rec.motion.shape == (CFG.frames, 3 * CFG.vertices)
        assert rec.audio.shape == (CFG.frames, CFG.audio_dim)


def test_splits_have_disjoint_speakers(corpus):
    by_split = {name: set(corpus.speakers(name))
                for name in ("train", "val", "test")}
    assert by_split["train"] and by_split["val"] and by_split["test"]
    assert not by_split["train"] & by_split["val"]
    assert not by_split["train"] & by_split["test"]
    assert not by_split["val"] & by_split["test"]


def test_generation_is_deterministic():
    a = generate_corpus(CFG)
    b = generate_corpus(CFG)
    for ra, rb in zip(a.records, b.records):
        np.testing.assert_array_equal(ra.motion, rb.motion)
        np.testing.assert_array_equal(ra.audio, rb.audio)


def test_lower_face_is_deterministic_given_signal():
    """Same (speaker, signal) under different RNG draws: identical lips."""
    profile = speaker_profile(CFG, 0)
    y = driving_signal(CFG.frames, CFG.audio_dim, np.random.default_rng(1))
    n_lip = 3 * (CFG.vertices // 2)
    m1 = sample_motion(profile, y, np.random.default_rng(2))
    m2 = sample_motion(profile, y, np.random.default_rng(3))
    np.testing.assert_array_equal(m1[:, :n_lip], m2[:, :n_lip])
    assert not np.array_equal(m1[:, n_lip:], m2[:, n_lip:])


def test_upper_face_is_one_to_many():
    """Repeated draws for one (speaker, signal) differ: the conditional
    distribution is genuinely multimodal."""
    profile = speaker_profile(CFG, 1)
    y = driving_signal(CFG.frames, CFG.audio_dim, np.random.default_rng(4))
    n_lip = 3 * (CFG.vertices // 2)
    draws = np.stack([sample_motion(profile, y, np.random.default_rng(s))
                      for s in range(8)])
    upper_var = draws[:, :, n_lip:].var(axis=0).mean()
    assert upper_var > 1e-4


def test_upper_noise_zero_makes_motion_deterministic():
    cfg = CorpusConfig(num_speakers=4, seqs_per_speaker=2, frames=16,
                       vertices=4, audio_dim=4, upper_noise=0.0, seed=9)
    profile = speaker_profile(cfg, 0)
    y = driving_signal(16, 4, np.random.default_rng(0))
    m1 = sample_motion(profile, y, np.random.default_rng(1))
    m2 = sample_motion(profile, y, np.random.default_rng(2))
    np.testing.assert_array_equal(m1, m2)


def test_style_reference_same_speaker_different_clip(corpus):
    rng = np.random.default_rng(0)
    rec = corpus.records[0]
    sref = style_reference(corpus, rec, rng)
    assert sref.shape == rec.motion.shape
    assert not np.array_equal(sref, rec.motion)
    pool = [r for r in corpus.records if r.speaker_id == rec.speaker_id]
    assert any(np.array_equal(sref, r.motion) for r in pool)


def test_invalid_corpus_config_rejected():
    with pytest.raises(ValueError):
        generate_corpus(CorpusConfig(num_speakers=0))


def test_sequence_file_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    seq = MotionSequence(rng.normal(0.0, 1.0, (10, 12)), 4, np.arange(2))
    path = tmp_path / "clip.rvqm"
    write_sequence(seq, path)
    back = read_sequence(path)
    np.testing.assert_array_equal(back.deformations, seq.deformations)
    assert back.num_vertices == 4
    np.testing.assert_array_equal(back.lip_indices, [0, 1])


def test_audio_file_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    feats = rng.normal(0.0, 1.0, (10, 5))
    path = tmp_path / "clip.rvqa"
    write_audio(feats, path)
    np.testing.assert_array_equal(read_audio(path), feats)


def test_audio_file_shorter_than_header_is_truncated(tmp_path):
    path = tmp_path / "clip.rvqa"
    write_audio(np.zeros((3, 2)), path)
    path.write_bytes(path.read_bytes()[:10])
    with pytest.raises(TruncatedPayloadError, match="header"):
        read_audio(path)


def test_sequence_file_error_taxonomy(tmp_path):
    seq = MotionSequence(np.zeros((4, 12)), 4, np.arange(2))
    path = tmp_path / "clip.rvqm"
    write_sequence(seq, path)
    raw = path.read_bytes()

    bad = tmp_path / "bad"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(BadMagicError):
        read_sequence(bad)

    bad.write_bytes(raw[:4] + (9).to_bytes(4, "little") + raw[8:])
    with pytest.raises(FormatVersionError):
        read_sequence(bad)

    bad.write_bytes(raw[:-8])
    with pytest.raises(TruncatedPayloadError):
        read_sequence(bad)


def clip_files(tmp_path, values):
    """A sequence file and an audio file holding ``values`` (T, 12)."""
    seq, audio = tmp_path / "clip.rvqm", tmp_path / "clip.rvqa"
    write_sequence(MotionSequence(values, 4, np.arange(2)), seq)
    write_audio(values, audio)
    return [(read_sequence, seq), (read_audio, audio)]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_readers_refuse_non_finite_values(tmp_path, bad):
    values = np.zeros((4, 12))
    values[2, 5] = bad
    for read, path in clip_files(tmp_path, values):
        with pytest.raises(SequenceFormatError, match="non-finite"):
            read(path)


@pytest.mark.parametrize("extra", [1, 8])
def test_readers_refuse_bytes_after_the_payload(tmp_path, extra):
    """A file longer than its header says is malformed, not truncated."""
    for read, path in clip_files(tmp_path, np.ones((4, 12))):
        path.write_bytes(path.read_bytes() + bytes(extra))
        with pytest.raises(SequenceFormatError, match="header says") as info:
            read(path)
        assert not isinstance(info.value, TruncatedPayloadError)


def test_sequence_file_rejects_lip_index_beyond_vertices(tmp_path):
    path = tmp_path / "clip.rvqm"
    write_sequence(MotionSequence(np.zeros((4, 12)), 4, np.arange(4)), path)
    assert read_sequence(path).lip_indices.max() == 3
    write_sequence(MotionSequence(np.zeros((4, 12)), 4, np.array([0, 4])), path)
    with pytest.raises(SequenceFormatError, match="lip index 4"):
        read_sequence(path)


def test_corpus_save_load_roundtrip(tmp_path, corpus):
    save_corpus(corpus, tmp_path / "corpus")
    back = load_corpus(tmp_path / "corpus")
    assert len(back.records) == len(corpus.records)
    for a, b in zip(corpus.records, back.records):
        assert (a.speaker_id, a.split) == (b.speaker_id, b.split)
        np.testing.assert_array_equal(a.motion, b.motion)
        np.testing.assert_array_equal(a.audio, b.audio)
    assert back.vertices == corpus.vertices


def test_load_corpus_requires_manifest(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_corpus(tmp_path)


def with_split(line: str, split: str) -> str:
    sid, _, motion, audio = line.split("\t")
    return "\t".join((sid, split, motion, audio))


@pytest.mark.parametrize("edit,lineno,what", [
    (lambda lines: lines[:2] + ["0\ttrain\tmotion_00001.rvqm"] + lines[2:],
     3, "expected 4 tab-separated fields"),
    (lambda lines: lines + ["0\ttrain\tmotion_00001.rvqm\taudio_00001.rvqa\tx"],
     None, "expected 4 tab-separated fields .*got 5"),
    (lambda lines: lines[:1] + ["x" + lines[1]] + lines[2:],
     2, "speaker id 'x0' is not an int"),
    (lambda lines: [lines[0].replace("vertices=6", "vertices=six")] + lines[1:],
     1, "vertices 'six' is not an int"),
    (lambda lines: [lines[0].replace("audio_dim=4", "audio_dim=4.0")] + lines[1:],
     1, "audio_dim '4.0' is not an int"),
    (lambda lines: [lines[0] + " seed="] + lines[1:], 1, "seed '' is not an int"),
    (lambda lines: lines[:1] + ["-1" + lines[1][1:]] + lines[2:],
     2, "speaker id -1 is negative"),
    (lambda lines: lines[:2] + [with_split(lines[2], "dev")] + lines[3:],
     3, "split 'dev' is not train, val or test"),
    (lambda lines: lines[:1] + [with_split(lines[1], "Test")] + lines[2:],
     2, "split 'Test' is not train, val or test"),
])
def test_load_corpus_rejects_malformed_manifest(tmp_path, corpus, edit, lineno,
                                                what):
    root = tmp_path / "corpus"
    save_corpus(corpus, root)
    manifest = root / "manifest.txt"
    lines = edit(manifest.read_text().splitlines())
    manifest.write_text("\n".join(lines) + "\n")
    lineno = len(lines) if lineno is None else lineno
    with pytest.raises(SequenceFormatError,
                       match=f"manifest.txt:{lineno}: {what}"):
        load_corpus(root)


@pytest.mark.parametrize("frames,vertices,audio_dim,audio_frames,bad", [
    (20, 6, 4, 20, "motion"),     # fewer frames than the other clips
    (24, 5, 4, 24, "motion"),     # a different vertex count
    (24, 6, 3, 24, "audio"),      # a different audio dim
    (24, 6, 4, 23, "audio"),      # audio shorter than its motion clip
])
def test_load_corpus_rejects_mismatched_clip(tmp_path, corpus, frames,
                                             vertices, audio_dim, audio_frames,
                                             bad):
    root = tmp_path / "corpus"
    save_corpus(corpus, root)
    rng = np.random.default_rng(9)
    write_sequence(MotionSequence(rng.normal(0.0, 1.0, (frames, 3 * vertices)),
                                  vertices, np.arange(3)),
                   root / "motion_00003.rvqm")
    write_audio(rng.normal(0.0, 1.0, (audio_frames, audio_dim)),
                root / "audio_00003.rvqa")
    with pytest.raises(SequenceFormatError, match=f"{bad}_00003"):
        load_corpus(root)


@pytest.mark.parametrize("frames,vertices,audio_dim", [
    (0, 6, 4),      # no frames
    (24, 0, 4),     # no vertices
    (24, 6, 0),     # no audio dims
])
def test_load_corpus_rejects_empty_clips(tmp_path, corpus, frames, vertices,
                                         audio_dim):
    root = tmp_path / "corpus"
    save_corpus(corpus, root)
    for i in range(len(corpus.records)):
        write_sequence(MotionSequence(np.zeros((frames, 3 * vertices)),
                                      vertices, np.arange(min(3, vertices))),
                       root / f"motion_{i:05d}.rvqm")
        write_audio(np.zeros((frames, audio_dim)), root / f"audio_{i:05d}.rvqa")
    manifest = root / "manifest.txt"
    manifest.write_text(manifest.read_text().replace(
        "vertices=6 audio_dim=4", f"vertices={vertices} audio_dim={audio_dim}"))
    with pytest.raises(SequenceFormatError, match="manifest.txt:2: an empty clip"):
        load_corpus(root)


def test_load_corpus_without_clips_keeps_header_shape(tmp_path):
    root = tmp_path / "corpus"
    root.mkdir()
    (root / "manifest.txt").write_text("# vertices=6 audio_dim=4 seed=3\n")
    back = load_corpus(root)
    assert back.records == []
    assert (back.config.vertices, back.config.audio_dim, back.config.frames,
            back.config.seed) == (6, 4, 1, 3)


def test_load_corpus_with_sparse_speaker_ids(tmp_path, corpus):
    """Speaker ids far apart leave fewer clips than speakers; the corpus
    still loads, and a header that cannot form a config is a format error."""
    root = tmp_path / "corpus"
    save_corpus(corpus, root)
    manifest = root / "manifest.txt"
    header, *clips = manifest.read_text().splitlines()
    manifest.write_text("\n".join([header] + [
        f"{1000 * int(sid)}\t{rest}"
        for sid, rest in (clip.split("\t", 1) for clip in clips)]) + "\n")
    back = load_corpus(root)
    assert len(back.records) == len(corpus.records)
    assert back.records[-1].speaker_id == 1000 * corpus.records[-1].speaker_id
    manifest.write_text("# vertices=-6 audio_dim=4\n")
    with pytest.raises(SequenceFormatError, match="vertices must be positive"):
        load_corpus(root)
