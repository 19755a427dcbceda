"""Synthetic one-to-many corpus of paired (driving signal, motion, style).

Each synthetic speaker couples the lower vertex region deterministically to
the driving signal while the upper region follows a speaker-styled stochastic
process, so the conditional distribution of motion given the signal is
genuinely one-to-many. Speaker style parameters are placed on a jittered grid
so that styles are separable and learnable.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .checkpoint import write_atomic
from .config import Size, check, declared, option

SEQ_MAGIC = b"RVQM"
AUDIO_MAGIC = b"RVQA"
SEQ_VERSION = 1


class SequenceFormatError(ValueError):
    pass


class BadMagicError(SequenceFormatError):
    pass


class FormatVersionError(SequenceFormatError):
    pass


class TruncatedPayloadError(SequenceFormatError):
    pass


@dataclass
class MotionSequence:
    deformations: np.ndarray  # (T, 3V)
    num_vertices: int
    lip_indices: np.ndarray  # vertex indices of the lip region

    @property
    def frames(self) -> int:
        return self.deformations.shape[0]


@dataclass
class SpeakerProfile:
    speaker_id: int
    amp: float
    lip_dir: np.ndarray
    lip_level: float
    mix_lip: np.ndarray
    up_dir: np.ndarray
    up_level: float
    mix_up: np.ndarray
    noise_level: float
    noise_rho: float = 0.8
    channels_lip: np.ndarray | None = None  # shared signal->channel maps
    channels_up: np.ndarray | None = None


@dataclass
class SequenceRecord:
    speaker_id: int
    split: str
    audio: np.ndarray   # (T, D_y)
    motion: np.ndarray  # (T, 3V)


@dataclass
class CorpusConfig:
    num_speakers: Size = option(64, "number of synthetic speakers", "speakers")
    seqs_per_speaker: Size = option(16, "sequences per speaker", "seqs")
    frames: Size = option(32, "frames per sequence")
    vertices: Size = option(20, "mesh vertices")
    audio_dim: Size = option(8, "driving-signal feature dim")
    upper_noise: float = option(1.0, "upper-region noise multiplier")
    seed: int = option(0, "corpus RNG seed")

    def __post_init__(self):
        check(vars(self), declared(CorpusConfig))


@dataclass
class Corpus:
    config: CorpusConfig
    records: list

    @property
    def vertices(self) -> int:
        return self.config.vertices

    @property
    def lip_indices(self) -> np.ndarray:
        return np.arange(self.config.vertices // 2)

    def split(self, name: str) -> list:
        return [r for r in self.records if r.split == name]

    def speakers(self, split: str | None = None) -> list:
        return sorted({r.speaker_id for r in self.records
                       if split is None or r.split == split})


def _grid_level(slot: int, rng: np.random.Generator) -> float:
    return 0.6 + 0.25 * slot + rng.uniform(-0.02, 0.02)


@dataclass
class SharedBases:
    """Corpus-level low-rank structure speakers are composed from.

    The driving signal excites a few shared tanh response channels; each
    speaker mixes those channels into fixed spatial basis directions. Every
    frame therefore lies on a low-dimensional subspace shared by all
    speakers, so held-out speakers stay on a manifold the learned models can
    generalize to.
    """

    offset_lip: np.ndarray    # (rank, n_lip) static-offset directions
    offset_up: np.ndarray     # (rank, n_up)
    channels_lip: np.ndarray  # (rank, D_y) signal -> response channels
    channels_up: np.ndarray   # (rank, D_y)
    spatial_lip: np.ndarray   # (rank, n_lip) response channel -> coordinates
    spatial_up: np.ndarray    # (rank, n_up)
    probe: np.ndarray         # (n_probe, D_y) fixed signal for normalization


def shared_bases(vertices: int, audio_dim: int, rng: np.random.Generator,
                 rank: int = 3) -> SharedBases:
    n_lip = 3 * (vertices // 2)
    n_up = 3 * vertices - n_lip
    return SharedBases(
        offset_lip=rng.normal(0.0, 1.0, size=(rank, n_lip)),
        offset_up=rng.normal(0.0, 1.0, size=(rank, n_up)),
        channels_lip=rng.normal(0.0, 1.0, size=(rank, audio_dim))
        / np.sqrt(audio_dim),
        channels_up=rng.normal(0.0, 1.0, size=(rank, audio_dim))
        / np.sqrt(audio_dim),
        spatial_lip=rng.normal(0.0, 1.0, size=(rank, n_lip)),
        spatial_up=rng.normal(0.0, 1.0, size=(rank, n_up)),
        probe=rng.normal(0.0, 1.0, size=(256, audio_dim)),
    )


def _combine(coeffs: np.ndarray, basis: np.ndarray) -> np.ndarray:
    mixed = np.tensordot(coeffs, basis, axes=(0, 0))
    return mixed / np.sqrt(np.mean(mixed ** 2) + 1e-12)


def _speaker_mixing(bases: SharedBases, channels: np.ndarray,
                    spatial: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Speaker-specific (rank, n) mixing with unit response energy.

    Normalized against the fixed probe signal so every speaker's response has
    the same RMS amplitude — style separability then rests on the level grid.
    """
    rank = spatial.shape[0]
    mix = rng.normal(0.0, 1.0, size=(rank, rank)) @ spatial
    response = np.tanh(bases.probe @ channels.T) @ mix
    return mix / np.sqrt(np.mean(response ** 2) + 1e-12)


def make_speaker(speaker_id: int, upper_noise: float, rng: np.random.Generator,
                 bases: SharedBases) -> SpeakerProfile:
    rank = bases.offset_lip.shape[0]
    return SpeakerProfile(
        speaker_id=speaker_id,
        amp=rng.uniform(0.38, 0.42),
        lip_dir=_combine(np.ones(rank), bases.offset_lip),
        lip_level=_grid_level(speaker_id % 8, rng),
        mix_lip=_speaker_mixing(bases, bases.channels_lip, bases.spatial_lip,
                                rng),
        up_dir=_combine(np.ones(rank), bases.offset_up),
        up_level=_grid_level((speaker_id // 8) % 8, rng),
        mix_up=_speaker_mixing(bases, bases.channels_up, bases.spatial_up,
                               rng),
        noise_level=rng.uniform(0.08, 0.12) * upper_noise,
        channels_lip=bases.channels_lip,
        channels_up=bases.channels_up,
    )


def driving_signal(frames: int, audio_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Piecewise-smooth random trajectory standing in for phoneme features."""
    y = np.zeros((frames, audio_dim))
    t = 0
    prev = rng.normal(0.0, 1.0, size=audio_dim)
    while t < frames:
        seg = int(rng.integers(3, 7))
        target = rng.normal(0.0, 1.0, size=audio_dim)
        for i in range(min(seg, frames - t)):
            w = 0.5 - 0.5 * np.cos(np.pi * (i + 1) / seg)  # cosine ramp
            y[t + i] = (1.0 - w) * prev + w * target
        t += seg
        prev = target
    return y


def _shared_articulation(signal: np.ndarray, n_lip: int) -> np.ndarray:
    """Speaker-invariant jaw-like lip component driven by the signal.

    Every speaker shares this term, so audio-motion correspondence has a cue
    that generalizes across speakers (mirroring how jaw opening tracks speech
    energy for everyone); the speaker-specific mixing rides on top of it.
    """
    rng = np.random.default_rng(1618033)
    w = rng.normal(0.0, 1.0, size=signal.shape[1]) / np.sqrt(signal.shape[1])
    direction = rng.choice([-1.0, 1.0], size=n_lip) * rng.uniform(
        0.7, 1.3, size=n_lip)
    return 0.8 * np.tanh(signal @ w)[:, None] * direction


def sample_motion(profile: SpeakerProfile, signal: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Draw one motion sequence for (speaker, signal).

    The lower (lip) region is a deterministic function of the signal; only the
    upper region consumes randomness.
    """
    T = signal.shape[0]
    n_lip = profile.lip_dir.shape[0]
    resp_lip = np.tanh(signal @ profile.channels_lip.T) @ profile.mix_lip
    resp_up = np.tanh(signal @ profile.channels_up.T) @ profile.mix_up
    lower = profile.lip_level * (
        _shared_articulation(signal, n_lip)
        + profile.amp * resp_lip
        + 0.6 * profile.lip_dir)
    upper_det = profile.up_level * (0.5 * resp_up + 0.6 * profile.up_dir)
    n_up = upper_det.shape[1]
    noise = np.zeros((T, n_up))
    if profile.noise_level > 0.0:
        rho = profile.noise_rho
        state = rng.normal(0.0, 1.0, size=n_up)
        for t in range(T):
            noise[t] = state
            state = rho * state + np.sqrt(1.0 - rho * rho) * rng.normal(
                0.0, 1.0, size=n_up)
    return np.concatenate(
        [lower, upper_det + profile.up_level * profile.noise_level * noise],
        axis=1)


def generate_corpus(config: CorpusConfig) -> Corpus:
    """Build the full corpus with disjoint speaker sets per split."""
    rng = np.random.default_rng(config.seed)
    bases = shared_bases(config.vertices, config.audio_dim, rng)
    profiles = {i: make_speaker(i, config.upper_noise, rng, bases)
                for i in range(config.num_speakers)}
    order = rng.permutation(config.num_speakers)
    n_val = max(1, config.num_speakers // 8) if config.num_speakers >= 3 else 0
    n_test = n_val
    split_of = {}
    for pos, sid in enumerate(order):
        if pos < n_test:
            split_of[sid] = "test"
        elif pos < n_test + n_val:
            split_of[sid] = "val"
        else:
            split_of[sid] = "train"
    records = []
    for sid in range(config.num_speakers):
        for _ in range(config.seqs_per_speaker):
            y = driving_signal(config.frames, config.audio_dim, rng)
            motion = sample_motion(profiles[sid], y, rng)
            records.append(SequenceRecord(sid, split_of[sid], y, motion))
    return Corpus(config=config, records=records)


def style_reference(corpus: Corpus, record: SequenceRecord,
                    rng: np.random.Generator) -> np.ndarray:
    """A different clip of the same speaker, used as the style conditioner."""
    pool = [r for r in corpus.records
            if r.speaker_id == record.speaker_id and r is not record]
    if not pool:
        return record.motion
    return pool[int(rng.integers(len(pool)))].motion


# -- on-disk formats ----------------------------------------------------------


def write_sequence(seq: MotionSequence, path):
    T, width = seq.deformations.shape
    if width != 3 * seq.num_vertices:
        raise ValueError("deformation width must equal 3 * num_vertices")
    lip = np.asarray(seq.lip_indices, dtype="<u4")
    header = struct.pack("<IIII", SEQ_VERSION, T, seq.num_vertices, lip.size)
    write_atomic(path, [
        SEQ_MAGIC, header, lip.tobytes(),
        np.ascontiguousarray(seq.deformations, dtype="<f8").tobytes()])


def _payload(raw: bytes, off: int, end: int, path) -> np.ndarray:
    """The float64 values ``raw[off:end]`` of a file that ends at ``end``."""
    if len(raw) != end:
        raise (TruncatedPayloadError if len(raw) < end else SequenceFormatError)(
            f"{path} has {len(raw)} bytes where its header says {end}")
    data = np.frombuffer(raw[off:end], dtype="<f8").astype(np.float64)
    if not np.isfinite(data).all():
        raise SequenceFormatError(f"non-finite values in {path}")
    return data


def read_sequence(path) -> MotionSequence:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != SEQ_MAGIC:
        raise BadMagicError(f"bad magic in {path}")
    if len(raw) < 20:
        raise TruncatedPayloadError(f"truncated header in {path}")
    version, T, V = struct.unpack("<III", raw[4:16])
    if version != SEQ_VERSION:
        raise FormatVersionError(f"unsupported sequence version {version}")
    n_lip = struct.unpack("<I", raw[16:20])[0]
    off = 20 + 4 * n_lip
    data = _payload(raw, off, off + 8 * T * 3 * V, path)
    lip = np.frombuffer(raw[20:off], dtype="<u4").astype(np.int64)
    if lip.size and lip.max() >= V:
        raise SequenceFormatError(
            f"lip index {lip.max()} is not below the {V} vertices in {path}")
    return MotionSequence(data.reshape(T, 3 * V), V, lip)


def write_audio(features: np.ndarray, path):
    T, dim = features.shape
    write_atomic(path, [
        AUDIO_MAGIC, struct.pack("<III", SEQ_VERSION, T, dim),
        np.ascontiguousarray(features, dtype="<f8").tobytes()])


def read_audio(path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 4 or raw[:4] != AUDIO_MAGIC:
        raise BadMagicError(f"bad magic in {path}")
    if len(raw) < 16:
        raise TruncatedPayloadError(f"truncated header in {path}")
    version, T, dim = struct.unpack("<III", raw[4:16])
    if version != SEQ_VERSION:
        raise FormatVersionError(f"unsupported audio version {version}")
    return _payload(raw, 16, 16 + 8 * T * dim, path).reshape(T, dim)


def save_corpus(corpus: Corpus, out_dir):
    """Write all sequences plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lip = corpus.lip_indices
    lines = [f"# vertices={corpus.vertices} audio_dim={corpus.config.audio_dim} "
             f"seed={corpus.config.seed}"]
    for i, rec in enumerate(corpus.records):
        mpath = out / f"motion_{i:05d}.rvqm"
        apath = out / f"audio_{i:05d}.rvqa"
        write_sequence(MotionSequence(rec.motion, corpus.vertices, lip), mpath)
        write_audio(rec.audio, apath)
        lines.append(f"{rec.speaker_id}\t{rec.split}\t{mpath.name}\t{apath.name}")
    write_atomic(out / "manifest.txt", [("\n".join(lines) + "\n").encode()])


def _manifest_int(text: str, what: str, manifest, lineno: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise SequenceFormatError(
            f"{manifest}:{lineno}: {what} {text!r} is not an int") from None


def load_corpus(corpus_dir) -> Corpus:
    """Read a corpus written by ``save_corpus``. Every clip must have the
    vertex count and audio dim of the manifest header (or of the first clip)
    and the frame count of the first clip, with as many audio frames as
    motion frames; a clip that does not, an empty clip (no frames, vertices or
    audio dims), a missing clip file, a negative speaker id, an unknown split,
    a header no ``CorpusConfig`` takes or a non-UTF-8 manifest raise
    ``SequenceFormatError``."""
    root = Path(corpus_dir)
    manifest = root / "manifest.txt"
    if not manifest.exists():
        raise FileNotFoundError(f"no manifest in {corpus_dir}")
    records = []
    vertices = audio_dim = frames = None
    seed = 0
    speakers = set()
    try:
        text = manifest.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SequenceFormatError(f"{manifest} is not UTF-8: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if line.startswith("#"):
            for kv in line[1:].split():
                key, _, val = kv.partition("=")
                if key == "vertices":
                    vertices = _manifest_int(val, key, manifest, lineno)
                elif key == "audio_dim":
                    audio_dim = _manifest_int(val, key, manifest, lineno)
                elif key == "seed":
                    seed = _manifest_int(val, key, manifest, lineno)
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise SequenceFormatError(
                f"{manifest}:{lineno}: expected 4 tab-separated fields "
                f"(speaker, split, motion, audio), got {len(fields)}")
        sid, split, mname, aname = fields
        sid = _manifest_int(sid, "speaker id", manifest, lineno)
        if sid < 0 or split not in ("train", "val", "test"):
            raise SequenceFormatError(f"{manifest}:{lineno}: " + (
                f"speaker id {sid} is negative" if sid < 0 else
                f"split {split!r} is not train, val or test"))
        for name in (mname, aname):
            if not (root / name).is_file():
                raise SequenceFormatError(
                    f"{manifest}:{lineno}: no clip file {name!r}")
        seq = read_sequence(root / mname)
        audio = read_audio(root / aname)
        if 0 in (seq.frames, seq.num_vertices, audio.shape[1]):
            raise SequenceFormatError(
                f"{manifest}:{lineno}: an empty clip ({seq.frames} frames, "
                f"{seq.num_vertices} vertices, audio dim {audio.shape[1]})")
        if audio.shape[0] != seq.frames:
            raise SequenceFormatError(
                f"{root / aname} has {audio.shape[0]} frames but "
                f"{root / mname} has {seq.frames}")
        vertices = seq.num_vertices if vertices is None else vertices
        audio_dim = audio.shape[1] if audio_dim is None else audio_dim
        frames = seq.frames if frames is None else frames
        for what, name, have, want in (
                ("vertices", mname, seq.num_vertices, vertices),
                ("audio dim", aname, audio.shape[1], audio_dim),
                ("frames", mname, seq.frames, frames)):
            if have != want:
                raise SequenceFormatError(
                    f"{root / name} has {what} {have}, the corpus {want}")
        records.append(SequenceRecord(sid, split, audio, seq.deformations))
        speakers.add(sid)
    n_spk = max(speakers, default=0) + 1
    try:
        cfg = CorpusConfig(num_speakers=n_spk,
                           seqs_per_speaker=max(1, len(records) // n_spk),
                           frames=frames or 1, vertices=vertices or 1,
                           audio_dim=audio_dim or 1, seed=seed)
    except ValueError as exc:
        raise SequenceFormatError(f"{manifest}: {exc}") from None
    return Corpus(config=cfg, records=records)
