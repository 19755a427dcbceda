"""Command-line pipeline tests on a miniature corpus.

The full-size pipeline is exercised once by the ``pipeline`` session fixture;
these tests cover wiring, config resolution, and the exit-code contract with
deliberately tiny models.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rvqsynth.cli import (EXIT_ARTIFACT, EXIT_CONFIG, EXIT_OK, build_parser,
                          command_options, main)
from rvqsynth.config import coerce
from rvqsynth.data import read_sequence, write_audio


GEN = ["gen-data", "--speakers", "6", "--seqs", "4", "--frames", "24",
       "--vertices", "4", "--audio-dim", "4"]
CODEC = ["train-codec", "--depth", "2", "--codebook-size", "4",
         "--code-dim", "4", "--epochs", "2"]
AR = ["train-ar", "--width", "8", "--heads", "2", "--depth-layers", "1",
      "--epochs", "1"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    corpus = str(root / "corpus")
    codec = str(root / "codec.ckpt")
    ar = str(root / "ar.ckpt")
    assert main(GEN + ["--out", corpus]) == EXIT_OK
    assert main(CODEC + ["--data", corpus, "--out", codec]) == EXIT_OK
    assert main(AR + ["--data", corpus, "--codec", codec, "--out", ar]) == EXIT_OK
    return {"root": root, "corpus": corpus, "codec": codec, "ar": ar}


def test_gen_data_writes_manifest_and_snapshot(artifacts):
    assert os.path.isfile(os.path.join(artifacts["corpus"], "manifest.txt"))
    assert os.path.isfile(os.path.join(artifacts["corpus"], "config.resolved"))


def test_checkpoints_have_config_snapshots(artifacts):
    assert os.path.isfile(artifacts["codec"] + ".config")
    assert os.path.isfile(artifacts["ar"] + ".config")


def test_generate_writes_samples(artifacts):
    out = str(artifacts["root"] / "gen")
    rc = main(["generate", "--data", artifacts["corpus"],
               "--codec", artifacts["codec"], "--ar", artifacts["ar"],
               "--out", out, "--samples", "2", "--seed", "1"])
    assert rc == EXIT_OK
    seq = read_sequence(os.path.join(out, "sample_000.rvqm"))
    assert seq.deformations.shape == (24, 12)
    assert os.path.isfile(os.path.join(out, "sample_001.rvqj"))


@pytest.mark.parametrize("strategy", ["average", "syncnet-rejection"])
def test_generate_with_fewer_candidates_than_k(artifacts, tmp_path, strategy):
    """Only knn reads ``--k`` (default 3), so two candidates are enough for
    the other strategies."""
    sync = []
    if strategy == "syncnet-rejection":
        sync = ["--sync", str(tmp_path / "sync2.ckpt")]
        assert main(["train-sync", "--data", artifacts["corpus"], "--variant",
                     "2", "--window", "8", "--epochs", "1", "--out",
                     sync[1]]) == EXIT_OK
    assert main(["generate", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--out", str(tmp_path / "g"), "--strategy", strategy,
                 "--n", "2"] + sync) == EXIT_OK
    assert os.path.isfile(tmp_path / "g" / "sample_000.rvqm")


def test_generate_is_reproducible(artifacts):
    outs = []
    for name in ("rep_a", "rep_b"):
        out = str(artifacts["root"] / name)
        assert main(["generate", "--data", artifacts["corpus"],
                     "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                     "--out", out, "--seed", "7"]) == EXIT_OK
        outs.append(read_sequence(os.path.join(out, "sample_000.rvqm")))
    np.testing.assert_array_equal(outs[0].deformations, outs[1].deformations)


def test_train_sync_and_style_and_evaluate(artifacts, capsys):
    root = artifacts["root"]
    sync2 = str(root / "sync2.ckpt")
    style = str(root / "style.ckpt")
    assert main(["train-sync", "--data", artifacts["corpus"], "--variant", "2",
                 "--window", "8", "--epochs", "1", "--out", sync2]) == EXIT_OK
    assert main(["train-style", "--data", artifacts["corpus"], "--epochs", "1",
                 "--width", "8", "--emb-dim", "6", "--out", style]) == EXIT_OK
    out = str(root / "eval")
    rc = main(["evaluate", "--data", artifacts["corpus"],
               "--codec", artifacts["codec"], "--ar", artifacts["ar"],
               "--sync2", sync2, "--style", style,
               "--samples", "3", "--clips", "2", "--out", out])
    assert rc == EXIT_OK
    table = Path(out, "table.txt").read_text()
    for key in ("l_vertex", "l_cover", "l_mean", "diversity", "sync2_score",
                "style_similarity", "style_rank"):
        assert key in table
    kv = dict(line.split("=", 1) for line in
              Path(out, "metrics.kv").read_text().splitlines())
    assert float(kv["l_cover"]) <= float(kv["l_vertex"])
    assert "samples=3" in Path(out, "config.resolved").read_text()


def test_evaluate_without_out_writes_no_file(artifacts, tmp_path, monkeypatch):
    """The snapshot goes next to a subcommand's output, and an ``evaluate``
    without ``--out`` has none: nothing lands in the working directory."""
    monkeypatch.chdir(tmp_path)
    assert main(["evaluate", "--data", artifacts["corpus"], "--codec", artifacts["codec"],
                 "--ar", artifacts["ar"], "--samples", "1", "--clips", "1"]) == EXIT_OK
    assert sorted(tmp_path.iterdir()) == []


def test_distill_produces_student(artifacts):
    out = str(artifacts["root"] / "student.ckpt")
    rc = main(["distill", "--data", artifacts["corpus"],
               "--codec", artifacts["codec"], "--ar", artifacts["ar"],
               "--strategy", "average", "--n", "3", "--epochs", "1",
               "--out", out])
    assert rc == EXIT_OK
    assert os.path.isfile(out)


def test_config_file_merging_flags_win(artifacts, tmp_path):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("speakers = 4\nseqs = 2\nframes = 24\nvertices = 4\n"
                   "audio-dim = 4\n")
    out = str(tmp_path / "corpus")
    assert main(["gen-data", "--config", str(cfg), "--out", out,
                 "--speakers", "5"]) == EXIT_OK
    snapshot = Path(out, "config.resolved").read_text()
    assert "speakers=5" in snapshot


def test_exit_code_config_errors(artifacts, tmp_path):
    # missing required setting
    assert main(["gen-data"]) == EXIT_CONFIG
    # unknown config key
    bad = tmp_path / "bad.cfg"
    bad.write_text("not-a-key = 1\n")
    assert main(["gen-data", "--config", str(bad),
                 "--out", str(tmp_path / "c")]) == EXIT_CONFIG
    # invalid option value
    assert main(["generate", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--out", str(tmp_path / "g"),
                 "--strategy", "bogus"]) == EXIT_CONFIG
    # a temperature that is not a finite number >= 0
    for bad in ("nan", "inf", "-1"):
        assert main(["generate", "--data", artifacts["corpus"],
                     "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                     "--out", str(tmp_path / "gt"),
                     "--temperature", bad]) == EXIT_CONFIG, bad
    assert not (tmp_path / "gt").exists()
    # a clip longer than the transformer temporal model's max_frames (256)
    long_corpus = str(tmp_path / "long_corpus")
    assert main(["gen-data", "--speakers", "3", "--seqs", "1", "--frames",
                 "257", "--vertices", "4", "--audio-dim", "4",
                 "--out", long_corpus]) == EXIT_OK
    transformer_ar = str(tmp_path / "transformer_ar.ckpt")
    assert main(AR + ["--data", artifacts["corpus"],
                      "--codec", artifacts["codec"], "--temporal",
                      "transformer", "--temporal-layers", "1",
                      "--out", transformer_ar]) == EXIT_OK
    assert main(["generate", "--data", long_corpus,
                 "--codec", artifacts["codec"], "--ar", transformer_ar,
                 "--out", str(tmp_path / "g")]) == EXIT_CONFIG
    # invalid AR config; distillation cannot use sync-score rejection
    assert main(AR + ["--data", artifacts["corpus"],
                      "--codec", artifacts["codec"], "--style-mode", "bogus",
                      "--out", str(tmp_path / "a.ckpt")]) == EXIT_CONFIG
    assert main(["distill", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--strategy", "syncnet-rejection", "--n", "4",
                 "--out", str(tmp_path / "s.ckpt")]) == EXIT_CONFIG
    # distillation relabels every depth of the teacher (depth 2 here)
    assert main(["distill", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--strategy", "average", "--n", "3", "--depth-limit", "1",
                 "--out", str(tmp_path / "s.ckpt")]) == EXIT_CONFIG
    # distillation needs training sequences
    corpus = tmp_path / "no_train"
    shutil.copytree(artifacts["corpus"], corpus)
    manifest = corpus / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("\ttrain\t", "\tval\t"))
    assert main(["distill", "--data", str(corpus), "--codec", artifacts["codec"],
                 "--ar", artifacts["ar"], "--out", str(tmp_path / "s.ckpt")]) \
        == EXIT_CONFIG
    # fewer than one clip or sample is refused before any work
    evaluate = ["evaluate", "--data", artifacts["corpus"],
                "--codec", artifacts["codec"], "--ar", artifacts["ar"]]
    for bad in (["--clips", "-1"], ["--clips", "0"], ["--samples", "0"]):
        assert main(evaluate + ["--samples", "2"] + bad) == EXIT_CONFIG, bad
    assert main(["generate", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--out", str(tmp_path / "g0"), "--samples", "0"]) == EXIT_CONFIG
    assert not (tmp_path / "g0").exists()
    # rejection sampling without a sync checkpoint is a missing artifact
    assert main(["generate", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--out", str(tmp_path / "g"),
                 "--strategy", "syncnet-rejection"]) == EXIT_ARTIFACT
    # the sampling options are checked before any artifact is read
    assert main(["generate", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--out", str(tmp_path / "g"), "--strategy",
                 "syncnet-rejection", "--temperature", "nan"]) == EXIT_CONFIG
    assert main(["generate", "--data", str(tmp_path / "nowhere"),
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--out", str(tmp_path / "g"),
                 "--strategy", "bogus"]) == EXIT_CONFIG
    # so are the counts that belong to the command line alone
    assert main(["generate", "--data", str(tmp_path / "nowhere"),
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--out", str(tmp_path / "g"), "--samples", "0"]) == EXIT_CONFIG
    assert main(["evaluate", "--data", str(tmp_path / "nowhere"),
                 "--codec", artifacts["codec"], "--ar", artifacts["ar"],
                 "--samples", "2", "--clips", "0"]) == EXIT_CONFIG
    # no option takes a negative, infinite or NaN number (float, then int)
    assert main(CODEC + ["--data", artifacts["corpus"], "--lr", "nan",
                         "--out", str(tmp_path / "c.ckpt")]) == EXIT_CONFIG
    assert main(AR + ["--data", artifacts["corpus"],
                      "--codec", artifacts["codec"], "--epochs", "-1",
                      "--out", str(tmp_path / "a.ckpt")]) == EXIT_CONFIG
    assert not (tmp_path / "c.ckpt").exists()
    assert not (tmp_path / "a.ckpt").exists()


def test_entry_point_reports_config_error_without_traceback(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "rvqsynth", "generate", "--data", "corpus",
         "--codec", "codec.ckpt", "--ar", "ar.ckpt", "--out", "gen",
         "--temperature", "nan"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_CONFIG
    assert proc.stderr.startswith("error: config:")
    assert "Traceback" not in proc.stderr


def test_config_snapshots_are_pinned(artifacts):
    corpus, codec, ar = artifacts["corpus"], artifacts["codec"], artifacts["ar"]
    assert Path(corpus, "config.resolved").read_text() == (
        f"audio-dim=4\nframes=24\nout={corpus}\nseed=0\nseqs=4\n"
        "speakers=6\nupper-noise=1.0\nvertices=4\n")
    assert Path(ar + ".config").read_text() == (
        f"batch=16\ncodec={codec}\ndata={corpus}\ndepth-layers=1\nepochs=1\n"
        f"heads=2\nlr=0.001\nout={ar}\nseed=0\nsoft-targets=False\n"
        "stochastic-targets=False\nstyle-mode=depth\ntemporal=conv\n"
        "temporal-layers=2\nwidth=8\n")


SAMPLING = ["depth-limit", "k", "keep-fraction", "n", "seed", "strategy",
            "temperature"]
OPTION_NAMES = {
    "gen-data": ["audio-dim", "frames", "out", "seed", "seqs", "speakers",
                 "upper-noise", "vertices"],
    "train-codec": ["batch", "beta", "code-dim", "codebook-size", "data",
                    "depth", "epochs", "lr", "out", "recon-all-depths", "seed"],
    "train-ar": ["batch", "codec", "data", "depth-layers", "epochs", "heads",
                 "lr", "out", "seed", "soft-targets", "stochastic-targets",
                 "style-mode", "temporal", "temporal-layers", "width"],
    "train-sync": ["data", "emb-dim", "epochs", "lr", "out", "seed", "variant",
                   "width", "window"],
    "train-style": ["batch", "data", "emb-dim", "epochs", "lr", "margin", "out",
                    "scale", "seed", "width"],
    "generate": sorted(SAMPLING + ["ar", "clip", "codec", "data", "out",
                                   "samples", "sync"]),
    "distill": sorted(SAMPLING + ["ar", "codec", "data", "epochs", "lr",
                                  "out"]),
    "evaluate": sorted(SAMPLING + ["ar", "clips", "codec", "data", "out",
                                   "samples", "style", "sync", "sync1",
                                   "sync2"]),
}


def test_option_surface_is_pinned():
    """Every subcommand keeps its option names, and each option's default
    converts back to itself from its string, as it would from a config file."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert sorted(sub.choices) == sorted(OPTION_NAMES)
    for command, names in OPTION_NAMES.items():
        flags = {flag[2:] for action in sub.choices[command]._actions
                 for flag in action.option_strings if flag.startswith("--")}
        assert sorted(flags - {"help", "config"}) == names, command
        for key, (kind, default, _) in command_options(command).items():
            if kind is str and default is None:
                continue  # a required path has no default
            assert coerce({key: str(default)}, {key: kind}) == {key: default}
    assert sum(map(len, OPTION_NAMES.values())) == 97
    assert command_options("train-ar")["epochs"][1] == 30
    assert command_options("train-sync")["epochs"][1] is None


def test_exit_code_missing_artifacts(artifacts, tmp_path, capsys):
    assert main(CODEC + ["--data", str(tmp_path / "nowhere"),
                         "--out", str(tmp_path / "c.ckpt")]) == EXIT_ARTIFACT
    # a corpus audio file cut inside its header is a malformed sequence file
    corpus = tmp_path / "cut_corpus"
    shutil.copytree(artifacts["corpus"], corpus)
    audio = sorted(corpus.glob("*.rvqa"))[0]
    audio.write_bytes(audio.read_bytes()[:10])
    assert main(CODEC + ["--data", str(corpus),
                         "--out", str(tmp_path / "c.ckpt")]) == EXIT_ARTIFACT
    # a manifest line without four tab-separated fields, a speaker id or a
    # header value that is not an int, a negative speaker id, an unknown split
    corpus = tmp_path / "bad_manifest"
    shutil.copytree(artifacts["corpus"], corpus)
    manifest = corpus / "manifest.txt"
    lines = manifest.read_text().splitlines()
    sid, _, clips = lines[2].split("\t", 2)
    for bad, lineno in ((lines + ["0\ttrain\tmotion_00000.rvqm"], len(lines) + 1),
                        (lines[:1] + ["x" + lines[1]] + lines[2:], 2),
                        ([lines[0].replace("vertices=", "vertices=x")]
                         + lines[1:], 1),
                        (lines[:1] + ["-2" + lines[1][1:]] + lines[2:], 2),
                        (lines[:2] + [f"{sid}\tdev\t{clips}"] + lines[3:], 3)):
        manifest.write_text("\n".join(bad) + "\n")
        assert main(CODEC + ["--data", str(corpus),
                             "--out", str(tmp_path / "c.ckpt")]) == EXIT_ARTIFACT
        assert f"manifest.txt:{lineno}: " in capsys.readouterr().err
    assert main(AR + ["--data", artifacts["corpus"],
                      "--codec", str(tmp_path / "missing.ckpt"),
                      "--out", str(tmp_path / "a.ckpt")]) == EXIT_ARTIFACT
    # a checkpoint whose JSON header is cut short
    bad = tmp_path / "bad.ckpt"
    header = b'{"arch": '
    bad.write_bytes(b"RVQC" + (1).to_bytes(4, "little")
                    + len(header).to_bytes(8, "little") + header)
    assert main(AR + ["--data", artifacts["corpus"], "--codec", str(bad),
                      "--out", str(tmp_path / "a.ckpt")]) == EXIT_ARTIFACT
    # a checkpoint whose tensor entry has no shape
    header = (b'{"arch": {}, "seed": 0, "extra": {}, "steps": {}, '
              b'"tensors": [{"name": "w"}]}')
    bad.write_bytes(b"RVQC" + (1).to_bytes(4, "little")
                    + len(header).to_bytes(8, "little") + header)
    assert main(AR + ["--data", artifacts["corpus"], "--codec", str(bad),
                      "--out", str(tmp_path / "a.ckpt")]) == EXIT_ARTIFACT
    # a codec checkpoint with a flipped byte in a config key
    raw = Path(artifacts["codec"]).read_bytes()
    bad.write_bytes(raw.replace(b'"beta"', b'"Heta"', 1))
    assert main(AR + ["--data", artifacts["corpus"], "--codec", str(bad),
                      "--out", str(tmp_path / "a.ckpt")]) == EXIT_ARTIFACT
    assert "argument 'Heta'" in capsys.readouterr().err
    # a codec checkpoint with bytes after its last tensor
    bad.write_bytes(raw + bytes(24))
    assert main(AR + ["--data", artifacts["corpus"], "--codec", str(bad),
                      "--out", str(tmp_path / "a.ckpt")]) == EXIT_ARTIFACT
    assert "24 bytes after the last tensor" in capsys.readouterr().err
    # a codec checkpoint whose depth is a string or a float (same length,
    # so the header length still holds)
    for value in (b'"x"', b"2.5"):
        bad.write_bytes(raw.replace(b'"depth": 2, ', b'"depth":' + value + b",",
                                    1))
        assert main(AR + ["--data", artifacts["corpus"], "--codec", str(bad),
                          "--out", str(tmp_path / "a.ckpt")]) == EXIT_ARTIFACT
        assert "depth cannot be" in capsys.readouterr().err
    # an AR checkpoint whose config cannot build a model
    bad.write_bytes(Path(artifacts["ar"]).read_bytes().replace(
        b'"heads": 2', b'"heads": 0', 1))
    assert main(["generate", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", str(bad),
                 "--out", str(tmp_path / "g")]) == EXIT_ARTIFACT
    assert "heads must be positive" in capsys.readouterr().err
    # a corpus whose manifest lists no test clip
    corpus = tmp_path / "no_test"
    shutil.copytree(artifacts["corpus"], corpus)
    manifest = corpus / "manifest.txt"
    manifest.write_text(manifest.read_text().replace("\ttest\t", "\ttrain\t"))
    assert main(["evaluate", "--data", str(corpus), "--codec", artifacts["codec"],
                 "--ar", artifacts["ar"]]) == EXIT_ARTIFACT
    assert "no test split" in capsys.readouterr().err


def test_generate_refuses_a_non_finite_test_clip(artifacts, tmp_path, capsys):
    """A NaN frame in a test clip's audio is a malformed sequence file."""
    corpus = tmp_path / "nan_corpus"
    shutil.copytree(artifacts["corpus"], corpus)
    line = next(line for line in (corpus / "manifest.txt").read_text().splitlines()
                if "\ttest\t" in line)
    audio = corpus / line.split("\t")[3]
    feats = np.frombuffer(audio.read_bytes()[16:], dtype="<f8").reshape(24, 4).copy()
    feats[5] = np.nan
    write_audio(feats, audio)
    assert main(["generate", "--data", str(corpus), "--codec", artifacts["codec"],
                 "--ar", artifacts["ar"], "--out", str(tmp_path / "g")]) == EXIT_ARTIFACT
    assert "non-finite values" in capsys.readouterr().err


def test_exit_code_checksum_mismatch(artifacts, tmp_path):
    """An AR model must refuse to run against a retrained codec."""
    other_codec = str(tmp_path / "other_codec.ckpt")
    assert main(CODEC + ["--data", artifacts["corpus"], "--seed", "9",
                         "--out", other_codec]) == EXIT_OK
    rc = main(["generate", "--data", artifacts["corpus"],
               "--codec", other_codec, "--ar", artifacts["ar"],
               "--out", str(tmp_path / "g")])
    assert rc == EXIT_ARTIFACT


def _pipeline(root: Path):
    """The miniature pipeline from corpus to evaluation, all under ``root``."""
    data, codec, ar, style = (str(root / name) for name in (
        "corpus", "codec.ckpt", "ar.ckpt", "style.ckpt"))
    syncs = [str(root / f"sync{v}.ckpt") for v in (1, 2)]
    for argv in (
            GEN + ["--out", data],
            CODEC + ["--data", data, "--out", codec],
            AR + ["--data", data, "--codec", codec, "--out", ar],
            *(["train-sync", "--data", data, "--variant", str(v), "--window", "8",
               "--epochs", "1", "--out", out] for v, out in zip((1, 2), syncs)),
            ["train-style", "--data", data, "--epochs", "1", "--width", "8",
             "--emb-dim", "6", "--out", style],
            ["generate", "--data", data, "--codec", codec, "--ar", ar,
             "--samples", "2", "--strategy", "average", "--n", "3",
             "--out", str(root / "gen")],
            ["evaluate", "--data", data, "--codec", codec, "--ar", ar,
             "--sync1", syncs[0], "--sync2", syncs[1], "--style", style,
             "--samples", "3", "--clips", "2", "--out", str(root / "eval")]):
        assert main(argv) == EXIT_OK


def test_pipeline_is_deterministic(tmp_path):
    """Two runs with one seed write the same bytes to every file, once the
    run directory is taken out of the config snapshots."""
    snapshots = []
    for name in ("run_a", "run_b"):
        root = tmp_path / name
        _pipeline(root)
        snapshots.append({
            str(path.relative_to(root)):
                path.read_bytes().replace(str(root).encode(), b"<run>")
            for path in sorted(root.rglob("*")) if path.is_file()})
    assert any(name.endswith("metrics.kv") for name in snapshots[0])
    assert snapshots[0] == snapshots[1]


def test_checkpoint_with_separate_attention_projections_is_refused(
        artifacts, tmp_path, capsys):
    """An AR checkpoint from before the fused projection, with
    ``attn.wq``/``wk``/``wv`` tensors, names the missing ``attn.wqkv``
    weight in a ``ContainerError``; the CLI exits with 3."""
    from rvqsynth.armodel import ARModel
    from rvqsynth.checkpoint import ContainerError, load_container, save_container
    from rvqsynth.nn import Parameter

    arch, arrays, seed, extra = load_container(artifacts["ar"])
    params = {}
    for name in arrays:
        blocks = [(name, slice(None))]
        if ".attn.wqkv." in name:
            W = arrays[name].shape[-1] // 3
            blocks = [(name.replace("wqkv", "w" + c), slice(i * W, (i + 1) * W))
                      for i, c in enumerate("qkv")]
        for new, cols in blocks:
            params[new] = Parameter(arrays[name][..., cols])
    old = tmp_path / "separate_qkv.ckpt"
    save_container(old, arch, params, seed, extra)
    with pytest.raises(ContainerError, match=r"depth_blocks\.0\.attn\.wqkv\.weight"):
        ARModel.load(old)
    capsys.readouterr()
    assert main(["generate", "--data", artifacts["corpus"],
                 "--codec", artifacts["codec"], "--ar", str(old),
                 "--out", str(tmp_path / "g")]) == EXIT_ARTIFACT
    assert "attn.wqkv.weight" in capsys.readouterr().err
