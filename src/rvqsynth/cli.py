"""Command-line pipeline: data generation, training, generation, evaluation.

Every subcommand accepts ``--config FILE`` (flat key=value, ``include``
supported) plus direct flags; flags override config values. Each run writes a
resolved-config snapshot next to its primary output. Progress is logged as
line-oriented ``key=value`` records. Exit codes: 0 success, 2 config error,
3 missing or malformed input artifact (checkpoint, sequence or audio file,
a corpus without a test split to evaluate) or checksum mismatch, 4 numeric
divergence. The work itself, evaluation included, is in the library modules.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import metrics
from .metrics import run_evaluation
from .armodel import ARConfig, ARModel, train_ar
from .checkpoint import ContainerError, file_checksum, write_atomic
from .codec import Codec, CodecConfig, train_codec, write_grid
from .config import ConfigError, coerce, parse_bool, parse_config_file, \
    write_snapshot
from .data import Corpus, MotionSequence, generate_corpus, load_corpus, \
    save_corpus, style_reference, write_sequence, CorpusConfig, \
    SequenceFormatError
from .nn import DivergenceError
from .sampling import STRATEGIES, SamplingConfig, distill, generate_batch
from .tensor import ShapeError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ARTIFACT = 3
EXIT_DIVERGED = 4


class ArtifactError(Exception):
    """A required input file is missing or fails its checksum."""


def _opt_int(value):
    return None if value in (None, "", "none") else int(value)


# Per-subcommand option tables: key -> (converter, default, help).
_SAMPLING_OPTS = {
    "strategy": (str, "default", f"sampling strategy ({'|'.join(STRATEGIES)})"),
    "n": (int, 1, "candidate codes drawn per frame"),
    "k": (int, 3, "neighborhood size for knn aggregation"),
    "keep-fraction": (float, 1.0, "fraction kept by syncnet-rejection"),
    "depth-limit": (_opt_int, None, "truncate generation to d* depths"),
    "temperature": (float, 1.0, "sampling temperature (0 = greedy)"),
}

OPTIONS = {
    "gen-data": {
        "out": (str, None, "output corpus directory"),
        "speakers": (int, 64, "number of synthetic speakers"),
        "seqs": (int, 16, "sequences per speaker"),
        "frames": (int, 32, "frames per sequence"),
        "vertices": (int, 20, "mesh vertices"),
        "audio-dim": (int, 8, "driving-signal feature dim"),
        "upper-noise": (float, 1.0, "upper-region noise multiplier"),
        "seed": (int, 0, "corpus RNG seed"),
    },
    "train-codec": {
        "data": (str, None, "corpus directory"),
        "out": (str, None, "output checkpoint path"),
        "depth": (int, 4, "RVQ depth D"),
        "codebook-size": (int, 32, "codebook size |C|"),
        "code-dim": (int, 16, "code dimension N_C"),
        "beta": (float, 0.25, "commitment loss weight"),
        "lr": (float, 2e-3, "Adam learning rate"),
        "epochs": (int, 60, "training epochs"),
        "batch": (int, 16, "batch size"),
        "recon-all-depths": (parse_bool, True,
                             "also reconstruct at random truncated depths"),
        "seed": (int, 0, "training seed"),
    },
    "train-ar": {
        "data": (str, None, "corpus directory"),
        "codec": (str, None, "trained codec checkpoint"),
        "out": (str, None, "output checkpoint path"),
        "width": (int, 64, "model width"),
        "depth-layers": (int, 2, "depth-model attention layers"),
        "heads": (int, 4, "attention heads"),
        "temporal": (str, "conv", "temporal model kind (conv|transformer)"),
        "temporal-layers": (int, 2, "transformer temporal layers"),
        "style-mode": (str, "depth", "style token target (depth|temporal)"),
        "lr": (float, 1e-3, "Adam learning rate"),
        "epochs": (int, 30, "training epochs"),
        "batch": (int, 16, "batch size"),
        "stochastic-targets": (parse_bool, False,
                               "sample target grids from quantizer softmax"),
        "soft-targets": (parse_bool, False,
                         "smooth targets over near-tied codes"),
        "seed": (int, 0, "training seed"),
    },
    "train-sync": {
        "data": (str, None, "corpus directory"),
        "out": (str, None, "output checkpoint path"),
        "variant": (int, 2, "1 = fusion scorer, 2 = cosine embeddings"),
        "width": (int, 24, "conv width"),
        "emb-dim": (int, 16, "embedding dimension"),
        "window": (int, 20, "scoring window in frames"),
        "lr": (float, 3e-3, "Adam learning rate"),
        "epochs": (_opt_int, None, "training epochs (default 6/12 by variant)"),
        "seed": (int, 0, "training seed"),
    },
    "train-style": {
        "data": (str, None, "corpus directory"),
        "out": (str, None, "output checkpoint path"),
        "width": (int, 48, "conv width"),
        "emb-dim": (int, 24, "embedding dimension"),
        "margin": (float, 0.3, "angular margin"),
        "scale": (float, 16.0, "logit scale"),
        "lr": (float, 1e-3, "Adam learning rate"),
        "epochs": (int, 10, "training epochs"),
        "batch": (int, 32, "batch size"),
        "seed": (int, 0, "training seed"),
    },
    "generate": {
        "data": (str, None, "corpus directory"),
        "codec": (str, None, "trained codec checkpoint"),
        "ar": (str, None, "trained autoregressive checkpoint"),
        "sync": (str, "", "sync checkpoint (for syncnet-rejection)"),
        "out": (str, None, "output directory"),
        "clip": (int, 0, "index into the test split"),
        "samples": (int, 1, "independent sequences to draw"),
        "seed": (int, 0, "sampling seed"),
        **_SAMPLING_OPTS,
    },
    "distill": {
        "data": (str, None, "corpus directory"),
        "codec": (str, None, "trained codec checkpoint"),
        "ar": (str, None, "teacher checkpoint"),
        "out": (str, None, "student checkpoint path"),
        "epochs": (int, 30, "student training epochs"),
        "lr": (float, 1e-3, "student learning rate"),
        "seed": (int, 0, "relabeling/training seed"),
        **_SAMPLING_OPTS,
    },
    "evaluate": {
        "data": (str, None, "corpus directory"),
        "codec": (str, None, "trained codec checkpoint"),
        "ar": (str, None, "trained autoregressive checkpoint"),
        "sync1": (str, "", "variant-1 sync checkpoint"),
        "sync2": (str, "", "variant-2 sync checkpoint"),
        "style": (str, "", "style recognizer checkpoint"),
        "sync": (str, "", "sync checkpoint (for syncnet-rejection)"),
        "out": (str, "", "directory for table.txt and metrics.kv"),
        "samples": (int, 100, "sample-set size |S| per clip"),
        "clips": (int, 8, "test clips to evaluate"),
        "seed": (int, 0, "evaluation seed"),
        **_SAMPLING_OPTS,
    },
}

_REQUIRED = {
    "gen-data": ("out",),
    "train-codec": ("data", "out"),
    "train-ar": ("data", "codec", "out"),
    "train-sync": ("data", "out"),
    "train-style": ("data", "out"),
    "generate": ("data", "codec", "ar", "out"),
    "distill": ("data", "codec", "ar", "out"),
    "evaluate": ("data", "codec", "ar"),
}


def log(**fields):
    print(" ".join(f"{k}={v}" for k, v in fields.items()), flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvqsynth",
        description="Probabilistic coarse-to-fine motion synthesis pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, opts in OPTIONS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for key, (_, default, help_text) in opts.items():
            p.add_argument(f"--{key}", default=None,
                           help=f"{help_text} (default {default})")
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge config-file values and CLI flags; flags win; validate all keys."""
    opts = OPTIONS[args.command]
    schema = {k: conv for k, (conv, _, _) in opts.items()}
    raw = {}
    if args.config is not None:
        raw.update(parse_config_file(args.config))
    for key in opts:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            raw[key] = flag
    resolved = {k: default for k, (_, default, _) in opts.items()}
    resolved.update(coerce(raw, schema))
    for key in _REQUIRED[args.command]:
        if resolved[key] is None:
            raise ConfigError(f"missing required setting --{key}")
    return resolved


def _snapshot(primary_output, resolved: dict):
    primary = str(primary_output)
    if os.path.isdir(primary):
        path = os.path.join(primary, "config.resolved")
    else:
        path = primary + ".config"
    write_snapshot(path, {k: v for k, v in resolved.items() if v is not None})


def _require_file(path, what: str) -> str:
    if not path or not os.path.isfile(path):
        raise ArtifactError(f"missing {what}: {path!r}")
    return path


def _load_corpus(path) -> Corpus:
    _require_file(os.path.join(path, "manifest.txt"), "corpus manifest")
    try:
        return load_corpus(path)
    except FileNotFoundError as exc:
        raise ArtifactError(str(exc))


def _load_codec(path) -> Codec:
    return Codec.load(_require_file(path, "codec checkpoint"))


def _load_ar(path, codec_path) -> ARModel:
    model = ARModel.load(_require_file(path, "AR checkpoint"))
    actual = file_checksum(codec_path)
    if model.codec_checksum and model.codec_checksum != actual:
        raise ArtifactError(
            f"AR model was trained against a different codec "
            f"(expected {model.codec_checksum[:12]}, got {actual[:12]})")
    return model


def _sampling_config(r: dict) -> SamplingConfig:
    return SamplingConfig(
        strategy=r["strategy"], n=r["n"], k=r["k"],
        keep_fraction=r["keep-fraction"], depth_limit=r["depth-limit"],
        temperature=r["temperature"], seed=r["seed"])


def _maybe_sync(r: dict):
    if r.get("sync"):
        return metrics.SyncNet.load(_require_file(r["sync"], "sync checkpoint"))
    if r["strategy"] == "syncnet-rejection":
        raise ArtifactError("syncnet-rejection requires --sync")
    return None


# -- subcommands -----------------------------------------------------------------


def cmd_gen_data(r: dict) -> int:
    cfg = CorpusConfig(num_speakers=r["speakers"], seqs_per_speaker=r["seqs"],
                       frames=r["frames"], vertices=r["vertices"],
                       audio_dim=r["audio-dim"], upper_noise=r["upper-noise"],
                       seed=r["seed"])
    corpus = generate_corpus(cfg)
    save_corpus(corpus, r["out"])
    _snapshot(r["out"], r)
    log(event="gen-data", records=len(corpus.records),
        speakers=cfg.num_speakers, out=r["out"])
    return EXIT_OK


def cmd_train_codec(r: dict) -> int:
    corpus = _load_corpus(r["data"])
    cfg = CodecConfig(input_dim=3 * corpus.vertices, depth=r["depth"],
                      codebook_size=r["codebook-size"], code_dim=r["code-dim"],
                      beta=r["beta"], lr=r["lr"], epochs=r["epochs"],
                      batch=r["batch"], recon_all_depths=r["recon-all-depths"],
                      seed=r["seed"])
    codec, _ = train_codec(
        corpus, cfg, log=lambda row: log(event="train-codec", **row))
    codec.save(r["out"], seed=cfg.seed)
    _snapshot(r["out"], r)
    log(event="train-codec", status="saved", out=r["out"])
    return EXIT_OK


def cmd_train_ar(r: dict) -> int:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    cfg = ARConfig(code_dim=codec.config.code_dim,
                   codebook_size=codec.config.codebook_size,
                   depth=codec.config.depth, width=r["width"],
                   audio_dim=corpus.config.audio_dim,
                   motion_dim=3 * corpus.vertices,
                   depth_layers=r["depth-layers"], heads=r["heads"],
                   temporal=r["temporal"], temporal_layers=r["temporal-layers"],
                   style_mode=r["style-mode"], lr=r["lr"], epochs=r["epochs"],
                   batch=r["batch"], seed=r["seed"],
                   stochastic_targets=r["stochastic-targets"],
                   soft_targets=r["soft-targets"])
    model, _ = train_ar(codec, corpus, cfg,
                        log=lambda row: log(event="train-ar", **row),
                        codec_checksum=file_checksum(r["codec"]))
    model.save(r["out"], seed=cfg.seed)
    _snapshot(r["out"], r)
    log(event="train-ar", status="saved", out=r["out"])
    return EXIT_OK


def cmd_train_sync(r: dict) -> int:
    corpus = _load_corpus(r["data"])
    epochs = r["epochs"] if r["epochs"] is not None \
        else (6 if r["variant"] == 1 else 12)
    cfg = metrics.SyncConfig(variant=r["variant"],
                             motion_dim=3 * corpus.vertices,
                             audio_dim=corpus.config.audio_dim,
                             width=r["width"], emb_dim=r["emb-dim"],
                             window=r["window"], lr=r["lr"], epochs=epochs,
                             seed=r["seed"])
    net, _ = metrics.train_sync_net(
        corpus, r["variant"], cfg,
        log=lambda row: log(event="train-sync", variant=r["variant"], **row))
    net.save(r["out"], seed=cfg.seed)
    _snapshot(r["out"], r)
    log(event="train-sync", status="saved", out=r["out"])
    return EXIT_OK


def cmd_train_style(r: dict) -> int:
    corpus = _load_corpus(r["data"])
    cfg = metrics.StyleConfig(motion_dim=3 * corpus.vertices,
                              width=r["width"], emb_dim=r["emb-dim"],
                              margin=r["margin"], scale=r["scale"],
                              lr=r["lr"], epochs=r["epochs"],
                              batch=r["batch"], seed=r["seed"])
    net, speakers, _ = metrics.train_style_net(
        corpus, cfg, log=lambda row: log(event="train-style", **row))
    net.save(r["out"], speakers, seed=cfg.seed)
    _snapshot(r["out"], r)
    log(event="train-style", status="saved", out=r["out"])
    return EXIT_OK


def cmd_generate(r: dict) -> int:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    model = _load_ar(r["ar"], r["codec"])
    sync = _maybe_sync(r)
    scfg = _sampling_config(r)
    test = corpus.split("test")
    if not 0 <= r["clip"] < len(test):
        raise ConfigError(f"clip index {r['clip']} out of range [0, {len(test)})")
    rec = test[r["clip"]]
    rng = np.random.default_rng(r["seed"])
    sref = style_reference(corpus, rec, rng)
    motions, grids = generate_batch(model, codec, rec.audio, sref, scfg,
                                    n_samples=r["samples"], sync_model=sync,
                                    rng=rng)
    os.makedirs(r["out"], exist_ok=True)
    for i in range(motions.shape[0]):
        write_sequence(MotionSequence(motions[i], corpus.vertices,
                                      corpus.lip_indices),
                       os.path.join(r["out"], f"sample_{i:03d}.rvqm"))
        write_grid(grids[i], model.config.codebook_size,
                   os.path.join(r["out"], f"sample_{i:03d}.rvqj"))
    _snapshot(r["out"], r)
    log(event="generate", clip=r["clip"], strategy=scfg.strategy,
        samples=motions.shape[0], out=r["out"])
    return EXIT_OK


def cmd_distill(r: dict) -> int:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    teacher = _load_ar(r["ar"], r["codec"])
    scfg = _sampling_config(r)
    from dataclasses import replace
    student_cfg = replace(teacher.config, epochs=r["epochs"], lr=r["lr"],
                          seed=r["seed"])
    student, _ = distill(teacher, codec, corpus, scfg, student_cfg,
                         log=lambda row: log(event="distill", **row),
                         codec_checksum=file_checksum(r["codec"]))
    student.save(r["out"], seed=r["seed"])
    _snapshot(r["out"], r)
    log(event="distill", status="saved", out=r["out"])
    return EXIT_OK


def format_table(results: dict) -> str:
    method = results["method"]
    width = max(len(k) for k in results) + 2
    lines = [f"{'metric'.ljust(width)}{'method: ' + method}",
             "-" * (width + 24)]
    for key, value in results.items():
        if key == "method":
            continue
        shown = f"{value:.6f}" if isinstance(value, float) else str(value)
        lines.append(f"{key.ljust(width)}{shown}")
    return "\n".join(lines)


def cmd_evaluate(r: dict) -> int:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    model = _load_ar(r["ar"], r["codec"])
    sync1 = metrics.SyncNet.load(_require_file(r["sync1"], "sync checkpoint")) \
        if r["sync1"] else None
    sync2 = metrics.SyncNet.load(_require_file(r["sync2"], "sync checkpoint")) \
        if r["sync2"] else None
    stylenet = None
    if r["style"]:
        stylenet, _ = metrics.StyleNet.load(
            _require_file(r["style"], "style checkpoint"))
    reject_sync = _maybe_sync(r)
    scfg = _sampling_config(r)
    results = run_evaluation(corpus, codec, model, sync1, sync2, stylenet,
                             scfg, r["samples"], r["clips"], r["seed"],
                             reject_sync=reject_sync)
    table = format_table(results)
    print(table, flush=True)
    for key, value in results.items():
        log(event="evaluate", metric=key, value=value)
    if r["out"]:
        os.makedirs(r["out"], exist_ok=True)
        write_atomic(os.path.join(r["out"], "table.txt"),
                     [(table + "\n").encode()])
        write_atomic(os.path.join(r["out"], "metrics.kv"), [
            "".join(f"{k}={v}\n" for k, v in results.items()).encode()])
        _snapshot(r["out"], r)
    return EXIT_OK


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-codec": cmd_train_codec,
    "train-ar": cmd_train_ar,
    "train-sync": cmd_train_sync,
    "train-style": cmd_train_style,
    "generate": cmd_generate,
    "distill": cmd_distill,
    "evaluate": cmd_evaluate,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        resolved = resolve_options(args)
        return _COMMANDS[args.command](resolved)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ArtifactError, ContainerError, SequenceFormatError,
            FileNotFoundError) as exc:
        print(f"error: artifact: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except DivergenceError as exc:
        print(f"error: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, ShapeError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
