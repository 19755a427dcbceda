"""Command-line pipeline: data generation, training, generation, evaluation.

Every subcommand accepts ``--config FILE`` (flat key=value, ``include``
supported) plus direct flags; flags override config values. The options are
the ``config.option`` fields of the subcommand's config dataclass plus the
CLI-only entries of ``_COMMANDS``; each declares its valid values on its type,
which ``--help`` shows, and all are checked before any artifact is read. Each
successful run with an output writes a resolved-config snapshot next to it.
Progress is logged as line-oriented ``key=value`` records. Exit codes: 0
success, 2 config error (a negative, infinite or NaN number included), 3
missing or malformed input artifact (checkpoint, sequence or audio file, a
corpus without a test split to evaluate) or checksum mismatch, 4 numeric
divergence. The work itself, evaluation included, is in the library modules.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

import numpy as np

from . import metrics
from .metrics import run_evaluation
from .armodel import ARConfig, ARModel, train_ar
from .checkpoint import ContainerError, file_checksum, write_atomic
from .codec import Codec, CodecConfig, train_codec, write_grid
from .config import ConfigError, Size, build, check, coerce, describe, options, \
    parse_config_file, write_snapshot
from .data import Corpus, MotionSequence, generate_corpus, load_corpus, \
    save_corpus, style_reference, write_sequence, CorpusConfig, \
    SequenceFormatError
from .nn import DivergenceError
from .sampling import SamplingConfig, distill, generate_batch

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ARTIFACT = 3
EXIT_DIVERGED = 4


class ArtifactError(Exception):
    """A required input file is missing or fails its checksum."""


def log(**fields):
    print(" ".join(f"{k}={v}" for k, v in fields.items()), flush=True)


def command_options(command: str) -> dict:
    """{option name: (type, default, help)} of one subcommand."""
    _, config_cls, table = _COMMANDS[command]
    return {**options(config_cls), **table}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvqsynth",
        description="Probabilistic coarse-to-fine motion synthesis pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        for key, (kind, default, help_text) in command_options(name).items():
            valid = f"{describe(kind)}; " if hasattr(kind, "__metadata__") else ""
            p.add_argument(f"--{key}", default=None,
                           help=f"{help_text} ({valid}default {default})")
    return parser


def resolve_options(args: argparse.Namespace) -> dict:
    """Merge config-file values and CLI flags; flags win; validate all keys
    and the CLI-only values. A path with no default is required."""
    opts = command_options(args.command)
    raw = {}
    if args.config is not None:
        raw.update(parse_config_file(args.config))
    for key in opts:
        flag = getattr(args, key.replace("-", "_"))
        if flag is not None:
            raw[key] = flag
    resolved = {k: default for k, (_, default, _) in opts.items()}
    resolved.update(coerce(raw, {k: kind for k, (kind, _, _) in opts.items()}))
    for key, (kind, _, _) in opts.items():
        if kind is str and resolved[key] is None:
            raise ConfigError(f"missing required setting --{key}")
    check(resolved, {key: kind for key, (kind, _, _) in _COMMANDS[args.command][2].items()
                     if hasattr(kind, "__metadata__")})
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
    return load_corpus(path)


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


def _optional(path, load, what: str):
    return load(_require_file(path, what)) if path else None


def _maybe_sync(r: dict):
    if not r["sync"] and r["strategy"] == "syncnet-rejection":
        raise ArtifactError("syncnet-rejection requires --sync")
    return _optional(r["sync"], metrics.SyncNet.load, "sync checkpoint")


# -- subcommands -----------------------------------------------------------------


def cmd_gen_data(r: dict, cfg: CorpusConfig) -> None:
    corpus = generate_corpus(cfg)
    save_corpus(corpus, r["out"])
    log(event="gen-data", records=len(corpus.records),
        speakers=cfg.num_speakers, out=r["out"])


def cmd_train_codec(r: dict, cfg: CodecConfig) -> None:
    corpus = _load_corpus(r["data"])
    cfg = replace(cfg, input_dim=3 * corpus.vertices)
    codec, _ = train_codec(
        corpus, cfg, log=lambda row: log(event="train-codec", **row))
    codec.save(r["out"], seed=cfg.seed)
    log(event="train-codec", status="saved", out=r["out"])


def cmd_train_ar(r: dict, cfg: ARConfig) -> None:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    cfg = replace(cfg, code_dim=codec.config.code_dim,
                  codebook_size=codec.config.codebook_size,
                  depth=codec.config.depth, audio_dim=corpus.config.audio_dim,
                  motion_dim=3 * corpus.vertices)
    model, _ = train_ar(codec, corpus, cfg,
                        log=lambda row: log(event="train-ar", **row),
                        codec_checksum=file_checksum(r["codec"]))
    model.save(r["out"], seed=cfg.seed)
    log(event="train-ar", status="saved", out=r["out"])


def cmd_train_sync(r: dict, cfg: metrics.SyncConfig) -> None:
    corpus = _load_corpus(r["data"])
    epochs = r["epochs"] if r["epochs"] is not None \
        else (6 if cfg.variant == 1 else 12)
    cfg = replace(cfg, motion_dim=3 * corpus.vertices,
                  audio_dim=corpus.config.audio_dim, epochs=epochs)
    net, _ = metrics.train_sync_net(
        corpus, cfg.variant, cfg,
        log=lambda row: log(event="train-sync", variant=cfg.variant, **row))
    net.save(r["out"], seed=cfg.seed)
    log(event="train-sync", status="saved", out=r["out"])


def cmd_train_style(r: dict, cfg: metrics.StyleConfig) -> None:
    corpus = _load_corpus(r["data"])
    cfg = replace(cfg, motion_dim=3 * corpus.vertices)
    net, speakers, _ = metrics.train_style_net(
        corpus, cfg, log=lambda row: log(event="train-style", **row))
    net.save(r["out"], speakers, seed=cfg.seed)
    log(event="train-style", status="saved", out=r["out"])


def cmd_generate(r: dict, scfg: SamplingConfig) -> None:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    model = _load_ar(r["ar"], r["codec"])
    sync = _maybe_sync(r)
    test = corpus.split("test")
    if not 0 <= r["clip"] < len(test):
        raise ConfigError(f"clip index {r['clip']} out of range [0, {len(test)})")
    rec = test[r["clip"]]
    rng = np.random.default_rng(scfg.seed)
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
    log(event="generate", clip=r["clip"], strategy=scfg.strategy,
        samples=motions.shape[0], out=r["out"])


def cmd_distill(r: dict, scfg: SamplingConfig) -> None:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    teacher = _load_ar(r["ar"], r["codec"])
    student_cfg = replace(teacher.config, epochs=r["epochs"], lr=r["lr"],
                          seed=scfg.seed)
    student, _ = distill(teacher, codec, corpus, scfg, student_cfg,
                         log=lambda row: log(event="distill", **row),
                         codec_checksum=file_checksum(r["codec"]))
    student.save(r["out"], seed=scfg.seed)
    log(event="distill", status="saved", out=r["out"])


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


def cmd_evaluate(r: dict, scfg: SamplingConfig) -> None:
    corpus = _load_corpus(r["data"])
    codec = _load_codec(r["codec"])
    model = _load_ar(r["ar"], r["codec"])
    sync1, sync2 = (_optional(r[key], metrics.SyncNet.load, "sync checkpoint")
                    for key in ("sync1", "sync2"))
    stylenet = _optional(r["style"], lambda path: metrics.StyleNet.load(path)[0],
                         "style checkpoint")
    results = run_evaluation(corpus, codec, model, sync1, sync2, stylenet,
                             scfg, r["samples"], r["clips"], scfg.seed,
                             reject_sync=_maybe_sync(r))
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


_DATA = {"data": (str, None, "corpus directory")}
_CODEC = {"codec": (str, None, "trained codec checkpoint")}
_AR = {"ar": (str, None, "trained autoregressive checkpoint")}
_SYNC = {"sync": (str, "", "sync checkpoint (for syncnet-rejection)")}
_CKPT_OUT = {"out": (str, None, "output checkpoint path")}

# Subcommand -> (function, config class, the options of the CLI alone as
# {name: (type, default, help)}). The config class's option fields are the
# other options; a table entry named like one of them replaces it.
_COMMANDS = {
    "gen-data": (cmd_gen_data, CorpusConfig,
                 {"out": (str, None, "output corpus directory")}),
    "train-codec": (cmd_train_codec, CodecConfig, {**_DATA, **_CKPT_OUT}),
    "train-ar": (cmd_train_ar, ARConfig, {
        **_DATA, **_CODEC, **_CKPT_OUT,
        "epochs": (int, 30, "training epochs")}),
    "train-sync": (cmd_train_sync, metrics.SyncConfig, {
        **_DATA, **_CKPT_OUT,
        "epochs": (int | None, None, "training epochs (default 6/12 by variant)")}),
    "train-style": (cmd_train_style, metrics.StyleConfig, {**_DATA, **_CKPT_OUT}),
    "generate": (cmd_generate, SamplingConfig, {
        **_DATA, **_CODEC, **_AR, **_SYNC,
        "out": (str, None, "output directory"),
        "clip": (int, 0, "index into the test split"),
        "samples": (Size, 1, "independent sequences to draw")}),
    "distill": (cmd_distill, SamplingConfig, {
        **_DATA, **_CODEC, "ar": (str, None, "teacher checkpoint"),
        "out": (str, None, "student checkpoint path"),
        "epochs": (int, 30, "student training epochs"),
        "lr": (float, 1e-3, "student learning rate")}),
    "evaluate": (cmd_evaluate, SamplingConfig, {
        **_DATA, **_CODEC, **_AR,
        "sync1": (str, "", "variant-1 sync checkpoint"),
        "sync2": (str, "", "variant-2 sync checkpoint"),
        "style": (str, "", "style recognizer checkpoint"), **_SYNC,
        "out": (str, "", "directory for table.txt and metrics.kv"),
        "samples": (Size, 100, "sample-set size |S| per clip"),
        "clips": (Size, 8, "test clips to evaluate")}),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        resolved = resolve_options(args)
        command, config_cls, _ = _COMMANDS[args.command]
        command(resolved, build(config_cls, resolved))
        if resolved["out"]:
            _snapshot(resolved["out"], resolved)
        return EXIT_OK
    except (ArtifactError, ContainerError, SequenceFormatError,
            FileNotFoundError) as exc:
        print(f"error: artifact: {exc}", file=sys.stderr)
        return EXIT_ARTIFACT
    except DivergenceError as exc:
        print(f"error: diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ConfigError, ValueError) as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
