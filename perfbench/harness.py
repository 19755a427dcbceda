"""Measurement loop, statistics and the result line.

Times are wall-clock ``time.perf_counter`` seconds around each op call; input
generation, output checks and the calibration kernel sit outside the timed
region. Only whole rounds are measured, so a workload whose kinds differ in
cost always contributes every kind in the same proportion. Reported times
are scaled to the reference host speed (see ``calibrate``); the summary line
also gives them unscaled.
"""

from __future__ import annotations

import itertools
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import calibrate
import spans
from workloads import KIND_NAMES

# name -> unit; every name is reported on every workload with --trace 0.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "items_per_s": "1/s",
}

# Spans whose work happens in set-up; reported per set-up, all others per round.
SETUP_SPANS = ("data.generate_corpus", "checkpoint.save_container",
               "checkpoint.load_container")


def per_layer_metrics() -> list:
    """(name, unit, better) of every metric reported with --trace 1."""
    out = []
    for name in spans.SPAN_NAMES:
        out += [(f"{name}.calls", "count", "lower"),
                (f"{name}.incl_s", "s", "lower"),
                (f"{name}.self_s", "s", "lower")]
    for kind in KIND_NAMES:
        out += [(f"op.{kind}.items_per_s", "1/s", "higher"),
                (f"op.{kind}.op_s_p50", "s", "lower")]
    out += [("armodel.depth_passes_per_frame", "passes/frame", "lower"),
            ("codec.decode.calls_per_frame", "calls/frame", "lower"),
            ("trace.overhead_pct", "%", "lower")]
    return out


def tail(samples):
    """Highest nearest-rank percentile with at least ten samples beyond it:
    (percentile, value), or None with ten samples or fewer."""
    ordered = sorted(samples)
    rank = len(ordered) - 10
    if rank < 1:
        return None
    return 100.0 * rank / len(ordered), ordered[rank - 1]


@dataclass
class Measurement:
    op_s: dict = field(default_factory=dict)      # kind -> [seconds per op]
    op_items: dict = field(default_factory=dict)  # kind -> items per op
    round_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)     # calibration kernel seconds
    items: int = 0
    frames: int = 0
    busy_s: float = 0.0                           # sum of op seconds

    @property
    def rounds(self) -> int:
        return len(self.round_s)

    @property
    def scale(self) -> float:
        """Factor from measured seconds to reference-speed seconds."""
        return calibrate.REFERENCE_S / statistics.mean(self.ref_s)


@dataclass
class Counts:
    attempted: int = 0
    failed: int = 0


def _run_op(kind, state, seed, index, counts: Counts):
    """Run, time and check one op: (seconds, fingerprint) or None if it
    failed. An op that raises is counted and reported; the loop goes on."""
    counts.attempted += 1
    inputs = kind.inputs(state, seed, index)
    try:
        t0 = time.perf_counter()
        output = kind.run(state, inputs)
        seconds = time.perf_counter() - t0
        fingerprint = kind.check(state, inputs, output)
    except Exception:
        counts.failed += 1
        traceback.print_exc()
        return None
    return seconds, fingerprint


def _round(workload, state, seed, indices, counts, into: Measurement):
    """One op of each kind; returns {kind: fingerprint} of the ops that passed."""
    fingerprints, total, complete = {}, 0.0, True
    for kind in workload.kinds:
        last = into.op_s.get(kind.name, [0.0])[-1]
        into.ref_s += calibrate.sample(last)
        done = _run_op(kind, state, seed, next(indices), counts)
        if done is None:
            complete = False
            continue
        seconds, fingerprints[kind.name] = done
        total += seconds
        into.op_s.setdefault(kind.name, []).append(seconds)
        into.op_items[kind.name] = kind.items(state)
        into.items += into.op_items[kind.name]
        into.frames += kind.frames
        into.busy_s += seconds
    if complete:
        into.round_s.append(total)
    return fingerprints


def _measure(workload, state, seed, seconds, indices, counts) -> Measurement:
    out = Measurement()
    start = time.perf_counter()
    while True:
        _round(workload, state, seed, indices, counts, out)
        if time.perf_counter() - start >= seconds:
            return out


@dataclass
class Result:
    workload: str
    trace: bool
    setup_s: list
    fingerprint: dict
    plain: Measurement
    counts: Counts
    traced: Measurement | None = None
    tracer: spans.Tracer | None = None
    setup_tracer: spans.Tracer | None = None
    depth_passes: int = 0


def run(workload, seed: int, seconds: float, trace: bool, root,
        setup_repeats: int) -> Result:
    """Set up ``setup_repeats`` times, run one warm-up round, then measure
    whole rounds for ``seconds``; with ``trace``, half the time untraced and
    half traced. The warm-up round is checked and gives the fingerprint; it
    is not timed, as the first fits page in memory that later ones reuse."""
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        setup_s, state = [], None
        for _ in range(setup_repeats):
            state = None  # free the previous set-up first: a steady peak RSS
            t0 = time.perf_counter()
            state = workload.setup(seed, workdir)
            setup_s.append(time.perf_counter() - t0)
        counts = Counts()
        indices = itertools.count()
        fingerprint = _round(workload, state, seed, indices, counts, Measurement())
        share = seconds / 2 if trace else seconds
        plain = _measure(workload, state, seed, share, indices, counts)
        result = Result(workload.name, trace, setup_s, fingerprint, plain, counts)
        if trace:
            result.setup_tracer = spans.Tracer()
            with spans.installed(result.setup_tracer):
                workload.setup(seed, workdir)
            result.tracer = spans.Tracer()
            passes_before = state.model.depth_pass_count if state.model else 0
            with spans.installed(result.tracer):
                result.traced = _measure(workload, state, seed, share,
                                         indices, counts)
            if state.model is not None:
                result.depth_passes = state.model.depth_pass_count - passes_before
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(result: Result) -> dict:
    m = result.plain
    values = {
        # set-up runs just before the measurement, so the same scale holds
        "setup_s": statistics.median(result.setup_s) * m.scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "items_per_s": m.items / (m.busy_s * m.scale),
    }
    return {name: {"value": values[name], "unit": END_TO_END[name]}
            for name in END_TO_END}


def per_layer(result: Result) -> dict:
    plain, traced, tracer = result.plain, result.traced, result.tracer
    values = {}
    for name in spans.SPAN_NAMES:
        source, per = (result.setup_tracer, 1) if name in SETUP_SPANS \
            else (tracer, traced.rounds)
        calls, incl, self_s = source.get(name)
        values[f"{name}.calls"] = calls / per
        values[f"{name}.incl_s"] = incl * traced.scale / per
        values[f"{name}.self_s"] = self_s * traced.scale / per
    for kind in KIND_NAMES:
        p50 = (statistics.median(plain.op_s[kind]) * plain.scale
               if kind in plain.op_s else 0.0)
        values[f"op.{kind}.op_s_p50"] = p50
        values[f"op.{kind}.items_per_s"] = plain.op_items[kind] / p50 if p50 else 0.0
    frames = traced.frames
    values["armodel.depth_passes_per_frame"] = (
        result.depth_passes / frames if frames else 0.0)
    values["codec.decode.calls_per_frame"] = (
        tracer.get("codec.decode")[0] / frames if frames else 0.0)
    values["trace.overhead_pct"] = 100.0 * (
        (traced.busy_s * traced.scale / traced.items)
        / (plain.busy_s * plain.scale / plain.items) - 1.0)
    units = {name: unit for name, unit, _ in per_layer_metrics()}
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def summary(result: Result) -> dict:
    """Unscaled per-kind op counts, medians and tails of the untraced
    measurement, and the host-speed scale that the metrics carry."""
    m = result.plain
    kinds = {}
    for kind, ops in m.op_s.items():
        entry = {"ops": len(ops), "op_s_p50": statistics.median(ops)}
        t = tail(ops)
        if t is not None:
            entry["op_s_tail"], entry["tail_percentile"] = t[1], t[0]
        kinds[kind] = entry
    out = {"workload": result.workload, "rounds": m.rounds,
           "scale": m.scale, "unscaled_items_per_s": m.items / m.busy_s,
           "unscaled_round_s_p50": statistics.median(m.round_s),
           "unscaled_setup_s": result.setup_s, "kinds": kinds}
    t = tail(m.round_s)
    if t is not None:
        out["unscaled_round_s_tail"], out["round_tail_percentile"] = t[1], t[0]
    return out


def emit(result: Result, env: dict):
    metrics = per_layer(result) if result.trace else end_to_end(result)
    print(json.dumps({"env": env}))
    print(json.dumps({"fingerprint": result.fingerprint}))
    print(json.dumps({"summary": summary(result)}))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": result.counts.failed == 0,
                      "attempted": result.counts.attempted,
                      "failed": result.counts.failed,
                      "metrics": metrics}))
