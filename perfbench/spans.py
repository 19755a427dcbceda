"""Span tracing installed from outside the package.

The benchmark wraps public functions and methods of ``rvqsynth`` modules so
that every call records a span. Spans are aggregated per name as they close:
call count, inclusive seconds and self seconds, where self time is the
span's duration minus the time covered by its direct child spans. A name
that is re-entered while already open adds its inclusive time only once, at
the outermost call, so recursion is not double counted.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time


class Tracer:
    """Aggregates nested spans into per-name (calls, inclusive, self) totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}   # name -> [calls, incl_s, self_s]
        self._stack: list[list] = []       # open spans: [name, start, child_s]
        self._open: dict[str, int] = {}

    def enter(self, name: str):
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self._open[name] -= 1
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        if self._open[name] == 0:
            st[1] += duration
        st[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()
        return traced

    def get(self, name: str):
        """(calls, inclusive seconds, self seconds) for one span name."""
        return tuple(self.stats.get(name, (0, 0.0, 0.0)))


# (span name, defining module, attribute). An attribute ``Class.method`` is
# patched on the class; a plain function is patched in every loaded
# ``rvqsynth`` module that imported it by name.
TRACED = (
    ("tensor.backward", "rvqsynth.tensor", "Tensor.backward"),
    ("nn.adam_step", "rvqsynth.nn", "adam_step"),
    ("nn.Dense", "rvqsynth.nn", "Dense.__call__"),
    ("nn.Conv1d", "rvqsynth.nn", "Conv1d.__call__"),
    ("nn.SelfAttention", "rvqsynth.nn", "SelfAttention.__call__"),
    ("armodel.forward_logits", "rvqsynth.armodel", "ARModel.forward_logits"),
    ("armodel.temporal_context", "rvqsynth.armodel", "ARModel.temporal_context"),
    ("armodel.depth_step", "rvqsynth.armodel", "ARModel.depth_step"),
    ("codec.rvq_quantize_frames", "rvqsynth.codec", "rvq_quantize_frames"),
    ("codec.decode", "rvqsynth.codec", "Codec.decode"),
    ("metrics.score_matrix", "rvqsynth.metrics", "SyncNet.score_matrix"),
    ("metrics.infonce_loss", "rvqsynth.metrics", "infonce_loss"),
    ("metrics.SyncNet.score", "rvqsynth.metrics", "SyncNet.score"),
    ("sampling.generate_batch", "rvqsynth.sampling", "generate_batch"),
    ("sampling.aggregate", "rvqsynth.sampling", "average_aggregate"),
    ("sampling.aggregate", "rvqsynth.sampling", "knn_aggregate"),
    ("sampling.aggregate", "rvqsynth.sampling", "syncnet_reject"),
    ("data.generate_corpus", "rvqsynth.data", "generate_corpus"),
    ("checkpoint.save_container", "rvqsynth.checkpoint", "save_container"),
    ("checkpoint.load_container", "rvqsynth.checkpoint", "load_container"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED))


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Route the traced functions through ``tracer`` until the block exits."""
    for _, module_name, _ in TRACED:
        importlib.import_module(module_name)
    undo = []
    try:
        for name, module_name, attr in TRACED:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            traced = tracer.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "rvqsynth" or mod_name.startswith("rvqsynth.")) \
                        and getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
                    undo.append((mod, attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
