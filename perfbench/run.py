"""rvqsynth benchmark: one closed-loop workload per run.

Usage (from the repository root):

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0

The run sets up SETUP_REPEATS times (the median is ``setup_s``), runs one
untimed warm-up round, then runs whole rounds, one op of each kind of the
workload, until ``--seconds`` have passed. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` measures
untraced for half the time, then with spans installed around the package's
public functions for the other half, and reports per-layer metrics and the
tracing overhead. The last line of stdout is the result as one JSON object;
the lines before it give the environment, the output fingerprint of the
warm-up round and per-kind timings. See README.md for the metrics.

BLAS must run single-threaded: the run sets OPENBLAS_NUM_THREADS=1 (and the
other common BLAS variables) unless already set, and refuses to run if the
library reports more than one thread.
"""

from __future__ import annotations

import argparse
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
EXIT_NOT_RUNNABLE = 2


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return EXIT_NOT_RUNNABLE


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    if not (SRC / "rvqsynth" / "__init__.py").is_file():
        return fail(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import envinfo
    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")
    env = envinfo.collect(ROOT, args.seed)
    if env["blas_threads"] not in (1, None):
        return fail(f"BLAS reports {env['blas_threads']} threads; "
                    "set OPENBLAS_NUM_THREADS=1")
    result = harness.run(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace), ROOT, SETUP_REPEATS)
    if result.plain.rounds == 0 or (result.traced and result.traced.rounds == 0):
        return fail(f"no round completed without a failed op "
                    f"({result.counts.failed} failed)")
    harness.emit(result, env)
    return 0


if __name__ == "__main__":
    sys.exit(main())
