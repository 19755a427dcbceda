"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 perfbench/spread.py --workload train --seeds 1-10 --seconds 20 \
        [--out spread.jsonl]

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median and its spread: the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median. ``--out`` appends each run's JSON output lines, one run per line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = [json.loads(l) for l in proc.stdout.splitlines()
                 if l.startswith("{")]
        line = lines[-1]
        results.append(line)
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in line["metrics"].items()),
              flush=True)
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "lines": lines}) + "\n")
    if len(results) < 2:
        return 0
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        print(f"{name}: median {statistics.median(values):.6g} "
              f"spread {100 * spread(values):.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
