#!/usr/bin/env python3
"""Steadiness check: run one workload N times and print each metric's spread.

Run from the repository root::

    python3 campaign_bench/steady.py --workload batch-wide --runs 10 \\
        --first-seed 1

Each run is ``campaign_bench/run.py --trace 0`` with the next seed and
``BENCHMARK.json``'s ``run_seconds``.
For every metric of the last JSON line this prints the median, the
quartiles (``statistics.quantiles(n=4)``) and (q3 - q1) / median over
the runs — the figure a metric's bound in ``BENCHMARK.json`` must stay
above.

Beside them it prints the spread of a fixed pure-Python loop timed
before every run.  That figure describes the host only: it is context
for reading the spreads and never scales a metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")
RUN_SECONDS = json.loads(
    (RUN.parent.parent / "BENCHMARK.json").read_text())["run_seconds"]

#: Iterations of the host-calibration loop (about 0.2 s on a 2-vCPU VM).
CALIBRATION_LOOP = 2_000_000
#: Calibration samples taken before each run.
CALIBRATION_SAMPLES = 5


def calibration_loop() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i % 7
    return time.perf_counter() - start


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median) of at least two values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    calibration: list[float] = []
    run_calibration: list[float] = []
    for i in range(args.runs):
        seed = args.first_seed + i
        samples = [calibration_loop() for _ in range(CALIBRATION_SAMPLES)]
        calibration.extend(samples)
        run_calibration.append(statistics.median(samples))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(RUN_SECONDS),
             "--trace", "0"],
            capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"run with seed {seed} exited {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        took = time.perf_counter() - start
        print(f"seed {seed} ({took:.1f} s): " + " ".join(
            f"{name}={metric['value']:.6g}"
            for name, metric in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, {RUN_SECONDS} s each")
    print(f"{'metric':<26} {'median':>14} {'q1':>12} {'q3':>12} "
          f"{'iqr/median':>11}  unit")
    for name, series in values.items():
        median, q1, q3, rel = spread(series)
        print(f"{name:<26} {median:>14.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{rel:>11.4f}  {units[name]}")
    _, _, _, within = spread(calibration)
    _, _, _, across = spread(run_calibration)
    print(f"host calibration loop (context only): iqr/median {within:.4f} "
          f"over {len(calibration)} samples, {across:.4f} across the "
          f"per-run medians")
    return 0


if __name__ == "__main__":
    sys.exit(main())
