#!/usr/bin/env python3
"""Outside-in benchmark of ``repro campaign`` on seeded workloads.

Run from the repository root::

    python3 campaign_bench/run.py --workload batch-wide --seed 0 \\
        --seconds 60 --trace 0

One run generates the workload's spec file from ``--seed``
(:mod:`workloads`) and measures the three steps a user runs, each as a
fresh ``python -m repro`` process with ``--workers 1`` and a SQLite
store, until ``--seconds`` after the run started (the preparation
counts against the window):

1. ``campaign run --no-report`` on a fresh store (writes every record);
2. ``campaign resume`` on the complete store (executes zero cells);
3. ``campaign report --fit`` on the same store.

Step 1 is repeated, each time on a fresh store, for :data:`STEP1_SHARE`
of the window; steps 2 and 3 alternate on the newest store, interleaved
with it, for the rest.  Minimum sample counts take precedence over the
window, so a run whose step 1 is long may end a few seconds after it.
Every record of every step-1 store is checked (:mod:`check`).  With
``--trace 0`` the end-to-end metrics are printed; with ``--trace 1`` the
same steps run in-process under span tracing (:mod:`layers`) and the
per-layer metrics are printed instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 1 when any record or step is wrong, 2 when the program
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sqlite3
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

#: The benchmark's definition: workloads, metrics, units and bounds.
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
#: End-to-end metric -> unit (printed with ``--trace 0``).
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
#: Per-layer metric -> unit (printed with ``--trace 1``).
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

#: Counts that must repeat exactly across traced passes of one seed.
EXACT_COUNTS = (
    "spec.cells", "executor.chunks", "executor.cells_batched",
    "executor.cells_scalar", "batch.cores", "batch.lane_rounds",
    "sim.cells", "sim.rounds", "stores.appends", "stores.records_written",
    "stores.records_read",
)

#: Share of the window spent repeating step 1; steps 2 and 3 get the rest.
STEP1_SHARE = 0.75
#: Fewest samples of step 1, and of each short step (2 and 3), in one run.
#: Three step-1 samples let the median shed one host-speed spike.
MIN_STEP1_SAMPLES = 3
MIN_SHORT_SAMPLES = 5
#: Short steps are steady when the median of their later half is within
#: this share of the median of all their samples (reported, not enforced).
STEADY_WITHIN = 0.10
#: A single step taking longer than this is killed and fails the run.
STEP_TIMEOUT_S = 150
#: Fresh-interpreter import probes per run (``cli.import_s``).
IMPORT_PROBES = 5


class StepFailed(RuntimeError):
    """A CLI step exited wrongly; the run cannot be measured."""


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _steady(values: list[float]) -> bool:
    later = statistics.median(values[len(values) // 2:])
    overall = statistics.median(values)
    return abs(later - overall) <= STEADY_WITHIN * overall


def child_env() -> dict[str, str]:
    """The environment of every CLI child: this checkout's source only."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv: list[str], log_path: Path, cwd: Path) -> tuple[float, int, float]:
    """Run one child; return (wall seconds, exit code, peak RSS in MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def step_args(verb: str, spec_path: Path, db: Path) -> list[str]:
    """CLI arguments (after ``python -m repro``) of one step on ``db``."""
    tail = {"run": ["--workers", "1", "--no-report"],
            "resume": ["--workers", "1", "--no-report"],
            "report": ["--fit"]}[verb]
    return ["campaign", verb, "--spec-file", str(spec_path),
            "--store", f"sqlite:{db}", *tail]


def measure_e2e(spec_path: Path, work: Path, deadline: float) -> dict:
    """Interleave the three steps until ``deadline``; return samples, stores.

    Host speed drifts over tens of seconds, so every metric's samples are
    spread over the whole window: each next step is a step 1 while step 1
    has had at most :data:`STEP1_SHARE` of the time spent so far, and a
    pair of steps 2 and 3 on the newest store otherwise.  The window ends
    before a step as long as the last of its kind would overrun it, once
    the minimum sample counts are met.
    """
    samples: dict[str, list[float]] = {"run": [], "resume": [], "report": [],
                                       "rss": []}
    stores: list[Path] = []
    problems: list[str] = []

    def step(verb: str, db: Path) -> tuple[float, int, str]:
        log = work / f"{db.stem}-{verb}.log"
        wall, code, rss = run_child(
            [sys.executable, "-m", "repro", *step_args(verb, spec_path, db)],
            log, work)
        if verb == "run":
            samples["rss"].append(rss)
        samples[verb].append(wall)
        return wall, code, log.read_text(encoding="utf-8", errors="replace")

    def step1() -> float:
        stores.append(work / f"store{len(stores)}.db")
        wall, code, out = step("run", stores[-1])
        if code != 0:
            problems.append(f"step 1 exited {code}: {out[-300:]}")
        return wall

    def short_pair() -> float:
        wall2, code, out = step("resume", stores[-1])
        if code != 0 or " executed=0 " not in out:
            raise StepFailed(f"step 2 did not resume to zero cells "
                             f"(exit {code}): {out[-300:]}")
        wall3, code, out = step("report", stores[-1])
        if code != 0:
            raise StepFailed(f"step 3 exited {code}: {out[-300:]}")
        return wall2 + wall3

    run_s = step1()
    short_s = pair_s = 0.0
    while True:
        want_run = run_s <= STEP1_SHARE * (run_s + short_s)
        next_s = samples["run"][-1] if want_run else pair_s
        if time.perf_counter() + next_s > deadline:
            # Past the window: only make up the minimum sample counts.
            if len(samples["run"]) < MIN_STEP1_SAMPLES:
                want_run = True
            elif len(samples["resume"]) < MIN_SHORT_SAMPLES:
                want_run = False
            else:
                break
        if want_run:
            run_s += step1()
        else:
            pair_s = short_pair()
            short_s += pair_s
    steady = _steady(samples["resume"]) and _steady(samples["report"])
    return {"samples": samples, "stores": stores, "problems": problems,
            "steady": steady}


def e2e_metrics(samples: dict, cells: int, correct: int,
                attempted: int) -> dict[str, tuple[float, list[float]]]:
    """metric -> (value, the samples it summarises)."""
    run_median = statistics.median(samples["run"])
    return {
        "cells_per_s": (cells / run_median,
                        [cells / s for s in samples["run"]]),
        "setup_s": (statistics.median(samples["resume"]), samples["resume"]),
        "report_s": (statistics.median(samples["report"]), samples["report"]),
        "peak_rss_mb": (statistics.median(samples["rss"]), samples["rss"]),
        "ok_frac": (correct / attempted, [correct / attempted]),
    }


def import_probe() -> dict[str, float]:
    """``cli.*``: fresh-interpreter ``import repro.cli`` minus a bare one."""
    probe = ("import sys, json{imp}; print(json.dumps([len(sys.modules), "
             "'numpy' in sys.modules]))")
    walls: dict[str, list[float]] = {"bare": [], "cli": []}
    found: dict[str, list] = {}
    for _ in range(IMPORT_PROBES):
        for kind, imp in (("bare", ""), ("cli", ", repro.cli")):
            start = time.perf_counter()
            out = subprocess.run([sys.executable, "-c", probe.format(imp=imp)],
                                 env=child_env(), cwd=ROOT, check=True,
                                 capture_output=True, text=True,
                                 timeout=STEP_TIMEOUT_S).stdout
            walls[kind].append(time.perf_counter() - start)
            found[kind] = json.loads(out)
    return {
        "cli.import_s": (statistics.median(walls["cli"])
                         - statistics.median(walls["bare"])),
        "cli.modules": found["cli"][0] - found["bare"][0],
        "cli.numpy_loaded": int(found["cli"][1]),
    }


def measure_layers(spec_path: Path, work: Path, deadline: float,
                   keys: list[str], reference, check) -> dict:
    """Traced passes of the three steps in-process, plus untraced twins."""
    import layers
    from repro import cli

    def session(tag: str, tracer=None, batch: str | None = None,
                verbs=("run", "resume", "report")) -> dict[str, float]:
        db = work / f"{tag}.db"
        walls = {}
        for verb in verbs:
            argv = step_args(verb, spec_path, db)
            if batch is not None:
                argv += ["--batch", batch]
            main = cli.main if tracer is None else tracer.wrap(f"cli.{verb}", cli.main)
            start = time.perf_counter()
            code = check.quiet_cli(argv, main)
            walls[verb] = time.perf_counter() - start
            if code != 0:
                raise StepFailed(f"in-process {verb} ({tag}) exited {code}")
        walls["db"] = db
        return walls

    passes = []
    outcome = check.CheckResult()
    last = 0.0
    # Another pass starts only if one as long as the last still fits.
    while not passes or time.perf_counter() + last <= deadline:
        pass_start = time.perf_counter()
        n = len(passes)
        plain = session(f"plain{n}")
        off = session(f"off{n}", batch="off", verbs=("run",))
        if reference is None:
            reference = check.Reference.from_records(
                keys, check.read_records(off["db"]))
        tracer = layers.Tracer()
        with layers.traced(tracer):
            traced_walls = session(f"traced{n}", tracer=tracer)
        roots = [i for i, span in enumerate(tracer.spans) if span[3] == -1]
        steps_ = [layers.step_layers(tracer, root) for root in roots]
        metrics = layers.layer_metrics(*steps_)
        db = traced_walls["db"]
        metrics["stores.db_bytes"] = sum(
            p.stat().st_size for p in db.parent.glob(db.name + "*"))
        metrics["executor.auto_over_off"] = plain["run"] / off["run"]
        plain_total = plain["run"] + plain["resume"] + plain["report"]
        traced_total = sum(traced_walls[v] for v in ("run", "resume", "report"))
        metrics["trace.overhead_frac"] = traced_total / plain_total - 1.0
        for walls in (plain, off, traced_walls):
            outcome.add(check.check_records(reference,
                                            check.read_records(walls["db"])))
        passes.append(metrics)
        tracer.dump(WORK_ROOT / f"spans-{spec_path.stem}.jsonl")
        last = time.perf_counter() - pass_start
    return {"passes": passes, "check": outcome}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Outside-in repro campaign benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # A terminated run still removes its stores and stops its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    # REPRO_* switches (metrics, tracing, batch width) would change what is
    # measured; neither the children nor the in-process runs see them.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(SRC))
    import check
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from {sorted(workloads.WORKLOADS)})")
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _run(args, start + args.seconds, work, check, workloads)
    except (StepFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _header(args, cells: int) -> None:
    print(f"workload {args.workload} seed {args.seed}: {cells} cells, "
          f"{args.seconds} s window, trace {args.trace}")


def _run(args, deadline: float, work: Path, check, workloads) -> int:
    if args.trace:
        import repro.cli  # noqa: F401  (warms the byte-code cache before timing)

        spec_path = work / f"{args.workload}.json"
        spec = workloads.write_spec(args.workload, args.seed, spec_path)
        keys = [cell.key() for cell in workloads.expand(spec)]
        _header(args, len(keys))
        reference = (check.Reference.committed(args.workload, keys)
                     if args.seed == 0 else None)
        probed = import_probe()
        layer = measure_layers(spec_path, work, deadline, keys,
                               reference, check)
        outcome = layer["check"]
        passes = layer["passes"]
        problems = list(outcome.problems)
        for name in EXACT_COUNTS:
            if len({p[name] for p in passes}) != 1:
                problems.append(f"{name} did not repeat across passes")
        samples = {name: [p[name] for p in passes] for name in passes[0]}
        samples.update({name: [value] for name, value in probed.items()})
        rows = {name: (statistics.median(samples[name]), samples[name])
                for name in LAYER_UNITS}
        units = LAYER_UNITS
    else:
        # A child's peak RSS starts from its parent's at exec, so the
        # harness never imports the program: a helper process generates
        # the spec and the reference, and the harness stays small.
        try:
            subprocess.run(
                [sys.executable, str(BENCH_DIR / "check.py"),
                 "--workload", args.workload, "--seed", str(args.seed),
                 "--prepare", str(work)],
                check=True, timeout=STEP_TIMEOUT_S)
        except subprocess.SubprocessError as exc:
            raise StepFailed(f"preparing the workload failed: {exc}") from exc
        spec_path = work / "spec.json"
        reference = check.Reference.load(work / "reference.json")
        _header(args, len(reference.keys))
        e2e = measure_e2e(spec_path, work, deadline)
        outcome = check.CheckResult()
        for db in e2e["stores"]:
            try:
                records = check.read_records(db)
            except sqlite3.Error as exc:  # a crashed step 1 may leave no store
                records = []
                e2e["problems"].append(f"{db.name}: {exc}")
            outcome.add(check.check_records(reference, records))
        problems = e2e["problems"] + outcome.problems
        rows = e2e_metrics(e2e["samples"], len(reference.keys),
                           outcome.attempted - outcome.failed,
                           outcome.attempted)
        units = E2E_UNITS
        print(f"short-step medians steady within {STEADY_WITHIN:.0%}: "
              f"{'yes' if e2e['steady'] else 'no'}")

    print(f"{'metric':<26} {'median':>14} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for name, (value, samples) in rows.items():
        q1, _, q3 = _quartiles(samples)
        print(f"{name:<26} {value:>14.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{len(samples):>4}  {units[name]}")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    correct = not problems and outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in rows.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
