"""Output check: every stored record's ``metrics`` against a reference.

The reference for seed 0 of a workload is the digest file committed in
``reference/``; for any other seed it is the ``--batch off`` (scalar)
route run in-process on the same spec.  Only ``metrics`` is compared,
never ``elapsed_s``.  A missing record, an ``error`` record, a metrics
mismatch or a record for a cell the spec does not hold is a failure.

Records are read with :mod:`sqlite3` straight from the store's
``results`` table, not through the program's store layer, so a bug in
that layer cannot hide itself.

Command line (run from the repository root)::

    python3 campaign_bench/check.py --workload batch-wide --seed 0 \\
        --store results/batch-wide.db       # exit 1 on any failure
    python3 campaign_bench/check.py --workload batch-wide --write
                                            # regenerate reference/
    python3 campaign_bench/check.py --workload batch-wide --seed 3 \\
        --prepare DIR                       # DIR/spec.json, DIR/reference.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sqlite3
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"


def metrics_digest(metrics: dict) -> str:
    """A short, order-independent digest of one record's ``metrics``."""
    text = json.dumps(metrics, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def keys_digest(keys: list[str]) -> str:
    """Digest of a spec's cell keys in expansion order."""
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()


def read_records(db_path) -> list[dict]:
    """Every record of a SQLite result store, in insertion order."""
    conn = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
    try:
        rows = conn.execute("SELECT record FROM results ORDER BY id").fetchall()
    finally:
        conn.close()
    return [json.loads(text) for (text,) in rows]


@dataclass
class Reference:
    """Expected metrics digest per cell key, in expansion order."""

    keys: list[str]
    digests: dict[str, str]

    @classmethod
    def from_records(cls, keys: list[str], records: list[dict]) -> "Reference":
        by_key = {r["key"]: r for r in records}
        bad = [k for k in keys if k not in by_key or "error" in by_key[k]]
        if bad:
            raise RuntimeError(
                f"reference run left {len(bad)} cell(s) without metrics "
                f"(first key {bad[0]})")
        return cls(keys, {k: metrics_digest(by_key[k]["metrics"])
                          for k in keys})

    @classmethod
    def committed(cls, workload: str, keys: list[str]) -> "Reference":
        path = REFERENCE_DIR / f"{workload}.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        if data["keys_sha256"] != keys_digest(keys):
            raise RuntimeError(
                f"{path.name} was written for other cells than the "
                f"generated {workload} seed-0 spec")
        return cls(keys, dict(zip(keys, data["metrics"])))

    def save(self, path: Path) -> None:
        path.write_text(json.dumps({
            "keys": self.keys,
            "metrics": [self.digests[k] for k in self.keys]}), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> "Reference":
        data = json.loads(path.read_text(encoding="utf-8"))
        return cls(data["keys"], dict(zip(data["keys"], data["metrics"])))

    def write(self, workload: str) -> Path:
        path = REFERENCE_DIR / f"{workload}.json"
        REFERENCE_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps({
            "workload": workload,
            "seed": 0,
            "cells": len(self.keys),
            "keys_sha256": keys_digest(self.keys),
            "metrics": [self.digests[k] for k in self.keys],
        }, indent=0) + "\n", encoding="utf-8")
        return path


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, other: "CheckResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


def check_records(reference: Reference, records: list[dict]) -> CheckResult:
    """Compare one store's records against the reference."""
    result = CheckResult(attempted=len(reference.keys))
    by_key: dict[str, dict] = {}
    for record in records:
        key = record.get("key")
        if key not in reference.digests or key in by_key:
            result.attempted += 1
            result.failed += 1
            result.problems.append(f"unexpected record for key {key}")
            continue
        by_key[key] = record
    for key in reference.keys:
        record = by_key.get(key)
        if record is None:
            problem = "missing"
        elif "error" in record:
            problem = f"error record: {record['error']}"
        elif metrics_digest(record.get("metrics", {})) != reference.digests[key]:
            problem = "metrics differ from the reference"
        else:
            continue
        result.failed += 1
        result.problems.append(f"cell {key}: {problem}")
    return result


def scalar_reference(spec_path, keys: list[str], work_dir) -> Reference:
    """Run the ``--batch off`` route in-process and digest its records."""
    from repro import cli

    db = Path(work_dir) / "reference-off.db"
    code = quiet_cli(["campaign", "run", "--spec-file", str(spec_path),
                      "--store", f"sqlite:{db}", "--workers", "1",
                      "--batch", "off", "--no-report"], cli.main)
    if code != 0:
        raise RuntimeError(f"--batch off reference run exited {code}")
    return Reference.from_records(keys, read_records(db))


def quiet_cli(argv: list[str], main) -> int:
    """A ``repro.cli.main`` in-process, with its output discarded."""
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        return main(["-q", *argv])


def reference_for(workload: str, seed: int, spec_path, keys, work_dir) -> Reference:
    """The committed digest for seed 0, the scalar route otherwise."""
    if seed == 0:
        return Reference.committed(workload, keys)
    return scalar_reference(spec_path, keys, work_dir)


def prepare(workload: str, seed: int, work_dir: Path) -> Reference:
    """Write ``spec.json`` for (workload, seed) to ``work_dir``; return its reference."""
    import repro.cli  # noqa: F401  (warms the byte-code cache for the steps)
    import workloads

    spec_path = work_dir / "spec.json"
    spec = workloads.write_spec(workload, seed, spec_path)
    keys = [c.key() for c in workloads.expand(spec)]
    return reference_for(workload, seed, spec_path, keys, work_dir)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--store", help="SQLite result store to check")
    parser.add_argument("--write", action="store_true",
                        help="regenerate the committed seed-0 reference")
    parser.add_argument("--prepare", metavar="DIR", type=Path,
                        help="write spec.json and reference.json to DIR")
    args = parser.parse_args(argv)
    if args.prepare:
        prepare(args.workload, args.seed, args.prepare).save(
            args.prepare / "reference.json")
        return 0
    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        spec_path = Path(tmp) / "spec.json"
        spec = workloads.write_spec(args.workload, args.seed, spec_path)
        keys = [c.key() for c in workloads.expand(spec)]
        if args.write:
            if args.seed != 0:
                parser.error("--write regenerates the seed-0 reference only")
            reference = scalar_reference(spec_path, keys, tmp)
            print(f"wrote {reference.write(args.workload)}")
            return 0
        if not args.store:
            parser.error("--store is required unless --write is given")
        reference = reference_for(args.workload, args.seed, spec_path, keys, tmp)
    result = check_records(reference, read_records(args.store))
    for problem in result.problems[:20]:
        print(problem)
    print(f"checked {result.attempted} cells: {result.failed} failed")
    return 1 if result.failed else 0


if __name__ == "__main__":
    sys.exit(main())
