"""Tests of the campaign benchmark's workload generator, check and tracer.

Run from the repository root::

    python3 -m pytest campaign_bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import sqlite3
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import check
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _cells(workload: str, seed: int):
    # Through JSON, as the program reads it from --spec-file.
    spec = json.loads(json.dumps(workloads.workload_spec(workload, seed)))
    return workloads.expand(spec)


def _keys(cells) -> list[str]:
    return [cell.key() for cell in cells]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_keys(workload):
    assert _keys(_cells(workload, 5)) == _keys(_cells(workload, 5))


def test_batch_wide_seed_zero_gives_the_shipped_preset_keys():
    from repro.campaigns.presets import get_spec

    assert _keys(_cells("batch-wide", 0)) == \
        _keys(get_spec("batch-wide").cells())


def test_faults_sweep_seed_zero_is_faults_smoke_widened():
    from repro.campaigns.presets import get_spec

    smoke = get_spec("faults-smoke")
    smoke.grid = {"seed": list(range(workloads.FAULTS_SWEEP_SEEDS)),
                  "ring_size": workloads.FAULTS_SWEEP_RING_SIZES}
    expected = _keys(smoke.cells())
    assert len(expected) == 6000
    assert _keys(_cells("faults-sweep", 0)) == expected


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_other_seed_keeps_the_shape_with_new_keys(workload):
    base, other = _cells(workload, 0), _cells(workload, 3)

    def shape(cells):
        return [(c.label, c.algorithm, c.agents, c.ring_size) for c in cells]

    assert shape(other) == shape(base)
    # BatchCore groups by (algorithm, agents): group widths are unchanged.
    assert Counter((c.algorithm, c.agents) for c in other) == \
        Counter((c.algorithm, c.agents) for c in base)
    redrawn = [(a.key(), b.key()) for a, b in zip(base, other)
               if a.algorithm not in workloads.FIXED_SEED_ALGORITHMS]
    assert redrawn
    assert not {a for a, _ in redrawn} & {b for _, b in redrawn}
    assert len(set(_keys(other))) == len(other)


def test_fixed_seed_cells_keep_their_seed_zero_keys():
    base, other = _cells("batch-wide", 0), _cells("batch-wide", 3)
    pairs = [(a.key(), b.key()) for a, b in zip(base, other)
             if a.algorithm in workloads.FIXED_SEED_ALGORITHMS]
    assert pairs
    assert all(a == b for a, b in pairs)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_committed_reference_matches_the_generated_cells(workload):
    keys = _keys(_cells(workload, 0))
    reference = check.Reference.committed(workload, keys)
    assert len(reference.digests) == len(keys)


def test_check_fails_a_store_with_one_corrupted_rounds(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec = workloads.write_spec("batch-wide", 0, spec_path)
    keys = _keys(workloads.expand(spec))
    good = tmp_path / "good.db"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-m", "repro", "campaign", "run",
                    "--spec-file", str(spec_path), "--store", f"sqlite:{good}",
                    "--workers", "1", "--no-report"],
                   cwd=tmp_path, env=env, check=True, capture_output=True)
    reference = check.Reference.committed("batch-wide", keys)
    clean = check.check_records(reference, check.read_records(good))
    assert (clean.attempted, clean.failed) == (54, 0)

    bad = tmp_path / "bad.db"
    shutil.copy(good, bad)
    conn = sqlite3.connect(bad)
    with conn:
        conn.execute("UPDATE results SET record = json_set(record, "
                     "'$.metrics.rounds', json_extract(record, "
                     "'$.metrics.rounds') + 1) WHERE id = 7")
    conn.close()
    corrupted = check.check_records(reference, check.read_records(bad))
    assert (corrupted.attempted, corrupted.failed) == (54, 1)
    assert "metrics differ" in corrupted.problems[0]

    def cli(store):
        return subprocess.run(
            [sys.executable, str(ROOT / "campaign_bench" / "check.py"),
             "--workload", "batch-wide", "--store", str(store)],
            cwd=ROOT, capture_output=True, text=True).returncode

    assert cli(good) == 0
    assert cli(bad) == 1


def test_tracer_self_times_partition_the_root():
    tracer = layers.Tracer()

    def leaf():
        time.sleep(0.01)

    inner = tracer.wrap("b.inner", lambda: (leaf(), time.sleep(0.01)))
    outer = tracer.wrap("a.outer", lambda: (inner(), inner()))
    outer()
    own = tracer.self_times()
    names = [span[0] for span in tracer.spans]
    assert names == ["a.outer", "b.inner", "b.inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0]
    root = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == pytest.approx(root)
    step = layers.step_layers(tracer, 0)
    assert step["count"]("b.inner") == 2
    assert step["self_s"]["b"] == pytest.approx(own[1] + own[2])


def test_traced_restores_every_patched_name():
    import repro.cli as cli
    from repro.campaigns.stores import SqliteStore

    before = (cli.run_cells, dict(SqliteStore.__dict__))
    with layers.traced(layers.Tracer()):
        assert cli.run_cells is not before[0]
        assert "append_many" in SqliteStore.__dict__
    assert cli.run_cells is before[0]
    assert dict(SqliteStore.__dict__) == before[1]
