"""Seeded workload generator: (workload, seed) -> a ``--spec-file`` JSON.

The program under test only ever sees the generated spec file.  Seed 0
reproduces the shipped preset's own cell seeds, so its store is
comparable with any other ``repro campaign run --spec <preset>``.  Any
other seed draws fresh cell seeds, the same number per variant as the
preset uses, so every variant, ring size and batch group width keeps the
preset's shape while the cell keys change (but see below).

One algorithm keeps its seed-0 cell seeds on every seed.  A
``landmark-no-chirality`` cell (Theorem 8) either terminates within
about a thousand rounds or runs to its ``no_chirality_timeout(n)``
horizon (11k-38k rounds), and which path it takes depends on its seed.
Under lockstep batching the slowest cell sets the cost of its whole
group, so a redraw of that variant's seeds would make a workload's cost
jump by up to an order of magnitude from one seed to the next.  Its
cells are therefore the same on every seed; every other variant draws
new seeds.

Workloads:

* ``batch-wide``   — the 54-cell all-batch-eligible preset;
* ``faults-sweep`` — the five ``faults-smoke`` variants over ring sizes
  {8, 16, 32, 64} and 300 cell seeds (6000 cells, mostly scalar).
"""

from __future__ import annotations

import json
import random
from functools import partial
from typing import Any, Callable

#: Cell seeds are drawn from here for seeds other than 0.  The floor keeps
#: drawn seeds clear of the small preset seeds, so every key changes.
_DRAW_RANGE = range(1_000, 2**31)

#: Algorithms whose cells keep their seed-0 seeds: each cell either
#: halts early or runs to a long timeout, depending on its seed.
FIXED_SEED_ALGORITHMS = frozenset({"landmark-no-chirality"})

#: Ring sizes and seed count of the ``faults-sweep`` workload.
FAULTS_SWEEP_RING_SIZES = [8, 16, 32, 64]
FAULTS_SWEEP_SEEDS = 300


def _preset_variants(name: str) -> list[dict[str, Any]]:
    from repro.campaigns.presets import get_spec

    return get_spec(name).resolved_variants()


def _draw(rng: random.Random, used: set[int]) -> int:
    while True:
        value = rng.choice(_DRAW_RANGE)
        if value not in used:
            used.add(value)
            return value


def _reseed(variants: list[dict[str, Any]], workload: str,
            seed: int) -> list[dict[str, Any]]:
    """Replace each variant's seed list by a fresh draw of the same size."""
    if seed == 0:
        return variants
    rng = random.Random(f"{workload}/{seed}")
    out = []
    for variant in variants:
        if variant.get("algorithm") not in FIXED_SEED_ALGORITHMS:
            used: set[int] = set()
            seeds = [_draw(rng, used) for _ in variant["grid"]["seed"]]
            variant = {**variant, "grid": {**variant["grid"], "seed": seeds}}
        out.append(variant)
    return out


def _faults_sweep() -> list[dict[str, Any]]:
    variants = []
    for variant in _preset_variants("faults-smoke"):
        grid = dict(variant["grid"])
        grid["ring_size"] = list(FAULTS_SWEEP_RING_SIZES)
        grid["seed"] = list(range(FAULTS_SWEEP_SEEDS))
        variants.append({**variant, "grid": grid})
    return variants


#: workload name -> the seed-0 variant list (resolved, self-contained).
WORKLOADS: dict[str, Callable[[], list[dict[str, Any]]]] = {
    "batch-wide": partial(_preset_variants, "batch-wide"),
    "faults-sweep": _faults_sweep,
}


def workload_spec(workload: str, seed: int) -> dict[str, Any]:
    """The spec dict for ``--spec-file`` of one (workload, seed) pair."""
    if workload not in WORKLOADS:
        raise ValueError(
            f"unknown workload {workload!r} (choose from {sorted(WORKLOADS)})")
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return {
        "name": workload,
        "description": f"campaign benchmark workload {workload}, seed {seed}",
        "variants": _reseed(WORKLOADS[workload](), workload, seed),
    }


def write_spec(workload: str, seed: int, path) -> dict[str, Any]:
    """Write the workload's spec JSON to ``path`` and return it."""
    spec = workload_spec(workload, seed)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh, indent=1, sort_keys=True)
    return spec


def expand(spec: dict[str, Any]):
    """The spec's cells, expanded exactly as ``--spec-file`` expands them."""
    from repro.campaigns.spec import CampaignSpec

    return CampaignSpec.from_dict(spec).cell_list()
