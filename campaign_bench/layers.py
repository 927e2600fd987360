"""In-process span tracing of the layers one ``repro campaign`` call crosses.

The traced run calls ``repro.cli.main`` in-process — the same code path
as the CLI, minus interpreter start-up and imports, which
``cli.import_s`` measures separately — with each layer's public entry
point wrapped at the place its caller looks it up: a name imported into
the calling module is patched in that module, a method on the store or
spec class is patched on the class.  Nothing in the program is edited,
and :func:`traced` restores every patched name on exit, so untraced
runs in the same process execute the original objects.

Spans are ``[name, start, end, parent, attrs]`` lists kept in memory.
A layer is the span-name prefix before the first dot; its number is
the self time of its spans (duration minus the direct children's).
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

#: Span-name prefix of the per-step root spans (``cli.run`` ...).  Their
#: self time is CLI glue (argument parsing, printing) outside every
#: layer: the trace's unattributed time.
ROOT_LAYER = "cli"


class Tracer:
    """An in-memory span recorder with a parent stack."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable,
             note: Callable[..., dict] | None = None) -> Callable:
        """``fn`` inside a span; ``note(result, *args)`` fills its attrs."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced_call(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[4] = note(result, *args)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return traced_call

    def self_times(self) -> list[float]:
        """Per-span self time, aligned with :attr:`spans`."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, attrs)."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, attrs in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "attrs": attrs}) + "\n")


def _materialize(fn: Callable) -> Callable:
    """A generator method returning a list, so a span times the reads."""
    def listed(*args, **kwargs):
        return list(fn(*args, **kwargs))
    return listed


@contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every layer entry point to record spans into ``tracer``."""
    import repro.cli as cli
    import repro.campaigns.executor as executor
    import repro.core.batch as batch
    from repro.campaigns.spec import CampaignSpec, CellConfig
    from repro.campaigns.stores import SqliteStore

    class TracedBatchCore(batch.BatchCore):
        run = tracer.wrap("batch.core", batch.BatchCore.run,
                          lambda results, core: {
                              "width": len(results),
                              "rounds": [r.rounds for r in results]})

    wrap = tracer.wrap
    patches = [
        (cli, "load_spec", wrap("spec.load", cli.load_spec)),
        (CampaignSpec, "cell_list",
         wrap("spec.expand", CampaignSpec.cell_list,
              lambda cells, _spec: {"cells": len(cells)})),
        (CellConfig, "key", wrap("spec.key", CellConfig.key)),
        (cli, "open_store", wrap("stores.open", cli.open_store)),
        (cli, "run_cells", wrap("executor.run_cells", cli.run_cells)),
        (executor, "run_chunk",
         wrap("executor.run_chunk", executor.run_chunk,
              lambda result, cells: {"cells": len(cells),
                                          "batched": result[1]})),
        (executor, "run_batch_cells",
         wrap("batch.run_batch_cells", executor.run_batch_cells)),
        (batch, "BatchCore", TracedBatchCore),
        (executor, "execute_cell",
         wrap("sim.execute_cell", executor.execute_cell,
              lambda record, _cell: {
                  "rounds": record.get("metrics", {}).get("rounds", 0)})),
        (SqliteStore, "append_many",
         wrap("stores.append", SqliteStore.append_many,
              lambda _, _store, records: {"records": len(records)})),
        (SqliteStore, "completed_keys",
         wrap("stores.scan", SqliteStore.completed_keys)),
        (SqliteStore, "error_keys",
         wrap("stores.scan", SqliteStore.error_keys)),
        (SqliteStore, "select",
         wrap("stores.read", _materialize(SqliteStore.select),
              lambda records, *_: {"records": len(records)})),
        (cli, "aggregate_records",
         wrap("report.aggregate", cli.aggregate_records)),
        (cli, "fit_rows", wrap("report.fit", cli.fit_rows)),
        (cli, "render_rows", wrap("report.render", cli.render_rows)),
        (cli, "render_fit_rows",
         wrap("report.render", cli.render_fit_rows)),
    ]
    # An inherited method is patched on the subclass and deleted again.
    saved = [(owner, attr, owner.__dict__.get(attr))
             for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def step_layers(tracer: Tracer, root: int) -> dict[str, Any]:
    """Per-layer self times and counts of one step's root span ``root``."""
    spans = tracer.spans
    own = tracer.self_times()
    members = [root]
    inside = {root}
    for idx in range(root + 1, len(spans)):
        if spans[idx][3] in inside:
            inside.add(idx)
            members.append(idx)
    self_s: dict[str, float] = {}
    by_name: dict[str, list[int]] = {}
    for idx in members:
        name = spans[idx][0]
        self_s[_layer(name)] = self_s.get(_layer(name), 0.0) + own[idx]
        self_s[name] = self_s.get(name, 0.0) + own[idx]
        by_name.setdefault(name, []).append(idx)

    def attrs(name: str) -> list[dict]:
        return [spans[i][4] or {} for i in by_name.get(name, [])]

    def durations(name: str) -> list[float]:
        return [spans[i][2] - spans[i][1] for i in by_name.get(name, [])]

    return {
        "wall_s": spans[root][2] - spans[root][1],
        "self_s": self_s,
        "attrs": attrs,
        "durations": durations,
        "count": lambda name: len(by_name.get(name, [])),
    }


def layer_metrics(run: dict, resume: dict, report: dict) -> dict[str, float]:
    """The per-layer metrics of one traced run/resume/report session."""
    cores = run["attrs"]("batch.core")
    widths = [c["width"] for c in cores]
    lane_rounds = sum(c["width"] * max(c["rounds"]) for c in cores)
    cell_rounds = sum(sum(c["rounds"]) for c in cores)
    batch_s = run["self_s"].get("batch", 0.0)
    chunks = run["attrs"]("executor.run_chunk")
    cells = sum(c["cells"] for c in chunks)
    batched = sum(c["batched"] for c in chunks)
    sim_s = run["self_s"].get("sim", 0.0)
    sim_rounds = sum(a["rounds"] for a in run["attrs"]("sim.execute_cell"))
    cell_ms = sorted(d * 1e3 for d in run["durations"]("sim.execute_cell"))
    steps = (run, resume, report)
    session = sum(step["wall_s"] for step in steps)
    unattributed = sum(step["self_s"].get(ROOT_LAYER, 0.0) for step in steps)
    return {
        "spec.expand_s": sum(step["self_s"].get("spec.load", 0.0)
                             + step["self_s"].get("spec.expand", 0.0)
                             for step in steps),
        "spec.key_s": sum(step["self_s"].get("spec.key", 0.0)
                          for step in steps),
        "spec.cells": run["attrs"]("spec.expand")[0]["cells"],
        "executor.self_s": run["self_s"].get("executor", 0.0),
        "executor.chunks": len(chunks),
        "executor.cells_batched": batched,
        "executor.cells_scalar": cells - batched,
        "batch.busy_s": batch_s,
        "batch.cores": len(cores),
        "batch.width_p50": statistics.median(widths) if widths else 0,
        "batch.lane_rounds": lane_rounds,
        "batch.useful_frac": cell_rounds / lane_rounds if lane_rounds else 0.0,
        "batch.us_per_lane_round": (batch_s / lane_rounds * 1e6
                                    if lane_rounds else 0.0),
        "sim.busy_s": sim_s,
        "sim.cells": len(cell_ms),
        "sim.rounds": sim_rounds,
        "sim.rounds_per_s": sim_rounds / sim_s if sim_s else 0.0,
        "sim.cell_p50_ms": _quantile(cell_ms, 0.50),
        "sim.cell_p99_ms": _quantile(cell_ms, 0.99),
        "stores.append_s": run["self_s"].get("stores.append", 0.0),
        "stores.appends": run["count"]("stores.append"),
        "stores.records_written": sum(
            a["records"] for a in run["attrs"]("stores.append")),
        "stores.scan_s": resume["self_s"].get("stores.scan", 0.0),
        "stores.read_s": report["self_s"].get("stores.read", 0.0),
        "stores.records_read": sum(
            a["records"] for a in report["attrs"]("stores.read")),
        "report.aggregate_s": report["self_s"].get("report.aggregate", 0.0),
        "report.fit_s": report["self_s"].get("report.fit", 0.0),
        "report.render_s": report["self_s"].get("report.render", 0.0),
        "trace.coverage": 1.0 - unattributed / session,
        "trace.unattributed_s": unattributed,
    }


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an ascending list (0.0 when empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered) - 1, max(0, round(q * len(ordered)) - 1))
    return ordered[rank]
