"""Batch execution of campaign cells: serial, or multiprocessing with chunked work units.

The unit shipped to a worker is a *chunk* of cell dicts, not a single
cell: chunking amortises pickling/IPC over many simulations, and pool
processes are long-lived (no ``maxtasksperchild``), so each worker pays
the interpreter/import cost once and keeps its warm registry state —
resolved factory tables, enum caches — for every cell it runs.

Completed chunks are appended to the :class:`~repro.campaigns.stores.ResultStore`
as they arrive, so an interrupted campaign loses at most the chunks in
flight; :func:`run_cells` consults ``store.completed_keys()`` first and
never re-runs a cell whose key is already present.

The chunking helpers (:func:`default_chunk_size`, :func:`chunk_cells`)
are shared with :mod:`repro.campaigns.distributed`, where a chunk is the
unit of lease-based claiming across *hosts* rather than the unit of IPC
across pool processes; ``run_campaign(distributed=True)`` switches the
whole execution onto that queue.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable, Sequence

from ..core.batch import (
    MIN_BATCH_WIDTH,
    batch_eligible,
    batch_ineligible_key,
    batch_ineligible_reason,
    batch_width,
    group_by_shape,
    numpy_available,
    run_batch_cells,
)
from ..core.errors import ConfigurationError
from ..obs import metrics as obs_metrics
from ..obs import spans as obs_spans
from ..obs.logs import get_logger
from .aggregate import metrics_from_result
from .registry import build_cell_engine, validate_cell
from .spec import CampaignSpec, CellConfig
from .stores import ResultStore, open_store

_log = get_logger(__name__)

#: Valid values of the execution-routing switch (CLI ``--batch``).
BATCH_MODES = ("auto", "on", "off")

#: Metric-name prefix of the per-reason batch rejection counters.
BATCH_REJECT_PREFIX = "executor.batch_reject."


def batch_reject_counts(snapshot: dict[str, dict] | None) -> dict[str, int]:
    """Per-reason scalar-fallback counts from a metrics snapshot.

    Collapses the ``executor.batch_reject.<key>`` counters (written by
    :func:`run_chunk` whenever a cell that *could* have batched is routed
    scalar) into ``{reason_key: count}``, ordered most-frequent first so
    a rendered table leads with the dominant reason.  Empty dict when the
    snapshot is ``None`` or holds no rejections.
    """
    rejects: dict[str, int] = {}
    for name, dump in (snapshot or {}).items():
        if not name.startswith(BATCH_REJECT_PREFIX):
            continue
        if dump.get("type") != "counter" or not dump.get("value"):
            continue
        rejects[name[len(BATCH_REJECT_PREFIX):]] = int(dump["value"])
    return dict(sorted(rejects.items(), key=lambda kv: (-kv[1], kv[0])))


def execute_cell(cell: CellConfig) -> dict[str, Any]:
    """Run one cell to completion and package the outcome as a store record.

    Every topology takes the same path: the registry builds a facade over
    the unified :class:`~repro.core.sim.SimulationCore`, which returns a
    full :class:`~repro.core.results.RunResult` — so graph cells report
    the identical metric schema (termination modes included) ring cells
    always had.

    When span tracing is active the cell gets a ``cell`` span
    (route=scalar) and its record carries the ``span_id`` so a store row
    can be traced back to the worker/host/chunk that produced it; with
    tracing off, records are byte-identical to the pre-obs schema.
    """
    rec = obs_spans.recorder()
    if rec is None:
        return _execute_cell(cell)
    with rec.span("cell", cell.algorithm, key=cell.key(),
                  route="scalar") as span:
        record = _execute_cell(cell)
        if "error" in record:
            span.status = "error"
            span.attrs["error"] = record["error"]
        record["span_id"] = span.span_id
    return record


def _execute_cell(cell: CellConfig) -> dict[str, Any]:
    start = time.perf_counter()
    timer = obs_metrics.phase_timer()
    try:
        engine = build_cell_engine(cell)
        if timer is not None:
            engine.set_instrument(timer)
        result = engine.run(
            cell.max_rounds, stop_on_exploration=cell.stop_on_exploration
        )
        if timer is not None:
            timer.flush()
        metrics = metrics_from_result(result)
        record = {
            "key": cell.key(),
            "config": cell.to_dict(),
            "metrics": metrics,
            "elapsed_s": round(time.perf_counter() - start, 6),
        }
    except Exception as exc:  # record the failure as an attempted outcome
        # (resumes skip it unless retry_failed re-drives it explicitly)
        record = {
            "key": cell.key(),
            "config": cell.to_dict(),
            "error": f"{type(exc).__name__}: {exc}",
            "elapsed_s": round(time.perf_counter() - start, 6),
        }
    if obs_metrics.enabled():
        reg = obs_metrics.registry()
        reg.counter("executor.cells").inc()
        reg.counter("executor.cells_scalar").inc()
        if "error" in record:
            reg.counter("executor.cells_failed").inc()
        reg.histogram("executor.cell_s").observe(record["elapsed_s"])
    return record


def _effective_batch(cell: CellConfig, override: str | None) -> str:
    """The routing mode one cell runs under: CLI override beats the cell."""
    if override is not None:
        return override
    return getattr(cell, "batch", "auto")


def _wants_batch(cell: CellConfig, override: str | None) -> bool:
    """True when routing *and* eligibility say this cell may batch."""
    return (_effective_batch(cell, override) != "off"
            and numpy_available()
            and batch_eligible(cell))


def _batch_lanes(
    cells: Sequence[CellConfig], batch: str | None
) -> tuple[list[tuple[int, CellConfig]], int]:
    """The cost model: which cells of a chunk run on :class:`BatchCore`.

    Eligible cells are grouped by shape
    (:func:`~repro.core.batch.group_by_shape`).  A group at least
    :data:`~repro.core.batch.MIN_BATCH_WIDTH` wide batches whole; in a
    narrower one only the cells forced ``on`` batch and the rest run
    scalar.  Returns ``(lanes, narrow)``: the batch-bound ``(index,
    cell)`` pairs in input order and the count gated as too narrow.
    """
    eligible = [(i, c) for i, c in enumerate(cells) if _wants_batch(c, batch)]
    lanes: list[tuple[int, CellConfig]] = []
    for group in group_by_shape(eligible):
        if len(group) >= MIN_BATCH_WIDTH:
            lanes.extend(group)
        else:
            lanes.extend((i, c) for i, c in group
                         if _effective_batch(c, batch) == "on")
    lanes.sort(key=lambda lane: lane[0])
    return lanes, len(eligible) - len(lanes)


def run_chunk(
    cells: Sequence[CellConfig],
    *,
    batch: str | None = None,
    abort: Callable[[], bool] | None = None,
    span_attrs: dict[str, Any] | None = None,
    emit_span: bool = True,
) -> tuple[list[dict[str, Any]], int]:
    """Run one chunk of cells, batching the eligible ones in lockstep.

    The single routing point shared by the serial path, the pool workers
    and the distributed worker: eligible cells (shared predicate
    :func:`~repro.core.batch.batch_eligible`, honouring the ``batch``
    override / per-cell ``batch`` field) in wide enough shape groups
    (:func:`_batch_lanes`) run through
    :class:`~repro.core.batch.BatchCore`; the rest fall back to
    :func:`execute_cell` one by one.  Records come back in input order
    with the exact schema the scalar path appends, so stores cannot tell
    the paths apart.  Returns ``(records, batched)`` where ``batched``
    counts cells that actually took the vector path.

    ``abort`` (polled between scalar cells) lets a lease-losing worker
    stop early; already-produced records are returned for the caller to
    discard or keep.

    Observability (all no-ops unless enabled): the chunk gets a
    ``chunk`` span (``span_attrs`` lets the caller attach chunk ids or a
    cross-process ``parent_id``); routing decisions feed the
    ``executor.*`` counters — per-reason batch rejections
    (``executor.batch_reject.<key>``, ``narrow`` for the width gate)
    and vector-path degradations
    (``executor.degrade_to_scalar``).  ``emit_span=False`` skips the
    chunk span: the distributed worker owns it instead, so the span can
    cover claim and commit around the execution this function times —
    cell spans still nest correctly under the caller's open span.
    """
    if batch is not None and batch not in BATCH_MODES:
        raise ConfigurationError(
            f"batch must be one of {BATCH_MODES}, got {batch!r}")
    rec = obs_spans.recorder()
    reg = obs_metrics.registry() if obs_metrics.enabled() else None
    chunk_ctx = (
        rec.span("chunk", f"chunk[{len(cells)}]", **(span_attrs or {}))
        if rec is not None and emit_span else nullcontext()
    )
    with chunk_ctx as chunk_span:
        records: list[dict[str, Any] | None] = [None] * len(cells)
        lanes, narrow = _batch_lanes(cells, batch)
        if reg is not None:
            reg.counter("executor.chunks").inc()
            reg.histogram("executor.chunk_cells").observe(len(cells))
            for cell in cells:
                if _effective_batch(cell, batch) == "off":
                    continue
                if not numpy_available():
                    reg.counter("executor.batch_reject.no_numpy").inc()
                    continue
                reason_key = batch_ineligible_key(cell)
                if reason_key is not None:
                    reg.counter(f"executor.batch_reject.{reason_key}").inc()
            if narrow:
                reg.counter("executor.batch_reject.narrow").inc(narrow)
        batched = 0
        if lanes:
            start = time.perf_counter()
            try:
                results = run_batch_cells([c for _, c in lanes])
            except Exception:
                # Defensive only: the batch path is differentially proven,
                # but a routing bug must degrade to the scalar path, never
                # lose cells.  (The bench guard catches a silent
                # always-fallback.)
                results = None
                _log.warning(
                    "batch path failed for %d cells; degrading to scalar",
                    len(lanes), exc_info=True)
                if reg is not None:
                    reg.counter("executor.degrade_to_scalar").inc()
            if results is not None:
                per_cell = round(
                    (time.perf_counter() - start) / len(lanes), 6)
                for (i, cell), result in zip(lanes, results):
                    records[i] = {
                        "key": cell.key(),
                        "config": cell.to_dict(),
                        "metrics": metrics_from_result(result),
                        "elapsed_s": per_cell,
                    }
                    if rec is not None:
                        records[i]["span_id"] = rec.emit(
                            "cell", cell.algorithm, elapsed_s=per_cell,
                            attrs={"key": cell.key(), "route": "batch"})
                batched = len(lanes)
                if reg is not None:
                    reg.counter("executor.cells").inc(batched)
                    reg.counter("executor.cells_batched").inc(batched)
        for i, cell in enumerate(cells):
            if records[i] is not None:
                continue
            if abort is not None and abort():
                if chunk_span is not None:
                    chunk_span.attrs["aborted"] = True
                break
            records[i] = execute_cell(cell)
        if chunk_span is not None:
            chunk_span.attrs["cells"] = len(cells)
            chunk_span.attrs["batched"] = batched
    return [r for r in records if r is not None], batched


def _run_chunk(
    payload: Sequence[dict[str, Any]], batch: str | None = None,
    parent_span_id: str | None = None,
) -> tuple[list[dict[str, Any]], int, dict | None]:
    """Pool-worker entry point: run a chunk of serialised cells.

    Returns ``(records, batched, metrics_snapshot)``; the snapshot is a
    per-chunk delta (the child registry is drained after each chunk) so
    the parent can merge pool snapshots without double counting.
    """
    obs_spans.ensure_recorder()  # pool children: env-driven JSONL sink
    span_attrs = {"parent_id": parent_span_id} if parent_span_id else None
    records, batched = run_chunk(
        [CellConfig.from_dict(d) for d in payload], batch=batch,
        span_attrs=span_attrs)
    snap: dict | None = None
    if obs_metrics.enabled():
        snap = obs_metrics.snapshot()
        obs_metrics.reset()
    return records, batched, snap


@dataclass
class CampaignRun:
    """What one :func:`run_cells` invocation did."""

    total: int
    skipped: int
    executed: int
    failed: int
    elapsed_s: float
    workers: int
    #: Cells that took the vectorized BatchCore path (0 on scalar runs).
    batched: int = 0
    records: list[dict[str, Any]] = field(default_factory=list, repr=False)
    #: Merged metrics snapshot (None unless metrics were enabled) — the
    #: run's own registry plus every pool/fleet worker's snapshot.
    metrics: dict[str, dict] | None = field(default=None, repr=False)

    def summary(self) -> str:
        batched = f" batched={self.batched}" if self.batched else ""
        rejects = batch_reject_counts(self.metrics)
        scalar = ""
        if rejects:
            pairs = ",".join(f"{k}={v}" for k, v in rejects.items())
            scalar = f" scalar[{pairs}]"
        return (
            f"cells={self.total} skipped={self.skipped} executed={self.executed} "
            f"failed={self.failed}{batched}{scalar} workers={self.workers} "
            f"in {self.elapsed_s:.1f}s"
        )


def default_chunk_size(
    pending: int, workers: int | None = None, *, batch: bool = False
) -> int:
    """Cells per work unit: ~4 chunks per worker balances scheduling slack
    against IPC, capped at 25 so a straggler chunk never dominates.

    With ``batch=True`` (every pending cell qualifies for the vector
    path) the cap rises to :func:`~repro.core.batch.batch_width` (the
    ``REPRO_BATCH_WIDTH``-overridable vector width) and the target
    becomes one chunk per worker: a batched chunk is a single lockstep
    NumPy run, so wide chunks amortise the per-chunk setup and fill the
    vector width instead of slicing it into 25-cell slivers.

    Shared with the distributed queue (where the eventual fleet size is
    unknown at enqueue time and this host's CPU count stands in — small
    chunks are also what makes lease stealing fine-grained).
    """
    if workers is None:
        workers = multiprocessing.cpu_count()
    if batch:
        return max(1, min(batch_width(), -(-pending // workers)))
    return max(1, min(25, -(-pending // (workers * 4))))


def chunk_cells(items: Sequence[Any], size: int) -> list[list[Any]]:
    """Split a work list into chunks of at most ``size`` items."""
    return [list(items[i:i + size]) for i in range(0, len(items), size)]


def _serial_groups(
    cells: Sequence[CellConfig], batch: str | None
) -> Iterable[list[CellConfig]]:
    """Group a serial run's cells for :func:`run_chunk`.

    Runs of batch-eligible cells coalesce (up to the vector width) so the
    serial path vectorizes too.  A run in which no cell passes the width
    gate (:func:`_batch_lanes`) is split back into singletons, like every
    ineligible cell, preserving the per-cell progress and commit
    granularity serial runs always had.
    """
    def emit(run: list[CellConfig]) -> list[list[CellConfig]]:
        if _batch_lanes(run, batch)[0]:
            return [run]
        return [[cell] for cell in run]

    group: list[CellConfig] = []
    width = batch_width()
    for cell in cells:
        if _wants_batch(cell, batch):
            group.append(cell)
            if len(group) >= width:
                yield from emit(group)
                group = []
        else:
            if group:
                yield from emit(group)
                group = []
            yield [cell]
    if group:
        yield from emit(group)


def run_cells(
    cells: Iterable[CellConfig],
    store: ResultStore,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    debug_invariants: bool | None = None,
    retry_failed: bool = False,
    batch: str | None = None,
) -> CampaignRun:
    """Execute every cell not already attempted; return what happened.

    ``batch`` overrides every cell's own ``batch`` field for this run:
    ``"auto"`` routes eligible cells through the vectorized
    :class:`~repro.core.batch.BatchCore` when their chunk holds at least
    :data:`~repro.core.batch.MIN_BATCH_WIDTH` of one
    ``(algorithm, agents, ring_size)`` shape (scalar otherwise),
    ``"off"`` forces the scalar path, ``"on"`` demands the vector path
    at any width and refuses up front if NumPy is missing or any cell is
    ineligible.
    Routing never changes store keys or record contents.

    ``workers=None`` uses every CPU; ``workers<=1`` runs serially in-process
    (same records, useful under debuggers and in tests).  Results stream
    into ``store`` chunk by chunk, so interrupting and re-invoking with the
    same cells resumes where the run stopped.

    Cells whose only stored outcome is an error record are skipped unless
    ``retry_failed``: re-driving failures is an explicit decision (a fleet
    must not re-execute a deterministically crashing cell forever), made
    per invocation via ``campaign resume --retry-failed``.

    ``debug_invariants`` (``None`` = leave each cell's own flag alone)
    force-overrides the per-round engine audit for every cell of this run;
    campaigns default the audit off, so passing ``True`` is the "paranoid
    sweep" switch (note it changes non-default cells' store keys).
    """
    cells = list(cells)
    if debug_invariants is not None:
        cells = [replace(c, debug_invariants=debug_invariants) for c in cells]
    for cell in cells:
        validate_cell(cell)
    if batch is not None and batch not in BATCH_MODES:
        raise ConfigurationError(
            f"batch must be one of {BATCH_MODES}, got {batch!r}")
    if batch == "on":
        if not numpy_available():
            raise ConfigurationError(
                "--batch on requires NumPy, which is not importable here; "
                "use --batch auto for a scalar fallback")
        ineligible = [(c, batch_ineligible_reason(c)) for c in cells]
        ineligible = [(c, r) for c, r in ineligible if r is not None]
        if ineligible:
            cell, reason = ineligible[0]
            raise ConfigurationError(
                f"--batch on: {len(ineligible)} cell(s) are not "
                f"batch-eligible (first: {reason}); use --batch auto to "
                "run them through the scalar core")
    start = time.perf_counter()
    skip = set(store.completed_keys())
    if not retry_failed:
        skip |= store.error_keys()
    pending = [c for c in cells if c.key() not in skip]
    skipped = len(cells) - len(pending)

    if pending and store.supports_leases:
        # Writing past the lease barrier while a fleet drains the same
        # campaign could record a cell twice (a worker's chunk may hold
        # a pending cell this run would also execute).  Refuse loudly.
        from .distributed.queue import has_live_chunks  # lazy: no cycle

        if has_live_chunks(store):
            raise ConfigurationError(
                f"campaign {store.campaign or '?'!r} has pending or leased "
                "chunks in its distributed work queue; run "
                "'campaign worker' / '--distributed' to join the fleet "
                "(or let it drain) instead of a pool-mode run that could "
                "record cells twice")

    if workers is None:
        workers = multiprocessing.cpu_count()
    workers = max(1, min(workers, len(pending) or 1))

    records: list[dict[str, Any]] = []
    completed = 0
    batched = 0
    pool_snaps: list[dict] = []

    def consume(chunk_records: list[dict[str, Any]]) -> None:
        nonlocal completed
        store.append_many(chunk_records)
        records.extend(chunk_records)
        completed += len(chunk_records)
        if progress is not None:
            progress(completed, len(pending))

    rec = obs_spans.ensure_recorder(store=store,
                                    campaign=store.campaign or "")
    campaign_ctx = (
        rec.span("campaign", store.campaign or "campaign",
                 cells=len(pending), mode="pool")
        if rec is not None else nullcontext()
    )
    all_batchable = bool(pending) and all(
        _wants_batch(c, batch) for c in pending)
    with campaign_ctx as campaign_span:
        if workers <= 1 or len(pending) <= 1:
            workers = 1
            for group in _serial_groups(pending, batch):
                chunk_records, n_batched = run_chunk(group, batch=batch)
                batched += n_batched
                consume(chunk_records)
        else:
            if chunk_size is None:
                chunk_size = default_chunk_size(
                    len(pending), workers, batch=all_batchable)
            chunks = chunk_cells([c.to_dict() for c in pending], chunk_size)
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context(
                "fork" if "fork" in methods else None)
            runner = functools.partial(
                _run_chunk, batch=batch,
                parent_span_id=(campaign_span.span_id
                                if campaign_span is not None else None))
            with ctx.Pool(processes=workers) as pool:
                for chunk_records, n_batched, snap in pool.imap_unordered(
                        runner, chunks):
                    batched += n_batched
                    if snap:
                        pool_snaps.append(snap)
                    consume(chunk_records)
    if rec is not None:
        rec.flush()

    run_metrics: dict[str, dict] | None = None
    if obs_metrics.enabled():
        run_metrics = obs_metrics.merge_snapshots(
            [obs_metrics.snapshot(), *pool_snaps])
        record_fn = getattr(store, "record_metrics_snapshot", None)
        if record_fn is not None:
            record_fn(f"run-{os.getpid()}", run_metrics)

    failed = sum(1 for r in records if "error" in r)
    return CampaignRun(
        total=len(cells),
        skipped=skipped,
        executed=len(records),
        failed=failed,
        elapsed_s=time.perf_counter() - start,
        workers=workers,
        batched=batched,
        records=records,
        metrics=run_metrics,
    )


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore | str,
    *,
    workers: int | None = None,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    debug_invariants: bool | None = None,
    retry_failed: bool = False,
    distributed: bool = False,
    lease_ttl_s: float | None = None,
    batch: str | None = None,
) -> CampaignRun:
    """Expand a spec and execute it against a store (URI, path or instance).

    Strings go through :func:`~repro.campaigns.stores.open_store`, so
    ``"sqlite:results/t2.db"`` selects the SQLite backend and a plain
    path keeps the JSONL default.

    ``distributed=True`` routes through the lease-based work queue
    (:mod:`repro.campaigns.distributed`): the spec's pending cells are
    enqueued as claimable chunks in the (SQLite) store and ``workers``
    local worker processes drain them — the same queue any number of
    extra hosts can join mid-run with ``python -m repro campaign worker``.
    """
    if distributed:
        from .distributed.queue import DEFAULT_LEASE_TTL_S
        from .distributed.status import run_distributed

        return run_distributed(
            spec, store,
            workers=workers, chunk_size=chunk_size,
            lease_ttl_s=(lease_ttl_s if lease_ttl_s is not None
                         else DEFAULT_LEASE_TTL_S),
            retry_failed=retry_failed,
            debug_invariants=debug_invariants,
            progress=progress,
            batch=batch,
        )
    store = open_store(store, campaign=spec.name)
    return run_cells(
        spec.cells(), store,
        workers=workers, chunk_size=chunk_size, progress=progress,
        debug_invariants=debug_invariants, retry_failed=retry_failed,
        batch=batch,
    )
