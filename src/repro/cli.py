"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``atlas``    — print the paper's feasibility map (Tables 1-4);
* ``run``      — run one algorithm on a dynamic ring and print the outcome;
* ``watch``    — like ``run`` but renders the configuration every round;
* ``list``     — list available algorithms, adversaries and schedulers;
* ``campaign`` — parallel experiment campaigns:

  * ``campaign run``    — expand a sweep spec and execute it (resumable;
    ``--distributed`` drains it through the lease-based work queue with
    N local worker processes instead of a multiprocessing pool);
  * ``campaign resume`` — continue an interrupted campaign
    (``--retry-failed`` also re-drives cells whose only outcome so far
    is an error record);
  * ``campaign enqueue`` — persist a spec's pending cells as claimable
    chunks in a shared SQLite store (the multi-host entry point);
  * ``campaign worker`` — claim/run/heartbeat chunks from a shared
    store until the campaign's queue drains; run it on as many machines
    as can reach the store;
  * ``campaign status`` — live fleet telemetry (workers alive, chunk
    lease states, cells/s, ETA) read straight from the store;
    ``--watch`` re-renders until the queue finishes;
  * ``campaign report`` — aggregate a result store into table rows
    (``--fit`` adds complexity-shape verdicts straight from the store,
    ``--reduce p90`` fits a tail percentile instead of the mean,
    ``--scatter`` drills down to per-seed rows, and ``--errors`` lists
    the cells whose only outcome is an error record);
  * ``campaign export`` — dump a store as a columnar file (CSV/Parquet);
  * ``campaign metrics`` — merged fleet metrics from the store's
    persisted worker snapshots (``--format table|json|prom``; ``prom``
    emits a Prometheus textfile);
  * ``campaign trace``  — trace analytics over the recorded spans:
    span tree (default), ``--timeline`` per-worker Gantt,
    ``--critical-path`` wall-clock attribution, ``--stragglers``
    skew ranking, ``--format chrome`` Perfetto-compatible export;
  * ``campaign profile`` — phase-attribution profile from the fleet's
    metrics snapshots (``--format table|json|folded``; ``folded``
    emits speedscope/flamegraph collapsed stacks);
  * ``campaign list``   — list the named campaign specs.

* ``bench`` — bench-history regression guard: ``bench record`` appends
  a ``BENCH_engine.json``'s headlines to ``BENCH_history.jsonl``;
  ``bench check`` exits 1 when the latest entry drops below a fraction
  (default 0.7) of the trailing median for any headline.

Observability (see :mod:`repro.obs` and ARCHITECTURE.md):
``--metrics`` / ``--trace`` / ``--trace-jsonl PATH`` (on
``run``/``resume``/``worker``) switch on the metrics registry and the
campaign→chunk→cell span trace — both off by default and free when off.
The flags are exported as ``REPRO_METRICS`` / ``REPRO_TRACE`` /
``REPRO_TRACE_JSONL`` so spawned worker processes inherit them.  The
top-level ``--log-level/--log-json/-q/--verbose`` flags configure the
stdlib-``logging`` backbone every progress line now flows through.

``--batch {auto,on,off}`` (on ``run``/``resume``/``worker``) routes
eligible cells — ring/NS/FSYNC under an oblivious adversary — through
the vectorized batch executor (:mod:`repro.core.batch`); it is pure
execution routing, never cell identity: store keys, records and reports
are byte-identical to the scalar path.

``--store`` accepts a backend URI everywhere: ``sqlite:results/t2.db``
selects the concurrent, indexed SQLite backend, ``jsonl:`` (or a bare
path) the append-only JSONL default.  The distributed verbs need the
SQLite backend (the queue's lease transactions live in the same
database) and default to ``sqlite:results/<spec>.db``.

Single runs and campaign cells share one registry
(:mod:`repro.campaigns.registry`): every algorithm/adversary name below
is also a valid name in a campaign spec.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Sequence

from .analysis.render import watch
from .campaigns.aggregate import aggregate_records, render_rows
from .campaigns.executor import run_cells
from .campaigns.presets import DEFAULT_SPEC, SPECS, get_spec, load_spec
from .campaigns.registry import (
    ADVERSARIES,
    ALGORITHMS,
    SCHEDULERS,
    build_cell_engine,
    default_horizon,
)
from .campaigns.spec import CellConfig
from .campaigns.stores import (
    ResultStore,
    export_store,
    fit_rows,
    open_store,
    render_error_rows,
    render_fit_rows,
    render_scatter,
)
from .core.batch import MIN_BATCH_WIDTH
from .core.errors import ConfigurationError
from .obs import expo as obs_expo
from .obs import logs as obs_logs
from .obs import metrics as obs_metrics
from .obs.history import add_bench_parsers, bench_main
from .theory.tables import render_map

_log = obs_logs.get_logger(__name__)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Live Exploration of Dynamic Rings - reproduction CLI",
    )
    parser.add_argument("--log-level", default=None, metavar="LEVEL",
                        help="logging threshold for repro.* loggers "
                             "(DEBUG/INFO/WARNING/ERROR; default INFO)")
    parser.add_argument("--log-json", action="store_true",
                        help="emit log lines as JSON objects on stderr "
                             "(machine-ingestable)")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="warnings and errors only (silences progress "
                             "lines; results still print on stdout)")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug logging (per-chunk detail)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("atlas", help="print the paper's feasibility map")
    sub.add_parser("list", help="list algorithms and adversaries")

    for name in ("run", "watch"):
        p = sub.add_parser(name, help=f"{name} an exploration")
        p.add_argument("algorithm", choices=sorted(ALGORITHMS))
        p.add_argument("-n", type=int, default=8, help="ring size (default 8)")
        p.add_argument("--bound", type=int, default=None,
                       help="known upper bound N (defaults to n)")
        p.add_argument("--agents", type=int, default=None,
                       help="number of agents (defaults per algorithm)")
        p.add_argument("--adversary", choices=sorted(ADVERSARIES), default="random")
        p.add_argument("--edge", type=int, default=0,
                       help="edge index for fixed/periodic adversaries")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--no-chirality", action="store_true",
                       help="flip agent 1's orientation")
        p.add_argument("--rounds", type=int, default=None,
                       help="horizon (default: generous per algorithm)")
        p.add_argument("--faults", default="", metavar="PLAN",
                       help="fault plan: comma-separated crash:A@R (agent A "
                            "crashes at round R), lost:A or lost:* (lost when "
                            "waiting on a removed edge), rate:P (per-round "
                            "crash probability); default: fault-free")

    campaign = sub.add_parser(
        "campaign", help="parallel, resumable experiment campaigns")
    csub = campaign.add_subparsers(dest="campaign_command", required=True)

    for verb, help_text in (
        ("run", "expand a sweep spec and execute every pending cell"),
        ("resume", "continue an interrupted campaign from its store"),
    ):
        p = csub.add_parser(verb, help=help_text)
        p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                       help=f"named spec (default: {DEFAULT_SPEC}; "
                            f"see 'campaign list')")
        p.add_argument("--spec-file", default=None, metavar="PATH",
                       help="JSON/YAML spec file (overrides --spec)")
        p.add_argument("--store", default=None, metavar="URI",
                       help="result store: a path, jsonl:PATH or sqlite:PATH "
                            "(default: results/<spec>.jsonl)")
        p.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: all CPUs; 1 = serial)")
        p.add_argument("--chunk-size", type=int, default=None,
                       help="cells per work unit (default: auto)")
        p.add_argument("--limit", type=int, default=None,
                       help="only run the first LIMIT cells of the expansion")
        p.add_argument("--no-report", action="store_true",
                       help="skip the aggregate table after the run")
        p.add_argument("--debug-invariants", action="store_true",
                       help="run every cell with the per-round engine audit "
                            "on (campaigns default it off for throughput)")
        p.add_argument("--retry-failed", action="store_true",
                       help="also re-run cells whose only stored outcome is "
                            "an error record (default: failures are skipped "
                            "like completed cells)")
        p.add_argument("--distributed", action="store_true",
                       help="execute through the lease-based work queue: "
                            "enqueue pending cells in the (SQLite) store, "
                            "spawn --workers local worker processes, and let "
                            "any extra 'campaign worker' processes on other "
                            "hosts join the same queue")
        p.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                       help="distributed lease time-to-live in seconds: a "
                            "worker silent this long is presumed dead and "
                            "its chunk is stolen (default: 30)")
        p.add_argument("--batch", choices=("auto", "on", "off"), default=None,
                       help="vectorized batch execution: auto runs "
                            "eligible cells on the lockstep NumPy core when "
                            f"a chunk holds at least {MIN_BATCH_WIDTH} of "
                            "one (algorithm, agents, ring_size) shape and "
                            "scalar otherwise, on batches at any width and "
                            "refuses ineligible cells, off forces the "
                            "scalar path; never changes results or store "
                            "keys (default: auto)")
        _add_obs_flags(p)

    p = csub.add_parser(
        "enqueue",
        help="persist a spec's pending cells as claimable chunks (multi-host)")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help=f"named spec (default: {DEFAULT_SPEC})")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="SQLite result store hosting the queue "
                        "(default: sqlite:results/<spec>.db)")
    p.add_argument("--chunk-size", type=int, default=None,
                   help="cells per claimable chunk (default: auto)")
    p.add_argument("--limit", type=int, default=None,
                   help="only enqueue the first LIMIT cells of the expansion")
    p.add_argument("--retry-failed", action="store_true",
                   help="also enqueue cells whose only stored outcome is an "
                        "error record")
    p.add_argument("--debug-invariants", action="store_true",
                   help="enqueue every cell with the per-round engine audit "
                        "on (applied here, at keying time — workers execute "
                        "chunks exactly as enqueued)")

    p = csub.add_parser(
        "worker",
        help="claim and run chunks from a shared store until the queue drains")
    p.add_argument("--store", default=None, metavar="URI",
                   help="SQLite result store hosting the queue "
                        "(default: sqlite:results/<campaign>.db)")
    p.add_argument("--campaign", required=True, metavar="NAME",
                   help="campaign tag the chunks were enqueued under "
                        "(the spec name)")
    p.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                   help="lease time-to-live in seconds (default: 30); must "
                        "match the fleet's")
    p.add_argument("--poll", type=float, default=0.5, metavar="S",
                   help="seconds between claim attempts when empty-handed")
    p.add_argument("--max-chunks", type=int, default=None,
                   help="exit after completing this many chunks")
    p.add_argument("--max-attempts", type=int, default=None,
                   help="park a chunk as failed after this many claim "
                        "attempts instead of stealing it again "
                        "(default: 5; poison-chunk protection)")
    p.add_argument("--worker-id", default=None,
                   help="fleet-unique identity (default: <host>-<pid>)")
    p.add_argument("--batch", choices=("auto", "on", "off"), default=None,
                   help="vectorized batch execution for claimed chunks: "
                        "auto batches (algorithm, agents, ring_size) shape "
                        f"groups at least {MIN_BATCH_WIDTH} wide, on "
                        "batches any width, off none (default: auto; "
                        "routing never changes results, so a mixed fleet "
                        "is fine)")
    _add_obs_flags(p)

    p = csub.add_parser(
        "status", help="live fleet telemetry for a distributed campaign")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help="spec name used to locate the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="SQLite result store hosting the queue "
                        "(default: sqlite:results/<spec>.db)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="campaign tag (default: the spec's name)")
    p.add_argument("--watch", action="store_true",
                   help="re-render every --interval seconds until the queue "
                        "finishes")
    p.add_argument("--interval", type=float, default=2.0, metavar="S",
                   help="refresh period for --watch (default: 2)")
    p.add_argument("--lease-ttl", type=float, default=None, metavar="S",
                   help="lease time-to-live used to classify workers/leases "
                        "as dead (default: 30); must match the fleet's")

    p = csub.add_parser("report", help="aggregate a result store into table rows")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help="spec name used to locate the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="result store: a path, jsonl:PATH or sqlite:PATH "
                        "(default: results/<spec>.jsonl)")
    p.add_argument("--by", default="label,algorithm,ring_size",
                   help="comma-separated config dimensions to group by")
    p.add_argument("--fit", action="store_true",
                   help="also shape-fit rounds/moves vs ring size per label "
                        "(linear vs n log n vs quadratic; needs numpy)")
    p.add_argument("--reduce", choices=("mean", "p50", "p90", "p99"),
                   default="mean",
                   help="per-sweep-point reducer for the --fit series "
                        "(default: mean; percentiles fit the tails instead)")
    p.add_argument("--scatter", action="store_true",
                   help="also print per-seed (unreduced) scatter rows, one "
                        "line per stored record, grouped like the table")
    p.add_argument("--errors", action="store_true",
                   help="also list errored cells (cells whose only stored "
                        "outcome is an error record; re-drive them with "
                        "'campaign resume --retry-failed')")

    p = csub.add_parser(
        "metrics",
        help="merged fleet metrics from the store's worker snapshots")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help="spec name used to locate the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="SQLite result store holding the telemetry tables "
                        "(default: sqlite:results/<spec>.db)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="campaign tag (default: the spec's name)")
    p.add_argument("--format", choices=("table", "json", "prom"),
                   default="table",
                   help="table: aligned human report; json: summarised "
                        "snapshot; prom: Prometheus textfile exposition "
                        "(default: table)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report to PATH instead of stdout "
                        "(e.g. a node_exporter textfile collector dir)")

    p = csub.add_parser(
        "trace",
        help="trace analytics over recorded campaign→chunk→cell spans")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help="spec name used to locate the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="SQLite result store holding the spans table "
                        "(default: sqlite:results/<spec>.db)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="campaign tag (default: the spec's name)")
    p.add_argument("--jsonl", default=None, metavar="PATH",
                   help="read spans from a REPRO_TRACE_JSONL file instead "
                        "of the store (works with any backend)")
    p.add_argument("--timeline", action="store_true",
                   help="per-worker ASCII Gantt of chunk execution over "
                        "the campaign wall clock")
    p.add_argument("--critical-path", action="store_true",
                   help="wall-clock attribution (queue-wait/claim/execute/"
                        "commit) and the longest span chain")
    p.add_argument("--stragglers", action="store_true",
                   help="chunks and workers ranked vs the fleet median")
    p.add_argument("--format", choices=("text", "json", "chrome"),
                   default="text",
                   help="text: human report; json: the requested analyses "
                        "as one JSON object; chrome: Chrome trace-event "
                        "JSON for ui.perfetto.dev (default: text)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the report to PATH instead of stdout")

    p = csub.add_parser(
        "profile",
        help="phase-attribution profile from the fleet's metrics snapshots")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help="spec name used to locate the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="SQLite result store holding the telemetry tables "
                        "(default: sqlite:results/<spec>.db)")
    p.add_argument("--campaign", default=None, metavar="NAME",
                   help="campaign tag (default: the spec's name)")
    p.add_argument("--format", choices=("table", "json", "folded"),
                   default="table",
                   help="table: aligned human report; json: phase/route "
                        "rows; folded: collapsed stacks for speedscope/"
                        "flamegraph tools (default: table)")
    p.add_argument("--out", default=None, metavar="PATH",
                   help="write the profile to PATH instead of stdout "
                        "(e.g. profile.folded for speedscope)")

    p = csub.add_parser(
        "fsck",
        help="validate a result store's integrity (torn lines, orphaned "
             "leases, duplicate keys, chunk/span consistency)")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help="spec name used to locate the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="result store: a path, jsonl:PATH or sqlite:PATH "
                        "(default: results/<spec>.jsonl, falling back to "
                        "results/<spec>.db)")
    p.add_argument("--quarantine", action="store_true",
                   help="repair what can be repaired: move torn JSONL lines "
                        "to a .quarantine sidecar, drop orphaned leases, "
                        "return leaseless chunks to pending")

    p = csub.add_parser(
        "export", help="export a result store as a columnar file")
    p.add_argument("--spec", default=DEFAULT_SPEC, metavar="NAME",
                   help="spec name used to locate the default store")
    p.add_argument("--spec-file", default=None, metavar="PATH",
                   help="JSON/YAML spec file (overrides --spec)")
    p.add_argument("--store", default=None, metavar="URI",
                   help="result store: a path, jsonl:PATH or sqlite:PATH "
                        "(default: results/<spec>.jsonl)")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="destination file (.csv, or .parquet with pyarrow)")
    p.add_argument("--format", choices=("csv", "parquet"), default=None,
                   help="output format (default: from the --out suffix)")

    csub.add_parser("list", help="list the named campaign specs")

    bench = sub.add_parser(
        "bench",
        help="bench-history regression guard (record/check headlines)")
    bsub = bench.add_subparsers(dest="bench_command", required=True)
    add_bench_parsers(bsub)
    return parser


def _add_obs_flags(p: argparse.ArgumentParser) -> None:
    """``--metrics/--trace/--trace-jsonl`` for verbs that execute cells."""
    p.add_argument("--metrics", action="store_true",
                   help="record counters/histograms (queue claim latency, "
                        "engine phase timings, batch share) and print a "
                        "metrics report after the summary; exported as "
                        "REPRO_METRICS=1 so worker processes inherit it")
    p.add_argument("--trace", action="store_true",
                   help="record campaign→chunk→cell spans into the SQLite "
                        "store's spans table (REPRO_TRACE=1)")
    p.add_argument("--trace-jsonl", default=None, metavar="PATH",
                   help="also append spans as JSON lines to PATH "
                        "(REPRO_TRACE_JSONL; works with any store backend)")


def build_from_args(args) -> tuple:
    """Translate single-run CLI flags into a campaign cell and build it."""
    entry = ALGORITHMS[args.algorithm]
    agents = args.agents or entry.default_agents
    no_chirality = args.no_chirality
    unconscious = "unconscious" in args.algorithm
    cell = CellConfig(
        algorithm=args.algorithm,
        ring_size=args.n,
        max_rounds=args.rounds or default_horizon(entry.transport, args.n),
        agents=agents,
        seed=args.seed,
        adversary=args.adversary,
        transport=entry.transport.value,
        chirality=not no_chirality,
        flipped=(1,) if no_chirality and agents >= 2 else (),
        bound=args.bound,
        edge=args.edge,
        stop_on_exploration=unconscious,
        faults=getattr(args, "faults", ""),
    )
    return build_cell_engine(cell), cell.max_rounds, unconscious


def _campaign_spec(args):
    if args.spec_file:
        return load_spec(args.spec_file)
    return get_spec(args.spec)


def _campaign_store(args, spec, *, distributed: bool = False) -> ResultStore:
    """The command's store: JSONL by default, SQLite for distributed verbs
    (the lease queue lives in the same database as the results).

    When no ``--store`` is given and the JSONL default does not exist
    but the distributed default (``results/<spec>.db``) does, read
    commands fall back to it — so ``campaign report`` finds the results
    of a ``campaign run --distributed`` without repeating the URI.
    """
    if args.store:
        return open_store(args.store, campaign=spec.name)
    jsonl_default = Path("results") / f"{spec.name}.jsonl"
    db_default = Path("results") / f"{spec.name}.db"
    target = db_default if distributed else jsonl_default
    if not distributed and not jsonl_default.exists() and db_default.exists():
        target = db_default
    return open_store(target, campaign=spec.name)


def _lease_ttl(args) -> float:
    from .campaigns.distributed import DEFAULT_LEASE_TTL_S

    ttl = getattr(args, "lease_ttl", None)
    return ttl if ttl is not None else DEFAULT_LEASE_TTL_S


def _apply_obs_flags(args) -> None:
    """Export the observability flags as environment variables.

    The env — not in-process state — is the contract: pool children and
    spawned local workers inherit it, and multi-host workers accept the
    same variables directly.
    """
    if getattr(args, "metrics", False):
        os.environ["REPRO_METRICS"] = "1"
    if getattr(args, "trace", False):
        os.environ["REPRO_TRACE"] = "1"
    if getattr(args, "trace_jsonl", None):
        os.environ["REPRO_TRACE_JSONL"] = args.trace_jsonl


class _Milestones:
    """Log campaign progress at ~10% steps (replaces the ``\\r`` ticker —
    log lines must stay one-per-event for ``--log-json`` consumers)."""

    def __init__(self, step: float = 0.1) -> None:
        self._step = step
        self._next = step
        self._last = -1

    def __call__(self, done: int, total: int) -> None:
        if not total or done == self._last:
            return
        frac = done / total
        if frac >= self._next or done == total:
            self._last = done
            _log.info("%d/%d cells (%.0f%%)", done, total, frac * 100)
            while self._next <= frac:
                self._next += self._step


def _print_metrics(snapshot, title: str) -> None:
    if snapshot:
        print(obs_expo.render_table(snapshot, title=title))


def campaign_main(args) -> int:
    if args.campaign_command == "list":
        for name in sorted(SPECS):
            spec = SPECS[name]()
            print(f"{name:<16} {spec.size():>4} cells  {spec.description}")
        return 0

    if args.campaign_command == "worker":
        # Workers need no spec: chunks carry fully serialised cells.
        from .campaigns.distributed import run_worker

        _apply_obs_flags(args)
        target = args.store or f"sqlite:results/{args.campaign}.db"
        try:
            report = run_worker(
                target,
                campaign=args.campaign,
                worker_id=args.worker_id,
                lease_ttl_s=_lease_ttl(args),
                poll_s=args.poll,
                max_chunks=args.max_chunks,
                **({"max_attempts": args.max_attempts}
                   if args.max_attempts is not None else {}),
                progress=_log.info,
                batch=args.batch,
            )
        except KeyboardInterrupt:
            # run_worker released any held chunk on the way out.
            _log.warning("worker interrupted; held lease released")
            return 130
        print(report.summary())
        _print_metrics(report.metrics,
                       title=f"metrics — worker {report.worker_id}")
        return 0

    spec = _campaign_spec(args)

    if args.campaign_command == "enqueue":
        from .campaigns.distributed import enqueue_campaign

        store = _campaign_store(args, spec, distributed=True)
        cells = spec.cell_list()
        if args.limit is not None:
            cells = cells[:args.limit]
        if args.debug_invariants:
            from dataclasses import replace

            cells = [replace(c, debug_invariants=True) for c in cells]
        _, report = enqueue_campaign(
            spec, store, cells=cells,
            chunk_size=args.chunk_size, retry_failed=args.retry_failed,
        )
        print(f"campaign {spec.name}: {report.summary()} -> {store.uri()}")
        return 0

    if args.campaign_command == "status":
        from .campaigns.distributed import (
            fleet_status,
            render_status,
            watch_status,
        )

        campaign = args.campaign or spec.name
        target = args.store or Path("results") / f"{campaign}.db"
        store = open_store(target, campaign=campaign)
        if not store.exists():
            _log.error("no result store at %s", store.path)
            return 1
        ttl = _lease_ttl(args)
        if args.watch:
            try:
                watch_status(store, lease_ttl_s=ttl, interval_s=args.interval)
            except KeyboardInterrupt:
                # the promised UX: Ctrl-C stops the watch, not the fleet
                _log.warning("watch stopped (the fleet keeps running)")
                return 130
        else:
            print(render_status(fleet_status(store, lease_ttl_s=ttl)))
        return 0

    if args.campaign_command == "metrics":
        from .campaigns.distributed import store_metrics

        campaign = args.campaign or spec.name
        target = args.store or Path("results") / f"{campaign}.db"
        store = open_store(target, campaign=campaign)
        if not store.exists():
            _log.error("no result store at %s", store.path)
            return 1
        merged, fleet = store_metrics(store)
        if args.format == "json":
            text = json.dumps(obs_expo.to_json(merged, fleet),
                              indent=2, sort_keys=True)
        elif args.format == "prom":
            text = obs_expo.prometheus_text(
                merged, labels={"campaign": campaign})
        else:
            text = obs_expo.render_table(
                merged, fleet=fleet,
                title=f"campaign {campaign} — metrics ({store.uri()})")
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
            _log.info("wrote %s metrics to %s", args.format, args.out)
        else:
            print(text)
        return 0

    if args.campaign_command == "trace":
        from .obs import analyze as obs_analyze

        campaign = args.campaign or spec.name
        if args.jsonl:
            spans = obs_analyze.load_spans(args.jsonl,
                                           campaign=args.campaign)
        else:
            target = args.store or Path("results") / f"{campaign}.db"
            store = open_store(target, campaign=campaign)
            if not store.exists():
                _log.error("no result store at %s", store.path)
                return 1
            if not hasattr(store, "spans"):
                raise ConfigurationError(
                    f"store backend {type(store).__name__} ({store.uri()}) "
                    "has no spans table — use a SQLite store "
                    "(--store sqlite:PATH) or --jsonl PATH")
            spans = obs_analyze.load_spans(store)
        if not spans:
            _log.error("no spans recorded for campaign %r — run the fleet "
                       "with --trace (or --trace-jsonl)", campaign)
            return 1
        if args.format == "chrome":
            text = json.dumps(obs_analyze.chrome_trace(spans))
        elif args.format == "json":
            views: dict = {"spans": len(spans)}
            if args.critical_path or not args.stragglers:
                views["critical_path"] = obs_analyze.critical_path(spans)
            if args.stragglers:
                views["stragglers"] = obs_analyze.stragglers(spans)
            text = json.dumps(views, indent=2, sort_keys=True)
        else:
            sections = []
            if args.timeline:
                sections.append(obs_analyze.render_timeline(spans))
            if args.critical_path:
                sections.append(obs_analyze.render_critical_path(
                    obs_analyze.critical_path(spans)))
            if args.stragglers:
                sections.append(obs_analyze.render_stragglers(
                    obs_analyze.stragglers(spans)))
            if not sections:
                sections.append(obs_analyze.render_tree(spans))
            text = "\n\n".join(sections)
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
            _log.info("wrote %s trace report to %s", args.format, args.out)
        else:
            print(text)
        return 0

    if args.campaign_command == "profile":
        from .campaigns.distributed import store_metrics
        from .obs import profile as obs_profile

        campaign = args.campaign or spec.name
        target = args.store or Path("results") / f"{campaign}.db"
        store = open_store(target, campaign=campaign)
        if not store.exists():
            _log.error("no result store at %s", store.path)
            return 1
        merged, _fleet = store_metrics(store)
        if args.format == "json":
            text = json.dumps(obs_profile.profile_data(merged),
                              indent=2, sort_keys=True)
        elif args.format == "folded":
            text = obs_profile.folded_stacks(merged)
        else:
            text = obs_profile.render_profile(
                merged,
                title=f"campaign {campaign} — profile ({store.uri()})")
        if args.out:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
            _log.info("wrote %s profile to %s", args.format, args.out)
        else:
            print(text)
        return 0

    if args.campaign_command == "fsck":
        from .resilience import fsck_store

        store = _campaign_store(args, spec)
        if not store.exists():
            _log.error("no result store at %s", store.path)
            return 1
        report = fsck_store(store, quarantine=args.quarantine)
        print(report.render())
        return 0 if report.ok else 1

    if args.campaign_command == "report":
        store = _campaign_store(args, spec)
        if not store.exists():
            _log.error("no result store at %s", store.path)
            return 1
        by = tuple(d.strip() for d in args.by.split(",") if d.strip())
        query = store.query()
        if args.fit or args.scatter:
            # one store scan feeds the aggregate table, fits and scatter
            records = list(query.records())
            rows = aggregate_records(records, by=by)
        else:
            records = None
            rows = query.table(by=by)
        print(render_rows(rows, title=f"campaign {spec.name} ({store.uri()})"))
        if args.fit:
            print()
            print(render_fit_rows(
                fit_rows(query, records=records, reduce=args.reduce),
                title="complexity-shape fits over ring_size "
                      f"({args.reduce} per size; best of "
                      "linear/nlogn/quadratic)"))
        if args.scatter:
            print()
            print(render_scatter(
                records, by=by,
                title="per-seed scatter (one row per stored record)"))
        if args.errors:
            print()
            print(render_error_rows(
                query.errors(),
                title="errored cells (only outcome is an error record; "
                      "re-drive with 'campaign resume --retry-failed')"))
        return 0

    if args.campaign_command == "export":
        store = _campaign_store(args, spec)
        if not store.exists():
            _log.error("no result store at %s", store.path)
            return 1
        result = export_store(store, args.out, format=args.format)
        print(result.summary())
        return 0

    # run / resume
    _apply_obs_flags(args)
    store = _campaign_store(args, spec, distributed=args.distributed)
    if args.campaign_command == "resume" and not store.exists():
        _log.error("nothing to resume: no store at %s", store.path)
        return 1
    cells = spec.cell_list()
    if args.limit is not None:
        cells = cells[:args.limit]
    mode = " [distributed]" if args.distributed else ""
    print(f"campaign {spec.name}: {len(cells)} cells -> {store.uri()}{mode}")
    debug = True if args.debug_invariants else None
    if args.distributed:
        from .campaigns.distributed import run_distributed

        run = run_distributed(
            spec, store, cells=cells,
            workers=args.workers, chunk_size=args.chunk_size,
            lease_ttl_s=_lease_ttl(args), retry_failed=args.retry_failed,
            debug_invariants=debug, progress=_Milestones(),
            batch=args.batch,
        )
    else:
        run = run_cells(
            cells, store,
            workers=args.workers, chunk_size=args.chunk_size,
            progress=_Milestones(), debug_invariants=debug,
            retry_failed=args.retry_failed, batch=args.batch,
        )
    print(run.summary())
    _print_metrics(run.metrics, title=f"metrics — campaign {spec.name}")
    if not args.no_report:
        print(render_rows(store.query().table(), title=f"campaign {spec.name}"))
    return 1 if run.failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        obs_logs.configure(
            obs_logs.resolve_level(
                args.log_level, quiet=args.quiet, verbose=args.verbose),
            json_lines=args.log_json)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _dispatch(args)
    except ConfigurationError as exc:
        _log.error("%s", exc)
        return 2
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


def _dispatch(args) -> int:
    if args.command == "atlas":
        print("Feasibility map (Tables 1-4):")
        print(render_map())
        return 0

    if args.command == "list":
        print("algorithms :", ", ".join(sorted(ALGORITHMS)))
        print("adversaries:", ", ".join(sorted(ADVERSARIES)))
        print("schedulers :", ", ".join(sorted(SCHEDULERS)))
        print("campaigns  :", ", ".join(sorted(SPECS)))
        return 0

    if args.command == "campaign":
        return campaign_main(args)

    if args.command == "bench":
        return bench_main(args)

    engine, horizon, unconscious = build_from_args(args)
    if args.command == "watch":
        watch(engine, horizon)
        return 0

    result = engine.run(horizon, stop_on_exploration=unconscious)
    print(result.summary())
    return 0 if result.explored else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
