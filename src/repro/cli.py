"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — list the reproducible paper experiments.
- ``run <id>`` — run one experiment and print its rendered rows/series.
- ``run-all`` — run every experiment (the full paper reproduction).
- ``price <sku>`` — carbon-price one SKU (CO2e per core, power, rack fit).
- ``savings`` — the Table VIII per-core savings table.
- ``evaluate`` — end-to-end GSF on a synthetic trace.
- ``trace`` — generate/inspect synthetic VM traces: per-trace summary
  stats, CSV export, content digests (``--digest``), and trace-store
  pre-warming for a suite (``--suite N --warm``).
- ``trace ingest <paths>`` — ingest real AzurePublicDataset vmtable
  CSVs into the trace store: per-file row-accounting reports
  (``--report DIR``), content digests, and quarantine of corrupt
  sources into a sibling ``quarantine/`` directory.
- ``stats`` — validate and pretty-print a telemetry run manifest.

Global flags: ``--jobs N`` sets the worker-process count for the
trace-suite experiments; ``--cache`` / ``--no-cache`` toggle the opt-in
on-disk result cache; ``--telemetry PATH`` instruments the run and
writes a JSON manifest of counters, timers, phase spans and the run
settings (see ``docs/observability.md``); ``--trace-backend
{synthetic,azure}`` selects where trace-suite experiments get their
workload.  Each beats its ``REPRO_*`` variable: see "Run settings" in
``docs/reproducing.md``.

Resilience flags (see ``docs/resilience.md``): ``--resume`` checkpoints
every completed suite task to an on-disk journal and loads completed
tasks from it on the next run, so an interrupted 35-seed suite picks up
where it stopped, bit-identically; ``--journal DIR`` relocates the
journal (implies ``--resume``); ``--retries N`` / ``--task-timeout S``
bound each task's attempts and wall clock; ``--keep-going`` opts into
graceful degradation — a task or experiment that exhausts its retry
budget is recorded as a structured failure and the run continues
(without it, a degraded task aborts the run after checkpointing the
survivors, so a fixed rerun resumes); ``--faults SPEC`` injects
deterministic worker kills and latency for testing the layer itself.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from .allocation.ingest import (
    INGEST_CORRUPT_ERRORS,
    TRACE_BACKENDS,
    azure_trace_suite,
    ingest_azure_vm_trace,
    resolve_trace_backend,
)
from .allocation.io import save_trace
from .allocation.traces import (
    TraceParams,
    generate_trace,
    production_trace_suite,
)
from .carbon.model import CarbonModel
from .carbon.savings import paper_savings_table, render_savings_table
from .core import provenance, resilience, settings, telemetry
from .core.errors import ConfigError, ReproError
from .core.faults import parse_fault_spec
from .experiments.registry import EXPERIMENTS, get_experiment
from .gsf.framework import Gsf
from .hardware.datacenter import DataCenterConfig
from .hardware.sku import paper_skus


def _model(args: argparse.Namespace) -> CarbonModel:
    dc = DataCenterConfig().with_carbon_intensity(args.ci)
    if getattr(args, "lifetime", None) is not None:
        dc = dc.with_lifetime(args.lifetime)
    return CarbonModel(dc)


def cmd_list(args: argparse.Namespace) -> int:
    width = max(len(k) for k in EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        print(f"{exp.experiment_id.ljust(width)}  {exp.title}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    experiment = get_experiment(args.experiment)
    with telemetry.span(f"experiment.{experiment.experiment_id}"):
        experiment.module.main()
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    from .experiments.registry import run_all

    on_failure = "record" if args.keep_going else "raise"
    results = run_all(verbose=True, on_failure=on_failure)
    failures = [
        value
        for value in results.values()
        if isinstance(value, resilience.TaskFailure)
    ]
    if failures:
        print(
            f"{len(failures)}/{len(results)} experiments degraded: "
            + ", ".join(str(f.key) for f in failures),
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_price(args: argparse.Namespace) -> int:
    skus = paper_skus()
    if args.sku not in skus:
        raise ConfigError(
            f"unknown SKU {args.sku!r}; known: {sorted(skus)}"
        )
    sku = skus[args.sku]
    assessment = _model(args).assess(sku)
    print(f"{sku.name}: {sku.cores} cores, {sku.memory_gb} GB memory "
          f"({sku.cxl_memory_gb} GB via CXL), {sku.storage_tb:g} TB SSD")
    print(f"  server power:        {assessment.server.power_watts:8.1f} W")
    print(f"  server embodied:     {assessment.server.embodied_kg:8.1f} kg")
    print(f"  servers per rack:    {assessment.servers_per_rack:8d} "
          f"({'space' if assessment.space_bound else 'power'}-bound)")
    print(f"  operational/core:    {assessment.operational_per_core:8.1f} kg")
    print(f"  embodied/core:       {assessment.embodied_per_core:8.1f} kg")
    print(f"  total/core:          {assessment.total_per_core:8.1f} kg")
    return 0


def cmd_savings(args: argparse.Namespace) -> int:
    rows = paper_savings_table(_model(args))
    print(
        render_savings_table(
            rows,
            title=f"Per-core savings at CI = {args.ci} kgCO2e/kWh",
        )
    )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    skus = paper_skus()
    if args.sku not in skus:
        raise ConfigError(
            f"unknown SKU {args.sku!r}; known: {sorted(skus)}"
        )
    gsf = Gsf().at_intensity(args.ci)
    if resolve_trace_backend() == "azure":
        trace = azure_trace_suite(count=1)[0]
        source = f"azure backend, {trace.name!r}"
        days = trace.duration_hours / 24.0
    else:
        trace = generate_trace(
            seed=args.seed,
            params=TraceParams(
                mean_concurrent_vms=args.vms, duration_days=args.days
            ),
        )
        source = f"seed {args.seed}"
        days = args.days
    evaluation = gsf.evaluate(skus[args.sku], trace)
    print(f"trace: {trace.vm_count} VMs over {days:g} days "
          f"({source})")
    print(f"sizing: {evaluation.sizing.baseline_only_servers} baseline-only"
          f" -> {evaluation.sizing.mixed_baseline_servers} baseline + "
          f"{evaluation.sizing.mixed_green_servers} {args.sku} "
          f"(+{evaluation.buffer.baseline_buffer_servers} buffer)")
    print(f"cluster savings:      {evaluation.cluster_savings:.1%}")
    print(f"net DC savings:       {gsf.dc_savings(evaluation):.1%}")
    print(f"adopted core-hours:   {evaluation.adopted_core_hour_share:.0%}")
    if args.report:
        from .gsf.report import evaluation_markdown

        adoption = gsf.adoption_model(skus[args.sku])
        import pathlib

        pathlib.Path(args.report).write_text(
            evaluation_markdown(
                evaluation,
                compute_share=gsf.config.datacenter.compute_share_of_dc,
                adoption=adoption,
            )
            + "\n"
        )
        print(f"report written to {args.report}")
    return 0


def _trace_summary_rows(traces) -> List[List[str]]:
    rows = []
    for trace in traces:
        columns = trace.columns
        full_share = (
            float(columns.full_node.mean()) if columns.n else 0.0
        )
        rows.append(
            [
                trace.name,
                f"{columns.n}",
                f"{trace.peak_concurrent_cores()}",
                f"{full_share:.2%}",
            ]
        )
    return rows


def cmd_trace(args: argparse.Namespace) -> int:
    from .core.tables import render_table

    params = TraceParams(
        mean_concurrent_vms=args.vms, duration_days=args.days
    )
    if args.suite:
        if args.out:
            raise ConfigError(
                "--out writes one trace as CSV; it cannot combine with "
                "--suite"
            )
        store = None
        if args.warm:
            from .allocation.store import TraceStore

            store = TraceStore()
        traces = production_trace_suite(
            count=args.suite,
            base_seed=args.seed,
            params=params,
            jobs=args.jobs,
            store=store,
        )
        print(
            render_table(
                ["trace", "VMs", "peak cores", "full-node share"],
                _trace_summary_rows(traces),
                title=f"trace suite (count={args.suite}, "
                      f"base seed {args.seed})",
            )
        )
        if args.digest:
            for trace in traces:
                print(f"{trace.name}: {trace.digest()}")
        if store is not None:
            print(
                f"store: {store.hits} hits, {store.misses} misses "
                f"-> {store.directory}"
            )
        return 0
    if args.warm:
        raise ConfigError("--warm pre-warms the trace store; it needs --suite")
    trace = generate_trace(seed=args.seed, params=params)
    print(
        render_table(
            ["trace", "VMs", "peak cores", "full-node share"],
            _trace_summary_rows([trace]),
        )
    )
    if args.digest:
        print(f"{trace.name}: {trace.digest()}")
    if args.out:
        save_trace(trace, args.out)
        print(f"wrote {trace.vm_count} VMs to {args.out}")
    return 0


def cmd_trace_ingest(args: argparse.Namespace) -> int:
    """Ingest real Azure vmtable CSVs; quarantine unusable files.

    Damaged *rows* are skipped and counted in the per-file report;
    *files* that cannot be ingested at all (bad gzip, undecodable
    bytes, zero usable rows) are moved to a ``quarantine/`` directory
    next to the source so a partially corrupt download batch degrades
    instead of failing.  Exit 0 when at least one file ingested.
    """
    import json
    import pathlib

    from .core.ioutil import atomic_write_text
    from .core.store import quarantine
    from .core.tables import render_table

    store = None
    if args.warm:
        from .allocation.store import TraceStore

        store = TraceStore()
    ingested, failed = [], []
    for raw in args.paths:
        path = pathlib.Path(raw)
        try:
            trace, report = ingest_azure_vm_trace(
                path,
                name=path.name.split(".csv")[0],
                store=store,
                mmap=args.mmap,
                rebase_time=args.rebase,
            )
        except INGEST_CORRUPT_ERRORS as exc:
            # The source keeps its name; later copies get .1, .2, ...
            moved = (
                quarantine(path, path.parent / "quarantine", suffix="")
                if path.exists()
                else None
            )
            if moved is not None:
                print(
                    f"error: {path}: {exc} -> quarantined to {moved}",
                    file=sys.stderr,
                )
            else:
                print(f"error: {path}: {exc}", file=sys.stderr)
            failed.append(str(path))
            continue
        ingested.append((trace, report))
        if args.report:
            report_dir = pathlib.Path(args.report)
            report_dir.mkdir(parents=True, exist_ok=True)
            out = report_dir / f"{trace.name}.ingest.json"
            atomic_write_text(
                out, json.dumps(report.to_dict(), indent=2) + "\n"
            )
    if ingested:
        rows = []
        for trace, report in ingested:
            rows.append(
                [
                    trace.name,
                    f"{report.rows_kept}",
                    f"{report.rows_total - report.rows_kept}",
                    f"{report.start_hours:.1f}",
                    f"{report.span_hours:.1f}",
                    report.store,
                ]
            )
        print(
            render_table(
                ["trace", "kept", "skipped", "start h", "span h", "store"],
                rows,
                title=f"ingested {len(ingested)}/{len(args.paths)} files",
            )
        )
        if args.digest:
            for trace, _report in ingested:
                print(f"{trace.name}: {trace.digest()}")
    return 0 if ingested else 2


# -- sweep / catalog -----------------------------------------------------------


def _parse_axis(raw: str, label: str) -> List[str]:
    values = [part.strip() for part in raw.split(",") if part.strip()]
    if not values:
        raise ConfigError(f"--{label} needs at least one value")
    return values


def _sweep_spec(args: argparse.Namespace):
    """Build a :class:`~repro.catalog.SweepSpec` from the axes flags."""
    from .catalog import SweepSpec

    cxl: List[Optional[int]] = []
    for part in _parse_axis(args.cxl, "cxl"):
        if part == "stock":
            cxl.append(None)
        else:
            try:
                cxl.append(int(part))
            except ValueError:
                raise ConfigError(
                    f"--cxl values must be 'stock' or an even integer, "
                    f"got {part!r}"
                ) from None
    try:
        buffers = tuple(
            float(part) for part in _parse_axis(args.buffers, "buffers")
        )
    except ValueError:
        raise ConfigError("--buffers values must be numbers") from None
    signals = tuple(
        None if part == "none" else part
        for part in _parse_axis(args.signals, "signals")
    )
    return SweepSpec(
        skus=tuple(_parse_axis(args.skus, "skus")),
        adoption_rules=tuple(_parse_axis(args.rules, "rules")),
        buffer_fractions=buffers,
        cxl_dimm_counts=tuple(cxl),
        backends=tuple(_parse_axis(args.backends, "backends")),
        grid_signals=signals,
        placement_policies=tuple(_parse_axis(args.policies, "policies")),
        carbon_intensity=args.ci,
        seed=args.seed,
        vms=args.vms,
        days=args.days,
    )


def _add_sweep_axes(parser: argparse.ArgumentParser) -> None:
    """The shared scenario-grid flags (sweep + catalog subcommands)."""
    parser.add_argument(
        "--skus", default="GreenSKU-Full", metavar="A,B",
        help="comma-separated SKU names (paper_skus)",
    )
    parser.add_argument(
        "--rules", default="carbon-aware", metavar="A,B",
        help="adoption rules: carbon-aware, performance-only, always",
    )
    parser.add_argument(
        "--buffers", default="0.15", metavar="F,F",
        help="growth-buffer fractions",
    )
    parser.add_argument(
        "--cxl", default="stock", metavar="N,N",
        help="reused-DDR4 DIMM counts behind CXL ('stock' keeps the "
             "SKU's own configuration)",
    )
    parser.add_argument(
        "--backends", default="synthetic", metavar="A,B",
        help="trace backends: synthetic, azure",
    )
    parser.add_argument(
        "--signals", default="none", metavar="A,B",
        help="grid carbon signals: none, flat, diurnal, seasonal "
             "('none' skips the carbon-aware replay pair)",
    )
    parser.add_argument(
        "--policies", default="blind", metavar="A,B",
        help="placement policies: blind, carbon_aware "
             "(carbon_aware needs a non-'none' --signals value)",
    )
    parser.add_argument("--ci", type=float, default=None,
                        help="grid carbon intensity override, kgCO2e/kWh")
    parser.add_argument("--seed", type=int, default=7,
                        help="synthetic trace seed")
    parser.add_argument("--vms", type=int, default=60,
                        help="synthetic mean concurrent VMs")
    parser.add_argument("--days", type=float, default=2.0,
                        help="synthetic trace window, days")
    parser.add_argument(
        "--catalog-dir", default=None, metavar="DIR",
        help="results-catalog directory (default: REPRO_CATALOG_DIR, "
             "else <cache dir>/catalog)",
    )


def _sweep_rows(summary) -> List[List[str]]:
    return [
        [
            row["sku"],
            row["rule"],
            f"{row['buffer_fraction']:g}",
            "stock" if row["cxl_dimms"] is None else str(row["cxl_dimms"]),
            row["backend"],
            row["grid_signal"] or "-",
            row["placement_policy"],
            f"{row['cluster_savings']:.2%}",
            (
                f"{row['carbon_delta_kg']:+.4f}"
                if "carbon_delta_kg" in row else "-"
            ),
        ]
        for row in summary["points"]
    ]


_SWEEP_HEADER = [
    "sku", "rule", "buffer", "cxl", "backend", "signal", "policy",
    "savings", "op-delta-kg",
]


def cmd_sweep(args: argparse.Namespace) -> int:
    """Run (or incrementally re-run) a scenario sweep over the catalog."""
    from .catalog import ResultsCatalog, run_sweep
    from .core.tables import render_table

    spec = _sweep_spec(args)
    catalog = ResultsCatalog()
    outcome = run_sweep(spec, catalog)
    print(
        render_table(
            _SWEEP_HEADER,
            _sweep_rows(outcome.summary),
            title=f"scenario sweep ({outcome.summary['count']} points)",
        )
    )
    report = outcome.invalidation
    print(
        f"{len(outcome.recomputed)} recomputed, {len(outcome.warm)} warm "
        f"catalog reads -> {catalog.directory}"
    )
    if report.changed_inputs:
        print(
            f"changed inputs: {', '.join(report.changed_inputs)} "
            f"(invalidated {len(report.invalid)} artifacts, cone digest "
            f"{report.cone_digest()})"
        )
    if args.gc:
        removed = catalog.gc(outcome.live_keys())
        print(f"gc: removed {removed} stale catalog entries")
    return 0


def cmd_catalog_query(args: argparse.Namespace) -> int:
    """Warm-read a grid from the catalog; exit 3 if any point misses."""
    from .catalog import ResultsCatalog, closure_key, current_leaf_inputs
    from .catalog import point_inputs, sweep_points
    from .core.tables import render_table

    spec = _sweep_spec(args)
    catalog = ResultsCatalog()
    points = sweep_points(spec)
    leaves = current_leaf_inputs(spec)
    rows = []
    hits = 0
    for point in points:
        key = closure_key(point_inputs(point, leaves))
        payload = catalog.get_payload(key)
        if payload is None:
            savings = delta = "(miss)"
        else:
            hits += 1
            savings = f"{payload['cluster_savings']:.2%}"
            delta = (
                f"{payload['carbon_aware']['delta_kg']:+.4f}"
                if "carbon_aware" in payload else "-"
            )
        rows.append(
            [
                point.sku,
                point.rule,
                f"{point.buffer_fraction:g}",
                "stock" if point.cxl_dimms is None else str(point.cxl_dimms),
                point.backend,
                point.grid_signal or "-",
                point.placement_policy,
                savings,
                delta,
            ]
        )
    print(
        render_table(
            _SWEEP_HEADER,
            rows,
            title=f"catalog query: {hits}/{len(points)} warm "
                  f"({catalog.directory})",
        )
    )
    return 0 if hits == len(points) else 3


def cmd_catalog_gc(args: argparse.Namespace) -> int:
    """Drop catalog entries outside a grid's current input closure."""
    from .catalog import (
        ResultsCatalog,
        closure_key,
        current_leaf_inputs,
        payload_digest,
        point_inputs,
        sweep_points,
    )

    spec = _sweep_spec(args)
    catalog = ResultsCatalog()
    points = sweep_points(spec)
    leaves = current_leaf_inputs(spec)
    live = []
    digests = {}
    for point in points:
        key = closure_key(point_inputs(point, leaves))
        live.append(key)
        payload = catalog.get_payload(key)
        if payload is not None:
            digests[point.artifact_id] = payload_digest(payload)
    if len(digests) == len(points):
        # Every point is warm, so the current summary entry is
        # reconstructible and stays live; with any cold point the
        # summary is stale by definition and collects with the rest.
        summary_inputs = {"code": leaves["code"]}
        summary_inputs.update(digests)
        live.append(closure_key(summary_inputs))
    before = len(catalog.keys())
    removed = catalog.gc(live)
    print(
        f"gc: removed {removed}/{before} entries, kept "
        f"{before - removed} live ({catalog.directory})"
    )
    return 0


def cmd_catalog_stats(args: argparse.Namespace) -> int:
    """Print what the results-catalog directory holds (entries, bytes).

    A run's hit, miss and write counts are the ``catalog.*`` counters of
    its ``--telemetry`` manifest; this fresh process has none to print.
    """
    import json

    from .catalog import ResultsCatalog

    print(json.dumps(ResultsCatalog().contents(), indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "GreenSKU/GSF: evaluate low-carbon cloud server designs "
            "(reproduction of Wang et al., ISCA 2024)"
        ),
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for trace-suite experiments (overrides "
             "REPRO_JOBS; default all cores)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache", dest="cache", action="store_true", default=None,
        help="enable the on-disk result cache (REPRO_CACHE_DIR, "
             "default ./.repro-cache)",
    )
    cache_group.add_argument(
        "--no-cache", dest="cache", action="store_false",
        help="disable the on-disk result cache even if REPRO_CACHE is set",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="PATH",
        help="instrument the run and write a JSON telemetry manifest "
             "(counters, timers, phase spans) to PATH",
    )
    parser.add_argument(
        "--trace-backend", default=None, choices=TRACE_BACKENDS,
        help="workload source for trace-suite experiments: the "
             "'synthetic' generator (default) or ingested 'azure' "
             "vmtable traces (REPRO_AZURE_TRACE_DIR, else the bundled "
             "sample; overrides REPRO_TRACE_BACKEND)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="checkpoint completed suite tasks to the on-disk journal "
             "and resume from it (bit-identical to an uninterrupted run)",
    )
    parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="checkpoint-journal directory (implies --resume; default "
             "<cache dir>/journal)",
    )
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry each failed suite task up to N times with "
             "exponential backoff (default 2 when resilience is active)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-task wall-clock bound; a timed-out attempt counts as "
             "a failure and its worker is reclaimed",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="degrade gracefully: record tasks/experiments that exhaust "
             "their retry budget as structured failures and continue "
             "instead of aborting",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject deterministic faults, e.g. 'kill=0;3 p=0.1 "
             "attempts=1 mode=hard latency=0.01 seed=7' (testing only)",
    )
    parser.add_argument(
        "--provenance", default=None, metavar="PATH",
        help="record input/output content digests for every cached task "
             "and experiment into an append-only JSONL provenance log at "
             "PATH ('auto' = <cache dir>/provenance.jsonl)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list paper experiments").set_defaults(
        func=cmd_list
    )

    run = sub.add_parser("run", help="run one paper experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.set_defaults(func=cmd_run)

    sub.add_parser("run-all", help="run every experiment").set_defaults(
        func=cmd_run_all
    )

    price = sub.add_parser("price", help="carbon-price one SKU")
    price.add_argument("sku", help="SKU name (e.g. GreenSKU-Full)")
    price.add_argument("--ci", type=float, default=0.1,
                       help="grid carbon intensity, kgCO2e/kWh")
    price.add_argument("--lifetime", type=float, default=None,
                       help="server lifetime, years")
    price.set_defaults(func=cmd_price)

    savings = sub.add_parser("savings", help="Table VIII savings table")
    savings.add_argument("--ci", type=float, default=0.1)
    savings.set_defaults(func=cmd_savings)

    evaluate = sub.add_parser("evaluate", help="end-to-end GSF evaluation")
    evaluate.add_argument("--sku", default="GreenSKU-Full")
    evaluate.add_argument("--seed", type=int, default=1)
    evaluate.add_argument("--vms", type=int, default=500,
                          help="mean concurrent VMs")
    evaluate.add_argument("--days", type=float, default=14.0)
    evaluate.add_argument("--ci", type=float, default=0.1)
    evaluate.add_argument(
        "--report", default=None,
        help="write a Markdown evaluation report to this path",
    )
    evaluate.set_defaults(func=cmd_evaluate)

    trace = sub.add_parser(
        "trace",
        help="generate/inspect VM traces and pre-warm the trace store",
    )
    trace.add_argument("--seed", type=int, default=1,
                       help="trace seed (suite mode: the base seed)")
    trace.add_argument("--vms", type=int, default=350)
    trace.add_argument("--days", type=float, default=14.0)
    trace.add_argument("--out", default=None,
                       help="write the generated trace to this CSV path")
    trace.add_argument(
        "--suite", type=int, default=None, metavar="N",
        help="operate on the N-trace production suite instead of one trace",
    )
    trace.add_argument(
        "--warm", action="store_true",
        help="pre-warm the persistent trace store for the suite "
             "(REPRO_TRACE_STORE_DIR, default <cache dir>/traces)",
    )
    trace.add_argument(
        "--digest", action="store_true",
        help="print each trace's content digest (the CI golden values)",
    )
    trace.set_defaults(func=cmd_trace, trace_command=None)

    trace_sub = trace.add_subparsers(dest="trace_command")
    ingest = trace_sub.add_parser(
        "ingest",
        help="ingest AzurePublicDataset vmtable CSV/CSV.gz files",
    )
    ingest.add_argument(
        "paths", nargs="+", metavar="PATH",
        help="vmtable CSV or CSV.gz files to ingest",
    )
    ingest.add_argument(
        "--mmap", action="store_true",
        help="memory-map store hits instead of eager-loading them",
    )
    ingest.add_argument(
        "--rebase", action="store_true",
        help="shift arrivals so the trace window starts at t=0",
    )
    ingest.add_argument(
        "--report", default=None, metavar="DIR",
        help="write a per-file JSON ingestion report into DIR",
    )
    ingest.add_argument(
        "--digest", action="store_true",
        help="print each ingested trace's content digest",
    )
    ingest.add_argument(
        "--warm", action="store_true",
        help="register ingested traces in the persistent trace store "
             "(REPRO_TRACE_STORE_DIR, default <cache dir>/traces)",
    )
    ingest.set_defaults(func=cmd_trace_ingest)

    export = sub.add_parser(
        "export", help="write experiment artifacts to a directory"
    )
    export.add_argument("--out", required=True)
    export.add_argument(
        "--all",
        action="store_true",
        help="include the heavy trace-driven experiments",
    )
    export.set_defaults(func=cmd_export)

    stats = sub.add_parser(
        "stats", help="validate and pretty-print a telemetry manifest"
    )
    stats.add_argument("manifest", help="path to a --telemetry JSON file")
    stats.set_defaults(func=cmd_stats)

    sweep = sub.add_parser(
        "sweep",
        help="incremental scenario sweep over the results catalog "
             "(recomputes only provenance-invalidated points)",
    )
    _add_sweep_axes(sweep)
    sweep.add_argument(
        "--gc", action="store_true",
        help="after the sweep, drop catalog entries outside its closure",
    )
    sweep.set_defaults(func=cmd_sweep)

    catalog = sub.add_parser(
        "catalog", help="build/query/gc the closure-keyed results catalog"
    )
    catalog_sub = catalog.add_subparsers(
        dest="catalog_command", required=True
    )
    build = catalog_sub.add_parser(
        "build", help="populate the catalog for a scenario grid (= sweep)"
    )
    _add_sweep_axes(build)
    build.set_defaults(func=cmd_sweep, gc=False)
    query = catalog_sub.add_parser(
        "query",
        help="warm-read a scenario grid from the catalog (no compute; "
             "exit 3 if any point is missing)",
    )
    _add_sweep_axes(query)
    query.set_defaults(func=cmd_catalog_query)
    gc = catalog_sub.add_parser(
        "gc", help="drop entries outside a scenario grid's closure"
    )
    _add_sweep_axes(gc)
    gc.set_defaults(func=cmd_catalog_gc)
    cstats = catalog_sub.add_parser(
        "stats", help="print the catalog's schema, directory, entries "
                      "and bytes as JSON"
    )
    cstats.add_argument("--catalog-dir", default=None, metavar="DIR",
                        help="results-catalog directory")
    cstats.set_defaults(func=cmd_catalog_stats)
    return parser


def cmd_export(args: argparse.Namespace) -> int:
    from .experiments.export import FAST_EXPERIMENT_IDS, export_experiments

    ids = list(EXPERIMENTS) if args.all else list(FAST_EXPERIMENT_IDS)
    written = export_experiments(args.out, ids)
    total = sum(len(files) for files in written.values())
    print(f"exported {len(written)} experiments ({total} files) to "
          f"{args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    try:
        manifest = telemetry.load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return 2
    problems = telemetry.validate_manifest(manifest)
    if problems:
        for problem in problems:
            print(f"invalid manifest: {problem}", file=sys.stderr)
        return 2
    print(telemetry.render_manifest(manifest))
    return 0


def _run_command(args: argparse.Namespace, argv: List[str]) -> int:
    if args.telemetry is None:
        return args.func(args)
    with telemetry.capture() as tel:
        try:
            return args.func(args)
        finally:
            manifest = tel.manifest(command=args.command, argv=argv)
            manifest["settings"] = settings.current().to_dict()
            telemetry.write_manifest(manifest, args.telemetry)
            print(f"telemetry written to {args.telemetry}", file=sys.stderr)


def _build_policy(
    args: argparse.Namespace,
) -> Optional[resilience.ResiliencePolicy]:
    """The resilience policy the flags ask for, if any."""
    wants_resilience = (
        args.resume
        or args.journal is not None
        or args.retries is not None
        or args.task_timeout is not None
        or args.faults is not None
        or args.keep_going
    )
    if not wants_resilience:
        return None
    journal = None
    if args.resume or args.journal is not None:
        journal = resilience.CheckpointJournal(
            directory=args.journal if args.journal is not None else None
        )
    retry = resilience.RetryPolicy(
        max_retries=args.retries if args.retries is not None else 2,
        timeout_s=args.task_timeout,
    )
    faults = parse_fault_spec(args.faults) if args.faults else None
    return resilience.ResiliencePolicy(
        journal=journal, retry=retry, faults=faults,
        # Degradation is an explicit opt-in: without --keep-going a
        # task that exhausts its budget aborts the run (survivors stay
        # checkpointed for --resume) instead of silently thinning the
        # seed set behind a figure.
        on_failure="record" if args.keep_going else "raise",
    )


def _flag_settings(args: argparse.Namespace) -> Dict[str, Any]:
    """The settings the given flags set (flags left out set nothing)."""
    flags = {
        "jobs": args.jobs,
        "cache": args.cache,
        "trace_backend": args.trace_backend,
        "catalog_dir": getattr(args, "catalog_dir", None),
        "policy": _build_policy(args),
    }
    if args.provenance is not None:
        # 'auto' puts the log at its default cache-dir location.
        flags["provenance"] = provenance.ProvenanceLog(
            None if args.provenance == "auto" else args.provenance
        )
    return {name: value for name, value in flags.items() if value is not None}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    The command runs inside one :func:`repro.core.settings.using` scope.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with settings.using(**_flag_settings(args)):
            return _run_command(
                args, list(sys.argv[1:] if argv is None else argv)
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
