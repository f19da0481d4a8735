"""Command-line interface.

::

    repro tables                 # print every reproduced table
    repro table 1                # one table
    repro report                 # the full reproduction report
    repro claims                 # in-text claims, paper vs measured
    repro measure r3000          # the four primitives on one system
    repro disasm sparc trap      # dump a handler driver as assembly
    repro arches                 # list known architectures
    repro arch describe sparc    # derived capabilities + synthesized phases
    repro trace table2 --out trace.json       # Chrome trace of a table run
    repro trace appmix --format folded ...    # flamegraph folded stacks
    repro --metrics table 2      # any command + Prometheus metrics dump
    repro arch ablate sparc windows           # handler delta, capability off
    repro explore run --space tiny            # design-space search + report
    repro explore run --strategy halving --budget 32 --store trials.jsonl
    repro explore frontier --store trials.jsonl
    repro explore show --store trials.jsonl
    repro serve run --port 8023               # simulation-as-a-service
    repro serve bench --out BENCH_serve.json  # serving-discipline benchmark
    repro scenario fit --workload andrew-local    # fitted model rate tables
    repro scenario run --arch r3000 --events 1000000 --seeds 5 --jobs 2
    repro scenario sweep --store scen.jsonl   # paired kernelization cost
    repro scenario sweep --frontier trials.jsonl  # price an explore frontier
    repro scenario report --store scen.jsonl  # stored replications

Also exposed as ``python -m repro``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


def _cmd_arches(_: argparse.Namespace) -> int:
    from repro.arch import ALL_ARCH_NAMES, get_arch

    for name in ALL_ARCH_NAMES:
        arch = get_arch(name)
        print(f"{name:<8s} {arch.system_name:<24s} {arch.clock_mhz:6.2f} MHz "
              f"{arch.kind.value.upper()}")
    return 0


def _cmd_arch_describe(args: argparse.Namespace) -> int:
    from repro.arch import get_arch
    from repro.arch.mdesc import describe_text
    from repro.kernel.handlers import handler_description, handler_program
    from repro.kernel.primitives import Primitive

    try:
        arch = get_arch(args.name)
    except KeyError as err:
        print(err, file=sys.stderr)
        return 2
    print(f"{arch.name}: {arch.system_name} ({arch.clock_mhz:g} MHz, "
          f"{arch.kind.value.upper()})")
    print(describe_text(handler_description(arch)))
    for primitive in Primitive:
        program = handler_program(arch, primitive)
        print(f"\n{primitive.value}: {len(program)} instructions ({program.name})")
        counts = program.counts_by_phase()
        for phase in program.phases:
            print(f"  {phase:<18s} {counts[phase]:4d}")
    return 0


#: ablatable capability -> (description, overrides-builder).  Each
#: builder maps the base spec to the with_overrides() kwargs that strip
#: the capability; synthesis then regenerates the handler streams.
def _ablate_windows(arch):
    return {"windows": None}


def _ablate_pipeline(arch):
    from dataclasses import replace

    return {"pipeline": replace(arch.pipeline, exposed=False,
                                fpu_freeze_on_fault=False, state_registers=0)}


def _ablate_software_tlb(arch):
    from dataclasses import replace

    return {"tlb": replace(arch.tlb, software_managed=False)}


def _ablate_tlb_tags(arch):
    from dataclasses import replace

    return {"tlb": replace(arch.tlb, pid_tagged=False)}


def _ablate_cache_tags(arch):
    from dataclasses import replace

    return {"cache": replace(arch.cache, pid_tagged=False)}


def _ablate_cache_virtual(arch):
    from dataclasses import replace

    return {"cache": replace(arch.cache, virtually_addressed=False)}


ABLATABLE_CAPABILITIES = {
    "windows": ("flatten the register file (windows=None)", _ablate_windows),
    "pipeline": ("hide the pipeline (precise interrupts, no state registers)",
                 _ablate_pipeline),
    "software_tlb": ("reload the TLB in hardware instead of software",
                     _ablate_software_tlb),
    "tlb_tags": ("drop PID tags from the TLB (flush on switch)", _ablate_tlb_tags),
    "cache_tags": ("drop PID tags from the cache", _ablate_cache_tags),
    "cache_virtual": ("address the cache physically", _ablate_cache_virtual),
    "atomic_tas": ("remove the atomic test-and-set instruction",
                   lambda arch: {"has_atomic_tas": False}),
    "fault_address": ("stop providing the faulting address to handlers",
                      lambda arch: {"fault_address_provided": False}),
    "vectoring": ("dispatch traps through a common entry, not vectors",
                  lambda arch: {"vectored_dispatch": False}),
}


def _cmd_arch_ablate(args: argparse.Namespace) -> int:
    from repro.analysis.ablations import capability_stream_delta
    from repro.arch import get_arch
    from repro.kernel.primitives import Primitive

    if args.capability not in ABLATABLE_CAPABILITIES:
        print(f"unknown capability {args.capability!r}; choose one of "
              f"{', '.join(sorted(ABLATABLE_CAPABILITIES))}", file=sys.stderr)
        return 2
    try:
        arch = get_arch(args.name)
    except KeyError as err:
        print(err, file=sys.stderr)
        return 2
    description, build = ABLATABLE_CAPABILITIES[args.capability]
    overrides = build(arch)
    print(f"{arch.name}: ablate {args.capability} — {description}")
    print(f"{'primitive':<18s} {'base':>6s} {'ablated':>8s} {'delta':>6s}")
    for primitive in Primitive:
        base, ablated = capability_stream_delta(arch.name, primitive, **overrides)
        print(f"{primitive.value:<18s} {base:6d} {ablated:8d} {ablated - base:+6d}")
    return 0


def _cmd_measure(args: argparse.Namespace) -> int:
    from repro.arch import get_arch
    from repro.core.microbench import measure_primitives, syscall_breakdown_us
    from repro.kernel.primitives import Primitive

    try:
        arch = get_arch(args.arch)
        result = measure_primitives(arch)
    except KeyError as err:
        print(err, file=sys.stderr)
        return 2
    print(f"{arch.system_name} ({arch.clock_mhz:g} MHz):")
    for primitive in Primitive:
        print(f"  {primitive.label:<26s} {result.times_us[primitive]:7.1f} us  "
              f"({result.instructions[primitive]} instructions)")
    try:
        breakdown = syscall_breakdown_us(arch)
    except KeyError:
        return 0
    print("  null syscall breakdown:")
    for component in ("kernel_entry_exit", "call_prep", "c_call"):
        print(f"    {component:<20s} {breakdown[component]:6.2f} us")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    from repro.analysis.runner import render_table

    try:
        number = int(args.number)
        text = render_table(number)
    except (KeyError, ValueError):
        print(f"unknown table {args.number!r}; choose 1-7", file=sys.stderr)
        return 2
    print(text)
    return 0


def _cmd_tables(_: argparse.Namespace) -> int:
    from repro.analysis.runner import render_all

    tables = render_all()
    for number in sorted(tables):
        print(tables[number])
        print()
    return 0


def _cmd_claims(_: argparse.Namespace) -> int:
    from repro.analysis.intext import all_claims

    for claim in all_claims().values():
        marker = "ok " if claim.within else "OFF"
        print(f"[{marker}] {claim.description}: paper={claim.paper} "
              f"measured={claim.measured:.3f}")
    return 0


def _cmd_summary(_: argparse.Namespace) -> int:
    from repro.analysis.summary import render

    print(render())
    return 0


def _cmd_report(_: argparse.Namespace) -> int:
    from repro.core.report import full_report

    print(full_report())
    return 0


def _cmd_experiments(_: argparse.Namespace) -> int:
    from repro.core.expgen import generate_markdown

    print(generate_markdown(), end="")
    return 0


def _cmd_disasm(args: argparse.Namespace) -> int:
    from repro.arch import get_arch
    from repro.isa.assembler import disassemble
    from repro.kernel.handlers import handler_program
    from repro.kernel.primitives import Primitive

    try:
        arch = get_arch(args.arch)
        primitive = Primitive(args.primitive)
        program = handler_program(arch, primitive)
    except (KeyError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    print(disassemble(program), end="")
    return 0


#: trace targets: the seven tables plus the integrated machine session.
TRACE_TARGETS = tuple(f"table{n}" for n in range(1, 8)) + ("appmix",)


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run a workload under full telemetry and export the result."""
    from repro import obs
    from repro.obs.export import ExportPathError, export

    target = args.target if not args.target.isdigit() else f"table{args.target}"
    if target not in TRACE_TARGETS:
        print(f"unknown trace target {args.target!r}; choose one of "
              f"{', '.join(TRACE_TARGETS)}", file=sys.stderr)
        return 2

    was_on = obs.metrics_enabled()
    obs.enable_metrics()
    before = obs.REGISTRY.snapshot()
    sink = obs.InMemorySink()
    metadata = {"target": target, "tool": "repro trace"}

    try:
        if target == "appmix":
            from repro.arch import get_arch
            from repro.workloads.appmix import run_session

            try:
                arch = get_arch(args.arch) if args.arch else None
            except KeyError as err:
                print(err, file=sys.stderr)
                return 2
            session = run_session(arch=arch, iterations=args.iterations, sink=sink)
            counters = obs.REGISTRY.gauge(
                "machine_event_counters", "Table 7 event counters for the traced session")
            for kind, value in session.counters.items():
                counters.set(value, kind=kind, arch=session.arch_name)
            metadata.update(arch=session.arch_name, iterations=args.iterations,
                            elapsed_us=session.elapsed_us)
        else:
            from repro.analysis.runner import render_table
            from repro.core.engine import ExperimentEngine, default_engine, set_default_engine

            # A fresh engine makes the run cold, so the trace carries real
            # handler/phase spans instead of memoized handler stubs.
            previous = default_engine()
            set_default_engine(ExperimentEngine())
            obs.sim_clock().reset()
            obs.tracer().add_sink(sink)
            try:
                render_table(int(target.removeprefix("table")))
            finally:
                obs.tracer().remove_sink(sink)
                set_default_engine(previous)
    finally:
        if not was_on:
            obs.disable_metrics()

    snapshot = obs.snapshot_diff(before, obs.REGISTRY.snapshot())
    try:
        path = export(sink.spans, snapshot, args.out, args.format,
                      metadata=metadata, force=args.force)
    except ExportPathError as err:
        print(err, file=sys.stderr)
        return 2
    what = ("metrics snapshot" if args.format == "prom"
            else f"{len(sink.spans)} spans")
    print(f"wrote {what} for {target} to {path} ({args.format})")
    return 0


def _explore_schema(args: argparse.Namespace):
    from repro.explore import ObjectiveSchema

    if getattr(args, "objectives", None):
        names = tuple(n.strip() for n in args.objectives.split(",") if n.strip())
        return ObjectiveSchema(names=names)
    return ObjectiveSchema()


def _cmd_explore_run(args: argparse.Namespace) -> int:
    from repro.explore import (ExploreRunner, ResultStore, get_space,
                               make_strategy, render_report)

    try:
        space = get_space(args.space)
        strategy = make_strategy(args.strategy, args.budget)
        schema = _explore_schema(args)
    except (KeyError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    if store.skipped_lines:
        print(f"note: skipped {store.skipped_lines} unusable store line(s)",
              file=sys.stderr)
    runner = ExploreRunner(
        space, schema=schema, strategy=strategy, store=store,
        resume=not args.no_resume, budget=args.budget,
    )
    result = runner.run(seed=args.seed)
    report = render_report(result)
    print(report)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        print(f"\nwrote report to {args.report}")
    return 0


def _cmd_explore_frontier(args: argparse.Namespace) -> int:
    from repro.core.tables import TextTable
    from repro.explore import ResultStore, frontier_from_records
    from repro.explore.frontier import record_frontier

    try:
        schema = _explore_schema(args)
    except ValueError as err:
        print(err, file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    records = store.records_for_schema(schema.digest)
    if not records:
        print(f"no records for schema [{schema.describe()}] in {args.store}",
              file=sys.stderr)
        return 2
    frontier = frontier_from_records(records, schema)
    record_frontier(frontier, schema, args.store, sink=store.lineage)
    table = TextTable(["point", *schema.names, "knobs"],
                      title=f"Pareto frontier of {len(records)} stored trials")
    for record in sorted(frontier,
                         key=lambda r: r["objectives"][schema.names[0]]):
        knobs = " ".join(f"{k}={v}"
                         for k, v in sorted(record.get("point", {}).items()))
        table.add_row([record.get("arch_name", "?"),
                       *[f"{record['objectives'][n]:.2f}" for n in schema.names],
                       knobs])
    print(table.render())
    return 0


def _cmd_explore_show(args: argparse.Namespace) -> int:
    from repro.explore import ResultStore

    store = ResultStore(args.store)
    if not len(store):
        print(f"empty store: {args.store}", file=sys.stderr)
        return 2
    print(f"{args.store}: {len(store)} trial(s), "
          f"{len(store.schema_digests())} objective schema(s)"
          + (f", {store.skipped_lines} unusable line(s) skipped"
             if store.skipped_lines else ""))
    for record in store.records():
        objectives = record.get("objectives", {})
        scores = " ".join(f"{k}={v:.2f}" for k, v in sorted(objectives.items()))
        print(f"  {record.get('arch_name', '?'):<16s} "
              f"space={record.get('space', '?'):<12s} {scores}")
    return 0


def _lineage_graph(args: argparse.Namespace):
    """Assemble one lineage graph from every named source.

    With no sources named, falls back to ``REPRO_CACHE_DIR`` (the same
    default the engine's disk cache honors) so ``repro lineage verify``
    inspects the cache the previous runs actually wrote.
    """
    import os

    from repro.provenance.replay import load_graph

    stores = tuple(args.store or ())
    cache_dirs = tuple(args.cache_dir or ())
    result_stores = tuple(args.result_store or ())
    if not (stores or cache_dirs or result_stores):
        default = os.environ.get("REPRO_CACHE_DIR")
        if default:
            cache_dirs = (default,)
    return load_graph(stores=stores, cache_dirs=cache_dirs,
                      result_stores=result_stores)


def _resolve_digest(graph, text: str) -> str:
    """Exact digest, or a unique prefix of one."""
    if graph.get(text) is not None:
        return text
    matches = [r.digest for r in graph.records() if r.digest.startswith(text)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise KeyError(f"no lineage record matches {text!r}")
    raise KeyError(
        f"{text!r} is ambiguous ({len(matches)} records); give more digits")


def _lineage_line(record) -> str:
    bits = [f"{record.kind:<14s} {record.digest[:16]}"]
    for label, value in (("engine", record.engine_path),
                         ("fallback", record.fallback_reason),
                         ("req", record.request_id)):
        if value:
            bits.append(f"{label}={value}")
    if record.result_digest:
        bits.append(f"result={record.result_digest[:12]}")
    for key in ("arch", "program", "number", "space", "endpoint", "status"):
        value = record.meta.get(key)
        if value is not None:
            bits.append(f"{key}={value}")
    return "  ".join(bits)


def _cmd_lineage_show(args: argparse.Namespace) -> int:
    import json

    graph = _lineage_graph(args)
    try:
        digest = _resolve_digest(graph, args.digest)
    except KeyError as err:
        print(err, file=sys.stderr)
        return 2
    print(json.dumps(graph.get(digest).to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_lineage_why(args: argparse.Namespace) -> int:
    graph = _lineage_graph(args)
    try:
        digest = _resolve_digest(graph, args.digest)
    except KeyError as err:
        print(err, file=sys.stderr)
        return 2
    chain = graph.ancestry(digest)
    print(f"ancestry of {digest[:16]} ({len(chain)} record(s), "
          f"dependencies first):")
    for record in chain:
        print(f"  {_lineage_line(record)}")
    return 0


def _cmd_lineage_verify(args: argparse.Namespace) -> int:
    from repro.provenance.replay import verify_graph

    graph = _lineage_graph(args)
    if not len(graph):
        print("no lineage records found (name --store/--cache-dir/"
              "--result-store, or set REPRO_CACHE_DIR)", file=sys.stderr)
        return 2
    report = verify_graph(graph)
    print(f"lineage verify: {report.summary()}")
    for digest in report.changed:
        record = graph.get(digest)
        print(f"  changed: {record.kind} {digest}")
    for digest in report.stale:
        record = graph.get(digest)
        print(f"  stale:   {record.kind} {digest}")
    for digest, absent in sorted(report.missing.items()):
        print(f"  missing: {digest[:16]} names absent input(s) "
              f"{', '.join(a[:16] for a in absent)}")
    for digest in report.unknown:
        print(f"  unknown: {digest} (pre-provenance; trusted for nothing)")
    if not report.ok:
        return 1
    print("ok" + (" (with unknown-lineage records)" if report.unknown else ""))
    return 0


def _cmd_lineage_replay(args: argparse.Namespace) -> int:
    from repro.provenance.replay import ReplayError, replay_ancestry

    graph = _lineage_graph(args)
    try:
        digest = _resolve_digest(graph, args.digest)
        outcomes = replay_ancestry(digest, graph, strict=args.strict)
    except (KeyError, ReplayError) as err:
        print(err, file=sys.stderr)
        return 2
    failures = 0
    for outcome in outcomes:
        if outcome.get("skipped"):
            print(f"  skip  {outcome['kind']:<12s} {outcome['digest'][:16]}  "
                  f"{outcome['skipped']}")
            continue
        if outcome["identical"]:
            mark = "ok  "
        else:
            mark = "DIFF"
            failures += 1
        print(f"  {mark}  {outcome['kind']:<12s} {outcome['digest'][:16]}  "
              f"{outcome['detail']}")
    if failures:
        print(f"replay: {failures} record(s) did not reproduce",
              file=sys.stderr)
        return 1
    print(f"replay: ancestry of {digest[:16]} re-derived "
          f"({len(outcomes)} record(s)); target reproduced bit-identically")
    return 0


def _cmd_lineage_export(args: argparse.Namespace) -> int:
    import json

    graph = _lineage_graph(args)
    lines = [json.dumps(record.to_dict(), sort_keys=True,
                        separators=(",", ":"))
             for record in graph.records()]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(lines)} record(s) to {args.out}")
    else:
        print(text, end="")
    return 0


def _store_root(args: argparse.Namespace) -> Optional[str]:
    """The store directory a ``repro store`` subcommand operates on:
    the positional argument, else ``REPRO_CACHE_DIR`` (the engine's
    own default)."""
    root = args.dir or os.environ.get("REPRO_CACHE_DIR")
    if not root:
        print("no store directory: pass DIR or set REPRO_CACHE_DIR",
              file=sys.stderr)
        return None
    return root


def _cmd_store_migrate(args: argparse.Namespace) -> int:
    import json

    from repro.store import migrate_store

    root = _store_root(args)
    if root is None:
        return 2
    report = migrate_store(root)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"migrated {report['moved']} flat entries into "
          f"{report['shards']} shard(s) under {root}/objects "
          f"({report['entries']} entries total)")
    return 0


def _cmd_store_stat(args: argparse.Namespace) -> int:
    import json

    from repro.store import stat_store

    root = _store_root(args)
    if root is None:
        return 2
    print(json.dumps(stat_store(root), indent=2, sort_keys=True))
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    import json

    from repro.store import gc_store

    root = _store_root(args)
    if root is None:
        return 2
    report = gc_store(root, drop_unknown=args.drop_unknown)
    print(json.dumps(report, indent=2, sort_keys=True))
    print(f"gc: removed {report['removed']} file(s) "
          f"({report['removed_entries']} entries, {report['removed_tmp']} "
          f"temp orphans, {report['removed_quarantine']} quarantined), "
          f"kept {report['kept']}")
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    import json

    from repro.core.engine import CACHE_SCHEMA_VERSION
    from repro.store import verify_store

    root = _store_root(args)
    if root is None:
        return 2
    report = verify_store(
        root, schema=None if args.any_schema else CACHE_SCHEMA_VERSION)
    print(json.dumps(report, indent=2, sort_keys=True))
    bad = report["corrupt"] + report["mismatched"]
    if bad:
        print(f"FAIL: {len(report['corrupt'])} corrupt, "
              f"{len(report['mismatched'])} mis-addressed entr(ies)",
              file=sys.stderr)
        return 1
    print(f"ok: {report['ok']} of {report['entries']} entries verified"
          + (f" ({report['unknown_lineage']} unknown-lineage)"
             if report["unknown_lineage"] else ""))
    return 0


def _serve_config(args: argparse.Namespace):
    from repro.serve import ServeConfig

    return ServeConfig(
        host=args.host,
        port=args.port,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        workers=args.workers,
        default_deadline_ms=args.deadline_ms,
    )


def _cmd_serve_run(args: argparse.Namespace) -> int:
    import asyncio

    if args.cache_dir:
        # Point the worker's engine at a shared disk tier before it is
        # lazily created: N server processes over one --cache-dir share
        # results (and single-flight cold executions) through the store.
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir

    from repro.serve import serve_forever

    try:
        asyncio.run(serve_forever(_serve_config(args)))
    except KeyboardInterrupt:
        # The signal handler normally wins and drains; a second ^C
        # lands here after asyncio.run has already torn down.
        pass
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve import run_bench, write_snapshot

    snapshot = asyncio.run(run_bench(quick=args.quick, seed=args.seed))
    write_snapshot(snapshot, args.out)
    print(json.dumps(snapshot, indent=2, sort_keys=True))
    scenarios = snapshot["scenarios"]
    closed = scenarios["load"]["closed"]
    print(f"\nwrote {args.out}")
    print(f"coalesce: {scenarios['coalesce']['coalesced']} of "
          f"{scenarios['coalesce']['requests']} requests coalesced onto "
          f"{scenarios['coalesce']['executions']} execution(s)")
    print(f"shed: {scenarios['shed']['shed']} of {scenarios['shed']['burst']} "
          f"burst requests refused (peak pending "
          f"{scenarios['shed']['peak_pending']}/{scenarios['shed']['max_pending']})")
    print(f"drain: {scenarios['drain']['completed']} completed + "
          f"{scenarios['drain']['refused']} refused of "
          f"{scenarios['drain']['issued']} issued, "
          f"{scenarios['drain']['unanswered']} unanswered")
    print(f"closed-loop: {closed['throughput_rps']} req/s, "
          f"p50 {closed['latency_ms']['p50']} ms, "
          f"max {closed['latency_ms']['max']} ms")
    failed = sorted(name for name, ok in snapshot["checks"].items() if not ok)
    if failed:
        print(f"FAIL: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_cluster_controller(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.cluster import ClusterController, ControllerServer
    from repro.explore import ResultStore, get_space
    from repro.explore.store import merge_result_stores

    try:
        space = get_space(args.space)
        schema = _explore_schema(args)
    except (KeyError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    os.makedirs(args.out_dir, exist_ok=True)
    store_path = args.store or os.path.join(args.out_dir, "frontier.jsonl")
    dest = ResultStore(store_path)
    controller = ClusterController(
        space, schema, store=dest,
        journal_path=os.path.join(args.out_dir, "leases.journal"),
        strategy=args.strategy, budget=args.budget, seed=args.seed,
        lease_size=args.lease_size, lease_ttl_s=args.lease_ttl,
        expect_workers=args.expect_workers)

    async def _serve() -> bool:
        server = ControllerServer(controller, host=args.host, port=args.port)
        await server.start()
        print(f"cluster controller at {server.url} "
              f"({controller.status()['outstanding']} points outstanding)",
              flush=True)
        finished = await server.wait_done(timeout_s=args.timeout)
        # linger so workers' final lease poll learns the sweep is done.
        await asyncio.sleep(args.linger)
        await server.stop()
        return finished

    finished = asyncio.run(_serve())
    report = controller.status()
    if not args.no_merge:
        from repro.cluster import frontier_fingerprint, worker_wal_paths

        report["merge"] = merge_result_stores(
            dest, worker_wal_paths(args.out_dir))
        report["frontier"] = frontier_fingerprint(dest, schema)
        report["store_path"] = store_path
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if finished else 1


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import ClusterWorker, ControllerUnreachable

    if args.cache_dir:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    os.makedirs(args.out_dir, exist_ok=True)
    worker = ClusterWorker(
        args.controller, args.worker_id,
        os.path.join(args.out_dir, f"worker-{args.worker_id}.jsonl"),
        heartbeat_every=args.heartbeat_every,
        max_retries=args.max_retries,
        backoff_s=args.backoff_ms / 1e3,
        trial_delay_ms=args.trial_delay_ms,
        reconnect_s=args.reconnect)
    try:
        stats = worker.run()
    except ControllerUnreachable as err:
        print(err, file=sys.stderr)
        return 3
    print(json.dumps({"worker": args.worker_id, **stats}, sort_keys=True))
    return 0


def _cmd_cluster_run(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import run_cluster
    from repro.explore import get_space

    try:
        space = get_space(args.space)
        schema = _explore_schema(args)
    except (KeyError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    worker_env = {"REPRO_CACHE_DIR":
                  args.cache_dir or os.path.join(args.out_dir, "cache")}
    try:
        report = run_cluster(
            space, schema, out_dir=args.out_dir, store_path=args.store,
            workers=args.workers, lease_size=args.lease_size,
            lease_ttl_s=args.lease_ttl, strategy=args.strategy,
            budget=args.budget, seed=args.seed,
            heartbeat_every=args.heartbeat_every,
            trial_delay_ms=args.trial_delay_ms,
            worker_env=worker_env,
            kill_one_mid_lease=args.kill_one_mid_lease,
            golden_check=args.golden_check,
            timeout_s=args.timeout)
    except (RuntimeError, ValueError) as err:
        print(err, file=sys.stderr)
        return 1
    print(json.dumps(report, indent=2, sort_keys=True))
    if args.golden_check and not report.get("golden_parity"):
        print("FAIL: cluster frontier differs from single-process golden",
              file=sys.stderr)
        return 1
    return 0


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import json

    from repro.cluster import ControllerClient, ControllerUnreachable

    client = ControllerClient(args.controller, reconnect_s=args.reconnect)
    try:
        status = client.call("GET", "/v1/cluster/status")
    except ControllerUnreachable as err:
        print(err, file=sys.stderr)
        return 3
    finally:
        client.close()
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0


def _scenario_seeds(args: argparse.Namespace) -> List[int]:
    """Replication seeds: explicit list, else ``seed0 .. seed0+N-1``."""
    from repro.scenarios.runner import check_seeds

    if getattr(args, "seed_list", None):
        seeds = [int(s) for s in args.seed_list.split(",") if s.strip()]
        if not seeds:
            raise ValueError("--seed-list parsed to no seeds")
        check_seeds(seeds)
        return seeds
    return list(range(args.seed0, args.seed0 + args.seeds))


def _scenario_structures(text: str):
    from repro.os_models.mach import OSStructure

    if text == "both":
        return [OSStructure.MONOLITHIC, OSStructure.KERNELIZED]
    return [OSStructure(text)]


def _cmd_scenario_fit(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import fit_session, fit_table7, render_model

    models = []
    try:
        if args.source == "session":
            from repro.workloads.appmix import run_session

            session = run_session(arch=args.arch, seed=args.session_seed)
            models.append(fit_session(session))
        else:
            for structure in _scenario_structures(args.structure):
                models.append(fit_table7(args.workload, structure))
    except (KeyError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps([model.payload() for model in models],
                         indent=2, sort_keys=True))
        return 0
    for index, model in enumerate(models):
        if index:
            print()
        print(render_model(model))
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.arch import get_arch
    from repro.scenarios import ScenarioRunner, fit_table7, render_scenario

    try:
        spec = get_arch(args.arch)
        structures = _scenario_structures(args.structure)
        seeds = _scenario_seeds(args)
    except (KeyError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    runner = ScenarioRunner(store=args.store, jobs=args.jobs)
    for index, structure in enumerate(structures):
        model = fit_table7(args.workload, structure)
        result = runner.run(model, spec, structure, seeds, args.events,
                            window_us=args.window_us)
        if args.digest:
            # machine-readable bit-identity lines (the CI gate diffs
            # two same-seed runs of this output).
            for record in result.records:
                print(f"{structure.value} {record['seed']} "
                      f"{record['aggregate_digest']}")
        else:
            if index:
                print()
            print(render_scenario(result))
    return 0


def _cmd_scenario_sweep(args: argparse.Namespace) -> int:
    import json

    from repro.scenarios import (
        DEFAULT_SWEEP_ARCHES,
        kernelization_sweep,
        render_sweep,
        specs_from_frontier,
        sweep_specs,
    )

    try:
        if args.frontier:
            specs = specs_from_frontier(args.frontier, _explore_schema(args))
        else:
            names = ([n.strip() for n in args.arches.split(",") if n.strip()]
                     if args.arches else list(DEFAULT_SWEEP_ARCHES))
            specs = sweep_specs(names)
        seeds = _scenario_seeds(args)
    except (KeyError, ValueError) as err:
        print(err, file=sys.stderr)
        return 2
    report = kernelization_sweep(
        args.workload, specs, seeds, args.events, window_us=args.window_us,
        store=args.store, jobs=args.jobs)
    print(render_sweep(report))
    if args.out:
        payload = {
            "workload": report.workload,
            "events": report.events,
            "seeds": list(report.seeds),
            "ordering": report.ordering(),
            "expected_ordering": report.expected_ordering(),
            "results": [
                {
                    "arch": result.arch_name,
                    "monolithic_os_share": result.monolithic.os_share_ci(),
                    "kernelized_os_share": result.kernelized.os_share_ci(),
                    "added_share": result.cost_ci(),
                    "ratio": result.ratio_ci(),
                    "expected_cost": result.expected_cost,
                    "expected_ratio": result.expected_ratio,
                }
                for result in report.results
            ],
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    return 0


def _cmd_scenario_report(args: argparse.Namespace) -> int:
    from repro.core.tables import TextTable
    from repro.explore.store import ResultStore
    from repro.scenarios import confidence_interval

    store = ResultStore(args.store)
    groups: dict = {}
    for record in store.records():
        if "aggregate_digest" not in record:
            continue  # foreign (e.g. explore-trial) record in a shared WAL
        key = (record["model_name"], record["structure"],
               record["arch_name"])
        groups.setdefault(key, []).append(record)
    if not groups:
        print(f"no scenario replications in {args.store}", file=sys.stderr)
        return 1
    table = TextTable(
        ["Workload", "Structure", "Architecture", "seeds", "events",
         "OS share (95% CI)", "expected"],
        title=f"Stored scenario replications — {args.store}")
    for (model, structure, arch), records in sorted(groups.items()):
        ci = confidence_interval(
            [r["aggregate"]["os_share"] for r in records])
        table.add_row([
            model, structure, arch, str(len(records)),
            str(sum(r["aggregate"]["events"] for r in records)),
            f"{ci['mean']:.4f} ± {ci['half_width']:.4f}",
            f"{records[0]['expected_os_share']:.4f}",
        ])
    print(table.render())
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Anderson et al., 'The Interaction of "
        "Architecture and Operating System Design' (ASPLOS 1991).",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="enable the obs metrics registry for the run and print a "
        "Prometheus-format dump after the command",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("arches", help="list simulated architectures").set_defaults(func=_cmd_arches)

    arch = sub.add_parser(
        "arch",
        help="machine-description utilities",
        description="Inspect the capability description handler synthesis "
        "derives from an ArchSpec, and the per-primitive phase breakdown "
        "of the synthesized streams.",
    )
    arch_sub = arch.add_subparsers(dest="arch_command", required=True)
    describe = arch_sub.add_parser(
        "describe", help="print derived capabilities + synthesized phase breakdown")
    describe.add_argument("name")
    describe.set_defaults(func=_cmd_arch_describe)
    ablate = arch_sub.add_parser(
        "ablate",
        help="resynthesize handlers with one capability stripped",
        description="Flip one architectural capability off and show the "
        "per-primitive handler stream length against the baseline — the "
        "direct evidence that ablations regenerate code rather than "
        "rescaling costs.",
    )
    ablate.add_argument("name")
    ablate.add_argument("capability",
                        help=" | ".join(sorted(ABLATABLE_CAPABILITIES)))
    ablate.set_defaults(func=_cmd_arch_ablate)

    measure = sub.add_parser("measure", help="measure the four primitives on one system")
    measure.add_argument("arch")
    measure.set_defaults(func=_cmd_measure)

    table = sub.add_parser("table", help="print one reproduced table (1-7)")
    table.add_argument("number")
    table.set_defaults(func=_cmd_table)

    sub.add_parser("tables", help="print all reproduced tables").set_defaults(func=_cmd_tables)
    sub.add_parser("claims", help="in-text claims, paper vs measured").set_defaults(func=_cmd_claims)
    sub.add_parser("summary", help="one-screen headline findings").set_defaults(func=_cmd_summary)
    sub.add_parser("report", help="full reproduction report").set_defaults(func=_cmd_report)
    sub.add_parser(
        "experiments", help="regenerate the paper-vs-measured markdown"
    ).set_defaults(func=_cmd_experiments)

    disasm = sub.add_parser("disasm", help="dump a handler driver as assembly")
    disasm.add_argument("arch")
    disasm.add_argument("primitive", help="null_syscall | trap | pte_change | context_switch")
    disasm.set_defaults(func=_cmd_disasm)

    trace = sub.add_parser(
        "trace",
        help="run a workload under telemetry and export spans/metrics",
        description="Run one table regeneration or the integrated appmix "
        "session with the repro.obs layer enabled, then export the span "
        "stream (chrome/folded) or the metrics snapshot (prom).  Chrome "
        "traces load in chrome://tracing or https://ui.perfetto.dev.",
    )
    trace.add_argument("target", help="table1..table7 (or a bare number) | appmix")
    trace.add_argument("--out", default="trace.json", metavar="PATH",
                       help="output file (default: trace.json)")
    trace.add_argument("--format", choices=("chrome", "prom", "folded"),
                       default="chrome", help="export format (default: chrome)")
    trace.add_argument("--arch", default=None,
                       help="architecture for the appmix session (default: r3000)")
    trace.add_argument("--iterations", type=_positive_int, default=5,
                       help="appmix session rounds (default: 5)")
    trace.add_argument("--force", action="store_true",
                       help="overwrite even if the output file does not look "
                       "like a previous export")
    trace.set_defaults(func=_cmd_trace)

    explore = sub.add_parser(
        "explore",
        help="search the design space for OS-friendly architectures",
        description="Run a deterministic search over a declared space of "
        "architectural knobs, scoring points on OS-primitive objectives "
        "through the content-addressed experiment engine, and report the "
        "Pareto frontier with the paper's machines placed on it.",
    )
    explore_sub = explore.add_subparsers(dest="explore_command", required=True)

    run = explore_sub.add_parser("run", help="run a search and print the report")
    run.add_argument("--space", default="mechanisms",
                     help="design space to search (default: mechanisms)")
    run.add_argument("--strategy", default="grid",
                     help="grid | random | halving (default: grid)")
    run.add_argument("--budget", type=_positive_int, default=None, metavar="N",
                     help="max trials (default: whole space for grid, 64 else)")
    run.add_argument("--seed", type=int, default=0,
                     help="search seed (default: 0)")
    run.add_argument("--objectives", default=None, metavar="A,B,...",
                     help="comma-separated objective names "
                     "(default: the four OS primitives)")
    run.add_argument("--store", default=None, metavar="PATH",
                     help="JSONL trial store to resume from / append to")
    run.add_argument("--no-resume", action="store_true",
                     help="re-evaluate points even when stored")
    run.add_argument("--report", default=None, metavar="PATH",
                     help="also write the rendered report to a file")
    run.set_defaults(func=_cmd_explore_run)

    frontier = explore_sub.add_parser(
        "frontier", help="Pareto frontier of a stored trial set")
    frontier.add_argument("--store", required=True, metavar="PATH")
    frontier.add_argument("--objectives", default=None, metavar="A,B,...")
    frontier.set_defaults(func=_cmd_explore_frontier)

    show = explore_sub.add_parser("show", help="list a store's trials")
    show.add_argument("--store", required=True, metavar="PATH")
    show.set_defaults(func=_cmd_explore_show)

    lineage = sub.add_parser(
        "lineage",
        help="inspect, verify and replay experiment provenance",
        description="Walk the content-addressed lineage graph recorded "
        "at experiment time: show a record, explain a digest's full "
        "ancestry, verify that every recorded artifact still fingerprints "
        "identically (exact reachability staleness), replay the complete "
        "ancestry of a result bit for bit, or export the graph as JSONL.",
    )
    lineage_sub = lineage.add_subparsers(dest="lineage_command", required=True)

    def _lineage_sources(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", action="append", metavar="PATH",
                       help="lineage JSONL sidecar (repeatable)")
        p.add_argument("--cache-dir", action="append", metavar="DIR",
                       help="engine disk-cache directory (repeatable; "
                       "defaults to REPRO_CACHE_DIR when nothing is named)")
        p.add_argument("--result-store", action="append", metavar="PATH",
                       help="explore trial store (repeatable; reads its "
                       ".lineage sidecar and adopts legacy rows)")

    lineage_show = lineage_sub.add_parser(
        "show", help="print one lineage record in full")
    _lineage_sources(lineage_show)
    lineage_show.add_argument("digest", help="record digest (or unique prefix)")
    lineage_show.set_defaults(func=_cmd_lineage_show)

    lineage_why = lineage_sub.add_parser(
        "why", help="full ancestry of a digest, dependencies first")
    _lineage_sources(lineage_why)
    lineage_why.add_argument("digest", help="record digest (or unique prefix)")
    lineage_why.set_defaults(func=_cmd_lineage_why)

    lineage_verify = lineage_sub.add_parser(
        "verify",
        help="recompute artifact fingerprints; nonzero exit on stale results")
    _lineage_sources(lineage_verify)
    lineage_verify.set_defaults(func=_cmd_lineage_verify)

    lineage_replay = lineage_sub.add_parser(
        "replay",
        help="re-execute the full ancestry of a digest, bit for bit")
    _lineage_sources(lineage_replay)
    lineage_replay.add_argument("digest",
                                help="record digest (or unique prefix)")
    lineage_replay.add_argument("--strict", action="store_true",
                                help="fail on unreplayable ancestors instead "
                                "of skipping them")
    lineage_replay.set_defaults(func=_cmd_lineage_replay)

    lineage_export = lineage_sub.add_parser(
        "export", help="dump the assembled graph as JSONL")
    _lineage_sources(lineage_export)
    lineage_export.add_argument("--out", default=None, metavar="PATH",
                                help="write here instead of stdout")
    lineage_export.set_defaults(func=_cmd_lineage_export)

    store = sub.add_parser(
        "store",
        help="maintain the content-addressed store (migrate/stat/gc/verify)",
        description="Operate on a repro.store directory (the engine's "
        "disk cache): upgrade a flat pre-shard layout in place, report "
        "layout/health, collect garbage unreachable from live lineage, "
        "or verify entry integrity.",
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("dir", nargs="?", default=None,
                       help="store directory (default: $REPRO_CACHE_DIR)")

    store_migrate = store_sub.add_parser(
        "migrate",
        help="upgrade a flat cache directory to the sharded layout in place")
    _store_dir_arg(store_migrate)
    store_migrate.set_defaults(func=_cmd_store_migrate)

    store_stat = store_sub.add_parser(
        "stat", help="print layout and health counters as JSON")
    _store_dir_arg(store_stat)
    store_stat.set_defaults(func=_cmd_store_stat)

    store_gc = store_sub.add_parser(
        "gc",
        help="drop entries unreachable from live lineage, temp orphans "
        "and quarantined files")
    _store_dir_arg(store_gc)
    store_gc.add_argument("--drop-unknown", action="store_true",
                          help="also drop pre-provenance entries that "
                          "cannot prove liveness (default: keep)")
    store_gc.set_defaults(func=_cmd_store_gc)

    store_verify = store_sub.add_parser(
        "verify",
        help="check every entry parses, matches the engine schema and "
        "is addressed by its own lineage block (exit 1 otherwise)")
    _store_dir_arg(store_verify)
    store_verify.add_argument("--any-schema", action="store_true",
                              help="skip the engine schema-version check")
    store_verify.set_defaults(func=_cmd_store_verify)

    serve = sub.add_parser(
        "serve",
        help="serve measurements over HTTP (simulation-as-a-service)",
        description="Run the asyncio JSON-over-HTTP server that exposes "
        "measure, table, arch describe and explore frontier as endpoints, "
        "with request coalescing, micro-batching, admission control and "
        "graceful drain — or benchmark those disciplines with the "
        "deterministic load generator.",
    )
    serve_sub = serve.add_subparsers(dest="serve_command", required=True)

    serve_run = serve_sub.add_parser(
        "run", help="start the server (SIGINT/SIGTERM drain gracefully)")
    serve_run.add_argument("--host", default="127.0.0.1")
    serve_run.add_argument("--port", type=int, default=8023,
                           help="TCP port (0 picks an ephemeral port)")
    serve_run.add_argument("--max-pending", type=_positive_int, default=64,
                           metavar="N",
                           help="admission-control bound; past it requests "
                           "shed with 429 (default: 64)")
    serve_run.add_argument("--max-batch", type=_positive_int, default=16,
                           metavar="N",
                           help="most requests one event-loop turn groups "
                           "into a dispatch (default: 16)")
    serve_run.add_argument("--workers", type=_positive_int, default=2,
                           metavar="N",
                           help="executor threads running batches (default: 2)")
    serve_run.add_argument("--deadline-ms", type=float, default=None,
                           metavar="MS",
                           help="default per-request deadline (default: none)")
    serve_run.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="shared store directory for this worker's "
                           "engine (sets REPRO_CACHE_DIR; several workers "
                           "over one DIR share results through the disk "
                           "tier with cross-process single-flight)")
    serve_run.set_defaults(func=_cmd_serve_run)

    serve_bench = serve_sub.add_parser(
        "bench",
        help="benchmark the serving disciplines and write BENCH_serve.json")
    serve_bench.add_argument("--out", default="BENCH_serve.json", metavar="PATH")
    serve_bench.add_argument("--seed", type=int, default=0,
                             help="load-mix seed (default: 0)")
    serve_bench.add_argument("--quick", action="store_true",
                             help="smaller load scenario (CI smoke)")
    serve_bench.set_defaults(func=_cmd_serve_bench)

    cluster = sub.add_parser(
        "cluster",
        help="distributed design-space sweeps (controller + workers)",
        description="Partition a design-space sweep into leases and run "
        "it across worker processes with heartbeat liveness, lease "
        "expiry + work-stealing, bounded retries, and a crash-resumable "
        "lease journal. Results are exactly-once by content digest: "
        "worker WAL segments merge into one frontier bit-identical to a "
        "single-process run.",
    )
    cluster_sub = cluster.add_subparsers(dest="cluster_command", required=True)

    def _cluster_sweep_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--space", default="mechanisms",
                       help="design space name (default: mechanisms)")
        p.add_argument("--strategy", default="grid",
                       help="shardable strategy: grid or random "
                       "(default: grid)")
        p.add_argument("--budget", type=_positive_int, default=None,
                       metavar="N", help="cap on points to evaluate")
        p.add_argument("--seed", type=int, default=0,
                       help="plan seed for random strategies (default: 0)")
        p.add_argument("--objectives", default=None, metavar="A,B,…",
                       help="comma-separated objective names "
                       "(default schema otherwise)")
        p.add_argument("--out-dir", default="cluster-out", metavar="DIR",
                       help="worker WALs, lease journal, merged store "
                       "(default: cluster-out)")
        p.add_argument("--store", default=None, metavar="PATH",
                       help="merged result store "
                       "(default: OUT_DIR/frontier.jsonl)")
        p.add_argument("--lease-size", type=_positive_int, default=16,
                       metavar="N", help="points per lease (default: 16)")
        p.add_argument("--lease-ttl", type=float, default=5.0, metavar="S",
                       help="heartbeat staleness before a lease is "
                       "requeued (default: 5)")
        p.add_argument("--timeout", type=float, default=600.0, metavar="S",
                       help="overall sweep deadline (default: 600)")

    cluster_controller = cluster_sub.add_parser(
        "controller",
        help="run the lease controller until the sweep completes")
    _cluster_sweep_args(cluster_controller)
    cluster_controller.add_argument("--host", default="127.0.0.1")
    cluster_controller.add_argument("--port", type=int, default=0,
                                    help="TCP port (default: ephemeral)")
    cluster_controller.add_argument("--expect-workers", type=int, default=0,
                                    metavar="N",
                                    help="gang-start barrier: grant no lease "
                                    "until N workers registered (default: 0)")
    cluster_controller.add_argument("--linger", type=float, default=1.0,
                                    metavar="S",
                                    help="keep serving after completion so "
                                    "workers learn the sweep is done "
                                    "(default: 1)")
    cluster_controller.add_argument("--no-merge", action="store_true",
                                    help="skip merging worker WALs into the "
                                    "store on exit")
    cluster_controller.set_defaults(func=_cmd_cluster_controller)

    cluster_worker = cluster_sub.add_parser(
        "worker", help="run one worker against a controller")
    cluster_worker.add_argument("--controller", required=True, metavar="URL",
                                help="controller base URL (http://host:port)")
    cluster_worker.add_argument("--worker-id", required=True, metavar="ID")
    cluster_worker.add_argument("--out-dir", default="cluster-out",
                                metavar="DIR",
                                help="WAL directory — writes "
                                "worker-<ID>.jsonl (default: cluster-out)")
    cluster_worker.add_argument("--cache-dir", default=None, metavar="DIR",
                                help="shared engine store (sets "
                                "REPRO_CACHE_DIR; workers over one DIR "
                                "single-flight cold executions)")
    cluster_worker.add_argument("--heartbeat-every", type=_positive_int,
                                default=1, metavar="N",
                                help="heartbeat every N evaluated points "
                                "(default: 1)")
    cluster_worker.add_argument("--max-retries", type=int, default=3,
                                metavar="N",
                                help="per-trial retry budget (default: 3)")
    cluster_worker.add_argument("--backoff-ms", type=float, default=50.0,
                                metavar="MS",
                                help="base retry backoff, doubled per "
                                "attempt (default: 50)")
    cluster_worker.add_argument("--trial-delay-ms", type=float, default=0.0,
                                metavar="MS",
                                help="artificial per-trial delay "
                                "(fault-injection/testing knob)")
    cluster_worker.add_argument("--reconnect", type=float, default=30.0,
                                metavar="S",
                                help="tolerate a silent controller this "
                                "long before giving up (default: 30)")
    cluster_worker.set_defaults(func=_cmd_cluster_worker)

    cluster_run = cluster_sub.add_parser(
        "run",
        help="run a whole mini-cluster on this host (controller + N "
        "workers) and print the merged report")
    _cluster_sweep_args(cluster_run)
    cluster_run.add_argument("--workers", type=_positive_int, default=2,
                             metavar="N",
                             help="worker processes to spawn (default: 2)")
    cluster_run.add_argument("--cache-dir", default=None, metavar="DIR",
                             help="shared engine store for all workers "
                             "(default: OUT_DIR/cache)")
    cluster_run.add_argument("--heartbeat-every", type=_positive_int,
                             default=1, metavar="N",
                             help="worker heartbeat cadence (default: 1)")
    cluster_run.add_argument("--trial-delay-ms", type=float, default=0.0,
                             metavar="MS",
                             help="artificial per-trial delay "
                             "(fault-injection/testing knob)")
    cluster_run.add_argument("--kill-one-mid-lease", action="store_true",
                             help="SIGKILL the first worker once it has "
                             "confirmed progress in a lease (chaos test; "
                             "the sweep must still complete)")
    cluster_run.add_argument("--golden-check", action="store_true",
                             help="also run the sweep single-process and "
                             "fail unless the frontiers are bit-identical")
    cluster_run.set_defaults(func=_cmd_cluster_run)

    cluster_status = cluster_sub.add_parser(
        "status", help="print a running controller's status as JSON")
    cluster_status.add_argument("--controller", required=True, metavar="URL")
    cluster_status.add_argument("--reconnect", type=float, default=5.0,
                                metavar="S",
                                help="connection retry budget (default: 5)")
    cluster_status.set_defaults(func=_cmd_cluster_status)

    scenario = sub.add_parser(
        "scenario",
        help="statistical workloads + Monte-Carlo scenario engine",
        description="Fit statistical workload models to the paper's Mach "
        "2.5/3.0 frequency data (or a recorded appmix session), stream "
        "seeded Monte-Carlo event scenarios through the per-architecture "
        "cost models with bounded-memory aggregation, and sweep the "
        "kernelization cost across architectures with 95% confidence "
        "intervals.")
    scenario_sub = scenario.add_subparsers(dest="scenario_command",
                                           required=True)

    def _scenario_workload_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", default="andrew-local",
                       help="Table 7 workload profile "
                       "(default: andrew-local)")

    def _scenario_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seeds", type=_positive_int, default=5,
                       metavar="N",
                       help="replications per (arch, structure) "
                       "(default: 5)")
        p.add_argument("--seed", type=int, default=0, dest="seed0",
                       metavar="S",
                       help="first replication seed (default: 0)")
        p.add_argument("--seed-list", default=None, metavar="A,B,…",
                       help="explicit seed list "
                       "(overrides --seeds/--seed)")
        p.add_argument("--events", type=_positive_int, default=100_000,
                       metavar="N",
                       help="events per replication (default: 100000)")
        p.add_argument("--window-us", type=float, default=10_000.0,
                       metavar="US",
                       help="utilization window, simulated microseconds "
                       "(default: 10000)")
        p.add_argument("--store", default=None, metavar="PATH",
                       help="replication ResultStore WAL — finished "
                       "replications are reused by content address and "
                       "lineage lands in the sidecar")
        p.add_argument("--jobs", type=_positive_int, default=1,
                       metavar="N",
                       help="worker processes for fresh replications, "
                       "one seed per task (default: 1)")

    scenario_fit = scenario_sub.add_parser(
        "fit", help="fit a workload model and print its rate table")
    _scenario_workload_arg(scenario_fit)
    scenario_fit.add_argument("--structure",
                              choices=("mach2.5", "mach3.0", "both"),
                              default="both",
                              help="OS structure(s) to fit (default: both)")
    scenario_fit.add_argument("--source", choices=("table7", "session"),
                              default="table7",
                              help="frequency source: the paper's Table 7 "
                              "data or a recorded appmix session "
                              "(default: table7)")
    scenario_fit.add_argument("--arch", default=None,
                              help="session architecture "
                              "(--source session only)")
    scenario_fit.add_argument("--session-seed", type=int, default=0,
                              metavar="S",
                              help="appmix session seed "
                              "(--source session only; default: 0)")
    scenario_fit.add_argument("--json", action="store_true",
                              help="print model payloads as JSON instead "
                              "of the rate table")
    scenario_fit.set_defaults(func=_cmd_scenario_fit)

    scenario_run = scenario_sub.add_parser(
        "run", help="stream seeded replications on one architecture")
    _scenario_workload_arg(scenario_run)
    scenario_run.add_argument("--arch", required=True,
                              help="architecture to cost events on")
    scenario_run.add_argument("--structure",
                              choices=("mach2.5", "mach3.0", "both"),
                              default="both",
                              help="OS structure(s) to run (default: both)")
    _scenario_run_args(scenario_run)
    scenario_run.add_argument("--digest", action="store_true",
                              help="print one 'structure seed digest' "
                              "line per replication (bit-identity gate)")
    scenario_run.set_defaults(func=_cmd_scenario_run)

    scenario_sweep = scenario_sub.add_parser(
        "sweep",
        help="kernelization cost across architectures or a frontier")
    _scenario_workload_arg(scenario_sweep)
    scenario_sweep.add_argument("--arches", default=None, metavar="A,B,…",
                                help="architectures to sweep (default: "
                                "the §5/§6 comparison set)")
    scenario_sweep.add_argument("--frontier", default=None, metavar="PATH",
                                help="sweep the materialized Pareto "
                                "frontier of this explore store instead "
                                "of named architectures")
    scenario_sweep.add_argument("--objectives", default=None,
                                metavar="A,B,…",
                                help="frontier objective schema "
                                "(default schema otherwise)")
    _scenario_run_args(scenario_sweep)
    scenario_sweep.add_argument("--out", default=None, metavar="PATH",
                                help="also write the sweep as JSON")
    scenario_sweep.set_defaults(func=_cmd_scenario_sweep)

    scenario_report = scenario_sub.add_parser(
        "report", help="summarize the replications stored in a WAL")
    scenario_report.add_argument("--store", required=True, metavar="PATH")
    scenario_report.set_defaults(func=_cmd_scenario_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.metrics:
        from repro import obs
        from repro.obs.export import render_prometheus

        obs.enable_metrics()
        before = obs.REGISTRY.snapshot()
        try:
            status = args.func(args)
        finally:
            obs.disable_metrics()
        print(render_prometheus(obs.snapshot_diff(before, obs.REGISTRY.snapshot())),
              end="")
        return status
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
