"""Kernelization-cost sweeps and their rendered reports.

"How much does kernelization cost architecture X under workload Y" —
the whole-workload generalization of the paper's four microbenchmarks:
fit the Mach 2.5/3.0 models for workload Y once, then Monte-Carlo both
structures on every architecture X with paired seeds and report the
OS-time ratio with a 95% confidence interval per architecture.

``X`` ranges over registered architectures *or* over the materialized
specs of a ``repro.explore`` Pareto frontier
(:func:`specs_from_frontier`), which is how the §6 search's candidate
designs get whole-workload scenario numbers instead of four point
estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.arch.registry import get_arch
from repro.arch.specs import ArchSpec
from repro.core.tables import TextTable
from repro.scenarios.fitters import WorkloadModel, fit_table7_pair
from repro.scenarios.runner import (
    DEFAULT_WINDOW_US,
    KernelizationResult,
    run_kernelization,
)

#: the §5/§6 comparison set the acceptance ordering is checked on.
DEFAULT_SWEEP_ARCHES: Tuple[str, ...] = (
    "cvax", "r3000", "sparc", "i860", "osfriendly")


@dataclass
class SweepReport:
    """Per-arch kernelization results for one workload, sweep order."""

    workload: str
    events: int
    seeds: Tuple[int, ...]
    results: List[KernelizationResult] = field(default_factory=list)

    def ordering(self) -> List[str]:
        """Arch names cheapest-kernelization first (by mean added share)."""
        return [r.arch_name for r in sorted(
            self.results, key=lambda r: (r.cost_ci()["mean"], r.arch_name))]

    def expected_ordering(self) -> List[str]:
        """The closed-form (Σ rate·cost) ordering, same tie-break."""
        return [r.arch_name for r in sorted(
            self.results, key=lambda r: (r.expected_cost, r.arch_name))]


def sweep_specs(names: Sequence[str]) -> List[ArchSpec]:
    """Registered-architecture specs for a name list."""
    return [get_arch(name) for name in names]


def specs_from_frontier(store_path: str, schema=None) -> List[ArchSpec]:
    """Materialize the Pareto-frontier specs of an explore store.

    Each frontier record carries its (space, point) coordinates; the
    spec is rebuilt through the same
    :meth:`~repro.explore.space.DesignSpace.materialize` path the
    search used, so the scenario runs on bit-identical specs.
    Records are ordered by the schema's first objective (the frontier
    table's order).
    """
    from repro.explore import ObjectiveSchema, ResultStore, frontier_from_records
    from repro.explore.space import get_space

    schema = schema or ObjectiveSchema()
    store = ResultStore(store_path)
    records = store.records_for_schema(schema.digest)
    if not records:
        raise ValueError(
            f"no records for schema [{schema.describe()}] in {store_path}")
    frontier = frontier_from_records(records, schema)
    spaces: Dict[str, Any] = {}
    specs: List[ArchSpec] = []
    for record in sorted(frontier,
                         key=lambda r: r["objectives"][schema.names[0]]):
        space_name = record["space"]
        if space_name not in spaces:
            spaces[space_name] = get_space(space_name)
        specs.append(spaces[space_name].materialize(record["point"]))
    return specs


def kernelization_sweep(
        workload: str, specs: Sequence[ArchSpec], seeds: Sequence[int],
        events: int, window_us: float = DEFAULT_WINDOW_US,
        store=None, jobs: int = 1,
        models: "Optional[Tuple[WorkloadModel, WorkloadModel]]" = None,
        ) -> SweepReport:
    """Kernelization cost of every spec under one workload.

    The workload models are fit once (they describe the measured
    reference machine's event frequencies) and shared across
    architectures — only the per-event costs differ, which is the
    paper's separation of frequency from cost.
    """
    models = models or fit_table7_pair(workload)
    report = SweepReport(workload=models[0].name, events=events,
                         seeds=tuple(seeds))
    for spec in specs:
        report.results.append(run_kernelization(
            models, spec, seeds, events, window_us=window_us,
            store=store, jobs=jobs))
    return report


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _ci_cell(ci: Dict[str, Any]) -> str:
    return f"{ci['mean']:.3f} ± {ci['half_width']:.3f}"


def render_sweep(report: SweepReport) -> str:
    """The per-arch kernelization table with confidence intervals."""
    table = TextTable(
        ["Architecture", "mono OS share", "kern OS share",
         "added share (95% CI)", "expected", "ratio (95% CI)",
         "p99 util (kern)"],
        title=(f"Kernelization cost under '{report.workload}' — "
               f"{len(report.seeds)} seeded replications x "
               f"{report.events} events"))
    for result in sorted(report.results,
                         key=lambda r: (r.cost_ci()["mean"], r.arch_name)):
        table.add_row([
            result.arch_name,
            _ci_cell(result.monolithic.os_share_ci()),
            _ci_cell(result.kernelized.os_share_ci()),
            _ci_cell(result.cost_ci()),
            f"{result.expected_cost:.3f}",
            _ci_cell(result.ratio_ci()),
            _ci_cell(result.kernelized.utilization_p99_ci()),
        ])
    lines = [table.render(), ""]
    hits = sum(r.monolithic.stats.store_hits + r.kernelized.stats.store_hits
               for r in report.results)
    fresh = sum(r.monolithic.stats.fresh + r.kernelized.stats.fresh
                for r in report.results)
    lines.append(f"replications: {hits + fresh} "
                 f"(store hits={hits}, fresh={fresh})")
    ordering = report.ordering()
    lines.append("kernelization-cost ordering (cheapest first): "
                 + " < ".join(ordering))
    expected = report.expected_ordering()
    if expected == ordering:
        lines.append("ordering matches the closed-form Σ rate x cost "
                     "expectation")
    else:
        lines.append("WARNING: sampled ordering disagrees with the "
                     "closed-form expectation: " + " < ".join(expected))
    return "\n".join(lines)


def render_scenario(result) -> str:
    """One (arch, structure) scenario's replication summary."""
    ci = result.os_share_ci()
    agg = result.records[0]["aggregate"] if result.records else {}
    lines = [
        f"scenario '{result.model_name}' [{result.structure}] on "
        f"{result.arch_name}:",
        f"  replications: {result.stats.replications} "
        f"({result.stats.store_hits} from store, "
        f"{result.stats.fresh} fresh, {result.stats.sweep_mode})",
        f"  events streamed: {result.stats.events_streamed}",
        f"  OS share of elapsed time: {ci['mean']:.4f} "
        f"± {ci['half_width']:.4f} (95% CI, n={ci['n']})",
        f"  expected (Σ rate x cost): {result.expected_os_share:.4f}",
    ]
    if agg:
        util = agg["utilization"]
        lines.append(
            f"  window utilization (seed {result.records[0]['seed']}): "
            f"mean {util['mean']:.4f}, p50 {util['p50']:.4f}, "
            f"p99 {util['p99']:.4f} over {util['windows']} windows")
    return "\n".join(lines)


def render_model(model: WorkloadModel) -> str:
    """A fitted model's per-kind rate table."""
    table = TextTable(
        ["Event kind", "rate (/s)", "mean gap (us)", "family"],
        title=(f"Workload model '{model.name}' [{model.structure}] "
               f"({model.source}) — digest {model.digest[:12]}"))
    from repro.scenarios.distributions import distribution_payload

    for kind in model.kinds():
        dist = model.inter_arrival_us[kind]
        table.add_row([
            kind.value,
            f"{model.rate_hz(kind):.1f}",
            f"{dist.mean():.2f}",
            distribution_payload(dist)["family"],
        ])
    lines = [table.render(),
             f"total event rate: {model.total_rate_hz():.1f}/s"]
    return "\n".join(lines)
