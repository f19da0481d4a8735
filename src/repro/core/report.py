"""Full reproduction report generator.

Collects every table and claim into one text document — the
programmatic version of EXPERIMENTS.md, regenerated from a live run.
Used by ``examples/reproduce_paper.py``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis import crosstable, intext, scaling
from repro.core.tables import TextTable


def _claims_table(claims: "Dict[str, intext.Claim]") -> str:
    out = TextTable(["claim", "paper", "measured", "agrees"],
                    title="In-text claims (the paper's figure-equivalents)")
    for claim in claims.values():
        paper = claim.paper
        if isinstance(paper, tuple):
            paper = f"{paper[0]:g}-{paper[1]:g}"
        out.add_row([claim.description, paper, round(claim.measured, 3),
                     "yes" if claim.within else "NO"])
    return out.render()


def _scaling_section() -> str:
    lines = ["Scaling projections (§2.1, §6)"]
    result = scaling.rpc_speedup_under_cpu_scaling(5.0)
    lines.append(
        f"  5x integer speedup -> {result.rpc_speedup:.2f}x null RPC "
        "(Sprite measured ~2x for Sun-3/75 -> SPARCstation-1)"
    )
    for factor, wire, prims in scaling.wire_share_under_network_scaling():
        lines.append(
            f"  {factor:5.0f}x network bandwidth: wire {100 * wire:4.1f}%, "
            f"OS primitives {100 * prims:4.1f}% of a 1500-byte RPC"
        )
    from repro.analysis.future import generation_sweep

    for point in generation_sweep():
        lines.append(
            f"  {point.label:>3s} generation: app {point.app_speedup:.0f}x but worst "
            f"primitive {point.primitive_lag * point.app_speedup:.1f}x "
            f"(lag {point.primitive_lag:.2f}); kernelized primitive share "
            f"{100 * point.kernelized_primitive_share:.1f}%"
        )
    return "\n".join(lines)


def _crosstable_section() -> str:
    lines = ["Cross-table estimate (§5)"]
    paper_est = crosstable.estimate_from_paper_counts("sparc")
    lines.append(
        f"  SPARC syscall+switch overhead on Mach 3.0 andrew-remote: "
        f"{paper_est.total_s:.2f} s from the paper's counts (paper says 9.4 s)"
    )
    for name, est in crosstable.sweep_architectures().items():
        lines.append(f"  {name:<8s} {est.total_s:6.2f} s from model-produced counts")
    return "\n".join(lines)


def _proposals_section() -> str:
    from repro.analysis.proposals import all_proposals, mips_atomic_test_and_set_on_parthenon

    out = TextTable(["proposal", "baseline us", "proposed us", "saving"],
                    title="§2.5 architectural proposals, evaluated")
    for proposal in all_proposals().values():
        out.add_row([
            proposal.description,
            round(proposal.baseline_us, 2),
            round(proposal.proposed_us, 2),
            f"{100 * proposal.saving_fraction:.0f}%",
        ])
    tas = mips_atomic_test_and_set_on_parthenon()
    extra = (
        f"MIPS + test-and-set on parthenon: {tas['baseline_elapsed_s']:.1f} s -> "
        f"{tas['proposed_elapsed_s']:.1f} s ({tas['speedup']:.2f}x); kernel-sync share "
        f"{100 * tas['baseline_sync_fraction']:.0f}% -> {100 * tas['proposed_sync_fraction']:.1f}%"
    )
    return out.render() + "\n" + extra


def _motivation_section() -> str:
    from repro.arch.registry import get_arch
    from repro.core.tracing import agarwal_system_reference_fraction, clark_emer_tlb_shares

    cvax = get_arch("cvax")
    sys_refs = agarwal_system_reference_fraction(cvax)
    ref_share, miss_share = clark_emer_tlb_shares(cvax)
    return "\n".join([
        "Motivation traces (§1)",
        f"  Agarwal et al.: system references = {100 * sys_refs:.0f}% of the trace (paper: >50%)",
        f"  Clark & Emer: OS = {100 * ref_share:.0f}% of references but "
        f"{100 * miss_share:.0f}% of TLB misses (paper: ~20% / >67%)",
    ])


def _summary_section(claims: "Dict[str, intext.Claim]") -> str:
    from repro.analysis.summary import render as render_summary

    return render_summary(claims)


def full_report(parallel: bool = False, max_workers: "int | None" = None) -> str:
    """Every table + claim, regenerated live.

    ``parallel`` fans the table regeneration across worker processes
    through the experiment engine's :class:`~repro.core.engine.SweepRunner`;
    the output is identical either way.
    """
    from repro.analysis.runner import render_all

    tables = render_all(parallel=parallel, max_workers=max_workers)
    table_sections: List[str] = []
    for number in sorted(tables):
        table_sections.extend([tables[number], ""])
    # the claims table and the headline findings read the same claims
    claims = intext.all_claims()
    sections: List[str] = [
        "REPRODUCTION REPORT — Anderson et al., ASPLOS 1991",
        "=" * 60,
        _motivation_section(),
        "",
        *table_sections,
        _claims_table(claims),
        "",
        _crosstable_section(),
        "",
        _scaling_section(),
        "",
        _proposals_section(),
        "",
        _summary_section(claims),
    ]
    return "\n".join(sections)
