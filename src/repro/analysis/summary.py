"""Headline findings as structured data.

The one-screen answer to "did the reproduction work?": each finding is
the paper's claim, the measured value, and a pass/fail against the
tolerance the test suite enforces.  Used by the report, the CLI, and
as a machine-readable hook for downstream dashboards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import for typing only
    from repro.analysis.intext import Claim


@dataclass(frozen=True)
class Finding:
    key: str
    claim: str
    paper: str
    measured: str
    holds: bool


def headline_findings(claims: "Optional[Dict[str, Claim]]" = None) -> List[Finding]:
    """Compute the headline findings (runs the relevant experiments).

    ``claims`` is :func:`~repro.analysis.intext.all_claims`'s result when
    the caller already has it; otherwise it is computed here.
    """
    from repro.analysis import table1, table7
    from repro.analysis.intext import all_claims
    from repro.analysis.scaling import sprite_measured
    from repro.analysis.sensitivity import sweep
    from repro.kernel.primitives import Primitive

    findings: List[Finding] = []

    t1 = table1.compute()
    lag_everywhere = all(
        t1.primitive_vs_app_gap(primitive, system) < 1.0
        for system in ("m88000", "r2000", "r3000", "sparc")
        for primitive in Primitive
    )
    findings.append(
        Finding(
            key="primitives_lag_applications",
            claim="OS primitives scale below integer application performance on every RISC",
            paper="Table 1",
            measured="holds for all 16 primitive/system pairs",
            holds=lag_everywhere,
        )
    )

    sparc_ctx = t1.relative_speed(Primitive.CONTEXT_SWITCH, "sparc")
    findings.append(
        Finding(
            key="sparc_context_switch_regression",
            claim="the SPARC context switch is slower than the CVAX's",
            paper="0.5x relative speed",
            measured=f"{sparc_ctx:.2f}x",
            holds=sparc_ctx < 1.0,
        )
    )

    t7 = table7.compute()
    blowup = t7.context_switch_blowup("andrew-remote")
    findings.append(
        Finding(
            key="kernelization_multiplies_switches",
            claim="Mach 3.0 multiplies andrew-remote context switches",
            paper="33x",
            measured=f"{blowup:.1f}x",
            holds=20 <= blowup <= 50,
        )
    )

    growth = min(
        t7.tlb_miss_growth(w)
        for w in ("andrew-local", "andrew-remote", "link-vmunix")
    )
    findings.append(
        Finding(
            key="kernel_tlb_miss_growth",
            claim="kernelization grows kernel TLB misses by an order of magnitude",
            paper=">=~10x",
            measured=f">= {growth:.1f}x on the file workloads",
            holds=growth >= 4.0,
        )
    )

    pct_values = [t7.pct_time(w) for w in t7.workloads]
    findings.append(
        Finding(
            key="primitive_share_of_elapsed_time",
            claim="Mach 3.0 spends 5-20% of elapsed time in the primitives",
            paper="5-20%",
            measured=f"{100 * min(pct_values):.0f}-{100 * max(pct_values):.0f}%",
            holds=all(0.02 <= p <= 0.26 for p in pct_values),
        )
    )

    if claims is None:
        claims = all_claims()
    agreeing = sum(1 for c in claims.values() if c.within)
    findings.append(
        Finding(
            key="in_text_claims",
            claim="the quantified in-text statements reproduce",
            paper=f"{len(claims)} claims",
            measured=f"{agreeing}/{len(claims)} agree",
            holds=agreeing == len(claims),
        )
    )

    sprite = sprite_measured()
    findings.append(
        Finding(
            key="sprite_rpc_scaling",
            claim="5x integer speedup buys ~2x null RPC (Sun-3 -> SPARCstation)",
            paper="~2x",
            measured=f"{sprite.rpc_speedup:.2f}x at {sprite.integer_speedup:.1f}x integer",
            holds=1.4 <= sprite.rpc_speedup <= 2.5,
        )
    )

    robust = all(check.all_hold for check in sweep((0.8, 1.25)))
    findings.append(
        Finding(
            key="calibration_robustness",
            claim="the ordinal conclusions survive +/-20-25% knob perturbation",
            paper="(robustness check)",
            measured="all hold" if robust else "SOME BREAK",
            holds=robust,
        )
    )

    return findings


def render(claims: "Optional[Dict[str, Claim]]" = None) -> str:
    """One-screen summary (``claims`` as for :func:`headline_findings`)."""
    from repro.core.tables import TextTable

    table = TextTable(["finding", "paper", "measured", "holds"],
                      title="Headline findings")
    for finding in headline_findings(claims):
        table.add_row([finding.claim, finding.paper, finding.measured,
                       "yes" if finding.holds else "NO"])
    return table.render()
