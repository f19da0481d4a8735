"""Calibration-sensitivity analysis.

The cost models were calibrated to the paper's Table 1.  This module
checks that the paper's *conclusions* do not hinge on the calibration:
perturb each knob family by a factor and re-test the ordinal claims —

* every primitive on every RISC scales below application performance;
* the SPARC context switch stays slower than the CVAX's;
* the R3000 stays the best RISC on every primitive;
* the DS5000 stays much better than the DS3100 on the trap.

If a conclusion survives ±20% perturbation of a knob family, the
reproduction does not owe that conclusion to fine-tuning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List

from repro.arch.registry import TABLE1_SYSTEMS, get_arch
from repro.arch.specs import ArchSpec, WriteBufferSpec
from repro.core.engine import run_cached
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive


def _scale_cost(arch: ArchSpec, factor: float) -> ArchSpec:
    """Scale the per-class cycle costs (trap entry, TLB ops, latencies)."""
    cost = arch.cost

    def s(value: int) -> int:
        return max(0, round(value * factor))

    return arch.with_overrides(
        cost=replace(
            cost,
            load_extra_cycles=s(cost.load_extra_cycles),
            trap_entry_cycles=max(1, round(cost.trap_entry_cycles * factor)),
            trap_exit_extra_cycles=s(cost.trap_exit_extra_cycles),
            tlb_op_cycles=max(1, round(cost.tlb_op_cycles * factor)),
            cache_flush_line_cycles=max(1, round(cost.cache_flush_line_cycles * factor)),
            special_extra_cycles=s(cost.special_extra_cycles),
        )
    )


def _scale_write_buffer(arch: ArchSpec, factor: float) -> ArchSpec:
    buffer = arch.write_buffer
    if buffer is None:
        return arch
    return arch.with_overrides(
        write_buffer=WriteBufferSpec(
            depth=buffer.depth,
            retire_cycles_same_page=max(1, round(buffer.retire_cycles_same_page * factor)),
            retire_cycles_other_page=max(1, round(buffer.retire_cycles_other_page * factor)),
        )
    )


#: knob families a reviewer might doubt.
PERTURBATIONS: Dict[str, Callable[[ArchSpec, float], ArchSpec]] = {
    "cost_model": _scale_cost,
    "write_buffer": _scale_write_buffer,
}


def _primitive_us(arch: ArchSpec, primitive: Primitive) -> float:
    program = handler_program(arch, primitive)
    return run_cached(arch, program,
                      drain_write_buffer=primitive.drains_write_buffer).time_us


@dataclass
class ConclusionCheck:
    knob: str
    factor: float
    primitives_lag_app: bool
    sparc_switch_slower_than_cvax: bool
    r3000_best_risc: bool
    ds5000_beats_ds3100_trap: bool

    @property
    def all_hold(self) -> bool:
        return (
            self.primitives_lag_app
            and self.sparc_switch_slower_than_cvax
            and self.r3000_best_risc
            and self.ds5000_beats_ds3100_trap
        )


def check_conclusions(knob: str, factor: float) -> ConclusionCheck:
    """Perturb one knob family on every system and re-test the claims."""
    perturb = PERTURBATIONS[knob]
    arches = {name: perturb(get_arch(name), factor) for name in TABLE1_SYSTEMS}
    times = {
        name: {p: _primitive_us(arch, p) for p in Primitive}
        for name, arch in arches.items()
    }
    cvax = times["cvax"]

    lag = True
    for name in TABLE1_SYSTEMS:
        if name == "cvax":
            continue
        app = get_arch(name).app_performance_ratio
        for primitive in Primitive:
            rel = cvax[primitive] / times[name][primitive]
            if rel >= app:
                lag = False

    sparc_slower = times["sparc"][Primitive.CONTEXT_SWITCH] > cvax[Primitive.CONTEXT_SWITCH]

    best = True
    for primitive in Primitive:
        r3000 = times["r3000"][primitive]
        for other in ("m88000", "r2000", "sparc"):
            if times[other][primitive] < r3000:
                best = False

    trap_gap = times["r2000"][Primitive.TRAP] / times["r3000"][Primitive.TRAP]

    return ConclusionCheck(
        knob=knob,
        factor=factor,
        primitives_lag_app=lag,
        sparc_switch_slower_than_cvax=sparc_slower,
        r3000_best_risc=best,
        ds5000_beats_ds3100_trap=trap_gap > 1.8,
    )


def sweep(factors: "tuple[float, ...]" = (0.8, 1.0, 1.25)) -> List[ConclusionCheck]:
    """Perturb every knob family by every factor."""
    return [
        check_conclusions(knob, factor)
        for knob in PERTURBATIONS
        for factor in factors
    ]
