"""The paper's measurement methodology (§1.1), on simulated systems.

The paper could not time a bare trap or PTE change directly; it used a
*subtraction method*:

* the system call time is measured directly by repeated calls to an
  otherwise unused syscall;
* PTE-change and context-switch times are measured by special system
  calls, subtracting the null system call time;
* the trap time comes from a loop that unmaps a page via syscall,
  touches it from user level, and remaps it inside the trap handler —
  minus the system call, unmap, and remap times.

We reproduce the same arithmetic on composed handler programs.  Because
composition shares micro-architectural state (e.g. the write buffer is
already draining when the second handler starts), the subtraction
introduces the same small artifacts a real measurement has; the direct
times are also reported so tests can bound the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.arch.specs import ArchSpec
from repro.isa.executor import ExecutionResult
from repro.isa.program import Program, concat_programs
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import (
    C_CALL_PHASES,
    CALL_PREP_PHASES,
    KERNEL_ENTRY_EXIT_PHASES,
    Primitive,
)


@dataclass
class MicrobenchResult:
    """Times and counts for the four primitives on one system."""

    arch_name: str
    system_name: str
    clock_mhz: float
    #: subtraction-method times, as the paper reports them (Table 1).
    times_us: Dict[Primitive, float] = field(default_factory=dict)
    #: direct handler execution times (no measurement arithmetic).
    direct_times_us: Dict[Primitive, float] = field(default_factory=dict)
    #: shortest-path instruction counts (Table 2).
    instructions: Dict[Primitive, int] = field(default_factory=dict)

    @property
    def null_syscall_us(self) -> float:
        return self.times_us[Primitive.NULL_SYSCALL]

    @property
    def trap_us(self) -> float:
        return self.times_us[Primitive.TRAP]

    @property
    def pte_change_us(self) -> float:
        return self.times_us[Primitive.PTE_CHANGE]

    @property
    def context_switch_us(self) -> float:
        return self.times_us[Primitive.CONTEXT_SWITCH]

    def relative_speed(self, baseline: "MicrobenchResult") -> Dict[Primitive, float]:
        """Table 1 "Relative Speed" columns: baseline time / this time."""
        return {
            primitive: baseline.times_us[primitive] / time_us
            for primitive, time_us in self.times_us.items()
        }


def _run(arch: ArchSpec, program: Program, drain: bool = False) -> ExecutionResult:
    from repro.core.engine import default_engine

    return default_engine().run(arch, program, drain_write_buffer=drain)


def _time(arch: ArchSpec, program: Program, drain: bool = False) -> float:
    return _run(arch, program, drain=drain).time_us


#: (child stream fingerprints) -> shared composed program.  The special
#: syscalls and the trap loop concatenate the same cached handler
#: streams for every cost-variant of one capability class, so the
#: composition — and its structural fingerprint and compiled artifact,
#: primed here and carried by :meth:`Program.renamed` — is built once
#: per class instead of once per explore point.
_COMPOSED_CACHE: Dict[Tuple[str, ...], Program] = {}


def _composed(parts: "list[Program]", name: str) -> Program:
    from repro.core.engine import fingerprint_stream
    from repro.isa.compiled import try_compile

    key = tuple(fingerprint_stream(part) for part in parts)
    base = _COMPOSED_CACHE.get(key)
    if base is None:
        base = concat_programs(parts, name="+".join(p.name for p in parts))
        fingerprint_stream(base)
        try_compile(base)
        if len(_COMPOSED_CACHE) > 4096:
            _COMPOSED_CACHE.clear()
        _COMPOSED_CACHE[key] = base
    return base.renamed(name)


def measurement_jobs(arch: ArchSpec) -> "list[Tuple[Program, bool]]":
    """The engine jobs :func:`measure_primitives` runs, in order.

    Twelve ``(program, drain_write_buffer)`` pairs: the four direct
    handler executions, the four shortest-path count runs, and the
    subtraction method's composed measurements.  Exposed so benchmarks
    and the differential harness can replay the exact executor workload
    a design-space sweep generates per point.
    """
    syscall = handler_program(arch, Primitive.NULL_SYSCALL)
    trap = handler_program(arch, Primitive.TRAP)
    pte = handler_program(arch, Primitive.PTE_CHANGE)
    ctx = handler_program(arch, Primitive.CONTEXT_SWITCH)

    # "special system calls" performing the PTE change / context switch
    # inside an ordinary syscall shell, and the trap loop that unmaps a
    # page via syscall, touches it (fault), and remaps it in the handler.
    sys_pte = _composed([syscall, pte], f"{arch.name}:sys+pte")
    sys_ctx = _composed([syscall, ctx], f"{arch.name}:sys+ctx")
    trap_remap = _composed([trap, pte], f"{arch.name}:trap+remap")

    return [
        # direct executions (drain after asynchronous-exit primitives)
        (syscall, False), (trap, True), (pte, False), (ctx, True),
        # shortest-path instruction counts
        (syscall, False), (trap, False), (pte, False), (ctx, False),
        # the subtraction method's measurements
        (syscall, False), (sys_pte, False), (sys_ctx, True), (trap_remap, True),
    ]


def measure_primitives(arch: ArchSpec) -> MicrobenchResult:
    """Measure the four §1.1 primitives on ``arch`` the paper's way."""
    result = MicrobenchResult(
        arch_name=arch.name,
        system_name=arch.system_name,
        clock_mhz=arch.clock_mhz,
    )

    from repro.core.engine import default_engine

    engine = default_engine()
    rows = [engine.run(arch, program, drain_write_buffer=drain)
            for program, drain in measurement_jobs(arch)]

    result.direct_times_us = {
        Primitive.NULL_SYSCALL: rows[0].time_us,
        Primitive.TRAP: rows[1].time_us,
        Primitive.PTE_CHANGE: rows[2].time_us,
        Primitive.CONTEXT_SWITCH: rows[3].time_us,
    }
    result.instructions = {
        Primitive.NULL_SYSCALL: rows[4].instructions,
        Primitive.TRAP: rows[5].instructions,
        Primitive.PTE_CHANGE: rows[6].instructions,
        Primitive.CONTEXT_SWITCH: rows[7].instructions,
    }

    # --- the subtraction method ---------------------------------------
    t_sys = rows[8].time_us
    t_sys_pte = rows[9].time_us
    t_sys_ctx = rows[10].time_us
    t_pte = t_sys_pte - t_sys
    t_ctx = t_sys_ctx - t_sys
    t_trap_loop = t_sys_pte + rows[11].time_us
    t_trap = t_trap_loop - t_sys - 2.0 * t_pte

    result.times_us = {
        Primitive.NULL_SYSCALL: t_sys,
        Primitive.TRAP: t_trap,
        Primitive.PTE_CHANGE: t_pte,
        Primitive.CONTEXT_SWITCH: t_ctx,
    }
    return result


# ----------------------------------------------------------------------
# Table 5: null system call decomposition
# ----------------------------------------------------------------------

def syscall_breakdown_us(arch: ArchSpec) -> Dict[str, float]:
    """Decompose the null syscall per Table 5's three components."""
    execution = _run(arch, handler_program(arch, Primitive.NULL_SYSCALL))
    groups = {
        "kernel_entry_exit": KERNEL_ENTRY_EXIT_PHASES,
        "call_prep": CALL_PREP_PHASES,
        "c_call": C_CALL_PHASES,
    }
    breakdown: Dict[str, float] = {}
    accounted = 0.0
    for label, phases in groups.items():
        us = sum(execution.phase_time_us(phase) for phase in phases)
        breakdown[label] = us
        accounted += us
    # Any phase outside the three groups (there should be none for the
    # syscall paths) is folded into call_prep, as the paper does for
    # "everything between entry and the C call".
    breakdown["call_prep"] += execution.time_us - accounted
    breakdown["total"] = execution.time_us
    return breakdown


def phase_fraction(arch: ArchSpec, primitive: Primitive, phases: "frozenset[str] | set[str]") -> float:
    """Fraction of a primitive's time spent in the given phases."""
    execution = _run(arch, handler_program(arch, primitive))
    us = sum(execution.phase_time_us(phase) for phase in phases)
    return us / execution.time_us if execution.time_us else 0.0


def measure_all(arch_names: "tuple[str, ...]") -> Mapping[str, MicrobenchResult]:
    """Run :func:`measure_primitives` over several architectures."""
    from repro.arch.registry import get_arch

    return {name: measure_primitives(get_arch(name)) for name in arch_names}
