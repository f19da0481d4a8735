"""Deterministic cycle-accounting execution of handler programs.

The executor charges each instruction its class base cost plus the
dynamic effects the paper identifies: write-buffer stalls on successive
stores, load latencies (cached vs uncached), microcode cycles, trap
entry/exit hardware latency, cache-line flush and TLB-operation costs.
Results are aggregated per *phase* so experiments can decompose times
exactly the way Table 5 does.

Instruction counting follows the paper's convention for Table 2: the
count is "the number of instructions executed along the shortest path"
in the software handler, so hardware trap entry (``OpClass.TRAP``) is
charged cycles but contributes **zero** instructions, while the
return-from-exception instruction counts as one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Hashable

from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import Program

if TYPE_CHECKING:  # pragma: no cover - import for typing only
    from repro.arch.specs import ArchSpec


@dataclass
class PhaseCost:
    """Instruction and cycle totals for one phase."""

    instructions: int = 0
    cycles: float = 0.0
    stall_cycles: float = 0.0

    def add(self, instructions: int, cycles: float, stalls: float) -> None:
        self.instructions += instructions
        self.cycles += cycles
        self.stall_cycles += stalls


@dataclass
class ExecutionResult:
    """Outcome of running one program on one architecture."""

    program_name: str
    arch_name: str
    clock_mhz: float
    instructions: int = 0
    cycles: float = 0.0
    stall_cycles: float = 0.0
    nop_instructions: int = 0
    by_phase: Dict[str, PhaseCost] = field(default_factory=dict)

    @property
    def time_us(self) -> float:
        return self.cycles / self.clock_mhz

    def phase_cycles(self, phase: str) -> float:
        cost = self.by_phase.get(phase)
        return cost.cycles if cost else 0.0

    def phase_time_us(self, phase: str) -> float:
        return self.phase_cycles(phase) / self.clock_mhz

    def phase_instructions(self, phase: str) -> int:
        cost = self.by_phase.get(phase)
        return cost.instructions if cost else 0

    def phase_fraction(self, phase: str) -> float:
        """Fraction of total cycles spent in ``phase``."""
        if self.cycles == 0:
            return 0.0
        return self.phase_cycles(phase) / self.cycles

    @property
    def stall_fraction(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.stall_cycles / self.cycles

    @property
    def nop_fraction_of_cycles(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.nop_instructions / self.cycles

    def summary(self) -> str:
        lines = [
            f"{self.program_name} on {self.arch_name}: "
            f"{self.instructions} instructions, {self.cycles:.0f} cycles "
            f"({self.time_us:.2f} us at {self.clock_mhz:g} MHz)"
        ]
        for phase, cost in self.by_phase.items():
            lines.append(
                f"  {phase:<20s} {cost.instructions:4d} instr  "
                f"{cost.cycles:7.1f} cycles  ({cost.stall_cycles:.1f} stalled)"
            )
        return "\n".join(lines)


class InstructionObserver:
    """Per-instruction observation hook (duck-typed; see ``repro.obs``).

    ``on_instruction`` fires after each record's cost is computed;
    ``on_drain`` after an end-of-run write-buffer drain charge.  The
    executor holds at most one observer, and the ``observer is None``
    guard is the instrumented-but-disabled path's entire cost
    (the obs gate of ``scripts/gates.py`` pins it under 3%).
    """

    def on_instruction(self, inst: Instruction, counted: int,
                       cycles: float, stalls: float) -> None:  # pragma: no cover
        raise NotImplementedError

    def on_drain(self, cycles: float) -> None:  # pragma: no cover
        raise NotImplementedError


class Executor:
    """Runs phase-labelled programs against an :class:`ArchSpec`."""

    def __init__(self, arch: "ArchSpec", observer: "InstructionObserver | None" = None) -> None:
        # Imported here to keep repro.isa importable without repro.arch
        # (the dependency is one-way at runtime: executor -> arch).
        from repro.arch.writebuffer import make_write_buffer

        self.arch = arch
        self.observer = observer
        self._write_buffer = make_write_buffer(arch.write_buffer)
        self._prices: Dict[Hashable, float] = {}

    # ------------------------------------------------------------------
    def _instruction_cost(self, inst: Instruction, now: float) -> "tuple[int, float, float]":
        """Return (instructions, cycles, stall_cycles) for one record."""
        cost_model = self.arch.cost
        base = cost_model.cycles_for_class(inst.opclass)
        cycles = float(base + inst.extra_cycles)
        stalls = 0.0
        counted = 1

        if inst.opclass is OpClass.TRAP:
            counted = 0
            cycles = float(cost_model.trap_entry_cycles + inst.extra_cycles)
        elif inst.opclass is OpClass.RFE:
            cycles += cost_model.trap_exit_extra_cycles
        elif inst.opclass is OpClass.LOAD:
            if inst.uncached:
                cycles += cost_model.uncached_load_extra_cycles
            else:
                cycles += cost_model.load_extra_cycles
        elif inst.opclass is OpClass.STORE:
            stall, _ = self._write_buffer.issue_store(now, inst.mem_page)
            stalls += stall
            cycles += stall
        elif inst.opclass is OpClass.CACHE_FLUSH:
            cycles += cost_model.cache_flush_line_cycles - 1
        elif inst.opclass is OpClass.TLB_OP:
            cycles += cost_model.tlb_op_cycles - 1
        elif inst.opclass is OpClass.ATOMIC:
            cycles += cost_model.atomic_extra_cycles
        elif inst.opclass is OpClass.FP:
            cycles += cost_model.fp_extra_cycles
        elif inst.opclass is OpClass.SPECIAL:
            cycles += cost_model.special_extra_cycles

        return counted, cycles, stalls

    # ------------------------------------------------------------------
    def run(self, program: Program, drain_write_buffer: bool = False) -> ExecutionResult:
        """Execute ``program`` from a quiescent machine state.

        ``drain_write_buffer`` additionally charges the cycles needed for
        the write buffer to empty at the end (relevant when the next
        event is synchronous with memory, e.g. an I/O doorbell).
        """
        self._write_buffer.reset()
        result = ExecutionResult(
            program_name=program.name,
            arch_name=self.arch.name,
            clock_mhz=self.arch.clock_mhz,
        )
        observer = self.observer
        now = 0.0
        for inst in program:
            counted, cycles, stalls = self._instruction_cost(inst, now)
            now += cycles
            result.instructions += counted
            result.cycles += cycles
            result.stall_cycles += stalls
            if inst.opclass is OpClass.NOP:
                result.nop_instructions += 1
            phase = result.by_phase.setdefault(inst.phase, PhaseCost())
            phase.add(counted, cycles, stalls)
            if observer is not None:
                observer.on_instruction(inst, counted, cycles, stalls)
        if drain_write_buffer:
            drain = self._write_buffer.drain_time(now)
            result.cycles += drain
            result.stall_cycles += drain
            if drain:
                phase = result.by_phase.setdefault("write_buffer_drain", PhaseCost())
                phase.add(0, drain, drain)
                if observer is not None:
                    observer.on_drain(drain)
        return result

    def price_us(self, key: Hashable, build: Callable[[], Program],
                 drain_write_buffer: bool = False) -> float:
        """Time of the program ``key`` names, run once per executor.

        :meth:`run` starts from a quiescent machine, so a program's time
        depends only on (arch, program, drain).  The first sighting of
        ``key`` runs ``build()`` and stores its ``time_us``; later ones
        return the stored value without building anything.  ``key``
        must therefore determine the program and the drain flag.  The
        observer sees only that first run.
        """
        try:
            return self._prices[key]
        except KeyError:
            us = self.run(build(), drain_write_buffer).time_us
            self._prices[key] = us
            return us


def run_on(arch: "ArchSpec", program: Program, drain_write_buffer: bool = False) -> ExecutionResult:
    """Convenience one-shot execution."""
    return Executor(arch).run(program, drain_write_buffer=drain_write_buffer)
