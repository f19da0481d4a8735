"""Forward projection: the §6 warning, made quantitative.

"Unless architects pay more attention to operating systems, and
operating system designers pay more attention to architecture,
operating system performance will become a severe bottleneck in
next-generation computer systems."

The sweep derives hypothetical next-generation parts from the R3000 by
scaling the trends the paper identifies — clock rate up, more processor
state, relatively slower memory (deeper write penalties), costlier trap
entry (deeper pipelines) — and measures what happens to application
speedup vs primitive speedup, and to the kernelized structure's
primitive share on the Table 7 workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List

from repro.arch.registry import get_arch
from repro.arch.specs import ArchSpec, ThreadStateSpec, WriteBufferSpec
from repro.core.engine import run_cached
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive


@dataclass
class GenerationPoint:
    """One hypothetical generation."""

    label: str
    clock_mhz: float
    app_speedup: float
    syscall_speedup: float
    trap_speedup: float
    context_switch_speedup: float
    #: primitive share of andrew-local under the kernelized structure
    kernelized_primitive_share: float

    @property
    def primitive_lag(self) -> float:
        """Worst primitive speedup over application speedup (<1 lags)."""
        worst = min(self.syscall_speedup, self.trap_speedup, self.context_switch_speedup)
        return worst / self.app_speedup


def derive_generation(base: ArchSpec, factor: float) -> ArchSpec:
    """A next-generation part: ``factor``x clock and application
    performance, but memory latencies and state grow the §6 way."""
    # memory does not keep up: store retirement costs more cycles
    buffer = base.write_buffer
    scaled_buffer = WriteBufferSpec(
        depth=buffer.depth,
        retire_cycles_same_page=max(1, round(buffer.retire_cycles_same_page * factor * 0.6)),
        retire_cycles_other_page=max(1, round(buffer.retire_cycles_other_page * factor * 0.6)),
    )
    # deeper pipelines: trap entry/exit cost more cycles
    cost = replace(
        base.cost,
        trap_entry_cycles=round(base.cost.trap_entry_cycles * (1 + 0.5 * (factor - 1))),
        trap_exit_extra_cycles=round(base.cost.trap_exit_extra_cycles * (1 + 0.5 * (factor - 1))),
        load_extra_cycles=base.cost.load_extra_cycles + round(factor - 1),
    )
    # more registers and renaming state per thread
    state = base.thread_state
    scaled_state = ThreadStateSpec(
        registers=state.registers,
        fp_state=state.fp_state,
        misc_state=state.misc_state + 4 * round(factor - 1),
    )
    return base.with_overrides(
        name=base.name,
        system_name=f"{base.system_name} ({factor:g}x gen)",
        clock_mhz=base.clock_mhz * factor,
        app_performance_ratio=base.app_performance_ratio * factor,
        write_buffer=scaled_buffer,
        cost=cost,
        thread_state=scaled_state,
    )


def _primitive_us(arch: ArchSpec, primitive: Primitive) -> float:
    program = handler_program(arch, primitive)
    return run_cached(arch, program,
                      drain_write_buffer=primitive.drains_write_buffer).time_us


def generation_sweep(factors: "tuple[float, ...]" = (1.0, 2.0, 4.0, 8.0)) -> List[GenerationPoint]:
    """Project the R3000 forward through ``factors`` of CPU speedup."""
    from repro.os_models.mach import MachOS, OSStructure
    from repro.os_models.services import profile_by_name

    base = get_arch("r3000")
    base_times = {p: _primitive_us(base, p) for p in Primitive}
    profile = profile_by_name("andrew-local")

    points: List[GenerationPoint] = []
    for factor in factors:
        arch = base if factor == 1.0 else derive_generation(base, factor)
        times = {p: _primitive_us(arch, p) for p in Primitive}
        row = MachOS(OSStructure.KERNELIZED, arch).run(profile)
        # the application's own work rides the CPU; the primitives don't:
        # rescale the non-primitive part of elapsed time by the factor
        scaled_elapsed = (row.elapsed_s - row.primitive_time_s) / factor + row.primitive_time_s
        primitive_share = row.primitive_time_s / scaled_elapsed
        points.append(
            GenerationPoint(
                label=f"{factor:g}x",
                clock_mhz=arch.clock_mhz,
                app_speedup=factor,
                syscall_speedup=base_times[Primitive.NULL_SYSCALL] / times[Primitive.NULL_SYSCALL],
                trap_speedup=base_times[Primitive.TRAP] / times[Primitive.TRAP],
                context_switch_speedup=base_times[Primitive.CONTEXT_SWITCH]
                / times[Primitive.CONTEXT_SWITCH],
                kernelized_primitive_share=primitive_share,
            )
        )
    return points
