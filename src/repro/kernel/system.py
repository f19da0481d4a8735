"""The functional simulated machine.

Glues one architecture to a working kernel: address spaces and VM,
a syscall table, fault dispatch, kernel threads and a scheduler — with
every crossing charged its §1.1 handler cost on a virtual clock.

This is the object the higher layers run on: LRPC binds client/server
processes on one machine; cross-machine RPC connects two machines over
the simulated Ethernet; the Mach structure model issues service
requests against it; and the §1.1 microbenchmarks can be re-run
*functionally* (real unmap, real fault, real remap) as a cross-check of
the analytic path in :mod:`repro.core.microbench`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.arch.specs import ArchSpec
from repro.isa.executor import Executor
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive
from repro.kernel.process import KernelThread, Process
from repro.kernel.scheduler import Scheduler
from repro.mem.pagetable import Protection
from repro.mem.vm import PageFault, VirtualMemory
from repro.obs.spans import Tracer


@dataclass
class EventCounters:
    """The Table 7 event vocabulary."""

    syscalls: int = 0
    traps: int = 0
    address_space_switches: int = 0
    thread_switches: int = 0
    pte_changes: int = 0
    emulated_instructions: int = 0
    kernel_tlb_misses: int = 0
    other_exceptions: int = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


#: a syscall implementation: takes the machine, returns a value.
SyscallHandler = Callable[["SimulatedMachine"], object]


class SimulatedMachine:
    """One workstation: architecture + kernel + VM + virtual clock."""

    def __init__(self, arch: ArchSpec, name: str = "") -> None:
        self.arch = arch
        self.name = name or arch.system_name
        self.vm = VirtualMemory(arch)
        self.scheduler = Scheduler()
        self.counters = EventCounters()
        #: per-machine span stream: every kernel crossing is emitted as
        #: a span timed on the virtual clock.  Inactive (one branch per
        #: crossing) until a sink attaches — the
        #: :class:`~repro.kernel.eventlog.EventLog` ring buffer and the
        #: ``repro trace`` exporters are both just sinks on this tracer.
        self.tracer = Tracer()
        self.clock_us = 0.0
        self.processes: Dict[int, Process] = {}
        self.current_process: Optional[Process] = None
        self._syscalls: Dict[str, SyscallHandler] = {}
        self._executor = Executor(arch)
        self.register_syscall("null", lambda machine: None)

    # ------------------------------------------------------------------
    # cost plumbing
    # ------------------------------------------------------------------
    def primitive_cost_us(self, primitive: Primitive) -> float:
        """Handler cost of one primitive on this architecture (priced once)."""
        return self._executor.price_us(
            primitive, lambda: handler_program(self.arch, primitive),
            drain_write_buffer=primitive.drains_write_buffer)

    def _emit(self, name: str, start_us: float, detail: str = "") -> None:
        """Emit one primitive span [start_us, now] on the machine track."""
        self.tracer.complete(
            name, "primitive", start_us=start_us, end_us=self.clock_us,
            track=self.name, arch=self.arch.name, detail=detail)

    def advance(self, us: float) -> None:
        """Advance the virtual clock (application compute time etc.)."""
        if us < 0:
            raise ValueError("time cannot run backwards")
        self.clock_us += us
        if self.scheduler.current is not None:
            self.scheduler.current.cpu_us += us

    # ------------------------------------------------------------------
    # processes and context switching
    # ------------------------------------------------------------------
    def create_process(self, name: str = "", page_table_kind: Optional[str] = None) -> Process:
        kind = page_table_kind
        if kind is None:
            kind = {
                "cvax": "linear",
                "sparc": "multilevel",
            }.get(self.arch.name, "software")
        process = Process(name=name, page_table_kind=kind)
        self.processes[process.pid] = process
        if self.current_process is None:
            self.current_process = process
            self.vm.activate(process.space)
            self.scheduler.dispatch(process.main_thread)
        else:
            self.scheduler.enqueue(process.main_thread)
        return process

    def switch_to(self, thread: KernelThread) -> float:
        """Switch to ``thread``; returns microseconds charged.

        A thread switch within one process pays the context-switch
        handler; crossing address spaces additionally pays the hardware
        switch costs (TLB purge on untagged parts, virtual cache flush).
        """
        start_us = self.clock_us
        us = self.primitive_cost_us(Primitive.CONTEXT_SWITCH)
        self.counters.thread_switches += 1
        previous = self.scheduler.current
        if previous is not None and previous is not thread:
            self.scheduler.preempt_current()
        target_process = thread.process
        crossed_spaces = False
        if target_process is not self.current_process:
            self.counters.address_space_switches += 1
            crossed_spaces = True
            cycles = self.vm.activate(target_process.space)
            us += self.arch.cycles_to_us(cycles)
            self.current_process = target_process
        self.scheduler.dispatch(thread)
        self.clock_us += us
        if self.tracer.active:
            self._emit("thread_switch", start_us, detail=thread.name)
            if crossed_spaces:
                self.tracer.instant(
                    "address_space_switch", "machine", at_us=self.clock_us,
                    track=self.name,
                    detail=self.current_process.name if self.current_process else "")
        return us

    def yield_to_next(self) -> float:
        """Round-robin to the next ready thread (0 if none)."""
        next_thread = self.scheduler.pick_next()
        if next_thread is None:
            return 0.0
        return self.switch_to(next_thread)

    # ------------------------------------------------------------------
    # system calls
    # ------------------------------------------------------------------
    def register_syscall(self, name: str, handler: SyscallHandler) -> None:
        self._syscalls[name] = handler

    def syscall(self, name: str) -> object:
        """Enter the kernel, run the named service, return."""
        handler = self._syscalls.get(name)
        if handler is None:
            raise KeyError(f"unknown syscall {name!r}")
        self.counters.syscalls += 1
        start_us = self.clock_us
        self.clock_us += self.primitive_cost_us(Primitive.NULL_SYSCALL)
        if self.tracer.active:
            self._emit("syscall", start_us, detail=name)
        return handler(self)

    # ------------------------------------------------------------------
    # memory operations (user-level accesses + kernel services)
    # ------------------------------------------------------------------
    def _space(self):
        if self.current_process is None:
            raise RuntimeError("no process running")
        return self.current_process.space

    def touch(self, vpn: int, write: bool = False) -> float:
        """User access; faults are dispatched at full trap cost."""
        before_misses = self.vm.tlb.stats.kernel_misses
        try:
            cycles = self.vm.touch(vpn, write=write, space=self._space())
            us = self.arch.cycles_to_us(cycles)
        except PageFault:
            self.counters.traps += 1
            raise
        self.counters.kernel_tlb_misses += self.vm.tlb.stats.kernel_misses - before_misses
        self.clock_us += us
        return us

    def trap(self) -> float:
        """Charge one trap (fault path into a null handler)."""
        self.counters.traps += 1
        start_us = self.clock_us
        us = self.primitive_cost_us(Primitive.TRAP)
        self.clock_us += us
        if self.tracer.active:
            self._emit("trap", start_us)
        return us

    def change_protection(self, vpn: int, protection: Protection) -> float:
        self.counters.pte_changes += 1
        start_us = self.clock_us
        cycles = self.vm.set_protection(vpn, protection, space=self._space())
        us = self.arch.cycles_to_us(cycles)
        self.clock_us += us
        if self.tracer.active:
            self._emit("pte_change", start_us, detail=f"vpn={vpn}")
        return us

    def unmap_page(self, vpn: int) -> float:
        self.counters.pte_changes += 1
        start_us = self.clock_us
        cycles = self.vm.unmap(vpn, space=self._space())
        us = self.arch.cycles_to_us(cycles)
        self.clock_us += us
        if self.tracer.active:
            self._emit("pte_change", start_us, detail=f"vpn={vpn} unmap")
        return us

    def map_page(self, vpn: int, pfn: Optional[int] = None,
                 protection: Protection = Protection.READ_WRITE) -> None:
        self.vm.map(vpn, pfn if pfn is not None else vpn, protection, space=self._space())

    # ------------------------------------------------------------------
    # synchronization support (§4.1: the missing test-and-set)
    # ------------------------------------------------------------------
    def atomic_or_trap_us(self) -> float:
        """Cost of one atomic acquire on this architecture.

        With a test-and-set style instruction this is a few cycles; on
        the MIPS, user code must trap into the kernel to get atomicity,
        and the counter the paper reports as "emulated instructions"
        ticks (§5, Table 7).
        """
        if self.arch.has_atomic_tas:
            cycles = 1 + self.arch.cost.atomic_extra_cycles
            us = self.arch.cycles_to_us(float(cycles))
            self.clock_us += us
            return us
        self.counters.emulated_instructions += 1
        us = self.primitive_cost_us(Primitive.NULL_SYSCALL)
        self.clock_us += us
        if self.tracer.active:
            self.tracer.instant("emulated_instruction", "machine",
                                at_us=self.clock_us, track=self.name)
        return us
