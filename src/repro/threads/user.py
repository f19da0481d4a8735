"""User-level threads (§4.1).

"At the run-time level, threads are completely managed by user-level
code invisibly to the operating system... thread operations do not need
to cross kernel boundaries."  The costs that matter:

* **creation** — 5-10x a procedure call in a careful implementation
  (Anderson et al. 89, Massalin & Pu 89);
* **context switch** — dominated by moving the Table 6 processor state
  through memory; "optimizations that reduce the amount of state
  saving ... may become crucial";
* **SPARC** — the current-window pointer is privileged, so "a
  completely user-level thread context switch is impossible; a kernel
  trap is required", plus the dirty windows must be flushed.

All costs are computed by executing small register-move programs on the
architecture's executor, so write-buffer behaviour and memory latency
flow through exactly as in the §1.1 microbenchmarks.  A package prices
each program once, through :meth:`~repro.isa.executor.Executor.price_us`:
the window flush keyed on its dirty-window count, the overflow spill,
the underflow fill and the CWP trap.  A run starts from a quiescent
machine, so one run per program is exact: after a program's first
sighting, a switch, call or return builds and runs nothing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.arch.specs import ArchSpec
from repro.arch.regwindows import WindowFile
from repro.isa.executor import Executor
from repro.isa.program import Program, ProgramBuilder

_thread_ids = itertools.count(1)


def _procedure_call_program() -> Program:
    """A C procedure call: linkage + prologue/epilogue + frame traffic."""
    b = ProgramBuilder("procedure_call")
    b.branch(1, comment="call")
    b.alu(4, comment="prologue: sp adjust, frame setup")
    b.stores(2, page=0, comment="spill ra/fp")
    b.loads(2, comment="reload ra/fp")
    b.alu(2, comment="epilogue")
    b.branch(1, comment="return")
    return b.build()


def procedure_call_us(arch: ArchSpec) -> float:
    """Cost of one procedure call on ``arch``.

    On register-window machines the frame lives in the window file, so
    the memory traffic disappears (that was the *point* of windows —
    which is exactly why the tradeoff inverts for thread switches).
    """
    if arch.has_register_windows:
        b = ProgramBuilder("procedure_call_windows")
        b.branch(1, comment="call")
        b.special_ops(1, comment="save: rotate window")
        b.alu(8, comment="argument staging in out-registers, body prologue")
        b.special_ops(1, comment="restore: rotate back")
        b.branch(1, comment="return")
        return Executor(arch).run(b.build()).time_us
    return Executor(arch).run(_procedure_call_program()).time_us


def _state_move_program(arch: ArchSpec, include_fp: bool = False) -> Program:
    """Save one thread's state, load another's (Table 6 words).

    On register-window machines the windowed registers move during the
    window flush, so the TCB state move covers only the globals and
    miscellaneous state; flat-register machines move the whole file.
    """
    words = arch.thread_state.integer_only_words
    if arch.has_register_windows:
        windowed = arch.windows.n_windows * arch.windows.regs_per_window
        words = arch.thread_state.integer_only_words - windowed
    if include_fp:
        words += arch.thread_state.fp_state
    b = ProgramBuilder(f"{arch.name}:thread_switch_state")
    with b.phase("save"):
        b.stores(words, page=0, comment="store outgoing state to TCB")
    with b.phase("restore"):
        b.loads(words, page=0, comment="load incoming state from TCB")
    with b.phase("bookkeeping"):
        b.alu(10, comment="queue manipulation, TCB pointers")
        b.branch(2)
    return b.build()


@dataclass
class UserThread:
    """One user-level thread (state only; work is modelled abstractly)."""

    tid: int = field(default_factory=lambda: next(_thread_ids))
    name: str = ""
    finished: bool = False
    switches: int = 0
    #: per-thread register-window occupancy on window machines
    windows: Optional[WindowFile] = None

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"uthread{self.tid}"


@dataclass
class ThreadPackageStats:
    creates: int = 0
    switches: int = 0
    kernel_traps: int = 0
    windows_flushed: int = 0
    procedure_calls: int = 0
    total_us: float = 0.0


class UserThreadPackage:
    """A run-time-level thread system for one address space."""

    #: creation cost as a multiple of a procedure call (§4: 5-10x).
    CREATE_MULTIPLE = 7.0

    def __init__(self, arch: ArchSpec, include_fp_state: bool = False) -> None:
        self.arch = arch
        self.include_fp_state = include_fp_state
        self.threads: List[UserThread] = []
        self.current: Optional[UserThread] = None
        self.stats = ThreadPackageStats()
        self._executor = Executor(arch)
        self._procedure_call_us = procedure_call_us(arch)
        self._state_move_us = self._executor.run(
            _state_move_program(arch, include_fp=include_fp_state)
        ).time_us

    # ------------------------------------------------------------------
    def _window_trap_us(self) -> float:
        """Kernel crossing to move the privileged CWP (SPARC).

        A dedicated fast trap: hardware entry, CWP/WIM rotate, rett —
        far less than a full system call, but still a kernel boundary
        the "completely user-level" switch cannot avoid (§4.1).
        """
        def build() -> Program:
            b = ProgramBuilder("cwp_trap")
            b.trap_entry(comment="dedicated CWP-change trap")
            b.special_ops(4, comment="rotate CWP, fix WIM")
            b.alu(4)
            b.rfe(comment="rett")
            return b.build()
        return self._executor.price_us("cwp_trap", build)

    def _flush_us(self, windows: int) -> float:
        """Spill ``windows`` dirty windows and fill the incoming ones."""
        def build() -> Program:
            regs = self.arch.windows.regs_per_window
            b = ProgramBuilder("window_flush")
            for _ in range(windows):
                b.special_ops(2, comment="rotate CWP/WIM")
                b.alu(7, comment="flush loop control")
                b.stores(regs, page=2, comment="spill window")
                b.loads(regs, page=2, comment="fill incoming window")
                b.branch(2)
            return b.build()
        return self._executor.price_us(("window_flush", windows), build)

    def _window_flush_us(self, thread: UserThread) -> float:
        """Spill the outgoing thread's dirty windows to memory."""
        assert self.arch.windows is not None and thread.windows is not None
        dirty = thread.windows.flush_for_switch()
        self.stats.windows_flushed += dirty
        return self._flush_us(dirty)

    def _spill_us(self) -> float:
        """Window overflow: spill one window."""
        def build() -> Program:
            b = ProgramBuilder("overflow_spill")
            b.stores(self.arch.windows.regs_per_window, page=2)
            b.special_ops(2)
            return b.build()
        return self._executor.price_us("overflow_spill", build)

    def _fill_us(self) -> float:
        """Window underflow: fill one window."""
        def build() -> Program:
            b = ProgramBuilder("underflow_fill")
            b.loads(self.arch.windows.regs_per_window, page=2)
            b.special_ops(2)
            return b.build()
        return self._executor.price_us("underflow_fill", build)

    # ------------------------------------------------------------------
    def create(self, name: str = "") -> UserThread:
        """Create a thread: 5-10x a procedure call (§4.1)."""
        thread = UserThread(name=name)
        if self.arch.has_register_windows:
            thread.windows = WindowFile(self.arch.windows)
        self.threads.append(thread)
        us = self.CREATE_MULTIPLE * self._procedure_call_us
        self.stats.creates += 1
        self.stats.total_us += us
        if self.current is None:
            self.current = thread
        return thread

    def switch_to(self, thread: UserThread) -> float:
        """Context switch at user level; returns microseconds."""
        if thread.finished:
            raise ValueError(f"cannot switch to finished thread {thread.name}")
        us = self._state_move_us
        outgoing = self.current
        if self.arch.has_register_windows:
            if self.arch.windows.cwp_privileged:
                # user-level switch impossible: trap to move the CWP
                us += self._window_trap_us()
                self.stats.kernel_traps += 1
            if outgoing is not None and outgoing.windows is not None:
                us += self._window_flush_us(outgoing)
        self.current = thread
        thread.switches += 1
        self.stats.switches += 1
        self.stats.total_us += us
        return us

    def procedure_call(self) -> float:
        """Model the running thread making one procedure call."""
        us = self._procedure_call_us
        thread = self.current
        if thread is not None and thread.windows is not None:
            if thread.windows.call():
                us += self._spill_us()
        self.stats.procedure_calls += 1
        self.stats.total_us += us
        return us

    def procedure_return(self) -> float:
        thread = self.current
        us = 0.0
        if thread is not None and thread.windows is not None:
            if thread.windows.ret():
                us = self._fill_us()
                self.stats.total_us += us
        return us

    def preempt(self, thread: UserThread, signal_delivery_us: float) -> float:
        """Involuntary switch driven by an asynchronous event (§4.1).

        "Such packages must also perform involuntary swaps as a result
        of asynchronous events, for instance due to signals or
        exceptions."  The cost is the signal delivery (trap + upcall +
        sigreturn, supplied by the caller — typically
        :meth:`repro.kernel.signals.SignalDispatcher.delivery_cost_us`)
        plus an ordinary switch.
        """
        us = signal_delivery_us + self.switch_to(thread)
        self.stats.total_us += signal_delivery_us
        return us

    # ------------------------------------------------------------------
    @property
    def switch_us(self) -> float:
        """Steady-state cost of one thread switch (uncontended)."""
        us = self._state_move_us
        if self.arch.has_register_windows and self.arch.windows.cwp_privileged:
            us += self._window_trap_us()
        return us

    @property
    def switch_over_procedure_call(self) -> float:
        """The §4.1 ratio (≈50 on SPARC with 3 window save/restores)."""
        us = self.switch_us
        if self.arch.has_register_windows:
            us += self._flush_us(self.arch.windows.avg_windows_per_switch)
        return us / self._procedure_call_us
