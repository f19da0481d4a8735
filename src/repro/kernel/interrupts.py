"""Interrupt controller and dispatch model (§2.3).

Interrupt processing is one of the §2 primitives RPC lives on: the
receive path is "several system calls and interrupts", and the paper's
trap microbenchmark *is* the interrupt-entry cost.  This module adds
the controller-side mechanics the machine model needs:

* prioritized interrupt levels with masking (spl-style);
* pending-interrupt latching while masked, delivered on unmask;
* nesting: a higher-priority interrupt preempts a running handler,
  paying a fresh trap entry each level;
* per-delivery cost = the architecture's trap handler (§1.1) plus the
  registered device handler's own program, priced once per line.

The clock interrupt generator drives the Table 7 "other exceptions"
column in the functional replay path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.isa.executor import Executor
from repro.isa.program import Program, ProgramBuilder
from repro.kernel.handlers import build_handler
from repro.kernel.primitives import Primitive
from repro.kernel.system import SimulatedMachine

#: device handler: runs at interrupt level; returns nothing.
DeviceHandler = Callable[["InterruptController"], None]


@dataclass
class InterruptStats:
    raised: int = 0
    delivered: int = 0
    deferred: int = 0
    nested: int = 0
    dispatch_us: float = 0.0


@dataclass
class _Line:
    name: str
    level: int
    handler_program: Program
    handler: Optional[DeviceHandler] = None


class InterruptController:
    """A prioritized interrupt controller for one machine."""

    #: number of priority levels (0 = lowest; 7 ~ clock/NMI).
    LEVELS = 8

    def __init__(self, machine: SimulatedMachine) -> None:
        self.machine = machine
        self.stats = InterruptStats()
        self._lines: Dict[str, _Line] = {}
        #: pending (level, name) pairs, latched while masked.
        self._pending: List[Tuple[int, str]] = []
        #: current mask: interrupts at or below this level are held.
        self.mask_level = -1
        #: stack of levels currently being serviced (for nesting).
        self._in_service: List[int] = []
        self._executor = Executor(machine.arch)
        self._trap_us = build_handler(machine.arch, Primitive.TRAP).time_us

    # ------------------------------------------------------------------
    def register(self, name: str, level: int,
                 handler_ops: int = 60, handler: Optional[DeviceHandler] = None) -> None:
        """Attach a device line at ``level`` with a handler costing
        ``handler_ops`` instructions of driver work."""
        if not 0 <= level < self.LEVELS:
            raise ValueError(f"level must be in [0, {self.LEVELS})")
        if name in self._lines:
            raise ValueError(f"line {name!r} already registered")
        b = ProgramBuilder(f"isr:{name}")
        b.alu(handler_ops, comment="device service routine")
        b.loads(max(1, handler_ops // 10), comment="device registers")
        b.special_ops(2, comment="acknowledge interrupt")
        self._lines[name] = _Line(
            name=name, level=level, handler_program=b.build(), handler=handler
        )

    # ------------------------------------------------------------------
    def spl(self, level: int) -> int:
        """Raise/lower the mask (spl-style); returns the previous level.

        Lowering the mask delivers any pending interrupts that became
        eligible.
        """
        previous = self.mask_level
        self.mask_level = level
        if level < previous:
            self._drain_pending()
        return previous

    def _deliverable(self, level: int) -> bool:
        if level <= self.mask_level:
            return False
        if self._in_service and level <= self._in_service[-1]:
            return False
        return True

    def raise_interrupt(self, name: str) -> bool:
        """Assert a device line; returns True if delivered immediately."""
        line = self._lines.get(name)
        if line is None:
            raise KeyError(f"no interrupt line {name!r}")
        self.stats.raised += 1
        if not self._deliverable(line.level):
            self._pending.append((line.level, name))
            self.stats.deferred += 1
            return False
        self._dispatch(line)
        self._drain_pending()
        return True

    def _dispatch(self, line: _Line) -> None:
        if self._in_service:
            self.stats.nested += 1
        self._in_service.append(line.level)
        try:
            us = self._trap_us  # trap entry/exit around the ISR
            # a line name is registered once, so it names its ISR
            us += self._executor.price_us(line.name, lambda: line.handler_program)
            self.machine.counters.other_exceptions += 1
            self.machine.advance(us)
            self.stats.delivered += 1
            self.stats.dispatch_us += us
            if line.handler is not None:
                line.handler(self)
        finally:
            self._in_service.pop()

    def _drain_pending(self) -> None:
        # deliver pending interrupts highest level first
        progress = True
        while progress:
            progress = False
            self._pending.sort(reverse=True)
            for index, (level, name) in enumerate(self._pending):
                if self._deliverable(level):
                    del self._pending[index]
                    self._dispatch(self._lines[name])
                    progress = True
                    break

    @property
    def pending_count(self) -> int:
        return len(self._pending)


class ClockSource:
    """Periodic clock interrupts (the Table 7 interrupt baseline)."""

    def __init__(self, controller: InterruptController, hz: float = 100.0,
                 level: int = 7) -> None:
        if hz <= 0:
            raise ValueError("clock rate must be positive")
        self.controller = controller
        self.period_us = 1e6 / hz
        self._next_tick_us = self.period_us
        controller.register("clock", level=level, handler_ops=40)

    def run_until(self, deadline_us: float) -> int:
        """Fire every tick up to ``deadline_us`` (machine time)."""
        fired = 0
        while self._next_tick_us <= deadline_us:
            self.controller.raise_interrupt("clock")
            self._next_tick_us += self.period_us
            fired += 1
        return fired
