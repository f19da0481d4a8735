"""The four primitive OS operations the paper measures (§1.1).

* ``NULL_SYSCALL`` — enter a null C procedure in the kernel, with
  interrupts (re-)enabled, and return.
* ``TRAP`` — take a data access fault, vector to a null C procedure in
  the kernel, return to the user program; saves/restores registers not
  preserved across procedure calls.
* ``PTE_CHANGE`` — once in the kernel, convert a virtual address into
  its page table entry, update its protection, and update any hardware
  (TLB, virtually addressed cache) caching that information.
* ``CONTEXT_SWITCH`` — once in the kernel, save one process context and
  resume another, including the hardware address-space change; excludes
  finding the next process to run.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager


class Primitive(enum.Enum):
    NULL_SYSCALL = "null_syscall"
    TRAP = "trap"
    PTE_CHANGE = "pte_change"
    CONTEXT_SWITCH = "context_switch"

    @property
    def label(self) -> str:
        """The row label Table 1/2 uses."""
        return {
            Primitive.NULL_SYSCALL: "Null system call",
            Primitive.TRAP: "Trap",
            Primitive.PTE_CHANGE: "Page table entry change",
            Primitive.CONTEXT_SWITCH: "Context switch",
        }[self]

    @property
    def drains_write_buffer(self) -> bool:
        """Whether a run of this primitive's handler charges the drain.

        Trap-like primitives drain the write buffer at the end: the
        measured loop re-enters the kernel at once, so pending stores
        are part of the observable latency.
        """
        return self is Primitive.TRAP or self is Primitive.CONTEXT_SWITCH


@contextmanager
def primitive_span(primitive: Primitive, arch_name: str):
    """Open an obs span named for ``primitive`` (no-op when tracing is off).

    This is the top of the span hierarchy the telemetry layer records:
    primitive → handler program → instruction phase.  The span's name is
    the primitive's enum value (``null_syscall``, ``trap``,
    ``pte_change``, ``context_switch``) — the four operations the paper
    counts — and it rides the architecture's trace track.
    """
    from repro.obs import OBS_STATE

    tracer = OBS_STATE.tracer
    if not tracer.active:
        yield None
        return
    with tracer.span(primitive.value, "primitive", clock=OBS_STATE.clock,
                     track=arch_name, arch=arch_name,
                     label=primitive.label) as attrs:
        yield attrs


#: Phase labels grouped the way Table 5 groups them.
KERNEL_ENTRY_EXIT_PHASES = frozenset({"kernel_entry", "kernel_exit"})
CALL_PREP_PHASES = frozenset(
    {
        "vector",
        "pipeline_check",
        "pipeline_save",
        "fpu_restart",
        "fault_decode",
        "state_mgmt",
        "window_mgmt",
        "param_copy",
        "reg_save",
        "reg_restore",
        "state_restore",
        "dispatch",
    }
)
C_CALL_PHASES = frozenset({"c_call"})
