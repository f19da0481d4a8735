"""The Mach 2.5 vs Mach 3.0 structure model (§5, Table 7).

Given a workload's :class:`~repro.os_models.services.WorkloadProfile`,
produce the Table 7 event row under either OS structure.  The
monolithic mapping is nearly the identity — one service request is one
system call — while the kernelized mapping routes requests through
user-level servers:

* file naming operations hit the Unix server *and* the file cache
  manager ("each open and close operation involves at least two local
  RPCs");
* file data operations mostly run inside the emulation library against
  mapped files — few RPCs, but emulated instructions and extra page
  faults instead;
* remote file operations add the network server chain;
* each RPC costs system calls and address-space switches, the servers
  are multithreaded (thread switches exceed address-space switches),
  and server critical sections at user level tick the
  emulated-instruction counter on the MIPS (no test-and-set);
* the extra address spaces and switching stress the fixed-size TLB:
  kernel-mapped data (page tables above all) no longer fits, and
  second-level (kernel) TLB misses grow by an order of magnitude.

The per-event costs come from the architecture's handler programs; the
structural constants below are calibrated against Table 7 and pinned by
tests with explicit tolerances (this is a *model* of measurements, not
a re-measurement; see DESIGN.md).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch.registry import get_arch
from repro.arch.specs import ArchSpec
from repro.isa.executor import Executor
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive
from repro.os_models.services import ServiceClass, WorkloadProfile


class OSStructure(enum.Enum):
    MONOLITHIC = "mach2.5"
    KERNELIZED = "mach3.0"


@dataclass
class Table7Row:
    """One Table 7 row: event counts + derived times."""

    workload: str
    structure: OSStructure
    elapsed_s: float
    addr_space_switches: int
    thread_switches: int
    syscalls: int
    emulated_instructions: int
    kernel_tlb_misses: int
    other_exceptions: int
    #: fraction of elapsed time spent executing the low-level
    #: primitives themselves (reported for the kernelized system).
    pct_time_in_primitives: float
    #: seconds spent in primitives (numerator of the above).
    primitive_time_s: float = 0.0

    def as_tuple(self):
        return (
            self.elapsed_s,
            self.addr_space_switches,
            self.thread_switches,
            self.syscalls,
            self.emulated_instructions,
            self.kernel_tlb_misses,
            self.other_exceptions,
            self.pct_time_in_primitives,
        )


# ----------------------------------------------------------------------
# structural constants (calibrated; see tests/test_table7.py)
# ----------------------------------------------------------------------

#: RPCs issued per service request, by class, under Mach 3.0.
RPCS_PER_SERVICE: Dict[ServiceClass, float] = {
    ServiceClass.FILE_NAMING: 2.0,  # Unix server + file cache manager
    ServiceClass.FILE_DATA: 0.4,  # mostly emulation-library mapped files
    ServiceClass.PROCESS_MGMT: 3.0,  # task/thread/pager round trips
    ServiceClass.MISC: 1.0,
    ServiceClass.REMOTE_FILE: 5.0,  # Unix server -> netmsg chain
}

#: Mach kernel calls per RPC (send + receive/reply).
SYSCALLS_PER_RPC = 2.0
#: service requests still served directly by the Mach kernel.
DIRECT_KERNEL_FRACTION = 0.2
#: address-space switches per RPC (a round trip is two, minus handoff
#: elisions when the server is already running).
ADDR_SWITCHES_PER_RPC = 1.45
#: thread switches exceed address-space switches: the servers are
#: multithreaded and "can run concurrently with applications".
THREAD_OVER_ADDR = 1.12
#: emulated-instruction traps per RPC (server critical sections +
#: emulation-library trampolines) on a no-TAS architecture.
EMUL_PER_RPC = 12.0
#: extra emulated work per page fault (emulation library fault path).
EMUL_PER_FAULT = 3.0
#: extra page faults per file-data operation (mapped-file reads fault
#: instead of calling read()).
FAULTS_PER_DATA_OP = 2.0
#: extra exceptions per remote operation (netmsg buffer management).
FAULTS_PER_REMOTE_OP = 4.0

#: clock interrupt rate (Hz) — both systems field these.
CLOCK_HZ = 100.0
#: background server housekeeping under the kernelized system: name
#: lookups, paging decisions, timers — RPC traffic that exists even
#: when the application is compute-bound (visible in parthenon's row).
SERVER_HOUSEKEEPING_HZ = 20.0

#: kernel-mapped pages touched per kernel entry (page tables, u-areas).
KERNEL_TOUCHES_PER_ENTRY = 2.5
#: kernel TLB misses caused by each address-space switch under 3.0
#: ("frequent context switching stresses the limited number of TLB
#: entries on the R3000").
SWITCH_TLB_MISSES = 3.0
#: pages of kernel-mapped data per active address space (page tables).
PT_PAGES_PER_SPACE = 4
#: global kernel mapped working set (pages).
KERNEL_GLOBAL_PAGES = 6
#: active address spaces: application + daemons vs + servers.
ACTIVE_SPACES = {OSStructure.MONOLITHIC: 4, OSStructure.KERNELIZED: 12}

#: microseconds of actual service work per request, by class — the
#: useful work, roughly equal under both structures.
SERVICE_WORK_US: Dict[ServiceClass, float] = {
    ServiceClass.FILE_NAMING: 400.0,
    ServiceClass.FILE_DATA: 350.0,
    ServiceClass.PROCESS_MGMT: 3000.0,
    ServiceClass.MISC: 150.0,
    ServiceClass.REMOTE_FILE: 1000.0,
}
#: soft page fault service (zero-fill / cache hit), microseconds.
FAULT_WORK_US = 50.0
#: per-RPC server-side dispatch work beyond the primitives (3.0 only).
RPC_DISPATCH_US = 30.0
#: extra per remote operation under 3.0: the user-level netmsg path
#: adds copies and scheduling on both ends.
REMOTE_KERNELIZED_EXTRA_US = 4000.0
#: cycles per emulated-instruction trap (kernel fast path, not a full
#: syscall).
EMUL_TRAP_CYCLES = 60.0


class MachOS:
    """Table 7 row generator for one architecture + structure."""

    def __init__(self, structure: OSStructure, arch: Optional[ArchSpec] = None) -> None:
        self.structure = structure
        #: the paper measured on a MIPS R3000 DECstation 5000/200.
        self.arch = arch or get_arch("r3000")
        executor = Executor(self.arch)
        self._cost_us = {
            primitive: executor.run(
                handler_program(self.arch, primitive),
                drain_write_buffer=primitive.drains_write_buffer,
            ).time_us
            for primitive in Primitive
        }

    # ------------------------------------------------------------------
    def _rpc_count(self, profile: WorkloadProfile) -> float:
        return sum(
            RPCS_PER_SERVICE[service] * count
            for service, count in profile.services.items()
        )

    def _kernel_tlb_misses(
        self, profile: WorkloadProfile, kernel_entries: float, addr_switches: float
    ) -> float:
        io_intensity = min(1.0, profile.service_count(ServiceClass.FILE_DATA) / 10_000.0)
        working_set = (
            KERNEL_GLOBAL_PAGES
            + ACTIVE_SPACES[self.structure] * PT_PAGES_PER_SPACE
            + 16.0 * io_intensity
        )
        pressure = working_set / self.arch.tlb.entries
        misses = KERNEL_TOUCHES_PER_ENTRY * pressure * kernel_entries
        if self.structure is OSStructure.KERNELIZED:
            misses += SWITCH_TLB_MISSES * addr_switches
        return misses

    def _service_work_s(self, profile: WorkloadProfile) -> float:
        us = sum(
            SERVICE_WORK_US[service] * count
            for service, count in profile.services.items()
        )
        us += FAULT_WORK_US * profile.page_faults
        return us / 1e6

    # ------------------------------------------------------------------
    def run(self, profile: WorkloadProfile) -> Table7Row:
        if self.structure is OSStructure.MONOLITHIC:
            return self._run_monolithic(profile)
        return self._run_kernelized(profile)

    def _primitive_time_s(
        self,
        syscalls: float,
        thread_switches: float,
        emulated: float,
        tlb_misses: float,
        exceptions: float,
    ) -> float:
        us = (
            syscalls * self._cost_us[Primitive.NULL_SYSCALL]
            + thread_switches * self._cost_us[Primitive.CONTEXT_SWITCH]
            + emulated * self.arch.cycles_to_us(EMUL_TRAP_CYCLES)
            + tlb_misses * self.arch.cycles_to_us(self.arch.tlb.sw_kernel_miss_cycles)
            + exceptions * self._cost_us[Primitive.TRAP]
        )
        return us / 1e6

    def _run_monolithic(self, profile: WorkloadProfile) -> Table7Row:
        syscalls = float(profile.total_service_requests)
        service_s = self._service_work_s(profile)
        # fixed point: interrupts and switches depend on elapsed time
        elapsed = profile.compute_s + service_s
        for _ in range(4):
            interrupts = CLOCK_HZ * elapsed
            exceptions = profile.page_faults + interrupts
            thread_switches = profile.base_switch_rate_hz * elapsed
            addr_switches = profile.addr_switch_fraction * thread_switches
            emulated = float(profile.app_lock_ops)
            kernel_entries = syscalls + exceptions + thread_switches
            tlb_misses = self._kernel_tlb_misses(profile, kernel_entries, addr_switches)
            primitive_s = self._primitive_time_s(
                syscalls, thread_switches, emulated, tlb_misses, exceptions
            )
            elapsed = profile.compute_s + service_s + primitive_s
        return Table7Row(
            workload=profile.name,
            structure=self.structure,
            elapsed_s=elapsed,
            addr_space_switches=round(addr_switches),
            thread_switches=round(thread_switches),
            syscalls=round(syscalls),
            emulated_instructions=round(emulated),
            kernel_tlb_misses=round(tlb_misses),
            other_exceptions=round(exceptions),
            pct_time_in_primitives=primitive_s / elapsed,
            primitive_time_s=primitive_s,
        )

    def _run_kernelized(self, profile: WorkloadProfile) -> Table7Row:
        base_rpcs = self._rpc_count(profile)
        data_ops = profile.service_count(ServiceClass.FILE_DATA)
        remote_ops = profile.service_count(ServiceClass.REMOTE_FILE)
        extra_faults = FAULTS_PER_DATA_OP * data_ops + FAULTS_PER_REMOTE_OP * remote_ops
        service_s = self._service_work_s(profile)
        service_s += (RPC_DISPATCH_US * base_rpcs + REMOTE_KERNELIZED_EXTRA_US * remote_ops) / 1e6

        elapsed = profile.compute_s + service_s
        for _ in range(4):
            rpcs = base_rpcs + SERVER_HOUSEKEEPING_HZ * elapsed
            syscalls = (
                SYSCALLS_PER_RPC * rpcs
                + DIRECT_KERNEL_FRACTION * profile.total_service_requests
            )
            emulated = (
                profile.app_lock_ops
                + EMUL_PER_RPC * rpcs
                + EMUL_PER_FAULT * profile.page_faults
            )
            interrupts = CLOCK_HZ * elapsed
            exceptions = profile.page_faults + extra_faults + interrupts
            addr_switches = (
                ADDR_SWITCHES_PER_RPC * rpcs
                + profile.base_switch_rate_hz * profile.addr_switch_fraction * elapsed
            )
            thread_switches = THREAD_OVER_ADDR * addr_switches + (
                (1.0 - profile.addr_switch_fraction)
                * profile.base_switch_rate_hz
                * elapsed
            )
            kernel_entries = syscalls + exceptions + thread_switches
            tlb_misses = self._kernel_tlb_misses(profile, kernel_entries, addr_switches)
            primitive_s = self._primitive_time_s(
                syscalls, thread_switches, emulated, tlb_misses, exceptions
            )
            elapsed = profile.compute_s + service_s + primitive_s
        return Table7Row(
            workload=profile.name,
            structure=self.structure,
            elapsed_s=elapsed,
            addr_space_switches=round(addr_switches),
            thread_switches=round(thread_switches),
            syscalls=round(syscalls),
            emulated_instructions=round(emulated),
            kernel_tlb_misses=round(tlb_misses),
            other_exceptions=round(exceptions),
            pct_time_in_primitives=primitive_s / elapsed,
            primitive_time_s=primitive_s,
        )


def run_both(profile: WorkloadProfile, arch: Optional[ArchSpec] = None) -> "tuple[Table7Row, Table7Row]":
    """Run ``profile`` under both structures (the Table 7 pair)."""
    return (
        MachOS(OSStructure.MONOLITHIC, arch).run(profile),
        MachOS(OSStructure.KERNELIZED, arch).run(profile),
    )
