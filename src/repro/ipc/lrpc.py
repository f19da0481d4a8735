"""Lightweight remote procedure call (§2.2, Table 4).

LRPC optimizes the local cross-address-space case: arguments travel in
a shared, statically mapped buffer, and the client's own thread
executes in the server's address space, nearly eliminating thread
management.  What is left is exactly the hardware:

* two kernel entries (call and return),
* two address-space switches (client->server and back),
* on an untagged TLB (CVAX), two full TLB purges whose refill misses
  cost ~25% of the null call,
* plus a small software overhead: stub dispatch and the two argument
  copies that even a shared buffer requires (§2.4).

The binding runs *functionally*: real processes on one simulated
machine, a really-mapped shared buffer, real TLB purges with the refill
misses measured from the TLB model — not a closed-form formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.isa.executor import Executor
from repro.isa.program import Program, ProgramBuilder
from repro.kernel.primitives import Primitive
from repro.kernel.system import SimulatedMachine
from repro.mem.pagetable import Protection

#: shared argument buffer location (vpn) in both address spaces.
SHARED_BUFFER_VPN = 512

#: pages each side touches right after a switch (working set whose TLB
#: entries the purge destroys).
WORKING_SET_PAGES = 10


@dataclass
class LRPCBreakdown:
    """Null-LRPC component times in microseconds."""

    components_us: Dict[str, float] = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        return sum(self.components_us.values())

    def fraction(self, component: str) -> float:
        total = self.total_us
        return self.components_us.get(component, 0.0) / total if total else 0.0

    @property
    def hardware_minimum_us(self) -> float:
        """Kernel entries + context switches + TLB refills: the part no
        software restructuring can remove (§2.2)."""
        return (
            self.components_us.get("kernel_entry", 0.0)
            + self.components_us.get("context_switch", 0.0)
            + self.components_us.get("tlb_misses", 0.0)
        )

    @property
    def hardware_fraction(self) -> float:
        total = self.total_us
        return self.hardware_minimum_us / total if total else 0.0

    @property
    def tlb_fraction(self) -> float:
        return self.fraction("tlb_misses")


class LRPCBinding:
    """A client/server LRPC binding on one machine."""

    STUB_OPS = 30
    ARG_WORDS = 8  # null-call argument/result record

    def __init__(self, machine: Optional[SimulatedMachine] = None) -> None:
        if machine is None:
            from repro.arch.registry import get_arch
            from repro.kernel.system import SimulatedMachine

            # Table 4 was measured on a *CVAX* Firefly (Bershad et al. 90)
            machine = SimulatedMachine(get_arch("cvax"), name="cvax-firefly")
        self.machine = machine
        self.client = machine.create_process("lrpc-client")
        self.server = machine.create_process("lrpc-server")
        # statically pair-wise mapped shared argument buffer
        self.client.space.map(SHARED_BUFFER_VPN, pfn=SHARED_BUFFER_VPN, protection=Protection.READ_WRITE)
        self.server.space.map(SHARED_BUFFER_VPN, pfn=SHARED_BUFFER_VPN, protection=Protection.READ_WRITE)
        # each side's working set
        for vpn in range(WORKING_SET_PAGES):
            self.client.space.map(vpn, pfn=vpn)
            self.server.space.map(vpn, pfn=vpn)
        self._executor = Executor(machine.arch)
        self.calls = 0

    # ------------------------------------------------------------------
    def _stub_us(self) -> float:
        def build() -> Program:
            b = ProgramBuilder("lrpc_stub")
            b.alu(self.STUB_OPS, comment="binding validation, dispatch")
            b.branch(4)
            return b.build()
        return self._executor.price_us("lrpc_stub", build)

    def _copy_args_us(self) -> float:
        """One argument copy into the shared A-stack (§2.4: 'even in
        LRPC ... two copies are necessary')."""
        def build() -> Program:
            b = ProgramBuilder("lrpc_copy")
            b.loads(self.ARG_WORDS)
            b.stores(self.ARG_WORDS, page=SHARED_BUFFER_VPN)
            return b.build()
        return self._executor.price_us("lrpc_copy", build)

    def _switch_into(self, process) -> Dict[str, float]:
        """Kernel entry + address-space switch + working-set refill."""
        machine = self.machine
        out: Dict[str, float] = {}
        out["kernel_entry"] = machine.primitive_cost_us(Primitive.NULL_SYSCALL)
        machine.counters.syscalls += 1

        stats = machine.vm.tlb.stats
        misses_before = stats.misses
        miss_cycles_before = stats.miss_cycles
        machine.switch_to(process.main_thread)
        out["context_switch"] = machine.primitive_cost_us(Primitive.CONTEXT_SWITCH)
        # touch the working set: on an untagged TLB every touch after
        # the purge misses; tagged TLBs mostly hit
        for vpn in range(WORKING_SET_PAGES):
            machine.vm.touch(vpn, space=process.space)
        machine.vm.touch(SHARED_BUFFER_VPN, space=process.space)
        miss_cycles = stats.miss_cycles - miss_cycles_before
        out["tlb_misses"] = machine.arch.cycles_to_us(miss_cycles)
        out["tlb_miss_count"] = float(stats.misses - misses_before)
        return out

    # ------------------------------------------------------------------
    def null_call(self) -> LRPCBreakdown:
        """One null LRPC: client -> server -> client."""
        self.calls += 1
        components: Dict[str, float] = {
            "stubs": 0.0,
            "argument_copy": 0.0,
            "kernel_entry": 0.0,
            "context_switch": 0.0,
            "tlb_misses": 0.0,
        }
        miss_count = 0.0

        # make sure we start in the client
        if self.machine.current_process is not self.client:
            self.machine.switch_to(self.client.main_thread)
            self.machine.vm.tlb.stats.reset()

        # call: client stub, copy args, kernel transfer into server
        components["stubs"] += self._stub_us()
        components["argument_copy"] += self._copy_args_us()
        into_server = self._switch_into(self.server)
        miss_count += into_server.pop("tlb_miss_count")
        for key, value in into_server.items():
            components[key] += value
        components["stubs"] += self._stub_us()  # server-side dispatch

        # return: copy results, kernel transfer back into client
        components["argument_copy"] += self._copy_args_us()
        into_client = self._switch_into(self.client)
        miss_count += into_client.pop("tlb_miss_count")
        for key, value in into_client.items():
            components[key] += value

        breakdown = LRPCBreakdown(components_us=components)
        breakdown.components_us = components
        self.last_tlb_miss_count = miss_count
        return breakdown

    def steady_state_call(self) -> LRPCBreakdown:
        """Run a few calls to warm up, then return a representative one."""
        for _ in range(3):
            self.null_call()
        return self.null_call()
