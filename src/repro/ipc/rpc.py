"""SRC-RPC-style cross-machine remote procedure call (§2.1, Table 3).

The round trip decomposes the way the paper's Table 3 does:

* **stubs** — automatically generated marshal/unmarshal code copying
  parameters into/out of packet buffers (memory-intensive);
* **checksum** — per-word add paired with a load "which on some RISCs
  will likely fetch from a non-cached I/O buffer";
* **os send** — the system call and driver work to queue and start a
  transmission;
* **interrupt** — receive-side interrupt processing (a trap plus
  driver work);
* **wakeup** — dispatching the blocked thread (a context switch plus
  scheduler work);
* **wire** — controller latency + serialization, the only component
  that does not ride the CPU.

Every CPU component is costed by *executing a program* on the
endpoint's architecture, so write buffers, uncached loads and microcode
flow through exactly as in the §1.1 microbenchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.arch.registry import get_arch
from repro.arch.specs import ArchSpec
from repro.isa.executor import Executor
from repro.isa.program import Program, ProgramBuilder
from repro.ipc.network import Ethernet, Packet
from repro.kernel.primitives import Primitive
from repro.kernel.system import SimulatedMachine

#: the paper's small-packet size for the null RPC.
NULL_RPC_BYTES = 74

#: abstract page ids
_IO_BUFFER_PAGE = 8
_STACK_PAGE = 9


def firefly_machine(name: str = "firefly") -> SimulatedMachine:
    """A Firefly node: the CVAX micro-architecture at uVAX-II speed.

    SRC RPC was measured on uVAX-II Fireflies, several times slower
    than the VAXstation 3200; we derive the spec rather than invent a
    new architecture (same mechanisms, slower clock).
    """
    arch = get_arch("cvax").with_overrides(
        name="cvax",  # same handler family
        system_name="Firefly (uVAX-II)",
        clock_mhz=3.5,
    )
    return SimulatedMachine(arch, name=name)


def _words(nbytes: int) -> int:
    return max(1, (nbytes + 3) // 4)


@dataclass
class RPCBreakdown:
    """Round-trip component times in microseconds."""

    components_us: Dict[str, float] = field(default_factory=dict)

    @property
    def total_us(self) -> float:
        return sum(self.components_us.values())

    def fraction(self, component: str) -> float:
        total = self.total_us
        return self.components_us.get(component, 0.0) / total if total else 0.0

    @property
    def wire_fraction(self) -> float:
        return self.fraction("wire")

    @property
    def cpu_us(self) -> float:
        return self.total_us - self.components_us.get("wire", 0.0)

    def merged(self, other: "RPCBreakdown") -> "RPCBreakdown":
        merged: Dict[str, float] = dict(self.components_us)
        for key, value in other.components_us.items():
            merged[key] = merged.get(key, 0.0) + value
        return RPCBreakdown(components_us=merged)


class RPCEndpoint:
    """Packet processing for one machine."""

    #: instruction-count knobs for the driver paths (calibrated so the
    #: small-packet wire share lands at the paper's 17% on Fireflies).
    STUB_FIXED_OPS = 48
    DRIVER_SEND_OPS = 100
    DRIVER_RECV_OPS = 120
    SCHEDULER_OPS = 45
    CHECKSUM_FIXED_OPS = 10

    def __init__(self, machine: SimulatedMachine) -> None:
        self.machine = machine
        self.arch: ArchSpec = machine.arch
        self._executor = Executor(self.arch)

    # ------------------------------------------------------------------
    def stub_us(self, payload_bytes: int) -> float:
        """Marshal or unmarshal ``payload_bytes`` plus linkage.

        The fixed linkage part runs at CPU speed (a program on the
        executor); the bulk copy runs at the machine's block-copy
        bandwidth (§2.4: copies do not scale with integer speed).
        """
        def build() -> Program:
            b = ProgramBuilder("rpc_stub")
            b.alu(self.STUB_FIXED_OPS, comment="argument discipline, descriptors")
            b.branch(6)
            return b.build()
        fixed = self._executor.price_us("stub_fixed", build)
        return fixed + self.arch.memory.copy_us(payload_bytes)

    def checksum_us(self, payload_bytes: int) -> float:
        """IP-style checksum: per-byte adds at checksum bandwidth plus
        fixed setup/fold work at CPU speed."""
        def build() -> Program:
            b = ProgramBuilder("rpc_checksum")
            b.alu(self.CHECKSUM_FIXED_OPS, comment="setup, fold, compare")
            b.loads(2, uncached=True, comment="I/O buffer head touch")
            return b.build()
        fixed = self._executor.price_us("checksum_fixed", build)
        return fixed + self.arch.memory.checksum_us(payload_bytes)

    def os_send_us(self) -> float:
        """Syscall + driver queue + device start."""
        us = self.machine.primitive_cost_us(Primitive.NULL_SYSCALL)

        def build() -> Program:
            b = ProgramBuilder("driver_send")
            b.alu(self.DRIVER_SEND_OPS, comment="buffer descriptors, queueing")
            b.stores(8, page=_IO_BUFFER_PAGE, comment="ring descriptor writes")
            b.special_ops(4, comment="device CSR pokes")
            return b.build()
        return us + self._executor.price_us("driver_send", build)

    def interrupt_us(self) -> float:
        """Receive interrupt: trap + driver receive path."""
        us = self.machine.primitive_cost_us(Primitive.TRAP)

        def build() -> Program:
            b = ProgramBuilder("driver_recv")
            b.alu(self.DRIVER_RECV_OPS, comment="demultiplex, buffer handoff")
            b.loads(10, comment="ring descriptor reads")
            b.special_ops(4, comment="device CSR acknowledge")
            return b.build()
        return us + self._executor.price_us("driver_recv", build)

    def wakeup_us(self) -> float:
        """Unblock and dispatch the waiting thread."""
        us = self.machine.primitive_cost_us(Primitive.CONTEXT_SWITCH)

        def build() -> Program:
            b = ProgramBuilder("scheduler")
            b.alu(self.SCHEDULER_OPS, comment="ready queue, priority check")
            b.loads(6)
            b.stores(4, page=_STACK_PAGE)
            return b.build()
        return us + self._executor.price_us("scheduler", build)

    def send_side_us(self, payload_bytes: int) -> Dict[str, float]:
        return {
            "stubs": self.stub_us(payload_bytes),
            "checksum": self.checksum_us(payload_bytes),
            "os_send": self.os_send_us(),
        }

    def receive_side_us(self, payload_bytes: int) -> Dict[str, float]:
        return {
            "interrupt": self.interrupt_us(),
            "checksum": self.checksum_us(payload_bytes),
            "stubs": self.stub_us(payload_bytes),
            "wakeup": self.wakeup_us(),
        }


class RPCChannel:
    """A client/server pair connected by an Ethernet."""

    def __init__(
        self,
        client: Optional[SimulatedMachine] = None,
        server: Optional[SimulatedMachine] = None,
        network: Optional[Ethernet] = None,
    ) -> None:
        self.client_machine = client or firefly_machine("client")
        self.server_machine = server or firefly_machine("server")
        self.client = RPCEndpoint(self.client_machine)
        self.server = RPCEndpoint(self.server_machine)
        self.network = network or Ethernet()
        self.calls = 0

    # ------------------------------------------------------------------
    def call(self, request_bytes: int = NULL_RPC_BYTES, reply_bytes: int = NULL_RPC_BYTES) -> RPCBreakdown:
        """One round-trip RPC; returns the Table 3 decomposition."""
        self.calls += 1
        components: Dict[str, float] = {
            "stubs": 0.0,
            "checksum": 0.0,
            "os_send": 0.0,
            "interrupt": 0.0,
            "wakeup": 0.0,
            "wire": 0.0,
        }

        def add(side: Dict[str, float]) -> None:
            for key, value in side.items():
                components[key] += value

        now = 0.0
        # client -> server
        add(self.client.send_side_us(request_bytes))
        delivery = self.network.send(Packet(request_bytes, kind="request"), now)
        components["wire"] += delivery - now
        add(self.server.receive_side_us(request_bytes))
        # server -> client
        add(self.server.send_side_us(reply_bytes))
        delivery = self.network.send(Packet(reply_bytes, kind="reply"), delivery)
        components["wire"] += self.network.transit_us(reply_bytes)
        add(self.client.receive_side_us(reply_bytes))
        self.network.deliver_ready(delivery + 1e9)
        return RPCBreakdown(components_us=components)

    def null_call(self) -> RPCBreakdown:
        return self.call(NULL_RPC_BYTES, NULL_RPC_BYTES)

    def large_result_call(self, reply_bytes: int = 1500) -> RPCBreakdown:
        return self.call(NULL_RPC_BYTES, reply_bytes)
