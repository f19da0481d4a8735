"""Differential harness: the executor's price memo vs the interpreter.

:meth:`Executor.price_us` runs a program once per executor and returns
the stored time after that.  That is exact only because
:meth:`Executor.run` starts from a quiescent machine and every caller
keys a program on values that fix it before it is built.  The
interpreter stays the oracle, two ways:

* every priced program, on every registered architecture, equals a
  fresh ``Executor(arch).run(build(), drain).time_us`` exactly, and a
  second sighting builds and runs nothing;
* whole functional models give the same numbers, field for field, with
  the memo replaced by a fresh run on every call.
"""

import dataclasses

import pytest

from repro.arch.registry import ALL_ARCH_NAMES, get_arch, iter_arches
from repro.ipc.lrpc import LRPCBinding
from repro.ipc.rpc import NULL_RPC_BYTES, RPCChannel, RPCEndpoint
from repro.isa.executor import Executor
from repro.kernel.handlers import handler_program
from repro.kernel.interrupts import ClockSource, InterruptController
from repro.kernel.primitives import Primitive
from repro.kernel.system import SimulatedMachine
from repro.threads.user import UserThreadPackage
from repro.workloads.synapse import SynapseConfig, run_synapse

_memo_price_us = Executor.price_us
_interpret = Executor.run

#: the fixed programs of one RPC endpoint.
RPC_KEYS = {"stub_fixed", "checksum_fixed", "driver_send", "driver_recv",
            "scheduler"}


def _unbuildable():
    raise AssertionError("a memo hit must not build its program")


def _rerun_every_time(self, key, build, drain_write_buffer=False):
    return self.run(build(), drain_write_buffer).time_us


@pytest.fixture
def priced(monkeypatch):
    """Every ``(executor, key, build, drain, price)`` the memo returns."""
    calls = []

    def spy(self, key, build, drain_write_buffer=False):
        us = _memo_price_us(self, key, build, drain_write_buffer)
        calls.append((self, key, build, drain_write_buffer, us))
        return us

    monkeypatch.setattr(Executor, "price_us", spy)
    return calls


@pytest.fixture
def interpreter_runs(monkeypatch):
    """A one-element list counting :meth:`Executor.run` calls."""
    count = [0]

    def counting(self, program, drain_write_buffer=False):
        count[0] += 1
        return _interpret(self, program, drain_write_buffer)

    monkeypatch.setattr(Executor, "run", counting)
    return count


def _price_every_program(arch) -> set:
    """Price each functional-model program on ``arch``; returns the keys
    that must have been priced."""
    machine = SimulatedMachine(arch)
    for primitive in Primitive:
        machine.primitive_cost_us(primitive)
    expected = set(Primitive)

    package = UserThreadPackage(arch)
    package._window_trap_us()
    expected.add("cwp_trap")
    if arch.has_register_windows:
        for dirty in range(arch.windows.n_windows + 1):
            package._flush_us(dirty)
            expected.add(("window_flush", dirty))
        package._spill_us()
        package._fill_us()
        expected |= {"overflow_spill", "underflow_fill"}

    binding = LRPCBinding(SimulatedMachine(arch))
    binding._stub_us()
    binding._copy_args_us()
    expected |= {"lrpc_stub", "lrpc_copy"}

    endpoint = RPCEndpoint(SimulatedMachine(arch))
    endpoint.send_side_us(NULL_RPC_BYTES)
    endpoint.receive_side_us(NULL_RPC_BYTES)
    expected |= RPC_KEYS

    controller = InterruptController(SimulatedMachine(arch))
    controller.register("disk", level=3, handler_ops=80)
    controller.raise_interrupt("disk")
    expected.add("disk")
    return expected


@pytest.mark.parametrize("arch", list(iter_arches()), ids=lambda a: a.name)
def test_every_price_is_one_fresh_interpreter_run(arch, priced,
                                                  interpreter_runs):
    expected = _price_every_program(arch)
    assert expected <= {key for _, key, _, _, _ in priced}
    runs = interpreter_runs[0]
    for executor, key, _, drain, us in priced:
        assert _memo_price_us(executor, key, _unbuildable, drain) == us
    assert interpreter_runs[0] == runs
    for executor, key, build, drain, us in priced:
        if isinstance(key, Primitive):
            assert drain is key.drains_write_buffer
        fresh = Executor(executor.arch).run(build(), drain_write_buffer=drain)
        assert us == fresh.time_us, key


def test_each_executor_keeps_its_own_prices(interpreter_runs):
    arch = get_arch("sparc")

    def trap():
        return handler_program(arch, Primitive.TRAP)

    first, second = Executor(arch), Executor(arch)
    before = interpreter_runs[0]
    assert first.price_us(Primitive.TRAP, trap, True) == \
        second.price_us(Primitive.TRAP, trap, True)
    assert interpreter_runs[0] == before + 2


# ----------------------------------------------------------------------
# whole models: memoized vs re-run on every call
# ----------------------------------------------------------------------

def _memoized_and_rerun(monkeypatch, model):
    memoized = model()
    with monkeypatch.context() as patch:
        patch.setattr(Executor, "price_us", _rerun_every_time)
        rerun = model()
    return memoized, rerun


@pytest.mark.parametrize("calls_per_event", (6, 9, 12))
@pytest.mark.parametrize("name", ALL_ARCH_NAMES)
def test_synapse_is_unchanged_by_the_memo(monkeypatch, name, calls_per_event):
    arch = get_arch(name)
    config = SynapseConfig(calls_per_event=calls_per_event)
    memoized, rerun = _memoized_and_rerun(
        monkeypatch, lambda: run_synapse(arch, config))
    assert dataclasses.asdict(memoized) == dataclasses.asdict(rerun)


def test_lrpc_steady_state_call_is_unchanged_by_the_memo(monkeypatch):
    memoized, rerun = _memoized_and_rerun(
        monkeypatch, lambda: LRPCBinding().steady_state_call().components_us)
    assert memoized == rerun


def test_rpc_round_trip_is_unchanged_by_the_memo(monkeypatch):
    memoized, rerun = _memoized_and_rerun(
        monkeypatch, lambda: RPCChannel().null_call().components_us)
    assert memoized == rerun


@pytest.mark.parametrize("name", ALL_ARCH_NAMES)
def test_interrupt_stats_are_unchanged_by_the_memo(monkeypatch, name):
    def clock_run():
        machine = SimulatedMachine(get_arch(name))
        controller = InterruptController(machine)
        ClockSource(controller, hz=1000.0).run_until(50_000.0)
        return dataclasses.asdict(controller.stats), machine.clock_us

    memoized, rerun = _memoized_and_rerun(monkeypatch, clock_run)
    assert memoized[0]["delivered"] == 50
    assert memoized == rerun
