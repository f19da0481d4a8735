"""Compiled-path parity against the golden streams, plus edge cases.

``tests/goldens/handler_streams.json`` pins the synthesized handler
streams instruction-by-instruction; here the same streams pin the
compiled executor.  Every golden stream is rehydrated and executed on
*every* registered ArchSpec through both executors — the goldens are
frozen inputs, so a lowering regression cannot hide behind a synthesis
change.  Capability-ablation specs (the ones the golden suite uses to
prove synthesis reads the description) then check the compiled path
tracks ablated streams too.

The edge-case section exercises the admissibility boundary: NOP
accounting, write-buffer drain, the observer-forced interpreter
fallback (counted on the engine), and unsupported constructs
(unknown opclass, fractional costs) that must fall back rather than
approximate.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.arch.registry import ALL_ARCH_NAMES, get_arch
from repro.core.engine import ExperimentEngine, result_to_dict
from repro.isa.compiled import (
    CompiledUnsupported,
    compile_program,
    run_compiled,
    try_compile,
)
from repro.isa.executor import run_on
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import Program
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive

GOLDEN_DIR = Path(__file__).parent / "goldens"

with (GOLDEN_DIR / "handler_streams.json").open() as fh:
    GOLDEN_STREAMS = json.load(fh)


def _rehydrate(payload) -> Program:
    return Program(
        name=payload["name"],
        instructions=tuple(
            Instruction(
                opclass=OpClass(value),
                phase=phase,
                mnemonic=mnemonic,
                extra_cycles=extra,
                mem_page=mem_page,
                uncached=uncached,
            )
            for value, phase, mnemonic, extra, mem_page, uncached
            in payload["instructions"]
        ),
    )


GOLDEN_CASES = [
    (family, primitive)
    for family in sorted(GOLDEN_STREAMS)
    for primitive in sorted(GOLDEN_STREAMS[family])
]


def _assert_parity(arch, program, drain):
    interpreted = run_on(arch, program, drain_write_buffer=drain)
    compiled = run_compiled(arch, program, drain_write_buffer=drain)
    assert result_to_dict(compiled) == result_to_dict(interpreted)
    return compiled, interpreted


@pytest.mark.parametrize("family,primitive", GOLDEN_CASES,
                         ids=[f"{f}-{p}" for f, p in GOLDEN_CASES])
def test_golden_streams_bit_identical_on_every_arch(family, primitive):
    """Each frozen golden stream × every registered spec × drain."""
    program = _rehydrate(GOLDEN_STREAMS[family][primitive])
    for name in ALL_ARCH_NAMES:
        arch = get_arch(name)
        for drain in (False, True):
            _assert_parity(arch, program, drain)


# --- capability ablations ---------------------------------------------------


def test_sparc_window_ablation_parity_and_delta():
    arch = get_arch("sparc")
    stripped = arch.with_overrides(windows=None)
    for primitive in (Primitive.CONTEXT_SWITCH, Primitive.TRAP):
        base, _ = _assert_parity(arch, handler_program(arch, primitive), True)
        ablated, _ = _assert_parity(
            stripped, handler_program(stripped, primitive), True)
        # the compiled path must *see* the ablation, not just not crash
        assert ablated.instructions != base.instructions


def test_m88000_precise_pipeline_ablation_parity():
    arch = get_arch("m88000")
    precise = arch.with_overrides(pipeline=replace(
        arch.pipeline, exposed=False, fpu_freeze_on_fault=False,
        state_registers=0))
    base, _ = _assert_parity(arch, handler_program(arch, Primitive.TRAP), True)
    ablated, _ = _assert_parity(
        precise, handler_program(precise, Primitive.TRAP), True)
    assert ablated.cycles < base.cycles


def test_i860_tagged_cache_ablation_parity():
    arch = get_arch("i860")
    tagged = arch.with_overrides(cache=replace(
        arch.cache, virtually_addressed=False))
    base, _ = _assert_parity(
        arch, handler_program(arch, Primitive.PTE_CHANGE), False)
    ablated, _ = _assert_parity(
        tagged, handler_program(tagged, Primitive.PTE_CHANGE), False)
    assert base.instructions == 559
    assert ablated.instructions < 100


# --- edge cases -------------------------------------------------------------


def _program(*instructions, name="edge"):
    return Program(name=name, instructions=tuple(instructions))


def test_nop_accounting_matches_interpreter():
    program = _program(
        Instruction(OpClass.ALU, "body"),
        Instruction(OpClass.NOP, "body"),
        Instruction(OpClass.NOP, "delay"),
        Instruction(OpClass.BRANCH, "delay"),
        Instruction(OpClass.NOP, "delay"),
    )
    arch = get_arch("r3000")
    compiled, interpreted = _assert_parity(arch, program, False)
    assert compiled.nop_instructions == 3
    assert compiled.nop_instructions == interpreted.nop_instructions
    assert compile_program(program).nop_instructions == 3


def test_trap_instruction_not_counted():
    """TRAP records charge entry cycles but count zero instructions."""
    program = _program(
        Instruction(OpClass.TRAP, "kernel_entry"),
        Instruction(OpClass.ALU, "body"),
    )
    arch = get_arch("r3000")
    compiled, _ = _assert_parity(arch, program, False)
    assert compiled.instructions == 1
    assert compiled.cycles == 1 + arch.cost.trap_entry_cycles


def test_write_buffer_drain_phase():
    """A trailing store burst leaves retire work; drain surfaces it."""
    arch = get_arch("sparc")  # depth 1, 16-cycle retires: drains are large
    stores = [Instruction(OpClass.STORE, "save_state", mem_page=i % 2)
              for i in range(4)]
    program = _program(*stores)
    undrained, _ = _assert_parity(arch, program, False)
    drained, _ = _assert_parity(arch, program, True)
    assert "write_buffer_drain" not in undrained.by_phase
    assert drained.by_phase["write_buffer_drain"].cycles > 0
    assert drained.cycles > undrained.cycles


def test_drain_is_zero_without_write_buffer():
    arch = get_arch("cvax")  # no write buffer
    program = _program(Instruction(OpClass.STORE, "body", mem_page=0))
    undrained, _ = _assert_parity(arch, program, False)
    drained, _ = _assert_parity(arch, program, True)
    assert drained.cycles == undrained.cycles
    assert "write_buffer_drain" not in drained.by_phase


def test_observer_forces_interpreter_fallback():
    """An active tracer needs the per-instruction walk; the engine must
    count the fallback rather than silently skip instrumentation."""
    from repro.obs import OBS_STATE, InMemorySink

    engine = ExperimentEngine()
    arch = get_arch("r3000")
    program = handler_program(arch, Primitive.NULL_SYSCALL)
    sink = InMemorySink()
    OBS_STATE.tracer.add_sink(sink)
    try:
        traced = engine.run(arch, program)
    finally:
        OBS_STATE.tracer.remove_sink(sink)
    assert engine.compiled_runs == 0
    assert engine.compiled_fallbacks == 1
    assert engine.last_fallback_reason == "observer"
    # the traced fallback execution is still the interpreter's answer
    assert result_to_dict(traced) == result_to_dict(run_on(arch, program))


def test_unknown_opclass_falls_back():
    """A construct outside the lowering envelope must reach the
    interpreter through the engine, with the reason recorded."""

    class FakeOpClass:
        name = "DMA"
        value = "dma"

    inst = Instruction(OpClass.ALU, "body")
    object.__setattr__(inst, "opclass", FakeOpClass())
    program = _program(inst, name="edge:dma")

    with pytest.raises(CompiledUnsupported) as excinfo:
        compile_program(program)
    assert excinfo.value.reason == "opclass"
    assert try_compile(program) is None  # failure is memoized, not retried

    engine = ExperimentEngine()
    arch = get_arch("m68k")
    result = engine.run(arch, program)
    assert engine.compiled_fallbacks == 1
    assert engine.last_fallback_reason == "opclass"
    assert result_to_dict(result) == result_to_dict(run_on(arch, program))


def test_fractional_cost_model_falls_back():
    arch = get_arch("r3000")
    fractional = arch.with_overrides(cost=replace(
        arch.cost,
        base_cycles={**arch.cost.base_cycles, OpClass.FP: 1.5}))
    program = _program(Instruction(OpClass.FP, "body"))
    engine = ExperimentEngine()
    result = engine.run(fractional, program)
    assert engine.compiled_fallbacks == 1
    assert engine.last_fallback_reason == "fractional_cost"
    assert result.cycles == run_on(fractional, program).cycles


def test_fractional_write_buffer_falls_back():
    arch = get_arch("r3000")
    fractional = arch.with_overrides(write_buffer=replace(
        arch.write_buffer, retire_cycles_other_page=2.5))
    program = _program(Instruction(OpClass.STORE, "body", mem_page=0))
    engine = ExperimentEngine()
    result = engine.run(fractional, program)
    assert engine.compiled_fallbacks == 1
    assert engine.last_fallback_reason == "fractional_write_buffer"
    assert result.cycles == run_on(fractional, program).cycles


def test_engine_compiled_toggle():
    """A cold admissible run takes the compiled path and is counted."""
    arch = get_arch("r3000")
    program = handler_program(arch, Primitive.NULL_SYSCALL)

    engine = ExperimentEngine()
    result = engine.run(arch, program)
    assert engine.compiled_runs == 1 and engine.compiled_fallbacks == 0
    assert result_to_dict(result) == result_to_dict(run_on(arch, program))


def test_artifact_shared_across_renamed_clones():
    """Lowering happens once per structure; renamed clones reuse it."""
    arch = get_arch("r3000")
    program = handler_program(arch, Primitive.NULL_SYSCALL)
    clone = program.renamed("r3000:null_syscall#clone")
    assert compile_program(program) is compile_program(clone)

