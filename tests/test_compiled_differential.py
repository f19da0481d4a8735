"""Differential harness: the compiled executor vs the interpreter.

The compiled fast path (:mod:`repro.isa.compiled`) is only admissible
because it is **bit-identical** to :meth:`Executor.run` — not close,
not within epsilon.  This harness proves it two ways:

* a seeded random sweep over the mechanisms design space: ≥500 sampled
  ``(design point, primitive)`` pairs, each executed with the drain
  flag both ways, comparing total cycles, per-phase instruction and
  cycle counts, stall cycles, and the memory-word counts the lowering
  derived from the stream;
* property-based random programs (hypothesis): arbitrary opclass /
  phase / page / uncached / extra-cycle combinations on every
  registered architecture.

Any divergence is a bug in the compiled lowering or its write-buffer
recurrence, never an acceptable approximation.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.arch.registry import ALL_ARCH_NAMES, get_arch
from repro.core.engine import result_to_dict
from repro.explore.space import mechanisms_space
from repro.isa.compiled import compile_program, run_compiled
from repro.isa.executor import run_on
from repro.isa.instructions import Instruction, OpClass
from repro.isa.program import Program
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive

#: floor demanded by the harness contract: at least this many sampled
#: (point, primitive) pairs must be bit-identical.
MIN_SAMPLED_PAIRS = 500


def _assert_bit_identical(arch, program, drain: bool) -> None:
    interpreted = run_on(arch, program, drain_write_buffer=drain)
    compiled = run_compiled(arch, program, drain_write_buffer=drain)
    _assert_results_match(compiled, interpreted)
    _assert_word_counts(program)


def _assert_results_match(compiled, interpreted) -> None:

    # The full serialized result: every field, every phase, dict order.
    assert result_to_dict(compiled) == result_to_dict(interpreted)

    # Named spot checks so a failure pinpoints the broken quantity.
    assert compiled.cycles == interpreted.cycles
    assert compiled.stall_cycles == interpreted.stall_cycles
    assert compiled.instructions == interpreted.instructions
    assert compiled.nop_instructions == interpreted.nop_instructions
    assert list(compiled.by_phase) == list(interpreted.by_phase)
    for phase, cost in interpreted.by_phase.items():
        mirrored = compiled.by_phase[phase]
        assert mirrored.instructions == cost.instructions
        assert mirrored.cycles == cost.cycles
        assert mirrored.stall_cycles == cost.stall_cycles


def _assert_word_counts(program) -> None:
    # Memory-word counts: the lowering's store/load skeleton must match
    # the stream it claims to represent.
    artifact = compile_program(program)
    assert artifact.store_count == program.count(opclass=OpClass.STORE)
    load_words = program.count(opclass=OpClass.LOAD)
    lowered_loads = sum(
        count
        for row in artifact.phase_rows
        for key_id, count in row
        if _key_opclass(key_id) is OpClass.LOAD
    )
    assert lowered_loads == load_words


def _key_opclass(global_key_id: int) -> OpClass:
    from repro.isa.compiled import _KEYS

    return _KEYS[global_key_id][0]


def test_seeded_design_space_sweep_is_bit_identical():
    """≥500 sampled (point, primitive, drain) combinations."""
    space = mechanisms_space()
    points = [point for _, point in space.points()]
    combos = [
        (index, primitive, drain)
        for index in range(len(points))
        for primitive in Primitive
        for drain in (False, True)
    ]
    rng = random.Random(0xA51)
    sampled = rng.sample(combos, k=min(len(combos), 640))
    assert len(sampled) >= MIN_SAMPLED_PAIRS

    for index, primitive, drain in sampled:
        arch = space.materialize(points[index])
        program = handler_program(arch, primitive)
        _assert_bit_identical(arch, program, drain)


def test_registry_archs_all_primitives_bit_identical():
    """Every registered spec × every primitive × drain both ways."""
    for name in ALL_ARCH_NAMES:
        arch = get_arch(name)
        for primitive in Primitive:
            program = handler_program(arch, primitive)
            for drain in (False, True):
                _assert_bit_identical(arch, program, drain)


# --- property-based: arbitrary programs ------------------------------------

_PHASES = ("entry", "save_state", "call_prep", "body", "exit")

_INSTRUCTIONS = st.builds(
    Instruction,
    opclass=st.sampled_from(sorted(OpClass, key=lambda c: c.value)),
    phase=st.sampled_from(_PHASES),
    extra_cycles=st.integers(min_value=0, max_value=9),
    mem_page=st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
    uncached=st.booleans(),
)

_PROGRAMS = st.lists(_INSTRUCTIONS, min_size=0, max_size=60).map(
    lambda instructions: Program(name="hyp", instructions=tuple(instructions))
)


@settings(max_examples=120, deadline=None)
@given(
    program=_PROGRAMS,
    arch_name=st.sampled_from(ALL_ARCH_NAMES),
    drain=st.booleans(),
)
def test_random_programs_bit_identical(program, arch_name, drain):
    arch = get_arch(arch_name)
    interpreted = run_on(arch, program, drain_write_buffer=drain)
    compiled = run_compiled(arch, program, drain_write_buffer=drain)
    assert result_to_dict(compiled) == result_to_dict(interpreted)

