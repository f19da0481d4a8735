"""Experiment-engine tests: content addressing, memoization, caching.

The contract under test: a cached result is indistinguishable from a
fresh execution (property-based over generated programs), any change to
the cost model or the instruction stream changes the key, and the
caches themselves (LRU bound, disk round-trip, aliasing safety) behave.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.registry import get_arch
from repro.core.engine import (
    ExperimentEngine,
    LRUCache,
    experiment_key,
    fingerprint_program,
    fingerprint_spec,
    result_from_dict,
    result_to_dict,
    run_cached,
)
from repro.core.tracing import TraceConfig, replay_trace
from repro.isa.executor import Executor
from repro.isa.program import Program, ProgramBuilder


def build_program(alus=4, stores=2, loads=1, name="prog"):
    b = ProgramBuilder(name)
    with b.phase("entry"):
        b.trap_entry()
    with b.phase("body"):
        b.alu(alus)
        b.stores(stores, page=1)
        b.loads(loads)
    with b.phase("exit"):
        b.rfe()
    return b.build()


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------

def test_spec_fingerprint_stable_and_sensitive():
    sparc = get_arch("sparc")
    assert fingerprint_spec(sparc) == fingerprint_spec(sparc)
    # rebuilding an identical spec reproduces the fingerprint
    from repro.arch import sparc as sparc_mod

    assert fingerprint_spec(sparc_mod.build()) == fingerprint_spec(sparc)
    # any cost-model knob change misses
    variant = sparc.with_overrides(
        cost=dataclasses.replace(sparc.cost, trap_entry_cycles=sparc.cost.trap_entry_cycles + 1)
    )
    assert fingerprint_spec(variant) != fingerprint_spec(sparc)
    # non-cost mechanism changes miss too
    assert fingerprint_spec(sparc.with_overrides(clock_mhz=99.0)) != fingerprint_spec(sparc)


def test_program_fingerprint_ignores_comments_only():
    base = build_program()
    relabeled = Program(
        name=base.name,
        instructions=tuple(
            dataclasses.replace(inst, comment="different") for inst in base.instructions
        ),
    )
    assert fingerprint_program(relabeled) == fingerprint_program(base)
    mutated = Program(
        name=base.name,
        instructions=base.instructions[:-1]
        + (dataclasses.replace(base.instructions[-1], extra_cycles=7),),
    )
    assert fingerprint_program(mutated) != fingerprint_program(base)


def test_experiment_key_separates_drain_flag():
    arch = get_arch("r3000")
    program = build_program()
    assert experiment_key(arch, program, False) != experiment_key(arch, program, True)


# ----------------------------------------------------------------------
# memoized execution
# ----------------------------------------------------------------------

def test_cached_run_equals_direct_execution():
    engine = ExperimentEngine()
    arch = get_arch("r2000")
    program = build_program()
    direct = Executor(arch).run(program, drain_write_buffer=True)
    first = engine.run(arch, program, drain_write_buffer=True)
    second = engine.run(arch, program, drain_write_buffer=True)
    assert first == direct
    assert second == direct
    assert engine.misses == 1 and engine.hits == 1


def test_cached_result_is_a_private_copy():
    engine = ExperimentEngine()
    arch = get_arch("r2000")
    program = build_program()
    first = engine.run(arch, program)
    first.cycles = -1.0
    first.by_phase["body"].cycles = -1.0
    again = engine.run(arch, program)
    assert again.cycles > 0
    assert again.by_phase["body"].cycles > 0


def test_mutated_cost_model_misses_the_cache():
    engine = ExperimentEngine()
    arch = get_arch("r2000")
    program = build_program()
    engine.run(arch, program)
    variant = arch.with_overrides(
        cost=dataclasses.replace(arch.cost, load_extra_cycles=arch.cost.load_extra_cycles + 3)
    )
    engine.run(variant, program)
    assert engine.misses == 2 and engine.hits == 0


@settings(deadline=None, max_examples=30)
@given(
    alus=st.integers(min_value=0, max_value=30),
    stores=st.integers(min_value=0, max_value=12),
    loads=st.integers(min_value=0, max_value=12),
    drain=st.booleans(),
    arch_name=st.sampled_from(["cvax", "r2000", "r3000", "sparc", "m88000"]),
)
def test_property_cached_run_matches_fresh_executor(alus, stores, loads, drain, arch_name):
    arch = get_arch(arch_name)
    program = build_program(alus=alus, stores=stores, loads=loads)
    engine = ExperimentEngine()
    cached = engine.run(arch, program, drain_write_buffer=drain)
    rehit = engine.run(arch, program, drain_write_buffer=drain)
    fresh = Executor(arch).run(program, drain_write_buffer=drain)
    assert cached == fresh
    assert rehit == fresh
    # equal content built independently lands on the same key
    assert experiment_key(arch, build_program(alus=alus, stores=stores, loads=loads), drain) \
        == experiment_key(arch, program, drain)


# ----------------------------------------------------------------------
# memoized replay
# ----------------------------------------------------------------------

def test_engine_replay_matches_scalar_and_caches():
    engine = ExperimentEngine()
    tlb = get_arch("r3000").tlb
    config = TraceConfig(references=20_000)
    first = engine.replay(tlb, config)
    assert first == replay_trace(tlb, config)
    second = engine.replay(tlb, config)
    assert second == first
    assert engine.hits == 1
    # a different TLB organization is a different experiment (cache miss)
    other = dataclasses.replace(tlb, entries=tlb.entries * 2)
    engine.replay(other, config)
    assert engine.misses == 2


# ----------------------------------------------------------------------
# cache mechanics
# ----------------------------------------------------------------------

def test_lru_cache_evicts_least_recently_used():
    lru = LRUCache(maxsize=2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1  # refresh a
    lru.put("c", 3)  # evicts b
    assert lru.get("b") is None
    assert lru.get("a") == 1 and lru.get("c") == 3
    with pytest.raises(ValueError):
        LRUCache(maxsize=0)


def test_engine_disk_cache_shared_between_engines(tmp_path):
    arch = get_arch("sparc")
    program = build_program()
    writer = ExperimentEngine(disk_cache_dir=str(tmp_path))
    direct = writer.run(arch, program)
    reader = ExperimentEngine(disk_cache_dir=str(tmp_path))
    assert reader.run(arch, program) == direct
    assert reader.hits == 1 and reader.misses == 0


def test_result_serialization_round_trip():
    result = Executor(get_arch("m88000")).run(build_program(), drain_write_buffer=True)
    assert result_from_dict(result_to_dict(result)) == result


def test_memo_api_and_clear():
    engine = ExperimentEngine()
    calls = []

    def compute():
        calls.append(1)
        return {"value": 42}

    assert engine.memo(("k", 1), compute)["value"] == 42
    assert engine.memo(("k", 1), compute)["value"] == 42
    assert len(calls) == 1
    found, value = engine.memo_get(("k", 1))
    assert found and value["value"] == 42
    assert engine.memo_get(("k", 2)) == (False, None)
    engine.clear()
    assert engine.memo_get(("k", 1)) == (False, None)
    assert engine.cached_experiments == 0


def test_run_cached_uses_the_default_engine():
    from repro.core import engine as engine_mod

    private = ExperimentEngine()
    engine_mod.set_default_engine(private)
    try:
        arch = get_arch("r3000")
        program = build_program()
        run_cached(arch, program)
        run_cached(arch, program)
        assert private.hits == 1 and private.misses == 1
    finally:
        engine_mod.set_default_engine(None)
