"""Engine-lineage integration: recording, staleness, legacy adoption.

The contract under test: every cold execution persists its lineage
chain inside the cache entry's envelope block, from which
``load_graph`` re-derives the full spec → mdesc → program → execution
ancestry on load (the ``lineage.jsonl`` sidecar holds only roots the
entries cannot describe themselves); a cached entry whose recorded
ancestry disagrees with freshly computed fingerprints is stale —
detected by graph reachability, counted, evicted *alone* and
re-executed, with no global schema bump and no collateral
invalidation; a pre-provenance entry is served but explicitly recorded
as unknown-lineage, never silently trusted and never a crash.
"""

import json
import os

from repro import obs
from repro.arch.registry import get_arch
from repro.core.engine import (
    CACHE_SCHEMA_VERSION,
    ExperimentEngine,
    experiment_key,
    result_to_dict,
)
from repro.isa.program import ProgramBuilder
from repro.obs.metrics import REGISTRY
from repro.provenance import (
    PROVENANCE,
    UNKNOWN_KIND,
    set_provenance_enabled,
)


def build_program(name="prog", alus=3):
    b = ProgramBuilder(name)
    with b.phase("entry"):
        b.trap_entry()
    with b.phase("body"):
        b.alu(alus)
        b.stores(1, page=1)
    with b.phase("exit"):
        b.rfe()
    return b.build()


def entry_path(cache_dir, spec, program, drain=False):
    # entries land in the sharded objects/<prefix>/ layout (repro.store)
    key = experiment_key(spec, program, drain)
    return os.path.join(cache_dir, "objects", key[:2], f"{key}.json")


def load_entry(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_entry(path, entry):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entry, fh)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------

def test_cold_run_persists_lineage_chain(tmp_path):
    from repro.provenance.replay import load_graph

    cache = str(tmp_path / "cache")
    engine = ExperimentEngine(disk_cache_dir=cache)
    spec = get_arch("cvax")
    program = build_program()
    engine.run(spec, program)

    # the chain is durable in the cache entry's envelope block...
    entry = load_entry(entry_path(cache, spec, program))
    block = entry["value"]["lineage"]
    assert block["arch"] == "cvax"
    assert block["key"] == experiment_key(spec, program, False)
    assert block["schema"] == CACHE_SCHEMA_VERSION
    # ...and the sidecar does not duplicate it: the engine writes no
    # chain records there (the envelope is the source of truth)
    assert not os.path.exists(os.path.join(cache, "lineage.jsonl"))

    # a fresh process re-derives the full chain from the entry alone
    graph = load_graph(cache_dirs=(cache,))
    kinds = sorted(r.kind for r in graph.records())
    assert kinds == ["execution", "mdesc", "program", "spec"]
    execution = next(r for r in graph.records() if r.kind == "execution")
    assert execution.digest == block["key"]
    assert len(execution.inputs) == 3
    assert execution.engine_path in ("compiled", "interpreted")
    assert execution.result_digest


def test_cache_hit_records_in_process_only(tmp_path):
    cache = str(tmp_path / "cache")
    spec = get_arch("cvax")
    program = build_program()
    ExperimentEngine(disk_cache_dir=cache).run(spec, program)

    engine = ExperimentEngine(disk_cache_dir=cache)
    with PROVENANCE.collect() as records:
        engine.run(spec, program)
    assert engine.hits == 1
    # the hit re-records the chain for scopes, but nothing is persisted
    # to the sidecar (the envelope already holds the chain)
    assert {r.kind for r in records} >= {"spec", "mdesc", "program",
                                         "execution"}
    assert not os.path.exists(os.path.join(cache, "lineage.jsonl"))


def test_hit_delivers_lineage_only_to_an_active_scope(monkeypatch):
    from repro.core.tracing import TraceConfig

    calls = []
    for name in ("_record_execution", "_record_replay"):
        original = getattr(ExperimentEngine, name)

        def spy(self, *args, _name=name, _original=original):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(ExperimentEngine, name, spy)
    spec = get_arch("cvax")
    program = build_program()
    config = TraceConfig(references=997)
    engine = ExperimentEngine()
    engine.run(spec, program)
    engine.replay(spec.tlb, config)

    calls.clear()
    engine.run(spec, program)
    engine.replay(spec.tlb, config)
    assert engine.hits == 2
    assert calls == []  # no scope is collecting: nothing to deliver to

    with PROVENANCE.collect() as records:
        engine.run(spec, program)
        engine.replay(spec.tlb, config)
    assert calls == ["_record_execution", "_record_replay"]
    assert [r.kind for r in records] == [
        "spec", "mdesc", "program", "execution", "tlb", "replay"]
    assert records[3].digest == experiment_key(spec, program, False)


# ----------------------------------------------------------------------
# seeded staleness: exact-reachability invalidation, this key only
# ----------------------------------------------------------------------

def test_mutated_mdesc_fingerprint_is_stale_and_heals(tmp_path):
    cache = str(tmp_path / "cache")
    spec = get_arch("cvax")
    poisoned = build_program("poisoned")
    innocent = build_program("innocent", alus=7)
    first = ExperimentEngine(disk_cache_dir=cache)
    expected = result_to_dict(first.run(spec, poisoned))
    first.run(spec, innocent)

    path = entry_path(cache, spec, poisoned)
    entry = load_entry(path)
    entry["value"]["lineage"]["mdesc_fp"] = "0" * 64
    dump_entry(path, entry)
    innocent_bytes = open(entry_path(cache, spec, innocent), "rb").read()

    engine = ExperimentEngine(disk_cache_dir=cache)
    with obs.capture(enable_spans=False):
        result = engine.run(spec, poisoned)
        stale = REGISTRY.counter("provenance_stale_results_total")
        assert stale.value(arch="cvax", artifact="mdesc") == 1
    # detected, counted, re-executed — and bit-identical to the original
    assert engine.stale_results == 1
    assert engine.misses == 1 and engine.hits == 0
    assert result_to_dict(result) == expected
    # the envelope healed in place: correct fingerprint, same schema
    healed = load_entry(path)
    assert healed["value"]["lineage"]["mdesc_fp"] != "0" * 64
    assert healed["schema"] == CACHE_SCHEMA_VERSION

    # no collateral damage: the innocent entry was not flushed and
    # still serves as a plain hit
    assert open(entry_path(cache, spec, innocent), "rb").read() == innocent_bytes
    assert engine.run(spec, innocent) is not None
    assert engine.hits == 1 and engine.stale_results == 1


def test_staleness_check_is_skipped_when_disabled(tmp_path):
    cache = str(tmp_path / "cache")
    spec = get_arch("cvax")
    program = build_program()
    ExperimentEngine(disk_cache_dir=cache).run(spec, program)
    path = entry_path(cache, spec, program)
    entry = load_entry(path)
    entry["value"]["lineage"]["mdesc_fp"] = "0" * 64
    dump_entry(path, entry)

    set_provenance_enabled(False)
    try:
        engine = ExperimentEngine(disk_cache_dir=cache)
        engine.run(spec, program)
        assert engine.hits == 1 and engine.stale_results == 0
    finally:
        set_provenance_enabled(True)


# ----------------------------------------------------------------------
# pre-provenance entries: explicit unknown-lineage, never silent trust
# ----------------------------------------------------------------------

def test_legacy_bare_payload_served_as_unknown_lineage(tmp_path):
    cache = str(tmp_path / "cache")
    spec = get_arch("cvax")
    program = build_program()
    engine = ExperimentEngine(disk_cache_dir=cache)
    expected = result_to_dict(engine.run(spec, program))

    # rewrite the entry the way a pre-provenance engine stored it:
    # the payload directly, no envelope, no lineage block
    path = entry_path(cache, spec, program)
    dump_entry(path, {"schema": CACHE_SCHEMA_VERSION, "value": expected})

    fresh = ExperimentEngine(disk_cache_dir=cache)
    with obs.capture(enable_spans=False):
        with PROVENANCE.collect() as records:
            result = fresh.run(spec, program)
        unknown = REGISTRY.counter("provenance_unknown_lineage_total")
        assert unknown.value(layer="engine") == 1
    # the value is served (hit, not a crash, not a re-execution)...
    assert fresh.hits == 1 and fresh.misses == 0
    assert result_to_dict(result) == expected
    assert fresh.unknown_lineage == 1
    # ...but explicitly marked: an unknown-lineage record for this key
    marks = [r for r in records if r.kind == UNKNOWN_KIND]
    assert len(marks) == 1
    assert marks[0].digest == experiment_key(spec, program, False)
    assert marks[0].meta["layer"] == "engine-cache"


def test_lineage_verify_flags_pre_provenance_cache(tmp_path, capsys):
    from repro.cli import main

    cache = str(tmp_path / "cache")
    spec = get_arch("cvax")
    program = build_program()
    ExperimentEngine(disk_cache_dir=cache).run(spec, program)
    # strip the envelope from the one entry: the directory now looks
    # exactly like a pre-provenance cache (no sidecar is ever written
    # for engine chains, so nothing else needs removing)
    path = entry_path(cache, spec, program)
    entry = load_entry(path)
    dump_entry(path, {"schema": CACHE_SCHEMA_VERSION,
                      "value": entry["value"]["value"]})

    status = main(["lineage", "verify", "--cache-dir", cache])
    out = capsys.readouterr().out
    assert "unknown" in out
    assert status == 0  # flagged, not fatal: nothing is provably stale


def test_lineage_verify_exits_nonzero_on_corrupt_digest(tmp_path, capsys):
    from repro.cli import main

    cache = str(tmp_path / "cache")
    spec = get_arch("cvax")
    program = build_program()
    ExperimentEngine(disk_cache_dir=cache).run(spec, program)
    path = entry_path(cache, spec, program)
    entry = load_entry(path)
    entry["value"]["lineage"]["mdesc_fp"] = "0" * 64
    dump_entry(path, entry)

    status = main(["lineage", "verify", "--cache-dir", cache])
    out = capsys.readouterr().out
    assert status == 1
    assert "stale" in out
    # the stale result is named by its full key
    assert experiment_key(spec, program, False) in out


# ----------------------------------------------------------------------
# per-key eviction
# ----------------------------------------------------------------------

def test_evict_drops_exactly_one_key(tmp_path):
    cache = str(tmp_path / "cache")
    spec = get_arch("cvax")
    a, b = build_program("a"), build_program("b", alus=9)
    engine = ExperimentEngine(disk_cache_dir=cache)
    engine.run(spec, a)
    engine.run(spec, b)
    key_a = experiment_key(spec, a, False)
    engine._evict(key_a)
    assert not os.path.exists(entry_path(cache, spec, a))
    assert os.path.exists(entry_path(cache, spec, b))
    engine.run(spec, a)
    assert engine.misses == 3  # a, b, then a again post-evict
