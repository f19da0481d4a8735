"""Unit contracts for the unified store: tiers, layout, promotion.

Single-process coverage of :mod:`repro.store` (the two-process
guarantees live in ``test_store_singleflight.py``): sharded layout and
legacy fallback, atomic writes that never leave temp files, quarantine
on torn entries, read-through/write-back promotion with per-tier
counters, and the temp-file hygiene regression (a failed write —
OSError *or* serialization error — leaves nothing behind).
"""

import glob
import json
import os

import pytest

from repro import obs
from repro.store import (
    DiskTier,
    MemoryTier,
    StoreStack,
    iter_entry_paths,
    preregister_store_metrics,
)
from repro.store.tiers import LRUCache

KEY = "ab" + "c" * 62
OTHER = "cd" + "e" * 62


def no_tmp_files(root):
    return not [p for p in glob.glob(os.path.join(root, "**", "*.tmp.*"),
                                     recursive=True)
                if os.path.basename(p) != "store.manifest"]


# ----------------------------------------------------------------------
# disk tier layout
# ----------------------------------------------------------------------

def test_disk_tier_shards_by_digest_prefix(tmp_path):
    tier = DiskTier(str(tmp_path), schema=1)
    tier.put(KEY, {"v": 1})
    assert os.path.exists(
        os.path.join(str(tmp_path), "objects", "ab", f"{KEY}.json"))
    assert tier.get(KEY) == {"v": 1}
    # the manifest marks the layout, and is not an entry
    assert os.path.exists(os.path.join(str(tmp_path), "store.manifest"))
    assert list(tier.keys()) == [KEY]


def test_disk_tier_entry_bytes_match_legacy_disk_cache(tmp_path):
    """The sharded entry is byte-identical to what the engine's flat-era
    disk cache wrote (default ``json.dumps`` of the schema envelope) —
    lineage envelopes survive the refactor."""
    from repro.core.engine import CACHE_SCHEMA_VERSION

    value = {"value": {"cycles": 7}, "lineage": {"key": KEY, "spec_fp": "s"}}
    DiskTier(str(tmp_path), schema=CACHE_SCHEMA_VERSION).put(KEY, value)
    sharded = (tmp_path / "objects" / "ab" / f"{KEY}.json").read_bytes()
    flat = json.dumps({"schema": CACHE_SCHEMA_VERSION, "value": value})
    assert sharded == flat.encode("utf-8")


def test_disk_tier_reads_flat_legacy_entries(tmp_path):
    with open(tmp_path / f"{KEY}.json", "w") as fh:
        json.dump({"schema": 1, "value": {"legacy": True}}, fh)
    tier = DiskTier(str(tmp_path), schema=1)
    assert tier.get(KEY) == {"legacy": True}
    # a new write lands sharded; the sharded slot then wins
    tier.put(KEY, {"legacy": False})
    assert tier.get(KEY) == {"legacy": False}
    tier.delete(KEY)  # clears both slots
    assert tier.get(KEY) is None
    assert not os.path.exists(tmp_path / f"{KEY}.json")


def test_disk_tier_foreign_schema_is_a_miss_not_quarantine(tmp_path):
    tier = DiskTier(str(tmp_path), schema=2)
    DiskTier(str(tmp_path), schema=1).put(KEY, {"v": 1})
    assert tier.get(KEY) is None
    # the entry is intact — a future schema-2 writer just replaces it
    assert os.path.exists(tier.path(KEY))
    assert not os.path.isdir(tmp_path / "quarantine")


def test_disk_tier_quarantines_torn_entries(tmp_path):
    tier = DiskTier(str(tmp_path), schema=1)
    tier.put(KEY, {"v": 1})
    with open(tier.path(KEY), "w") as fh:
        fh.write('{"schema": 1, "value": {"torn')
    assert tier.get(KEY) is None
    assert not os.path.exists(tier.path(KEY))
    assert os.path.exists(
        os.path.join(str(tmp_path), "quarantine", f"{KEY}.json"))
    # quarantined entries are invisible to enumeration
    assert list(tier.keys()) == []


def test_disk_tier_write_failure_leaves_no_temp_file(tmp_path, monkeypatch):
    tier = DiskTier(str(tmp_path), schema=1)
    monkeypatch.setattr(os, "replace", _raise_oserror)
    tier.put(KEY, {"v": 1})  # swallowed, counted
    assert no_tmp_files(str(tmp_path))
    assert tier.get(KEY) is None


def test_disk_tier_serialization_failure_leaves_no_temp_file(tmp_path):
    tier = DiskTier(str(tmp_path), schema=1)
    with pytest.raises(TypeError):
        tier.put(KEY, {"bad": object()})
    assert no_tmp_files(str(tmp_path))


def _raise_oserror(*_args, **_kwargs):
    raise OSError("disk full")


# ----------------------------------------------------------------------
# stack composition
# ----------------------------------------------------------------------

def test_stack_read_through_promotes_disk_hits(tmp_path):
    obs.enable_metrics()
    try:
        obs.REGISTRY.clear()
        preregister_store_metrics()
        disk = DiskTier(str(tmp_path), schema=1)
        disk.put(KEY, {"v": 1})
        stack = StoreStack(memory=MemoryTier(4), disk=disk, locking=False)

        assert stack.get(KEY) == {"v": 1}          # disk hit, promoted
        assert KEY in stack.memory
        assert stack.get(KEY) == {"v": 1}          # now a memory hit
        assert stack.get(OTHER) is None            # full miss

        hits = obs.REGISTRY.get("store_hit_total")
        assert hits.value(tier="disk") == 1
        assert hits.value(tier="memory") == 1
        assert obs.REGISTRY.get("store_promote_total").value() == 1
        assert obs.REGISTRY.get("store_miss_total").value() == 1
    finally:
        obs.disable_metrics()
        obs.REGISTRY.clear()


def test_stack_write_back_and_delete_cover_both_tiers(tmp_path):
    disk = DiskTier(str(tmp_path), schema=1)
    stack = StoreStack(memory=MemoryTier(4), disk=disk, locking=False)
    stack.put(KEY, {"v": 2})
    assert disk.get(KEY) == {"v": 2}
    stack.delete(KEY)
    assert stack.get(KEY) is None
    assert disk.get(KEY) is None


def test_stack_memory_only_still_works(tmp_path):
    stack = StoreStack(memory=MemoryTier(4), disk=None)
    assert stack.begin_flight(KEY) is None  # nothing to lock against
    stack.put(KEY, {"v": 3})
    assert stack.get(KEY) == {"v": 3}


def test_preregistered_metrics_appear_at_zero():
    obs.enable_metrics()
    try:
        obs.REGISTRY.clear()
        preregister_store_metrics()
        snapshot = obs.REGISTRY.snapshot()["metrics"]
        for name in ("store_hit_total", "store_miss_total",
                     "store_promote_total", "store_quarantined_total",
                     "store_gc_removed_total", "store_write_failed_total",
                     "store_lock_wait_seconds"):
            assert name in snapshot, name
        assert set(snapshot["store_hit_total"]["cells"]) == {
            "tier=disk", "tier=memory"}
        assert all(v == 0 for v in
                   snapshot["store_hit_total"]["cells"].values())
    finally:
        obs.disable_metrics()
        obs.REGISTRY.clear()


# ----------------------------------------------------------------------
# enumeration and re-exports
# ----------------------------------------------------------------------

def test_iter_entry_paths_covers_both_layouts_once(tmp_path):
    tier = DiskTier(str(tmp_path), schema=1)
    tier.put(KEY, {"v": 1})
    with open(tmp_path / f"{OTHER}.json", "w") as fh:
        json.dump({"schema": 1, "value": {}}, fh)
    # a flat duplicate of a sharded key is shadowed, not double-counted
    with open(tmp_path / f"{KEY}.json", "w") as fh:
        json.dump({"schema": 1, "value": {"stale": True}}, fh)
    entries = dict(iter_entry_paths(str(tmp_path)))
    assert set(entries) == {KEY, OTHER}
    assert "objects" in entries[KEY]


def test_engine_lru_is_the_store_lru():
    """The engine re-exports the LRU that moved into repro.store."""
    from repro.core.engine import LRUCache as EngineLRU

    assert EngineLRU is LRUCache
    assert issubclass(MemoryTier, LRUCache)


# ----------------------------------------------------------------------
# the engine over the tiers
# ----------------------------------------------------------------------

def test_engine_tier_phases_answer_identically(tmp_path):
    """Cold populate, disk rehydrate and memory steady give one answer.

    The cross-primitive matrix on two architectures: a fresh engine on
    an empty directory executes everything; a fresh engine on the warm
    directory serves every run from the disk tier; the same engine
    then serves every run from its memory tier.
    """
    from repro.arch import get_arch
    from repro.core.engine import ExperimentEngine, result_digest, result_to_dict
    from repro.kernel.handlers import handler_program
    from repro.kernel.primitives import Primitive

    jobs = [(get_arch(name), primitive)
            for name in ("r3000", "cvax") for primitive in Primitive]
    cache = str(tmp_path / "cache")

    def run_matrix(engine):
        return [result_digest(result_to_dict(
                    engine.run(arch, handler_program(arch, primitive))))
                for arch, primitive in jobs]

    cold = run_matrix(ExperimentEngine(disk_cache_dir=cache))
    engine = ExperimentEngine(disk_cache_dir=cache)
    with obs.capture(enable_spans=False) as window:
        rehydrated = run_matrix(engine)
    disk_hits = window.metrics()["metrics"]["store_hit_total"]["cells"]
    with obs.capture(enable_spans=False) as window:
        steady = run_matrix(engine)
    memory_hits = window.metrics()["metrics"]["store_hit_total"]["cells"]

    assert cold == rehydrated == steady
    assert disk_hits.get("tier=disk") == len(jobs)
    assert memory_hits.get("tier=memory") == len(jobs)
