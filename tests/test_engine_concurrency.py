"""Concurrent-access regression tests for the experiment engine.

The serving layer shares one :class:`ExperimentEngine` across a worker
pool; these tests hammer the shared structures from real threads and
pin the thread-safety contract: results stay equal to a serial
reference, counters account for every call, the LRU never corrupts or
exceeds its bound, and a failed disk write is counted — never raised.
"""

import os
import threading
from concurrent.futures import ThreadPoolExecutor

from repro import obs
from repro.arch import get_arch
from repro.core.engine import (
    CACHE_SCHEMA_VERSION,
    ExperimentEngine,
    LRUCache,
    result_to_dict,
)
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive
from repro.store import DiskTier

ARCH_NAMES = ("cvax", "r2000", "r3000", "sparc", "i860", "m88000")


def hammer(fn, n_threads=8, n_iters=10):
    """Run fn(thread_index, iter_index) from n_threads threads at once."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def worker(tid):
        barrier.wait()
        try:
            for i in range(n_iters):
                fn(tid, i)
        except Exception as err:  # noqa: BLE001 - surfaced via the list
            errors.append(err)

    threads = [threading.Thread(target=worker, args=(tid,))
               for tid in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, f"worker thread raised: {errors[0]!r}"


def test_engine_run_same_key_from_many_threads_matches_serial():
    arch = get_arch("r3000")
    program = handler_program(arch, Primitive.TRAP)
    reference = ExperimentEngine().run(arch, program)
    engine = ExperimentEngine()
    results = []
    lock = threading.Lock()

    def body(tid, i):
        result = engine.run(arch, program)
        with lock:
            results.append(result)

    hammer(body, n_threads=8, n_iters=5)
    assert len(results) == 40
    reference_dict = result_to_dict(reference)
    assert all(result_to_dict(r) == reference_dict for r in results)
    # Every call is accounted as a hit or a miss; racing cold threads
    # may each miss, but nothing is lost or double-counted.
    assert engine.hits + engine.misses == 40
    assert engine.misses >= 1


def test_engine_run_distinct_keys_from_many_threads():
    engine = ExperimentEngine()
    serial = {
        name: result_to_dict(
            ExperimentEngine().run(get_arch(name),
                                   handler_program(get_arch(name),
                                                   Primitive.TRAP)))
        for name in ARCH_NAMES
    }

    def body(tid, i):
        name = ARCH_NAMES[(tid + i) % len(ARCH_NAMES)]
        arch = get_arch(name)
        result = engine.run(arch, handler_program(arch, Primitive.TRAP))
        assert result_to_dict(result) == serial[name]

    hammer(body, n_threads=6, n_iters=12)
    assert engine.hits + engine.misses == 72


def test_lru_cache_concurrent_put_get_stays_bounded():
    cache = LRUCache(maxsize=8)

    def body(tid, i):
        key = f"k{tid}-{i % 12}"
        cache.put(key, (tid, i))
        cache.get(key)
        cache.get(f"k{(tid + 1) % 4}-{i % 12}")
        assert len(cache) <= 8

    hammer(body, n_threads=4, n_iters=50)
    assert len(cache) <= 8
    for key in list(cache._data):  # survivors are intact pairs
        value = cache.get(key)
        assert isinstance(value, tuple) and len(value) == 2


def test_memo_concurrent_callers_observe_one_value():
    engine = ExperimentEngine()
    calls = []
    lock = threading.Lock()

    def compute():
        with lock:
            calls.append(1)
        return {"value": 42}

    with ThreadPoolExecutor(max_workers=8) as pool:
        outcomes = list(pool.map(
            lambda _: engine.memo(["concurrency", "shared"], compute),
            range(16)))
    # Racing cold callers may each compute, but setdefault guarantees
    # every caller observes the single stored value.
    first = outcomes[0]
    assert all(o is first for o in outcomes)
    assert first == {"value": 42}
    assert 1 <= len(calls) <= 16


def test_disk_cache_write_failure_is_counted_not_raised(tmp_path, monkeypatch):
    cache = DiskTier(str(tmp_path / "cache"), schema=CACHE_SCHEMA_VERSION)

    def broken_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", broken_replace)
    with obs.capture(enable_spans=False) as capture:
        cache.put("somekey", {"x": 1})  # must not raise
        window = capture.metrics()
    cells = window["metrics"]["store_write_failed_total"]["cells"]
    assert sum(cells.values()) == 1
    monkeypatch.undo()
    assert cache.get("somekey") is None  # nothing half-written
    assert not list((tmp_path / "cache").rglob("*.tmp*")), (
        "failed write left a temp file behind")


def test_disk_cache_concurrent_puts_same_key(tmp_path):
    cache = DiskTier(str(tmp_path / "cache"), schema=CACHE_SCHEMA_VERSION)

    def body(tid, i):
        cache.put("shared", {"payload": "identical"})
        got = cache.get("shared")
        assert got in (None, {"payload": "identical"})

    hammer(body, n_threads=6, n_iters=20)
    assert cache.get("shared") == {"payload": "identical"}


def test_default_engine_initialises_once_under_contention():
    from repro.core.engine import default_engine, set_default_engine

    set_default_engine(None)
    seen = []
    lock = threading.Lock()

    def body(tid, i):
        engine = default_engine()
        with lock:
            seen.append(engine)

    try:
        hammer(body, n_threads=8, n_iters=3)
    finally:
        set_default_engine(None)
    assert all(engine is seen[0] for engine in seen)
