"""Content-addressed experiment engine: memoization, batching, fan-out.

Every analysis table and benchmark ultimately executes (architecture,
handler-program) pairs and replays synthetic reference traces.  Those
computations are pure functions of frozen descriptions, so the engine
treats them as *experiments* addressed by content:

* :func:`fingerprint_spec` / :func:`fingerprint_program` derive stable
  hashes from an :class:`~repro.arch.specs.ArchSpec` (the full cost
  model and mechanism inventory) and a
  :class:`~repro.isa.program.Program` instruction stream.  Any change
  to a cost knob or an emitted instruction changes the key; comments do
  not.
* :class:`ExperimentEngine` memoizes :class:`ExecutionResult`s and
  :class:`TraceStats` under those keys in a bounded in-memory LRU, with
  an optional on-disk JSON cache for cross-process reuse.  Cached
  results are rehydrated on every hit, so callers may mutate what they
  receive without corrupting the cache.
* :meth:`ExperimentEngine.replay` routes trace replays through the
  batched fast path (:func:`repro.core.tracing.replay_trace_batched`),
  which processes whole same-page bursts per TLB probe and is
  bit-identical to the scalar loop.
* :class:`SweepRunner` fans independent computations (the scenario
  engine's seeded replications) across ``jobs`` ``concurrent.futures``
  worker processes with deterministic result ordering, falling back to
  serial execution when no pool can start.

The module-level :func:`default_engine` is what the microbenchmark and
analysis layers use; tests build private engines.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import threading
import time
import weakref
from collections import OrderedDict
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    TypeVar,
)

from repro.arch.specs import ArchSpec, TLBSpec
from repro.isa.compiled import CompiledUnsupported, run_compiled
from repro.isa.executor import ExecutionResult, Executor, PhaseCost
from repro.isa.program import Program
from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.obs.spans import PhaseSpanObserver
from repro.store.tiers import (
    DiskTier,
    LRUCache as LRUCache,  # re-export: the LRU moved to repro.store
    MemoryTier,
    StoreStack,
)
from repro.provenance import (
    PROV_STATE as _PROV,
    PROVENANCE,
    UNKNOWN_KIND,
    LineageRecord,
    LineageStore,
    block_status,
    get_request_id,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.tracing import TraceConfig, TraceStats

T = TypeVar("T")
R = TypeVar("R")

#: bump when the execution semantics change in a way that invalidates
#: previously persisted results (schema version of the disk cache).
#: v2: experiment keys incorporate the derived machine description, so
#: capability-ablated specs address regenerated handler streams.
#: v3: programs are addressed by their *structural* fingerprint — the
#: name no longer splits the key, and rehydrated results are re-stamped
#: with the caller's program name.
CACHE_SCHEMA_VERSION = 3

#: process-wide default for routing cold executions through the
#: compiled fast path (:mod:`repro.isa.compiled`).  ``REPRO_COMPILED=0``
#: in the environment or ``--no-compiled`` on the CLI turns it off; the
#: interpreter remains the semantic oracle either way (traced runs and
#: unsupported constructs always fall back to it).
_COMPILED_ENABLED = os.environ.get(
    "REPRO_COMPILED", "1").strip().lower() not in ("0", "false", "no", "off")


def compiled_enabled() -> bool:
    """Whether engines without an explicit override use the compiled path."""
    return _COMPILED_ENABLED


def _code_version() -> str:
    """The package version stamped into lineage records (lazy import:
    ``repro/__init__`` imports the measurement layers, so a module-level
    import here would cycle)."""
    try:
        from repro import __version__

        return __version__
    except ImportError:  # pragma: no cover - partial-init edge
        return "unknown"


def set_compiled_enabled(on: bool) -> None:
    """Flip the process-wide compiled-path default (CLI / tests)."""
    global _COMPILED_ENABLED
    _COMPILED_ENABLED = bool(on)


# ----------------------------------------------------------------------
# content addressing
# ----------------------------------------------------------------------

def _canonical(value: Any) -> Any:
    """Reduce a spec tree to JSON-stable primitives, deterministically."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canonical(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, Mapping):
        return {str(_canonical(k)): _canonical(v) for k, v in sorted(
            value.items(), key=lambda item: str(item[0]))}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot canonicalize {type(value).__name__} for fingerprinting")


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def result_digest(payload: Mapping[str, Any]) -> str:
    """Content address of one execution result (lineage ``result_digest``).

    A fixed-schema serialization of the :func:`result_to_dict` payload:
    an order of magnitude cheaper than the generic JSON canonicalizer on
    the engine's cold path, and process-stable (``repr`` of ints and
    floats is shortest-roundtrip).  Record time and replay time must
    agree on this function, never on its output format history.
    """
    by_phase = payload.get("by_phase") or {}
    blob = "%s|%s|%r|%r|%r|%r|%r|%r" % (
        payload.get("program_name"), payload.get("arch_name"),
        payload.get("clock_mhz"), payload.get("instructions"),
        payload.get("cycles"), payload.get("stall_cycles"),
        payload.get("nop_instructions"), sorted(by_phase.items()),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: id -> (weakref guard, fingerprint).  ArchSpec is frozen but holds a
#: dict (unhashable), so the memo is keyed by object identity with a
#: weakref proving the identity still refers to the fingerprinted spec.
_SPEC_FP_CACHE: Dict[int, "tuple[weakref.ref, str]"] = {}


def fingerprint_spec(spec: ArchSpec) -> str:
    """Stable hash of a complete architecture description.

    Covers every cost-model knob and mechanism field: deriving a variant
    with :meth:`ArchSpec.with_overrides` always changes the fingerprint,
    while rebuilding an identical spec reproduces it.
    """
    entry = _SPEC_FP_CACHE.get(id(spec))
    if entry is not None and entry[0]() is spec:
        return entry[1]
    fp = _digest(_canonical(spec))
    if len(_SPEC_FP_CACHE) > 512:
        for key in [k for k, (ref, _) in _SPEC_FP_CACHE.items() if ref() is None]:
            del _SPEC_FP_CACHE[key]
    _SPEC_FP_CACHE[id(spec)] = (weakref.ref(spec), fp)
    return fp


def fingerprint_tlb_spec(spec: TLBSpec) -> str:
    """Stable hash of a TLB organization (trace-replay cache key)."""
    return _digest(_canonical(spec))


def fingerprint_stream(program: Program) -> str:
    """Stable hash of an instruction stream, ignoring the program name.

    Covers the fields that affect execution (opclass, phase, extra
    cycles, memory operand, cachedness); free-form comments are
    ignored.  Memoized on the program object, and carried across
    :meth:`~repro.isa.program.Program.renamed` clones — a handler
    re-labelled per architecture hashes its instructions exactly once.
    """
    fp = program.__dict__.get("_structural_fp")
    if fp is None:
        records = [
            (
                inst.opclass.name,
                inst.phase,
                inst.mnemonic,
                inst.extra_cycles,
                inst.mem_page,
                inst.uncached,
            )
            for inst in program.instructions
        ]
        fp = _digest(records)
        object.__setattr__(program, "_structural_fp", fp)
    return fp


def fingerprint_program(program: Program) -> str:
    """Stable hash of a named program: stream fingerprint plus name.

    Identical streams under identical names share a fingerprint no
    matter how they were built; comments never contribute.
    """
    fp = program.__dict__.get("_full_fp")
    if fp is None:
        fp = _digest([program.name, fingerprint_stream(program)])
        object.__setattr__(program, "_full_fp", fp)
    return fp


def experiment_key(spec: ArchSpec, program: Program, drain_write_buffer: bool) -> str:
    """Content address of one executor run.

    Besides the full spec fingerprint and the program's *structural*
    fingerprint (the name is presentation, not semantics: renamed
    copies of one stream share the cached result, re-stamped on
    rehydration), the key carries the spec's derived
    :class:`~repro.arch.mdesc.MachineDescription` fingerprint, making
    the structural-capability provenance of every cached result
    explicit: two specs that differ only in a capability (and therefore
    synthesize different handler streams) can never collide, even
    through a stale or hand-fed program argument.
    """
    from repro.arch.mdesc import description_for

    return _digest(
        [
            "run",
            CACHE_SCHEMA_VERSION,
            fingerprint_spec(spec),
            description_for(spec).fingerprint,
            fingerprint_stream(program),
            bool(drain_write_buffer),
        ]
    )


# ----------------------------------------------------------------------
# result (de)serialization — the disk-cache schema
# ----------------------------------------------------------------------

def result_to_dict(result: ExecutionResult) -> Dict[str, Any]:
    return {
        "program_name": result.program_name,
        "arch_name": result.arch_name,
        "clock_mhz": result.clock_mhz,
        "instructions": result.instructions,
        "cycles": result.cycles,
        "stall_cycles": result.stall_cycles,
        "nop_instructions": result.nop_instructions,
        "by_phase": {
            phase: [cost.instructions, cost.cycles, cost.stall_cycles]
            for phase, cost in result.by_phase.items()
        },
    }


def result_from_dict(payload: Mapping[str, Any]) -> ExecutionResult:
    return ExecutionResult(
        program_name=payload["program_name"],
        arch_name=payload["arch_name"],
        clock_mhz=payload["clock_mhz"],
        instructions=payload["instructions"],
        cycles=payload["cycles"],
        stall_cycles=payload["stall_cycles"],
        nop_instructions=payload["nop_instructions"],
        by_phase={
            phase: PhaseCost(instructions=ints, cycles=cyc, stall_cycles=stalls)
            for phase, (ints, cyc, stalls) in payload["by_phase"].items()
        },
    )


# ----------------------------------------------------------------------
# caches
# ----------------------------------------------------------------------

def _unwrap_envelope(stored: Any) -> "tuple[Any, Optional[Dict[str, Any]]]":
    """Split a cache entry into (result payload, lineage block).

    Provenance-era entries are ``{"value": payload, "lineage": block}``;
    anything else is a pre-provenance payload stored bare — returned
    as-is with no block, which the caller treats as ``unknown-lineage``
    (never a crash, never silent trust).
    """
    if isinstance(stored, Mapping) and "value" in stored:
        block = stored.get("lineage")
        return stored["value"], block if isinstance(block, Mapping) else None
    return stored, None


# ----------------------------------------------------------------------
# parallel sweeps
# ----------------------------------------------------------------------

def _metrics_task(fn: Callable[[Any], Any], item: Any) -> "tuple[Any, Dict[str, Any]]":
    """Worker-side wrapper: run ``fn(item)`` with obs metrics enabled and
    return (result, snapshot-diff of what the call recorded).

    The diff (not the raw snapshot) is shipped back, so a forked worker
    that inherited a non-empty parent registry never double-counts.
    Top-level by necessity: it must be picklable for the process pool.
    """
    from repro import obs

    obs.enable_metrics()
    before = obs.REGISTRY.snapshot()
    value = fn(item)
    return value, obs.snapshot_diff(before, obs.REGISTRY.snapshot())


class SweepRunner:
    """Deterministically-ordered fan-out over ``jobs`` worker processes.

    ``map(fn, items)`` behaves like ``[fn(item) for item in items]`` —
    results come back in item order regardless of completion order.
    With ``jobs > 1`` the calls run in a ``concurrent.futures`` process
    pool of ``min(jobs, len(items))`` workers (``fn`` and items must be
    picklable).  Where no pool can start (unpicklable work, no POSIX
    semaphores, fork refused) the map runs serially instead, so callers
    never need two code paths.  An exception raised by ``fn`` in a
    worker propagates; no item runs again.

    The scenario seed fan-out is the one multi-process user: a
    replication takes seconds, which pays for the pool.
    """

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        #: how the last ``map`` actually ran ("serial" | "parallel").
        self.last_mode = "serial"

    def map(self, fn: Callable[[T], R], items: Sequence[T],
            collect_metrics: bool = False) -> List[R]:
        """Apply ``fn`` to ``items`` in order (see class docstring).

        ``collect_metrics=True`` additionally aggregates obs metrics
        across the fan-out: pool workers run with metrics enabled and
        ship their registry snapshot-diffs back, which are merged into
        this process's registry — so ``obs.REGISTRY`` ends up with the
        same totals whether the sweep ran parallel or serial (where the
        work writes the registry directly).
        """
        items = list(items)
        self.last_mode = "serial"
        workers = min(self.jobs, len(items))
        if workers < 2:
            return [fn(item) for item in items]
        import concurrent.futures as cf
        import pickle

        task: Callable[[T], Any] = (
            functools.partial(_metrics_task, fn) if collect_metrics else fn)
        try:
            pickle.dumps((task, items))
            pool = cf.ProcessPoolExecutor(max_workers=workers)
            # submits every item, which starts the workers
            pending = pool.map(task, items)
        except Exception:
            # no pool could start here: unpicklable work, no POSIX
            # semaphores, or fork refused
            return [fn(item) for item in items]
        with pool:
            results = list(pending)
        self.last_mode = "parallel"
        if collect_metrics:
            from repro.obs import REGISTRY

            unwrapped: List[R] = []
            for value, snapshot in results:
                REGISTRY.merge(snapshot)
                unwrapped.append(value)
            return unwrapped
        return results


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------

#: (key, program, producing request-id, path, fallback, result-digest)
#: -> the four-record lineage chain.  Chains are pure functions of the
#: entry's lineage block, so every sighting of one entry — whichever
#: request it serves — reuses the same record objects, and the
#: recorder's identity fast path makes re-recording near-free.
_CHAIN_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()
_CHAIN_MEMO_CAPACITY = 4096
_CHAIN_MEMO_LOCK = threading.Lock()

#: cache key -> result digest.  Sound under the same determinism
#: assumption the result cache itself makes: within one process, equal
#: keys produce equal payloads, so the content hash is a pure function
#: of the key.  Replay verification never reads this memo — it always
#: recomputes :func:`result_digest` from the fresh payload.
#:
#: Reads on these memos are lock-free: a single ``dict.get`` is atomic
#: under the GIL, and a racing write can only make a reader miss (and
#: recompute a value that is a pure function of the key anyway).  The
#: lock guards writes, whose eviction loop is a multi-step mutation.
_RDIGEST_MEMO: "OrderedDict[str, str]" = OrderedDict()

#: (key, request-id, path, fallback) -> (envelope lineage block, the
#: recorded chain).  Everything else in the block is a pure function of
#: the key, so repeated cold runs of one experiment reuse one dict and
#: re-deliver the one chain — the steady-state cold run's recording
#: cost collapses to a dict probe plus a scope delivery.
_BLOCK_MEMO: "OrderedDict[tuple, tuple]" = OrderedDict()


def _memoized_result_digest(key: str, payload: Any,
                            fn: Any = None) -> str:
    digest = _RDIGEST_MEMO.get(key)
    if digest is None:
        digest = (fn or result_digest)(payload)
        with _CHAIN_MEMO_LOCK:
            _RDIGEST_MEMO[key] = digest
            while len(_RDIGEST_MEMO) > _CHAIN_MEMO_CAPACITY:
                _RDIGEST_MEMO.popitem(last=False)
    return digest


class ExperimentEngine:
    """Memoized execution of handler programs and trace replays.

    Thread-safe: the serving layer shares one engine across a worker
    pool, so cache state (LRU, memo table, hit/miss counters) is
    guarded by a lock.  Executions themselves run outside the lock —
    two threads racing on one cold key may both simulate, but they
    produce identical results (executions are pure functions of frozen
    descriptions) and the second store is a harmless overwrite; the
    cache is never corrupted and callers never block behind another
    thread's simulation.

    Parameters
    ----------
    cache_size:
        Bound on the in-memory LRU (distinct experiments, not bytes).
    disk_cache_dir:
        Optional directory for the persistent JSON cache.  Executor
        runs and trace replays are persisted; ad-hoc ``memo`` values
        are memory-only (their schema is caller-defined).
    compiled:
        ``True``/``False`` pins this engine to/away from the compiled
        fast path; ``None`` (default) follows the process-wide
        :func:`compiled_enabled` switch.
    """

    def __init__(self, cache_size: int = 4096, disk_cache_dir: Optional[str] = None,
                 compiled: Optional[bool] = None) -> None:
        #: the unified storage stack (repro.store): a private in-process
        #: memory tier over an optional sharded disk tier shared across
        #: processes.  ``_lru``/``_disk`` stay as direct tier handles.
        self._lru = MemoryTier(cache_size)
        self._disk = (
            DiskTier(disk_cache_dir, schema=CACHE_SCHEMA_VERSION)
            if disk_cache_dir else None)
        self._stack = StoreStack(memory=self._lru, disk=self._disk)
        #: lineage sidecar persisted with the disk cache: roots the
        #: cache entries cannot describe themselves (rendered tables,
        #: unknown-lineage marks) land in ``lineage.jsonl`` next to the
        #: entries they reference; per-run chains stay inside each
        #: entry's envelope block and are re-derived on load by
        #: ``adopt_disk_cache``, so ``repro lineage`` still sees the
        #: full graph when auditing the directory offline.
        self._lineage = (
            LineageStore(os.path.join(disk_cache_dir, "lineage.jsonl"))
            if disk_cache_dir else None)
        self._memo: Dict[str, Any] = {}
        #: keys whose lineage block this process wrote or already
        #: verified against freshly computed fingerprints.  A hit on a
        #: verified key skips re-verification: the key itself is derived
        #: from the current fingerprints, so in-process entries cannot
        #: silently go stale — staleness only enters through entries
        #: loaded from disk, which are verified on first sight.
        self._verified: "set[str]" = set()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        #: cache hits re-executed because lineage reachability showed
        #: the entry was derived from different artifacts than the key
        #: implies (per-key invalidation; nothing else is flushed).
        self.stale_results = 0
        #: cache hits served from pre-provenance entries (no lineage
        #: block): trusted for the value, flagged in the lineage graph.
        self.unknown_lineage = 0
        self.compiled = compiled
        #: cold lookups that found another process's flight in progress
        #: and blocked on its digest lock instead of re-executing.
        self.flight_waits = 0
        #: cold executions served by the compiled path.
        self.compiled_runs = 0
        #: cold executions that fell back to the interpreter while the
        #: compiled path was enabled (see :attr:`last_fallback_reason`).
        self.compiled_fallbacks = 0
        self.last_fallback_reason: Optional[str] = None

    def _compiled_active(self) -> bool:
        return self.compiled if self.compiled is not None else _COMPILED_ENABLED

    def _note_fallback(self, arch: ArchSpec, reason: str) -> None:
        with self._lock:
            self.compiled_fallbacks += 1
            self.last_fallback_reason = reason
        if _OBS.metrics_on:
            _METRICS.counter(
                "engine_compiled_fallbacks_total",
                "cold executions that fell back from the compiled path "
                "to the interpreter",
            ).inc(arch=arch.name, reason=reason)

    # -- executor runs --------------------------------------------------
    def run(
        self,
        arch: ArchSpec,
        program: Program,
        drain_write_buffer: bool = False,
    ) -> ExecutionResult:
        """Execute ``program`` on ``arch``, memoized by content.

        Identical (spec, program, drain) triples return equal results
        without re-simulating; each call gets a private copy.  With
        provenance enabled, every execution (fresh or cached) records a
        lineage chain (spec → mdesc → program → execution), and a
        cached entry whose recorded ancestry disagrees with the freshly
        computed fingerprints is *stale*: counted, evicted (this key
        only), and transparently re-executed.
        """
        from repro.arch.mdesc import description_for

        spec_fp = fingerprint_spec(arch)
        mdesc_fp = description_for(arch).fingerprint
        stream_fp = fingerprint_stream(program)
        key = _digest(["run", CACHE_SCHEMA_VERSION, spec_fp, mdesc_fp,
                       stream_fp, bool(drain_write_buffer)])
        stored = self._lookup(key)
        flight = None
        if stored is None:
            # Cold in this process: open the cross-process single-flight
            # so N workers racing on one digest produce exactly one
            # execution.  Losers block inside _begin_flight until the
            # winner publishes; the re-probe below then turns them into
            # plain cache hits (with the full lineage verification a
            # disk hit always gets).
            flight = self._begin_flight(key)
            if flight is not None:
                stored = self._lookup(key)
        try:
            return self._run_resolved(key, stored, arch, program,
                                      drain_write_buffer, spec_fp,
                                      mdesc_fp, stream_fp)
        finally:
            if flight is not None:
                flight.release()

    def _run_resolved(self, key: str, stored: Optional[Dict[str, Any]],
                      arch: ArchSpec, program: Program,
                      drain_write_buffer: bool, spec_fp: str,
                      mdesc_fp: str, stream_fp: str) -> ExecutionResult:
        """The :meth:`run` body proper, executed while holding any
        single-flight lock for ``key`` (released by the caller)."""
        payload: Optional[Dict[str, Any]] = None
        block: Optional[Dict[str, Any]] = None
        if stored is not None:
            payload, block = _unwrap_envelope(stored)
            if _PROV.enabled and key not in self._verified:
                status, artifact = block_status(block, {
                    "spec_fp": spec_fp, "mdesc_fp": mdesc_fp,
                    "stream_fp": stream_fp})
                if status == "stale":
                    self._note_stale(arch.name, artifact)
                    self._evict(key)
                    payload = block = None
                elif status == "unknown":
                    self._note_unknown(key, arch, program)
                    block = None
                else:
                    self._verified.add(key)
        if payload is None:
            with self._lock:
                self.misses += 1
            if _OBS.metrics_on:
                _METRICS.counter(
                    "engine_cache_misses_total",
                    "experiment-engine cache misses (fresh executions)",
                ).inc(arch=arch.name)
            result, engine_path, fallback_reason = self._execute(
                arch, program, drain_write_buffer)
            payload = result_to_dict(result)
            envelope: Dict[str, Any] = {"value": payload}
            if _PROV.enabled:
                rid = get_request_id()
                block_key = (key, rid, engine_path, fallback_reason)
                entry = _BLOCK_MEMO.get(block_key)
                if entry is not None:
                    block, chain = entry
                    PROVENANCE.deliver_to_scopes(chain)
                else:
                    block = {
                        "key": key,
                        "spec_fp": spec_fp,
                        "mdesc_fp": mdesc_fp,
                        "stream_fp": stream_fp,
                        "drain": bool(drain_write_buffer),
                        "schema": CACHE_SCHEMA_VERSION,
                        "code": _code_version(),
                        "engine_path": engine_path,
                        "fallback_reason": fallback_reason,
                        "request_id": rid,
                        "result_digest": _memoized_result_digest(
                            key, payload),
                        "arch": arch.name,
                        "program": program.name,
                    }
                    chain = self._record_execution(arch, program, block)
                    with _CHAIN_MEMO_LOCK:
                        _BLOCK_MEMO[block_key] = (block, chain)
                        while len(_BLOCK_MEMO) > _CHAIN_MEMO_CAPACITY:
                            _BLOCK_MEMO.popitem(last=False)
                envelope["lineage"] = block
                self._verified.add(key)
            self._store(key, envelope)
            return result
        with self._lock:
            self.hits += 1
        if _OBS.metrics_on:
            _METRICS.counter(
                "engine_cache_hits_total",
                "experiment-engine cache hits (rehydrated results)",
            ).inc(arch=arch.name)
            t0 = time.perf_counter()
            result = result_from_dict(payload)
            _METRICS.histogram(
                "engine_rehydrate_ms",
                "per-key wall time to rehydrate a cached ExecutionResult",
            ).observe((time.perf_counter() - t0) * 1e3, arch=arch.name)
        else:
            result = result_from_dict(payload)
        # The key is name-agnostic (structural program fingerprint), so
        # the payload may carry the name of whichever equal-stream
        # program filled it first; stamp the caller's.
        result.program_name = program.name
        if _PROV.enabled and block is not None:
            self._record_execution(arch, program, block)
        tracer = _OBS.tracer
        if tracer.active:
            # A memoized run still appears on the trace timeline: one
            # handler span of the result's full duration, no phases.
            clock = _OBS.clock
            start = clock.now_us
            clock.advance(result.time_us)
            attrs: Dict[str, Any] = {}
            rid = get_request_id()
            if rid is not None:
                attrs["request_id"] = rid
            tracer.complete(
                f"handler:{program.name}", "handler",
                start_us=start, end_us=clock.now_us, track=arch.name,
                arch=arch.name, cached=True, cycles=result.cycles,
                instructions=result.instructions, **attrs,
            )
        return result

    # -- lineage accounting --------------------------------------------
    def _note_stale(self, arch_name: str, artifact: Optional[str]) -> None:
        with self._lock:
            self.stale_results += 1
        if _OBS.metrics_on:
            _METRICS.counter(
                "provenance_stale_results_total",
                "cached results re-executed because lineage reachability "
                "showed a changed upstream artifact",
            ).inc(arch=arch_name, artifact=artifact or "unknown")

    def _note_unknown(self, key: str, arch: ArchSpec, program: Program) -> None:
        with self._lock:
            self.unknown_lineage += 1
        if _OBS.metrics_on:
            _METRICS.counter(
                "provenance_unknown_lineage_total",
                "cache hits served from pre-provenance entries",
            ).inc(layer="engine")
        PROVENANCE.record(LineageRecord(
            digest=key, kind=UNKNOWN_KIND, request_id=get_request_id(),
            meta={"arch": arch.name, "program": program.name,
                  "layer": "engine-cache"}))

    def _record_execution(self, arch: ArchSpec, program: Program,
                          block: Mapping[str, Any]) -> "tuple":
        """Record the spec → mdesc → program → execution chain described
        by ``block`` into the in-process recorder (scopes, request ids),
        returning the chain so callers can memoize the delivery.

        Nothing is written to the lineage sidecar here: the chain is
        already durable inside the cache entry's envelope block, and
        :func:`repro.provenance.replay.adopt_disk_cache` re-derives it
        on load, so sinking it again would double-write every cold run.
        The record describes how the result was *produced*
        (``engine_path`` and ``request_id`` from the block), never how
        this sighting was served — cached sightings are visible in
        metrics and spans, a served request names the record from its
        own ``serve_request`` record, and keeping the record content
        sighting-independent lets every hit reuse the memoized chain
        object unchanged.
        """
        rid = block.get("request_id")
        memo_key = (str(block["key"]), program.name, rid,
                    block.get("engine_path"), block.get("fallback_reason"),
                    block.get("result_digest"))
        records = _CHAIN_MEMO.get(memo_key)
        if records is not None:
            # the registry already holds these exact objects (recorded
            # when the memo entry was created); a re-sighting only has
            # to reach this thread's collect scopes
            PROVENANCE.deliver_to_scopes(records)
            return records
        spec_fp = str(block["spec_fp"])
        mdesc_fp = str(block["mdesc_fp"])
        stream_fp = str(block["stream_fp"])
        records = (
            LineageRecord(digest=spec_fp, kind="spec",
                          meta={"arch": arch.name}),
            LineageRecord(digest=mdesc_fp, kind="mdesc", inputs=(spec_fp,),
                          spec_fp=spec_fp, meta={"arch": arch.name}),
            LineageRecord(digest=stream_fp, kind="program",
                          meta={"program": program.name,
                                "instructions": len(program.instructions)}),
            LineageRecord(
                digest=str(block["key"]), kind="execution",
                inputs=(spec_fp, mdesc_fp, stream_fp),
                spec_fp=spec_fp, mdesc_fp=mdesc_fp,
                schema_version=block.get("schema"),
                code_version=block.get("code"),
                engine_path=block.get("engine_path"),
                fallback_reason=block.get("fallback_reason"),
                request_id=rid, result_digest=block.get("result_digest"),
                meta={"arch": arch.name, "program": program.name,
                      "drain": bool(block.get("drain")),
                      "stream_fp": stream_fp}),
        )
        with _CHAIN_MEMO_LOCK:
            _CHAIN_MEMO[memo_key] = records
            while len(_CHAIN_MEMO) > _CHAIN_MEMO_CAPACITY:
                _CHAIN_MEMO.popitem(last=False)
        PROVENANCE.record_chain(records)
        return records

    def _execute(self, arch: ArchSpec, program: Program,
                 drain_write_buffer: bool) -> "tuple[ExecutionResult, str, Optional[str]]":
        """One real execution: compiled fast path when admissible,
        interpreter otherwise, with spans/metrics when obs is live.

        Returns ``(result, engine_path, fallback_reason)`` — the
        lineage record of the execution carries how it actually ran.
        """
        tracer = _OBS.tracer
        if not tracer.active:
            fallback_reason: Optional[str] = None
            if self._compiled_active():
                try:
                    result = run_compiled(
                        arch, program, drain_write_buffer=drain_write_buffer)
                except CompiledUnsupported as exc:
                    self._note_fallback(arch, exc.reason)
                    fallback_reason = exc.reason
                else:
                    with self._lock:
                        self.compiled_runs += 1
                    if _OBS.metrics_on:
                        _METRICS.counter(
                            "engine_compiled_runs_total",
                            "cold executions served by the compiled path",
                        ).inc(arch=arch.name)
                    return result, "compiled", None
            result = Executor(arch).run(
                program, drain_write_buffer=drain_write_buffer)
            return result, "interpreted", fallback_reason
        # A per-instruction observer needs the interpreter's
        # instruction-by-instruction walk; the compiled path cannot
        # honor it, so traced runs always fall back.
        fallback_reason = None
        if self._compiled_active():
            self._note_fallback(arch, "observer")
            fallback_reason = "observer"
        clock = _OBS.clock
        observer = PhaseSpanObserver(
            tracer, clock, arch_name=arch.name, clock_mhz=arch.clock_mhz,
            registry=_METRICS if _OBS.metrics_on else None)
        attrs: Dict[str, Any] = {}
        rid = get_request_id()
        if rid is not None:
            attrs["request_id"] = rid
        with tracer.span(f"handler:{program.name}", "handler",
                         clock=clock, track=arch.name,
                         arch=arch.name, cached=False, **attrs):
            result = Executor(arch, observer=observer).run(
                program, drain_write_buffer=drain_write_buffer)
            observer.close()
        return result, "interpreted", fallback_reason

    def run_many(
        self,
        arch: ArchSpec,
        jobs: Sequence["tuple[Program, bool]"],
    ) -> List[ExecutionResult]:
        """Batched :meth:`run`: ``(program, drain)`` jobs on one spec.

        Results come back in job order with identical cache accounting
        to a :meth:`run` loop.  Cold jobs share one unit-cost table
        across the batch (the compiled layer memoizes it per cost
        model), so a microbenchmark's dozen runs per spec pay one table
        build; the public array-batch entry point for uncached work is
        :func:`repro.isa.compiled.run_batch`.
        """
        return [
            self.run(arch, program, drain_write_buffer=drain)
            for program, drain in jobs
        ]

    # -- trace replays --------------------------------------------------
    def replay(self, tlb_spec: TLBSpec, config: "TraceConfig | None" = None) -> "TraceStats":
        """Replay a synthetic trace through a TLB, memoized and batched.

        Uses the burst-schedule fast path, which differential tests pin
        as bit-identical to the scalar :func:`repro.core.tracing.replay_trace`.
        """
        from repro.core.tracing import TraceConfig

        config = TraceConfig() if config is None else config
        tlb_fp = fingerprint_tlb_spec(tlb_spec)
        config_canonical = _canonical(config)
        config_digest = _digest(config_canonical)
        key = _digest(["replay", CACHE_SCHEMA_VERSION, tlb_fp, config_canonical])
        stored = self._lookup(key)
        flight = None
        if stored is None:
            # same cross-process single-flight as run(): exactly one
            # process replays a cold trace, losers rehydrate its entry.
            flight = self._begin_flight(key)
            if flight is not None:
                stored = self._lookup(key)
        try:
            return self._replay_resolved(key, stored, tlb_spec, config,
                                         tlb_fp, config_canonical,
                                         config_digest)
        finally:
            if flight is not None:
                flight.release()

    def _replay_resolved(self, key: str, stored: Optional[Dict[str, Any]],
                         tlb_spec: TLBSpec, config: "TraceConfig",
                         tlb_fp: str, config_canonical: Any,
                         config_digest: str) -> "TraceStats":
        """The :meth:`replay` body proper, executed while holding any
        single-flight lock for ``key`` (released by the caller)."""
        from repro.core.tracing import TraceStats, replay_trace_batched

        payload: Optional[Dict[str, Any]] = None
        block: Optional[Dict[str, Any]] = None
        if stored is not None:
            payload, block = _unwrap_envelope(stored)
            if _PROV.enabled:
                if block is None:
                    with self._lock:
                        self.unknown_lineage += 1
                    if _OBS.metrics_on:
                        _METRICS.counter(
                            "provenance_unknown_lineage_total",
                            "cache hits served from pre-provenance entries",
                        ).inc(layer="engine")
                    PROVENANCE.record(LineageRecord(
                        digest=key, kind=UNKNOWN_KIND,
                        request_id=get_request_id(),
                        meta={"layer": "engine-replay"}))
                else:
                    artifact = None
                    if block.get("tlb_fp") != tlb_fp:
                        artifact = "tlb"
                    elif block.get("config_digest") != config_digest:
                        artifact = "config"
                    if artifact is not None:
                        self._note_stale("tlb", artifact)
                        self._evict(key)
                        payload = block = None
        if payload is None:
            with self._lock:
                self.misses += 1
            stats = replay_trace_batched(tlb_spec, config)
            payload = dataclasses.asdict(stats)
            envelope: Dict[str, Any] = {"value": payload}
            if _PROV.enabled:
                block = {
                    "key": key, "tlb_fp": tlb_fp,
                    "config_digest": config_digest,
                    "schema": CACHE_SCHEMA_VERSION, "code": _code_version(),
                    "engine_path": "interpreted",
                    "request_id": get_request_id(),
                    "result_digest": _memoized_result_digest(
                        key, payload, fn=_digest),
                }
                envelope["lineage"] = block
                self._record_replay(tlb_spec, config_canonical, block)
            self._store(key, envelope)
            return stats
        with self._lock:
            self.hits += 1
        if _PROV.enabled and block is not None:
            self._record_replay(tlb_spec, config_canonical, block)
        return TraceStats(**payload)

    def _record_replay(self, tlb_spec: TLBSpec, config_canonical: Any,
                       block: Mapping[str, Any]) -> None:
        """Record the tlb → replay chain described by ``block``; like
        :meth:`_record_execution`, keyed and stamped by the request that
        produced the entry, so every sighting reuses one chain."""
        rid = block.get("request_id")
        memo_key = (block["key"], rid, block.get("result_digest"))
        records = _CHAIN_MEMO.get(memo_key)
        if records is not None:
            PROVENANCE.deliver_to_scopes(records)
            return
        tlb_fp = str(block["tlb_fp"])
        records = (
            LineageRecord(digest=tlb_fp, kind="tlb",
                          meta={"tlb": _canonical(tlb_spec)}),
            LineageRecord(
                digest=str(block["key"]), kind="replay", inputs=(tlb_fp,),
                schema_version=block.get("schema"),
                code_version=block.get("code"),
                engine_path=block.get("engine_path"),
                request_id=rid,
                result_digest=block.get("result_digest"),
                meta={"config": config_canonical,
                      "config_digest": block.get("config_digest")}),
        )
        with _CHAIN_MEMO_LOCK:
            _CHAIN_MEMO[memo_key] = records
            while len(_CHAIN_MEMO) > _CHAIN_MEMO_CAPACITY:
                _CHAIN_MEMO.popitem(last=False)
        PROVENANCE.record_chain(records)

    # -- arbitrary derived computations ---------------------------------
    def _memo_key(self, key_parts: Iterable[Any]) -> str:
        return _digest(["memo", CACHE_SCHEMA_VERSION, _canonical(list(key_parts))])

    def memo_get(self, key_parts: Iterable[Any]) -> "tuple[bool, Any]":
        """Probe the memo store: (found, value)."""
        key = self._memo_key(key_parts)
        with self._lock:
            if key in self._memo:
                return True, self._memo[key]
        return False, None

    def memo_put(self, key_parts: Iterable[Any], value: Any) -> None:
        key = self._memo_key(key_parts)
        with self._lock:
            self._memo[key] = value

    def memo(self, key_parts: Iterable[Any], fn: Callable[[], T]) -> T:
        """Memoize ``fn()`` under a content key (memory only).

        ``key_parts`` should contain everything the computation depends
        on — typically spec/program fingerprints plus literals.  Values
        are returned by reference; callers must treat them as frozen.
        ``fn`` runs outside the lock (a slow computation must not
        serialize unrelated probes); racing threads on one cold key
        both compute, and the first store wins so every caller sees one
        value.
        """
        key = self._memo_key(key_parts)
        with self._lock:
            if key in self._memo:
                self.hits += 1
                return self._memo[key]
            self.misses += 1
        value = fn()
        with self._lock:
            return self._memo.setdefault(key, value)

    # -- plumbing --------------------------------------------------------
    def _lookup(self, key: str) -> Optional[Dict[str, Any]]:
        return self._stack.get(key)

    def _store(self, key: str, payload: Dict[str, Any]) -> None:
        self._stack.put(key, payload)

    def _begin_flight(self, key: str):
        """Open the cross-process single-flight for a cold key (or
        ``None`` when there is no disk tier / locking is off).  A wait
        means another process was computing this exact experiment;
        callers re-probe before executing."""
        flight = self._stack.begin_flight(key)
        if flight is not None and flight.waited:
            with self._lock:
                self.flight_waits += 1
        return flight

    def _evict(self, key: str) -> None:
        """Per-key invalidation: drop one stale entry from both tiers.

        This is the whole point of reachability staleness — nothing but
        the stale key is touched, unlike a schema bump which flushes
        every entry in the cache."""
        self._verified.discard(key)
        self._stack.delete(key)

    def clear(self) -> None:
        """Drop the in-memory caches (the disk cache is left intact)."""
        with self._lock:
            self._lru.clear()
            self._memo.clear()
            self._verified.clear()
            self.hits = 0
            self.misses = 0

    @property
    def cached_experiments(self) -> int:
        with self._lock:
            return len(self._lru) + len(self._memo)


# ----------------------------------------------------------------------
# module-level default
# ----------------------------------------------------------------------

_DEFAULT: Optional[ExperimentEngine] = None
_DEFAULT_LOCK = threading.Lock()


def default_engine() -> ExperimentEngine:
    """The process-wide engine the measurement layers share.

    Honors ``REPRO_CACHE_DIR`` for an on-disk cache; unset keeps the
    cache memory-only (the common case for tests and one-shot CLI use).
    Safe to call from concurrent threads: lazy creation is locked so
    every caller sees the same engine.
    """
    global _DEFAULT
    if _DEFAULT is None:
        with _DEFAULT_LOCK:
            if _DEFAULT is None:
                _DEFAULT = ExperimentEngine(
                    disk_cache_dir=os.environ.get("REPRO_CACHE_DIR"))
    return _DEFAULT


def set_default_engine(engine: Optional[ExperimentEngine]) -> None:
    """Replace the process-wide engine (tests; ``None`` resets lazily)."""
    global _DEFAULT
    _DEFAULT = engine


def run_cached(arch: ArchSpec, program: Program, drain_write_buffer: bool = False) -> ExecutionResult:
    """Memoized drop-in for :func:`repro.isa.executor.run_on`."""
    return default_engine().run(arch, program, drain_write_buffer=drain_write_buffer)
