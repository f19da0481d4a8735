"""The streaming Monte-Carlo scenario engine.

One *replication* drives a seeded event stream (millions of
timestamped OS-primitive events) through the functional cost model of
one architecture under one OS structure, folding every event into the
bounded-memory :class:`~repro.scenarios.sketches.OnlineAggregate` —
the event list never exists.  A *scenario* runs R replications per
(arch, structure) with distinct seeds and reports 95% confidence
intervals over them; the kernelization cost of an architecture is the
paired same-seed ratio of kernelized to monolithic OS time.

Integration with the rest of the stack:

* replication results are **content-addressed**: the key hashes
  (model digest, spec + machine-description fingerprints, structure,
  seed, event budget, window) — same inputs, same key — and results
  land in an explore-style :class:`~repro.explore.store.ResultStore`
  WAL (compactable into a sharded ``repro.store`` ``DiskTier``
  segment), so a resumed or re-swept scenario skips finished
  replications and per-worker WALs merge exactly-once through
  :func:`~repro.explore.store.merge_result_stores`;
* fresh replications fan out through
  :class:`~repro.core.engine.SweepRunner` (process pool, metric
  snapshots merged back), sharded **by seed** — the same deterministic
  seed-shard plan :func:`shard_seeds` gives ``repro.cluster`` workers;
* every replication records provenance (model → replication chain,
  aggregate digest as the result digest) into the store's lineage
  sidecar, and emits obs spans/metrics for generation + evaluation.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.arch.specs import ArchSpec
from repro.core.engine import SweepRunner, fingerprint_spec
from repro.isa.executor import Executor
from repro.kernel.handlers import handler_program
from repro.kernel.primitives import Primitive
from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS
from repro.os_models.mach import EMUL_TRAP_CYCLES, RPC_DISPATCH_US, OSStructure
from repro.provenance import (
    PROV_STATE as _PROV,
    PROVENANCE,
    LineageRecord,
    get_request_id,
)
from repro.scenarios.events import ScenarioEventKind
from repro.scenarios.fitters import WorkloadModel
from repro.scenarios.generator import generate_events
from repro.scenarios.sketches import (
    OnlineAggregate,
    aggregate_digest,
    confidence_interval,
)

#: replication record schema — part of every replication key.
SCENARIO_SCHEMA_VERSION = 1

#: default simulated-time window for utilization quantiles (10 ms).
DEFAULT_WINDOW_US = 10_000.0


def replication_key(model_digest: str, spec_fp: str, mdesc_fp: str,
                    structure: str, seed: int, events: int,
                    window_us: float) -> str:
    """The content address one stored replication answers for."""
    blob = json.dumps(
        ["scenario", SCENARIO_SCHEMA_VERSION, model_digest, spec_fp,
         mdesc_fp, structure, seed, events, window_us],
        separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def shard_seeds(seeds: Sequence[int], shards: int) -> List[List[int]]:
    """Deterministic round-robin seed shards.

    This is the unit ``repro.cluster`` workers (and the SweepRunner
    fan-out below) divide a scenario by: every worker owns a seed
    subset, writes its own WAL, and the merged result is independent
    of worker count because replication records are content-addressed.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    plan: List[List[int]] = [[] for _ in range(shards)]
    for position, seed in enumerate(seeds):
        plan[position % shards].append(seed)
    return [shard for shard in plan if shard]


# ----------------------------------------------------------------------
# per-architecture event costing
# ----------------------------------------------------------------------


class CostModel:
    """Microsecond cost of each event kind on one (arch, structure).

    Primitive costs come from executing the architecture's synthesized
    handler programs (the same numbers Tables 1/2 report); TLB misses
    and emulated instructions are cycle constants scaled by the clock;
    the IPC message adds the kernelized server-dispatch work beyond
    the syscalls/switches the stream already carries as events.
    """

    def __init__(self, arch: ArchSpec, structure: OSStructure) -> None:
        self.arch = arch
        self.structure = structure
        executor = Executor(arch)
        primitive_us = {
            primitive: executor.run(
                handler_program(arch, primitive),
                drain_write_buffer=primitive.drains_write_buffer,
            ).time_us
            for primitive in Primitive
        }
        self.cost_us: Dict[ScenarioEventKind, float] = {
            ScenarioEventKind.SYSCALL: primitive_us[Primitive.NULL_SYSCALL],
            ScenarioEventKind.TRAP: primitive_us[Primitive.TRAP],
            ScenarioEventKind.PTE_CHANGE: primitive_us[Primitive.PTE_CHANGE],
            ScenarioEventKind.CONTEXT_SWITCH:
                primitive_us[Primitive.CONTEXT_SWITCH],
            ScenarioEventKind.KERNEL_TLB_MISS:
                arch.cycles_to_us(arch.tlb.sw_kernel_miss_cycles),
            ScenarioEventKind.EMULATED_INSTRUCTION:
                arch.cycles_to_us(EMUL_TRAP_CYCLES),
            ScenarioEventKind.IPC_MESSAGE: (
                RPC_DISPATCH_US
                if structure is OSStructure.KERNELIZED else 0.0),
        }

    def expected_os_share(self, model: WorkloadModel) -> float:
        """Deterministic expectation: Σ rate·cost, in seconds per second.

        The Monte-Carlo replications converge on this number; the
        report uses it to pin the sampled kernelization-cost ordering
        against the closed-form one.
        """
        return sum(model.rate_hz(kind) * self.cost_us[kind]
                   for kind in model.kinds()) / 1e6


# ----------------------------------------------------------------------
# one replication
# ----------------------------------------------------------------------


def run_replication(model: WorkloadModel, spec: ArchSpec,
                    structure: OSStructure, seed: int, events: int,
                    window_us: float = DEFAULT_WINDOW_US) -> Dict[str, Any]:
    """Stream one seeded replication; return its record payload.

    The record is everything the scenario layer keeps: the aggregate
    payload (bounded-memory sketch state), its bit-identity digest,
    the key fields, and wall-clock throughput.  The event stream
    itself is consumed and discarded one event at a time.
    """
    if events < 1:
        raise ValueError("a replication needs at least one event")
    cost_model = CostModel(spec, structure)
    costs = cost_model.cost_us
    aggregate = OnlineAggregate(window_us=window_us)
    started = time.perf_counter()
    for event in generate_events(model, seed, max_events=events):
        aggregate.observe(event.at_us, event.kind, costs[event.kind])
    wall_s = max(time.perf_counter() - started, 1e-9)
    payload = aggregate.payload()
    digest = aggregate_digest(payload)
    spec_fp = fingerprint_spec(spec)
    from repro.arch.mdesc import description_for

    mdesc_fp = description_for(spec).fingerprint
    return {
        "model_digest": model.digest,
        "model_name": model.name,
        "structure": structure.value,
        "arch_name": spec.name,
        "spec_fp": spec_fp,
        "mdesc_fp": mdesc_fp,
        "seed": seed,
        "events": events,
        "window_us": window_us,
        "aggregate": payload,
        "aggregate_digest": digest,
        "expected_os_share": cost_model.expected_os_share(model),
        "events_per_second": events / wall_s,
    }


def _replication_task(args: Tuple[Dict[str, Any], ArchSpec, str, int, int,
                                  float]) -> Dict[str, Any]:
    """Top-level (picklable) SweepRunner worker: one seed's replication."""
    model_payload, spec, structure, seed, events, window_us = args
    model = WorkloadModel.from_payload(model_payload)
    return run_replication(model, spec, OSStructure(structure), seed,
                           events, window_us=window_us)


# ----------------------------------------------------------------------
# scenario = replications + confidence intervals
# ----------------------------------------------------------------------


@dataclass
class ScenarioStats:
    """Replication accounting (mirrors the explore runner's stats)."""

    replications: int = 0
    store_hits: int = 0
    fresh: int = 0
    sweep_mode: str = "serial"
    events_streamed: int = 0

    @property
    def reuse_rate(self) -> float:
        return (self.store_hits / self.replications
                if self.replications else 0.0)


@dataclass
class ScenarioResult:
    """Replications + interval statistics for one (arch, structure)."""

    model_name: str
    model_digest: str
    structure: str
    arch_name: str
    spec_fp: str
    mdesc_fp: str
    events: int
    window_us: float
    records: List[Dict[str, Any]] = field(default_factory=list)
    stats: ScenarioStats = field(default_factory=ScenarioStats)

    def seeds(self) -> List[int]:
        return [record["seed"] for record in self.records]

    def os_share_values(self) -> List[float]:
        return [record["aggregate"]["os_share"] for record in self.records]

    def os_share_ci(self) -> Dict[str, Any]:
        return confidence_interval(self.os_share_values())

    def utilization_p99_ci(self) -> Dict[str, Any]:
        return confidence_interval(
            [record["aggregate"]["utilization"]["p99"]
             for record in self.records])

    @property
    def expected_os_share(self) -> float:
        return self.records[0]["expected_os_share"] if self.records else 0.0


class ScenarioRunner:
    """Run seeded replications with caching, fan-out, and telemetry.

    ``store`` is an optional :class:`~repro.explore.store.ResultStore`
    (or path): finished replications are read back by key instead of
    re-streamed — the replication-reuse path the bench pins.  With
    ``parallel=True`` fresh seeds fan out through a
    :class:`~repro.core.engine.SweepRunner` process pool, one task per
    seed (the degenerate one-seed-per-shard plan of
    :func:`shard_seeds`).
    """

    def __init__(self, store=None, parallel: bool = False,
                 max_workers: Optional[int] = None) -> None:
        from repro.explore.store import ResultStore

        if isinstance(store, str):
            store = ResultStore(store)
        self.store = store
        self._sweep = SweepRunner(parallel=parallel, max_workers=max_workers)

    # ------------------------------------------------------------------
    def run(self, model: WorkloadModel, spec: ArchSpec,
            structure: OSStructure, seeds: Sequence[int], events: int,
            window_us: float = DEFAULT_WINDOW_US) -> ScenarioResult:
        """All replications of (model, spec, structure) over ``seeds``."""
        if not seeds:
            raise ValueError("a scenario needs at least one seed")
        spec_fp = fingerprint_spec(spec)
        from repro.arch.mdesc import description_for

        mdesc_fp = description_for(spec).fingerprint
        result = ScenarioResult(
            model_name=model.name, model_digest=model.digest,
            structure=structure.value, arch_name=spec.name,
            spec_fp=spec_fp, mdesc_fp=mdesc_fp,
            events=events, window_us=window_us)
        stats = result.stats

        keys = {
            seed: replication_key(model.digest, spec_fp, mdesc_fp,
                                  structure.value, seed, events, window_us)
            for seed in seeds
        }
        by_seed: Dict[int, Dict[str, Any]] = {}
        fresh: List[int] = []
        for seed in seeds:
            record = self.store.get(keys[seed]) if self.store else None
            if record is not None:
                by_seed[seed] = record
                stats.store_hits += 1
                self._count("store")
            else:
                fresh.append(seed)

        if fresh:
            tracer = _OBS.tracer
            started_us = _OBS.clock.now_us if tracer.active else 0.0
            rows = self._sweep.map(
                _replication_task,
                [(model.payload(), spec, structure.value, seed, events,
                  window_us) for seed in fresh],
                collect_metrics=True)
            stats.sweep_mode = self._sweep.last_mode
            for row in rows:
                by_seed[row["seed"]] = row
                stats.fresh += 1
                self._count("engine")
                self._record(keys[row["seed"]], row)
            if tracer.active:
                clock = _OBS.clock
                span_us = sum(row["aggregate"]["elapsed_us"] for row in rows)
                clock.advance(span_us)
                attrs: Dict[str, Any] = {}
                rid = get_request_id()
                if rid is not None:
                    attrs["request_id"] = rid
                tracer.complete(
                    f"scenario:{spec.name}", "scenario",
                    start_us=started_us, end_us=clock.now_us,
                    track="scenarios", structure=structure.value,
                    model=model.name, seeds=len(fresh), events=events,
                    **attrs)

        ordered = [by_seed[seed] for seed in seeds]
        result.records.extend(ordered)
        stats.replications = len(ordered)
        stats.events_streamed = sum(
            record["aggregate"]["events"] for record in ordered)
        if _OBS.metrics_on and fresh:
            fresh_rows = [by_seed[seed] for seed in fresh]
            _METRICS.counter(
                "scenario_events_total",
                "OS events streamed through scenario replications",
            ).inc(sum(row["aggregate"]["events"] for row in fresh_rows),
                  arch=spec.name, structure=structure.value)
            _METRICS.gauge(
                "scenario_events_per_second",
                "generation+evaluation throughput of the last fresh "
                "replication",
            ).set(round(fresh_rows[-1]["events_per_second"], 1),
                  arch=spec.name)
        return result

    # ------------------------------------------------------------------
    def _count(self, source: str) -> None:
        if _OBS.metrics_on:
            _METRICS.counter(
                "scenario_replications_total",
                "scenario replications, by result source",
            ).inc(source=source)

    def _record(self, key: str, row: Mapping[str, Any]) -> None:
        """Persist one fresh replication: store record + lineage node."""
        if self.store is not None:
            self.store.put(key, dict(row))
        if not _PROV.enabled:
            return
        sink = self.store.lineage if self.store is not None else None
        PROVENANCE.record(LineageRecord(
            digest=row["model_digest"], kind="scenario_model",
            meta={"name": row["model_name"], "structure": row["structure"]},
        ), sink=sink)
        PROVENANCE.record(LineageRecord(
            digest=key, kind="scenario",
            inputs=(row["model_digest"], row["spec_fp"], row["mdesc_fp"]),
            spec_fp=row["spec_fp"], mdesc_fp=row["mdesc_fp"],
            engine_path="scenario", request_id=get_request_id(),
            result_digest=row["aggregate_digest"],
            meta={"model": row["model_name"], "structure": row["structure"],
                  "arch": row["arch_name"], "seed": row["seed"],
                  "events": row["events"], "window_us": row["window_us"]},
        ), sink=sink)


# ----------------------------------------------------------------------
# kernelization cost: the paired monolithic/kernelized comparison
# ----------------------------------------------------------------------


@dataclass
class KernelizationResult:
    """Monolithic vs kernelized OS cost for one arch under one workload."""

    workload: str
    arch_name: str
    monolithic: ScenarioResult
    kernelized: ScenarioResult

    def _paired_shares(self) -> List[Tuple[float, float]]:
        """Same-seed (monolithic, kernelized) OS-share pairs.

        Pairing on the seed removes the between-stream variance
        independent means would carry — the standard common-random-
        numbers variance-reduction trick — so the cost CIs below are
        tight enough to order architectures with few replications.
        """
        mono = {record["seed"]: record["aggregate"]
                for record in self.monolithic.records}
        pairs: List[Tuple[float, float]] = []
        for record in self.kernelized.records:
            base = mono.get(record["seed"])
            if base is None:
                continue
            kern = record["aggregate"]
            pairs.append((base["os_us"] / max(base["elapsed_us"], 1e-9),
                          kern["os_us"] / max(kern["elapsed_us"], 1e-9)))
        return pairs

    def cost_values(self) -> List[float]:
        """Paired kernelization cost: *added* OS share (kern − mono).

        This is the paper's quantity — how much more of every second
        the machine spends in OS primitives after the 2.5→3.0 split —
        and, unlike the ratio, it does not reward an architecture for
        having an expensive monolithic baseline.
        """
        return [kern - mono for mono, kern in self._paired_shares()]

    def cost_ci(self) -> Dict[str, Any]:
        return confidence_interval(self.cost_values())

    def ratio_values(self) -> List[float]:
        """Paired kernelized/monolithic OS-time ratios (secondary view)."""
        return [kern / max(mono, 1e-12)
                for mono, kern in self._paired_shares()]

    def ratio_ci(self) -> Dict[str, Any]:
        return confidence_interval(self.ratio_values())

    @property
    def expected_cost(self) -> float:
        """Closed-form Σrate·cost difference the sampled one converges on."""
        return (self.kernelized.expected_os_share
                - self.monolithic.expected_os_share)

    @property
    def expected_ratio(self) -> float:
        mono = self.monolithic.expected_os_share
        return self.kernelized.expected_os_share / max(mono, 1e-12)


def run_kernelization(models: "Tuple[WorkloadModel, WorkloadModel]",
                      spec: ArchSpec, seeds: Sequence[int], events: int,
                      window_us: float = DEFAULT_WINDOW_US,
                      store=None, parallel: bool = False,
                      max_workers: Optional[int] = None,
                      ) -> KernelizationResult:
    """Both structures of one workload on one architecture, paired."""
    monolithic_model, kernelized_model = models
    runner = ScenarioRunner(store=store, parallel=parallel,
                            max_workers=max_workers)
    return KernelizationResult(
        workload=monolithic_model.name, arch_name=spec.name,
        monolithic=runner.run(monolithic_model, spec,
                              OSStructure.MONOLITHIC, seeds, events,
                              window_us=window_us),
        kernelized=runner.run(kernelized_model, spec,
                              OSStructure.KERNELIZED, seeds, events,
                              window_us=window_us))
