"""Drive search trials through the experiment engine, with telemetry.

The runner is the glue layer: a :class:`~repro.explore.space.DesignSpace`
says what points exist, a strategy picks which to visit, and
:class:`ExploreRunner` evaluates them —

* through :mod:`repro.core.engine`'s content-addressed cache, so the
  same point visited twice (a halving rung, a resumed search, an
  overlapping space) re-simulates nothing;
* through a :class:`~repro.explore.store.ResultStore`, so evaluations
  survive the process and a restarted search skips what is already
  on disk;
* emitting ``repro.obs`` spans (one per trial) and metrics (trials
  evaluated, store hits, engine hit rate, frontier size).

The runner evaluates in this process.  ``repro cluster run`` is how a
search uses more processes: its workers score leased points through
:func:`evaluate_point_row`, :func:`trial_record` and
:func:`record_trial_lineage`, the same path a local search takes.

Results are deterministic given (space, strategy, seed): trial order,
objective values, and the extracted Pareto frontier are identical
across runs, and a one-worker cluster writes the same WAL and lineage
sidecar bytes as ``explore run``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.engine import fingerprint_spec
from repro.explore.objectives import ObjectiveSchema, evaluate as evaluate_objectives
from repro.explore.objectives import pareto_indices
from repro.explore.space import DesignSpace
from repro.explore.store import ResultStore, trial_key
from repro.explore.strategies import GridSearch
from repro.obs import OBS_STATE as _OBS
from repro.obs import REGISTRY as _METRICS
from repro.obs import snapshot_diff
from repro.provenance import (
    PROV_STATE as _PROV,
    PROVENANCE,
    LineageRecord,
    digest_of,
    get_request_id,
)


@dataclass(frozen=True)
class Trial:
    """One scored design point."""

    index: int
    point: Dict[str, object]
    arch_name: str
    spec_fingerprint: str
    mdesc_fingerprint: str
    objectives: Dict[str, float]
    #: "engine" for a fresh evaluation, "store" for a resume skip.
    source: str
    generation: int


@dataclass
class ExploreStats:
    """Search accounting the CLI and benchmarks report."""

    trials: int = 0
    unique_points: int = 0
    generations: int = 0
    store_hits: int = 0
    engine_hits: int = 0
    engine_misses: int = 0
    frontier_size: int = 0

    @property
    def engine_hit_rate(self) -> float:
        total = self.engine_hits + self.engine_misses
        return self.engine_hits / total if total else 0.0

    @property
    def reuse_rate(self) -> float:
        """Fraction of trials served without a fresh simulation."""
        if not self.trials:
            return 0.0
        total = self.engine_hits + self.engine_misses
        engine_reuse = self.engine_hits / total if total else 0.0
        fresh = self.trials - self.store_hits
        return (self.store_hits + fresh * engine_reuse) / self.trials


@dataclass
class ExploreResult:
    """Everything a search produced, in evaluation order."""

    space: DesignSpace
    schema: ObjectiveSchema
    strategy: str
    seed: int
    trials: List[Trial] = field(default_factory=list)
    stats: ExploreStats = field(default_factory=ExploreStats)

    def unique_trials(self) -> List[Trial]:
        """Last evaluation per distinct point, in first-seen order."""
        latest: Dict[str, Trial] = {}
        for trial in self.trials:
            latest[trial.spec_fingerprint] = trial
        seen = set()
        out = []
        for trial in self.trials:
            if trial.spec_fingerprint not in seen:
                seen.add(trial.spec_fingerprint)
                out.append(latest[trial.spec_fingerprint])
        return out

    def frontier(self) -> List[Trial]:
        """Pareto-optimal unique trials under the result's schema."""
        unique = self.unique_trials()
        rows = [t.objectives for t in unique]
        return [unique[i] for i in pareto_indices(rows, self.schema.names)]


def _evaluate_point(args: Tuple[DesignSpace, int, ObjectiveSchema]) -> Dict[str, Any]:
    """Materialize and score one point.

    The lineage records produced while scoring (spec → mdesc → program
    → execution chains, including cache hits) ride back on the row as
    live objects, for the caller to persist in one sidecar append.
    """
    from repro.arch.mdesc import description_for

    space, index, schema = args
    point = space.point(index)
    spec = space.materialize(point)
    if _PROV.enabled:
        with PROVENANCE.collect() as lineage:
            objectives = evaluate_objectives(spec, schema)
        executions = [r.digest for r in lineage if r.kind == "execution"]
    else:
        objectives = evaluate_objectives(spec, schema)
        lineage, executions = [], []
    return {
        "index": index,
        "point": point,
        "arch_name": spec.name,
        "spec_fp": fingerprint_spec(spec),
        "mdesc_fp": description_for(spec).fingerprint,
        "objectives": objectives,
        "lineage": lineage,
        "executions": executions,
    }


def evaluate_point_row(space: DesignSpace, index: int,
                       schema: ObjectiveSchema) -> Dict[str, Any]:
    """Score one point and return the row dict (used by cluster
    workers to evaluate leased points through the exact same path a
    local search takes)."""
    return _evaluate_point((space, index, schema))


def trial_record(space: DesignSpace, schema: ObjectiveSchema,
                 row: Mapping[str, Any]) -> Dict[str, Any]:
    """The store payload for one evaluated row.

    Both :class:`ExploreRunner` and ``repro.cluster`` workers build
    their :class:`~repro.explore.store.ResultStore` records here, so a
    trial evaluated on a remote worker is byte-identical to the one a
    single-process search would have written — the property the
    cluster's bit-identical-frontier guarantee rests on.
    """
    return {
        "space": space.name,
        "space_fp": space.fingerprint,
        "base": space.base,
        "index": row["index"],
        "point": row["point"],
        "arch_name": row["arch_name"],
        "spec_fp": row["spec_fp"],
        "mdesc_fp": row["mdesc_fp"],
        "schema_names": list(schema.names),
        "schema_digest": schema.digest,
        "objectives": row["objectives"],
    }


def record_trial_lineage(space: DesignSpace, schema: ObjectiveSchema,
                         key: str, row: Mapping[str, Any], *,
                         engine_path: str, sink=None) -> None:
    """Record one trial's lineage nodes (spec enrichment + trial link).

    Shared by the runner and cluster workers so worker-produced
    provenance is indistinguishable from local provenance.
    ``engine_path`` is "engine" for fresh evaluations, "store" for
    resume skips (whose execution inputs survive from the original run
    via record merge)."""
    executions = tuple(row.get("executions") or ())
    # Enrich the spec node with rematerialization metadata: the engine
    # records it name-only, but a materialized spec ("x3f…") is only
    # reconstructible from (space, point).
    PROVENANCE.record(LineageRecord(
        digest=row["spec_fp"], kind="spec",
        meta={"arch": row["arch_name"], "space": space.name,
              "base": space.base, "point": row["point"]},
    ), sink=sink)
    PROVENANCE.record(LineageRecord(
        digest=key, kind="trial",
        inputs=(row["spec_fp"], row["mdesc_fp"], *executions),
        spec_fp=row["spec_fp"],
        mdesc_fp=row["mdesc_fp"],
        engine_path=engine_path,
        request_id=get_request_id(),
        result_digest=digest_of(row["objectives"]),
        meta={"space": space.name, "base": space.base,
              "point": row["point"], "arch": row["arch_name"],
              "objectives": row["objectives"],
              "schema_names": list(schema.names),
              "schema_digest": schema.digest},
    ), sink=sink)


class ExploreRunner:
    """Evaluate strategy-chosen points of a space; see module docstring."""

    def __init__(
        self,
        space: DesignSpace,
        schema: Optional[ObjectiveSchema] = None,
        strategy: Optional[object] = None,
        store: Optional[ResultStore] = None,
        resume: bool = True,
        budget: Optional[int] = None,
    ) -> None:
        self.space = space
        self.schema = schema or ObjectiveSchema()
        self.strategy = strategy if strategy is not None else GridSearch(budget=budget)
        self.store = store if store is not None else ResultStore()
        self.resume = resume
        self.budget = budget

    # ------------------------------------------------------------------
    def run(self, seed: int = 0) -> ExploreResult:
        """Execute the strategy to completion and extract the frontier."""
        result = ExploreResult(
            space=self.space, schema=self.schema,
            strategy=getattr(self.strategy, "name", type(self.strategy).__name__),
            seed=seed,
        )
        was_on = _OBS.metrics_on
        _OBS.metrics_on = True
        before = _METRICS.snapshot()
        try:
            self.strategy.run(self.space, lambda batch: self._generation(batch, result),
                              seed=seed)
        finally:
            window = snapshot_diff(before, _METRICS.snapshot())
            if not was_on:
                _OBS.metrics_on = was_on
        stats = result.stats
        stats.engine_hits = int(_counter_total(window, "engine_cache_hits_total"))
        stats.engine_misses = int(_counter_total(window, "engine_cache_misses_total"))
        stats.unique_points = len({t.spec_fingerprint for t in result.trials})
        stats.frontier_size = len(result.frontier())
        if _OBS.metrics_on:
            _METRICS.gauge(
                "explore_frontier_size", "Pareto-frontier size after a search",
            ).set(stats.frontier_size, space=self.space.name)
            _METRICS.gauge(
                "explore_engine_hit_rate",
                "engine-cache hit rate across the search's executor runs",
            ).set(round(stats.engine_hit_rate, 4), space=self.space.name)
        return result

    # ------------------------------------------------------------------
    def _record_trial(self, key: str, trial: Trial, engine_path: str,
                      executions: "Tuple[str, ...]" = ()) -> None:
        """Record one trial's lineage node (and persist it when the
        store is path-backed).  ``executions`` are the engine keys the
        evaluation actually touched — empty for store hits, whose
        richer inputs survive from the original run via record merge."""
        record_trial_lineage(
            self.space, self.schema, key,
            {"point": trial.point, "arch_name": trial.arch_name,
             "spec_fp": trial.spec_fingerprint,
             "mdesc_fp": trial.mdesc_fingerprint,
             "objectives": trial.objectives, "executions": executions},
            engine_path=engine_path, sink=self.store.lineage)

    # ------------------------------------------------------------------
    def _generation(self, indices: Sequence[int],
                    result: ExploreResult) -> List[Mapping[str, float]]:
        """Evaluate one strategy generation, store-first then engine."""
        stats = result.stats
        if self.budget is not None:
            remaining = self.budget - stats.trials
            indices = list(indices)[: max(0, remaining)]
        if not indices:
            return []
        stats.generations += 1
        generation = stats.generations

        # -- resolve what the store already knows ------------------------
        from repro.arch.mdesc import description_for

        keys: Dict[int, str] = {}
        fresh: List[int] = []
        trials_by_index: Dict[int, Trial] = {}
        for index in indices:
            point = self.space.point(index)
            spec = self.space.materialize(point)
            spec_fp = fingerprint_spec(spec)
            mdesc_fp = description_for(spec).fingerprint
            key = trial_key(mdesc_fp, spec_fp, self.schema.digest)
            keys[index] = key
            record = self.store.get(key) if self.resume else None
            if record is not None:
                stats.store_hits += 1
                trial = Trial(
                    index=index, point=point, arch_name=spec.name,
                    spec_fingerprint=spec_fp, mdesc_fingerprint=mdesc_fp,
                    objectives=dict(record["objectives"]), source="store",
                    generation=generation,
                )
                trials_by_index[index] = trial
                if _PROV.enabled:
                    self._record_trial(key, trial, engine_path="store")
            else:
                fresh.append(index)

        # -- evaluate the rest through the engine ------------------------
        rows = [_evaluate_point((self.space, index, self.schema))
                for index in fresh]
        for row in rows:
            trial = Trial(
                index=row["index"], point=row["point"], arch_name=row["arch_name"],
                spec_fingerprint=row["spec_fp"], mdesc_fingerprint=row["mdesc_fp"],
                objectives=row["objectives"], source="engine", generation=generation,
            )
            trials_by_index[trial.index] = trial
            if _PROV.enabled:
                # the evaluation's records, then the trial node linking them
                if self.store.lineage is not None:
                    self.store.lineage.append_many(row["lineage"])
                self._record_trial(
                    keys[trial.index], trial, engine_path="engine",
                    executions=tuple(row["executions"]))
            self.store.put(keys[trial.index],
                           trial_record(self.space, self.schema, row))

        # -- record, in the strategy's requested order -------------------
        ordered = [trials_by_index[index] for index in indices]
        tracer = _OBS.tracer
        for trial in ordered:
            result.trials.append(trial)
            stats.trials += 1
            if _OBS.metrics_on:
                _METRICS.counter(
                    "explore_trials_total", "design points scored by explore searches",
                ).inc(space=self.space.name, source=trial.source)
            if tracer.active:
                clock = _OBS.clock
                start = clock.now_us
                span_us = sum(
                    trial.objectives.get(name, 0.0)
                    for name in ("null_syscall_us", "trap_us", "pte_change_us",
                                 "context_switch_us")
                )
                clock.advance(max(span_us, 0.0))
                attrs: Dict[str, Any] = {}
                rid = get_request_id()
                if rid is not None:
                    attrs["request_id"] = rid
                tracer.complete(
                    f"trial:{trial.arch_name}", "trial",
                    start_us=start, end_us=clock.now_us, track="explore",
                    index=trial.index, source=trial.source,
                    generation=trial.generation, space=self.space.name,
                    **attrs,
                )
        if _OBS.metrics_on:
            _METRICS.counter(
                "explore_generations_total", "strategy generations executed",
            ).inc(space=self.space.name)
        return [trial.objectives for trial in ordered]


def _counter_total(snapshot: Mapping[str, Any], name: str) -> float:
    """Sum a counter's cells out of a metrics snapshot (0 if absent)."""
    entry = snapshot.get("metrics", {}).get(name)
    if not entry or entry.get("kind") != "counter":
        return 0.0
    return float(sum(entry.get("cells", {}).values()))
