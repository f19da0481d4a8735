"""Wall-clock spans around the public functions of ``repro`` modules.

Nothing under ``src/`` knows about these spans: :func:`install`
replaces each target function (or method) with a wrapper that records
``(id, name, layer, start, end, parent, op, thread, attrs)`` in memory,
and :meth:`Recorder.dump` writes them out when the process ends.

Parents come from a context variable, so they follow both threads and
asyncio tasks.  Work handed to a thread pool starts without a parent;
:func:`link_orphans` attaches such a span to the innermost span of the
same operation id that encloses it, which is how a serve worker's
``execute_one`` becomes a child of its request's ``ServeApp.submit``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import stats

_CURRENT: "contextvars.ContextVar[Optional[Tuple[int, Any]]]" = \
    contextvars.ContextVar("repobench_span", default=None)

#: layer of the benchmark's own operation spans; their self time is the
#: part of an operation no wrapped function covers.
UNATTRIBUTED = "unattributed"


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module:Qual.name`` and how to label it."""

    path: str
    layer: str
    op: Optional[Callable[[tuple, dict], Any]] = None
    attrs: Optional[Callable[[tuple, dict, Any], Dict[str, Any]]] = None

    @property
    def name(self) -> str:
        return self.path.split(":", 1)[1]


class Recorder:
    """In-memory span sink for one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)

    def wrap(self, target: Target, fn: Callable) -> Callable:
        spans, ids, name, layer = self.spans, self._ids, target.name, target.layer
        op_of, attrs_of = target.op, target.attrs

        def begin(args: tuple, kwargs: dict):
            parent = _CURRENT.get()
            op = op_of(args, kwargs) if op_of is not None else None
            if op is None and parent is not None:
                op = parent[1]
            sid = next(ids)
            return sid, op, parent, _CURRENT.set((sid, op))

        def end(sid, op, parent, token, t0, args, kwargs, result):
            t1 = time.perf_counter()
            _CURRENT.reset(token)
            attrs = attrs_of(args, kwargs, result) if attrs_of is not None else None
            spans.append((sid, name, layer, t0, t1,
                          parent[0] if parent is not None else None, op,
                          threading.get_ident(), attrs))

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                sid, op, parent, token = begin(args, kwargs)
                t0 = time.perf_counter()
                result = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    end(sid, op, parent, token, t0, args, kwargs, result)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, op, parent, token = begin(args, kwargs)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end(sid, op, parent, token, t0, args, kwargs, result)
        return wrapper

    def op_span(self, op: Any) -> "_OpSpan":
        """The benchmark's own root span around one operation."""
        return _OpSpan(self, op)

    def dump(self, path: str) -> None:
        """Write every span as JSON (atomic rename)."""
        rows = [{"id": s[0], "name": s[1], "layer": s[2], "start": s[3],
                 "end": s[4], "parent": s[5], "op": s[6], "tid": s[7],
                 "attrs": s[8]} for s in list(self.spans)]
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"pid": os.getpid(), "spans": rows}, fh, default=str)
        os.replace(tmp, path)


class _OpSpan:
    def __init__(self, recorder: Recorder, op: Any) -> None:
        self.recorder, self.op = recorder, op

    def __enter__(self) -> "_OpSpan":
        self.sid = next(self.recorder._ids)
        self.parent = _CURRENT.get()
        self.token = _CURRENT.set((self.sid, self.op))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        t1 = time.perf_counter()
        _CURRENT.reset(self.token)
        self.recorder.spans.append((
            self.sid, "operation", UNATTRIBUTED, self.t0, t1,
            self.parent[0] if self.parent else None, self.op,
            threading.get_ident(), None))


def _resolve(path: str) -> Tuple[Any, str, Callable]:
    module_name, qual = path.split(":", 1)
    owner: Any = importlib.import_module(module_name)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


def install(recorder: Recorder, targets: Iterable[Target]) -> int:
    """Wrap every target in place; returns how many were wrapped.

    Module-level functions are also replaced wherever another loaded
    ``repro`` module imported them by name, so ``from x import f``
    callers see the wrapper too.
    """
    swaps: Dict[int, Callable] = {}
    count = 0
    for target in targets:
        owner, attr, fn = _resolve(target.path)
        wrapped = recorder.wrap(target, fn)
        setattr(owner, attr, wrapped)
        if not isinstance(owner, type):
            swaps[id(fn)] = wrapped
        count += 1
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            replacement = swaps.get(id(value))
            if replacement is not None and value is not replacement:
                setattr(module, attr, replacement)
    return count


# ----------------------------------------------------------------------
# the targets, per layer
# ----------------------------------------------------------------------

def _serve_rid(args: tuple, kwargs: dict) -> Optional[str]:
    headers = args[4] if len(args) > 4 else kwargs.get("headers", {})
    return headers.get("x-request-id")


def _submit_rid(args: tuple, kwargs: dict) -> Optional[str]:
    return kwargs.get("request_id")


def _job_rid(args: tuple, kwargs: dict) -> Optional[str]:
    job = args[1]
    return job.attrs.get("request_id")


def _item_rid(args: tuple, kwargs: dict) -> Optional[str]:
    item = args[0]
    return item[2] if isinstance(item, tuple) and len(item) == 3 else None


def _map_ops(args: tuple, kwargs: dict) -> Optional[str]:
    items = args[2] if len(args) > 2 else kwargs.get("items", ())
    first = items[0] if items else None
    if isinstance(first, tuple) and len(first) == 3 and isinstance(first[2], str):
        return first[2]
    return None


def _map_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    items = args[2] if len(args) > 2 else kwargs.get("items", ())
    rids = [i[2] for i in items
            if isinstance(i, tuple) and len(i) == 3 and isinstance(i[2], str)]
    return {"items": len(items), "rids": rids}


def _execute_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"endpoint": args[0][0]}


def _trial_op(args: tuple, kwargs: dict) -> Any:
    return f"trial-{args[0][1]}"


def _len_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"n": len(result) if result is not None else 0}


def _hit_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"hit": result is not None}


def _executor_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    executor, program = args[0], args[1]
    return {"key": f"{executor.arch.name}|{program.name}|{len(program.instructions)}"}


def _events_attrs(args: tuple, kwargs: dict, result: Any) -> Dict[str, Any]:
    return {"events": result["aggregate"]["events"] if result else 0}


_COMMON = [
    Target("repro.core.engine:ExperimentEngine.run", "core.engine"),
    Target("repro.core.engine:ExperimentEngine._execute", "core.engine"),
    Target("repro.core.engine:ExperimentEngine._note_fallback", "core.engine"),
    Target("repro.core.engine:fingerprint_spec", "core.engine"),
    Target("repro.core.engine:fingerprint_stream", "core.engine"),
    Target("repro.core.engine:result_from_dict", "core.engine"),
    Target("repro.core.engine:SweepRunner.map", "core.engine", _map_ops, _map_attrs),
    Target("repro.arch.mdesc:description_for", "arch.mdesc"),
    Target("repro.kernel.handlers:handler_program", "kernel.handlers"),
    Target("repro.isa.compiled:compile_program", "isa.compiled"),
    Target("repro.isa.compiled:run_compiled", "isa.compiled"),
    Target("repro.isa.executor:Executor.run", "isa.executor", attrs=_executor_attrs),
    Target("repro.core.microbench:measure_primitives", "core.microbench"),
    Target("repro.store.tiers:LRUCache.get", "store", attrs=_hit_attrs),
    Target("repro.store.tiers:DiskTier.get", "store"),
    Target("repro.store.tiers:DiskTier.put", "store"),
    Target("repro.store.tiers:StoreStack.begin_flight", "store"),
    Target("repro.provenance.store:Recorder.record", "provenance"),
    Target("repro.provenance.store:Recorder.record_chain", "provenance"),
    Target("repro.provenance.store:Recorder.deliver_to_scopes", "provenance"),
    Target("repro.provenance.store:LineageStore.append", "provenance"),
    Target("repro.provenance.store:LineageStore.append_many", "provenance"),
    Target("repro.provenance.store:lineage_payload", "provenance", attrs=_len_attrs),
    Target("repro.provenance.store:merge_lineage_payload", "provenance"),
]

_SERVE = [
    Target("repro.serve.server:HttpServer._respond", "serve", _serve_rid),
    Target("repro.serve.server:ServeApp.submit", "serve", _submit_rid),
    Target("repro.serve.batching:MicroBatcher.submit", "serve", _job_rid),
    Target("repro.serve.protocol:execute_one", "serve", _item_rid, _execute_attrs),
]

_EXPLORE = [
    Target("repro.explore.runner:ExploreRunner.run", "explore"),
    Target("repro.explore.runner:_evaluate_point", "explore", _trial_op),
    Target("repro.explore.space:DesignSpace.materialize", "explore"),
    Target("repro.explore.store:ResultStore.__init__", "explore"),
    Target("repro.explore.store:ResultStore.put", "explore"),
    Target("repro.explore.objectives:evaluate", "explore"),
    Target("os:fsync", "store"),
]

_REPORT = [
    Target("repro.analysis.intext:all_claims", "analysis"),
    Target("repro.analysis.runner:render_all", "analysis"),
    Target("repro.analysis.summary:render", "analysis"),
    Target("repro.workloads.synapse:run_synapse", "workloads"),
    Target("repro.threads.user:UserThreadPackage.switch_to", "threads"),
    Target("repro.core.tracing:replay_trace_batched", "core.tracing"),
    Target("repro.core.tracing:replay_trace", "core.tracing"),
]

_SCENARIOS = [
    Target("repro.scenarios.fitters:fit_table7_pair", "scenarios"),
    Target("repro.scenarios.runner:CostModel.__init__", "scenarios"),
    Target("repro.scenarios.runner:run_replication", "scenarios", attrs=_events_attrs),
    Target("repro.scenarios.sketches:aggregate_digest", "scenarios"),
    Target("repro.scenarios.report:kernelization_sweep", "scenarios"),
]

TARGETS = {
    "serve-warm": _SERVE + _COMMON,
    "explore-cold": _EXPLORE + _COMMON,
    "scenario-sweep": _SCENARIOS + _COMMON,
    "report-cold": _REPORT + _COMMON,
}


def targets_for(workload: str) -> List[Target]:
    return TARGETS[workload]


# ----------------------------------------------------------------------
# analysis of dumped spans
# ----------------------------------------------------------------------

def load(path: str) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["spans"]


def link_orphans(spans: List[Dict[str, Any]]) -> None:
    """Give each parentless span that has an operation id the innermost
    span of the same operation, on another thread, enclosing it."""
    by_op: Dict[Any, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["op"] is not None:
            by_op.setdefault(span["op"], []).append(span)
    for group in by_op.values():
        for span in group:
            if span["parent"] is not None:
                continue
            best = None
            for other in group:
                if (other is span or other["tid"] == span["tid"]
                        or other["start"] > span["start"] or other["end"] < span["end"]):
                    continue
                if best is None or other["end"] - other["start"] < best["end"] - best["start"]:
                    best = other
            if best is not None:
                span["parent"] = best["id"]


def contain_in_ancestors(spans: List[Dict[str, Any]]) -> None:
    """Re-parent a span that outlives its parent to the nearest ancestor
    that encloses it.

    A task inherits the context of the code that created it, so work
    an asyncio task does later (a batch dispatched after the request
    that opened the batch window has moved on) names a parent that has
    already ended; the time belongs to the enclosing request instead.
    """
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        while parent is not None and (parent["start"] > span["start"]
                                      or parent["end"] < span["end"]):
            parent = by_id.get(parent["parent"])
        span["parent"] = parent["id"] if parent is not None else None


def annotate(spans: List[Dict[str, Any]]) -> Dict[int, List[Dict[str, Any]]]:
    """Link orphans, keep children inside their parents, add ``self`` to
    every span; returns children by id."""
    contain_in_ancestors(spans)
    link_orphans(spans)
    selfs = stats.self_times(spans)
    children: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        span["self"] = selfs[span["id"]]
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return children


def subtree(root: Dict[str, Any], children: Dict[int, List[Dict[str, Any]]],
            ) -> List[Dict[str, Any]]:
    out, stack = [], [root]
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(children.get(span["id"], ()))
    return out


def layer_rows(root: Dict[str, Any], children: Dict[int, List[Dict[str, Any]]],
               outside_s: float = 0.0) -> Dict[str, float]:
    """Self time per layer (s) inside one operation's span tree.

    The root's own self time, and ``outside_s`` (time the operation
    spent before or after its root span, e.g. on the wire), form the
    ``unattributed`` row, so the rows add up to the operation.
    """
    rows: Dict[str, float] = {}
    for span in subtree(root, children):
        layer = UNATTRIBUTED if span is root and span["layer"] == UNATTRIBUTED \
            else span["layer"]
        rows[layer] = rows.get(layer, 0.0) + span["self"]
    rows[UNATTRIBUTED] = rows.get(UNATTRIBUTED, 0.0) + outside_s
    return rows


def render_table(rows: Dict[str, float], total_s: float, title: str) -> str:
    lines = [title, f"  {'layer':<18s}{'self ms':>12s}{'share':>9s}"]
    for layer, value in sorted(rows.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<18s}{value * 1e3:12.3f}{value / total_s:9.1%}")
    lines.append(f"  {'sum':<18s}{sum(rows.values()) * 1e3:12.3f}"
                 f"   (operation {total_s * 1e3:.3f} ms)")
    return "\n".join(lines)


def chrome_trace(span_sets: Sequence[Tuple[str, List[Dict[str, Any]]]], path: str) -> None:
    """Write spans as Chrome trace-event JSON (one pid per process)."""
    events = []
    origin = min((s["start"] for _, spans in span_sets for s in spans), default=0.0)
    for pid, (label, spans) in enumerate(span_sets, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": label}})
        for s in spans:
            events.append({
                "name": s["name"], "cat": s["layer"], "ph": "X", "pid": pid,
                "tid": s["tid"] % 100000, "ts": (s["start"] - origin) * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "args": {"op": s["op"], **(s.get("attrs") or {})}})
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh, default=str)
    os.replace(tmp, path)
