"""Wire protocol of the serving layer: endpoints, validation, errors.

Every request the server accepts is one of a small set of *endpoints*.
All but ``explore_frontier`` are pure functions of their validated
parameters; that one reads a result store whose contents change, and
its entry says so (``Endpoint.pure``).  The endpoint table below
carries, per endpoint:

* a **validator** that normalizes a client-supplied JSON object into
  the exact parameter dict the worker accepts, raising a typed
  :class:`ServeError` (HTTP 400) on anything malformed;
* a **content key** builder whose parts reuse the repo's
  content-addressing schemes — :func:`~repro.core.engine.fingerprint_spec`
  for architecture-shaped requests, the registry fingerprint for table
  renders — so two requests that would reach the same engine
  experiments share one coalescing key;
* a **worker**, a top-level function, so a micro-batch of requests
  runs through :meth:`repro.core.engine.SweepRunner.map` unchanged.

Workers run on pool threads of the serving process and return JSON-able
dicts; :func:`execute_one` wraps a worker call into an outcome envelope
so a single bad request inside a batch cannot take its neighbours down.

All endpoints accept an optional ``nonce`` parameter: it participates
in the coalescing key but not in the computation, which lets load
generators and tests switch request coalescing and the server's answer
memo off per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.engine import _digest

#: bump when a reply payload changes incompatibly.
PROTOCOL_VERSION = 1


class ServeError(Exception):
    """A typed, client-visible failure: one HTTP status + error code.

    The serving disciplines reply with these instead of queueing
    without bound: ``overloaded`` (429) when admission control sheds,
    ``draining`` (503) during graceful shutdown, ``deadline_exceeded``
    (504) when a request's budget expires before dispatch, and
    ``bad_request`` (400) for malformed input.
    """

    def __init__(self, status: int, code: str, message: str, *,
                 retry_after_s: Optional[float] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.retry_after_s = retry_after_s

    def payload(self) -> Dict[str, Any]:
        """The JSON body a client sees."""
        out: Dict[str, Any] = {"error": self.code, "message": self.message}
        if self.retry_after_s is not None:
            out["retry_after_s"] = self.retry_after_s
        return out


def bad_request(message: str) -> ServeError:
    return ServeError(400, "bad_request", message)


# ----------------------------------------------------------------------
# validation helpers
# ----------------------------------------------------------------------

def _require_object(params: Any) -> Mapping[str, Any]:
    if not isinstance(params, Mapping):
        raise bad_request("request body must be a JSON object")
    return params


def _take_nonce(params: Mapping[str, Any], out: Dict[str, Any]) -> None:
    nonce = params.get("nonce")
    if nonce is None:
        return
    if not isinstance(nonce, (str, int)):
        raise bad_request("nonce must be a string or integer")
    out["nonce"] = nonce


def _str_field(params: Mapping[str, Any], name: str) -> str:
    value = params.get(name)
    if not isinstance(value, str) or not value:
        raise bad_request(f"{name!r} must be a non-empty string")
    return value


def _arch_field(params: Mapping[str, Any], name: str) -> str:
    from repro.arch import ALL_ARCH_NAMES

    value = _str_field(params, name)
    if value not in ALL_ARCH_NAMES:
        raise bad_request(
            f"unknown architecture {value!r}; choose one of "
            f"{', '.join(ALL_ARCH_NAMES)}")
    return value


# ----------------------------------------------------------------------
# endpoint: measure
# ----------------------------------------------------------------------

def validate_measure(params: Any) -> Dict[str, Any]:
    params = _require_object(params)
    out: Dict[str, Any] = {"arch": _arch_field(params, "arch")}
    _take_nonce(params, out)
    return out


def key_measure(params: Mapping[str, Any]) -> List[Any]:
    from repro.arch import get_arch
    from repro.core.engine import fingerprint_spec

    return [fingerprint_spec(get_arch(params["arch"])), params.get("nonce")]


def work_measure(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.arch import get_arch
    from repro.core.microbench import measure_primitives, syscall_breakdown_us
    from repro.kernel.primitives import Primitive

    arch = get_arch(params["arch"])
    result = measure_primitives(arch)
    payload: Dict[str, Any] = {
        "arch": arch.name,
        "system": arch.system_name,
        "clock_mhz": arch.clock_mhz,
        "times_us": {p.value: round(result.times_us[p], 3) for p in Primitive},
        "instructions": {p.value: result.instructions[p] for p in Primitive},
    }
    try:
        breakdown = syscall_breakdown_us(arch)
    except KeyError:
        return payload
    payload["null_syscall_breakdown_us"] = {
        component: round(breakdown[component], 3)
        for component in ("kernel_entry_exit", "call_prep", "c_call")
    }
    return payload


# ----------------------------------------------------------------------
# endpoint: table
# ----------------------------------------------------------------------

def validate_table(params: Any) -> Dict[str, Any]:
    from repro.analysis.runner import ALL_TABLE_NUMBERS

    params = _require_object(params)
    number = params.get("number")
    if isinstance(number, bool) or not isinstance(number, int):
        raise bad_request("'number' must be an integer")
    if number not in ALL_TABLE_NUMBERS:
        raise bad_request(f"unknown table {number}; choose 1-7")
    out: Dict[str, Any] = {"number": number}
    _take_nonce(params, out)
    return out


def key_table(params: Mapping[str, Any]) -> List[Any]:
    from repro.analysis.runner import registry_fingerprint

    return [registry_fingerprint(), params["number"], params.get("nonce")]


def work_table(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.analysis.runner import render_table

    number = params["number"]
    return {"number": number, "text": render_table(number)}


# ----------------------------------------------------------------------
# endpoint: arch describe
# ----------------------------------------------------------------------

def validate_arch_describe(params: Any) -> Dict[str, Any]:
    params = _require_object(params)
    out: Dict[str, Any] = {"name": _arch_field(params, "name")}
    _take_nonce(params, out)
    return out


def key_arch_describe(params: Mapping[str, Any]) -> List[Any]:
    from repro.arch import get_arch
    from repro.core.engine import fingerprint_spec

    return [fingerprint_spec(get_arch(params["name"])), params.get("nonce")]


def work_arch_describe(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.arch import get_arch
    from repro.arch.mdesc import describe_text
    from repro.kernel.handlers import handler_description, handler_program
    from repro.kernel.primitives import Primitive

    arch = get_arch(params["name"])
    description = handler_description(arch)
    primitives: Dict[str, Any] = {}
    for primitive in Primitive:
        program = handler_program(arch, primitive)
        primitives[primitive.value] = {
            "program": program.name,
            "instructions": len(program),
            "phases": dict(program.counts_by_phase()),
        }
    return {
        "name": arch.name,
        "system": arch.system_name,
        "kind": arch.kind.value,
        "clock_mhz": arch.clock_mhz,
        "description": describe_text(description),
        "fingerprint": description.fingerprint,
        "primitives": primitives,
    }


# ----------------------------------------------------------------------
# endpoint: explore frontier
# ----------------------------------------------------------------------

def validate_explore_frontier(params: Any) -> Dict[str, Any]:
    params = _require_object(params)
    out: Dict[str, Any] = {"store": _str_field(params, "store")}
    objectives = params.get("objectives")
    if objectives is not None:
        if (not isinstance(objectives, (list, tuple))
                or not all(isinstance(n, str) for n in objectives)):
            raise bad_request("'objectives' must be a list of objective names")
        from repro.explore import ObjectiveSchema

        try:
            ObjectiveSchema(names=tuple(objectives))
        except ValueError as err:
            raise bad_request(str(err))
        out["objectives"] = list(objectives)
    _take_nonce(params, out)
    return out


def key_explore_frontier(params: Mapping[str, Any]) -> List[Any]:
    # Path-keyed, not content-keyed: coalescing is strictly in-flight
    # (the entry is dropped the moment the leader finishes) and the
    # endpoint is not pure, so its answers are never memoized; two
    # concurrent reads of one store share a computation while a later
    # read sees any appended trials.
    return [params["store"], params.get("objectives"), params.get("nonce")]


def work_explore_frontier(params: Mapping[str, Any]) -> Dict[str, Any]:
    from repro.explore import ObjectiveSchema, ResultStore, frontier_from_records
    from repro.explore.frontier import record_frontier

    schema = (ObjectiveSchema(names=tuple(params["objectives"]))
              if params.get("objectives") else ObjectiveSchema())
    store = ResultStore(params["store"])
    records = store.records_for_schema(schema.digest)
    frontier = frontier_from_records(records, schema) if records else []
    if frontier:
        record_frontier(frontier, schema, params["store"], sink=store.lineage)
    rows = sorted(
        (
            {
                "arch_name": record.get("arch_name", "?"),
                "objectives": record["objectives"],
                "point": record.get("point", {}),
            }
            for record in frontier
        ),
        key=lambda row: row["objectives"].get(schema.names[0], 0.0),
    )
    return {
        "store": params["store"],
        "objectives": list(schema.names),
        "trials": len(records),
        "skipped_lines": store.skipped_lines,
        "frontier": rows,
    }


# ----------------------------------------------------------------------
# the endpoint table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Endpoint:
    """One served operation: route, validation, keying, worker."""

    name: str
    path: str
    validate: Callable[[Any], Dict[str, Any]]
    key_parts: Callable[[Mapping[str, Any]], List[Any]]
    worker: Callable[[Mapping[str, Any]], Dict[str, Any]]
    #: the answer depends only on the key parts, so the server may keep
    #: it and reuse it (False for endpoints that read mutable state).
    pure: bool = True


ENDPOINTS: Dict[str, Endpoint] = {
    endpoint.name: endpoint
    for endpoint in (
        Endpoint("measure", "/v1/measure",
                 validate_measure, key_measure, work_measure),
        Endpoint("table", "/v1/table",
                 validate_table, key_table, work_table),
        Endpoint("arch_describe", "/v1/arch/describe",
                 validate_arch_describe, key_arch_describe, work_arch_describe),
        Endpoint("explore_frontier", "/v1/explore/frontier",
                 validate_explore_frontier, key_explore_frontier,
                 work_explore_frontier, pure=False),
    )
}

#: HTTP route -> endpoint (what the server dispatches on).
ROUTES: Dict[str, Endpoint] = {e.path: e for e in ENDPOINTS.values()}


def coalesce_key(endpoint: Endpoint, params: Mapping[str, Any]) -> str:
    """Content address of one request (the in-flight coalescing key,
    and the server's answer-memo key)."""
    return _digest(["serve", PROTOCOL_VERSION, endpoint.name,
                    endpoint.key_parts(params)])


def execute_one(item: "Tuple[str, Dict[str, Any]]") -> Dict[str, Any]:
    """Run one (endpoint-name, params[, request-id]) work item; never raises.

    The envelope — ``{"ok": True, "value": ...}`` or ``{"ok": False,
    "status"/"code"/"message": ...}`` — keeps per-item failures from
    poisoning the rest of a :meth:`SweepRunner.map` batch.

    ``run_in_executor`` does not propagate :mod:`contextvars` into pool
    threads, so the request id rides on the item itself; the worker
    re-enters it before touching the engine, which stamps it on the
    spans and cache entries the call produces.
    """
    from repro.provenance import reset_request_id, set_request_id

    if len(item) == 3:
        name, params, request_id = item
    else:
        name, params = item
        request_id = None
    endpoint = ENDPOINTS.get(name)
    if endpoint is None:
        return {"ok": False, "status": 400, "code": "bad_request",
                "message": f"unknown endpoint {name!r}"}
    token = set_request_id(request_id) if request_id is not None else None
    try:
        return {"ok": True, "value": endpoint.worker(params)}
    except ServeError as err:
        return {"ok": False, "status": err.status, "code": err.code,
                "message": err.message}
    except Exception as err:  # noqa: BLE001 - the envelope is the firewall
        return {"ok": False, "status": 500, "code": "internal",
                "message": f"{type(err).__name__}: {err}"}
    finally:
        if token is not None:
            reset_request_id(token)
