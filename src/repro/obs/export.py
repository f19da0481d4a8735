"""Exporters: Chrome ``trace_event`` JSON, Prometheus text, folded stacks.

Three read-side formats for one span/metrics stream:

* :func:`write_chrome_trace` — the Trace Event Format consumed by
  ``chrome://tracing`` and https://ui.perfetto.dev; spans become ``"X"``
  (complete) events whose ``ts``/``dur`` are **simulated microseconds**
  (the format's native unit), so one simulated second reads as one
  second in the viewer.  Each span ``track`` renders as its own thread
  row via ``"M"`` metadata events.
* :func:`write_prometheus` — ``# HELP``/``# TYPE``-annotated text dump
  of a metrics snapshot (histograms in cumulative-bucket form).
* :func:`write_folded` — Brendan Gregg folded stacks weighted by
  *self* time in simulated nanoseconds, ready for ``flamegraph.pl`` or
  speedscope.

All writers share the engine's disk discipline: write to a temp file in
the target directory then :func:`os.replace` (a crash never leaves a
truncated trace), and refuse to overwrite an existing file that this
module did not plausibly write (:class:`ExportPathError`), so a typo'd
``--out`` cannot clobber source code.
"""

from __future__ import annotations

import json
import os
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.obs.metrics import parse_label_key
from repro.obs.spans import Span

EXPORT_FORMATS = ("chrome", "prom", "folded")

#: marker comment identifying our Prometheus dumps (Prometheus parsers
#: skip comments, so it is free to carry).
_PROM_MARKER = "# repro-obs prometheus dump"
_FOLDED_LINE = re.compile(r"^[^\s;]\S* \d+$")


class ExportPathError(ValueError):
    """The output path exists and is not a previous export of ours."""


# ----------------------------------------------------------------------
# defensive writing
# ----------------------------------------------------------------------

def _looks_like_ours(path: str, fmt: str) -> bool:
    """Sniff whether an existing file is a previous export (any format)."""
    try:
        if os.path.getsize(path) == 0:
            return True
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            head = fh.read(64 * 1024)
    except OSError:
        return False
    del fmt  # a chrome path may be rewritten as folded and vice versa
    stripped = head.lstrip()
    if stripped.startswith("{"):
        return '"traceEvents"' in head
    if stripped.startswith(_PROM_MARKER):
        return True
    lines = [line for line in head.splitlines() if line.strip()]
    return bool(lines) and all(_FOLDED_LINE.match(line) for line in lines[:50])


def safe_write_text(path: str, text: str, fmt: str = "chrome",
                    force: bool = False) -> str:
    """Atomically write ``text`` to ``path``; returns the path.

    Refuses to overwrite a file that does not look like a previous
    export unless ``force`` is set.  The write goes through a temp file
    and :func:`os.replace` in the same directory.
    """
    if os.path.isdir(path):
        raise ExportPathError(f"refusing to write trace over directory {path!r}")
    if os.path.exists(path) and not force and not _looks_like_ours(path, fmt):
        raise ExportPathError(
            f"refusing to overwrite {path!r}: it does not look like a "
            "previous trace/metrics export (pass force=True / --force)")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------

def chrome_trace_events(spans: Iterable[Span], pid: int = 1) -> List[Dict[str, Any]]:
    """Spans -> trace_event dicts (metadata rows first, then events)."""
    spans = list(spans)
    tracks: Dict[str, int] = {}
    for span in spans:
        tracks.setdefault(span.track, len(tracks) + 1)
    events: List[Dict[str, Any]] = [
        {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
         "args": {"name": "repro simulated machine"}},
    ]
    for track, tid in sorted(tracks.items(), key=lambda item: item[1]):
        events.append({"ph": "M", "name": "thread_name", "pid": pid,
                       "tid": tid, "args": {"name": track}})
    for span in spans:
        tid = tracks[span.track]
        args = dict(span.attrs)
        args["wall_ns"] = span.wall_ns
        if span.is_instant:
            events.append({
                "name": span.name, "cat": span.category, "ph": "i",
                "ts": span.start_us, "pid": pid, "tid": tid, "s": "t",
                "args": args,
            })
        else:
            events.append({
                "name": span.name, "cat": span.category, "ph": "X",
                "ts": span.start_us, "dur": span.duration_us,
                "pid": pid, "tid": tid, "args": args,
            })
    return events


def chrome_trace_dict(spans: Iterable[Span],
                      metadata: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
    return {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }


def validate_chrome_trace(payload: Mapping[str, Any]) -> None:
    """Assert the trace_event schema invariants viewers rely on.

    Raises ``ValueError`` naming the first offending event; used by the
    test suite and as a final check before every chrome write.
    """
    if "traceEvents" not in payload or not isinstance(payload["traceEvents"], list):
        raise ValueError("chrome trace must carry a traceEvents list")
    for i, event in enumerate(payload["traceEvents"]):
        for field in ("ph", "name", "pid", "tid"):
            if field not in event:
                raise ValueError(f"traceEvents[{i}] missing {field!r}")
        ph = event["ph"]
        if ph not in ("X", "i", "M", "B", "E"):
            raise ValueError(f"traceEvents[{i}] has unsupported ph {ph!r}")
        if ph in ("X", "i") and not isinstance(event.get("ts"), (int, float)):
            raise ValueError(f"traceEvents[{i}] needs a numeric ts")
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                raise ValueError(f"traceEvents[{i}] needs a non-negative dur")


def write_chrome_trace(spans: Iterable[Span], path: str, *,
                       metadata: Optional[Mapping[str, Any]] = None,
                       force: bool = False) -> str:
    payload = chrome_trace_dict(spans, metadata)
    validate_chrome_trace(payload)
    return safe_write_text(path, json.dumps(payload, indent=1), "chrome", force)


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------

def _prom_labels(key: str, extra: Optional[Mapping[str, Any]] = None) -> str:
    labels = parse_label_key(key)
    if extra:
        labels.update({k: str(v) for k, v in extra.items()})
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    return repr(round(value, 9)) if isinstance(value, float) else str(value)


def render_prometheus(snapshot: Mapping[str, Any]) -> str:
    """A metrics snapshot as Prometheus exposition text."""
    lines = [_PROM_MARKER]
    for name in sorted(snapshot.get("metrics", {})):
        entry = snapshot["metrics"][name]
        kind = entry["kind"]
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        if kind == "histogram":
            bounds = entry.get("buckets", [])
            for key in sorted(entry["cells"]):
                cell = entry["cells"][key]
                cumulative = 0
                for bound, count in zip(bounds, cell["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket{_prom_labels(key, {'le': _fmt(bound)})}"
                        f" {cumulative}")
                cumulative += cell["counts"][len(bounds)]
                lines.append(
                    f"{name}_bucket{_prom_labels(key, {'le': '+Inf'})} {cumulative}")
                lines.append(f"{name}_sum{_prom_labels(key)} {_fmt(cell['sum'])}")
                lines.append(f"{name}_count{_prom_labels(key)} {cell['count']}")
        else:
            for key in sorted(entry["cells"]):
                lines.append(f"{name}{_prom_labels(key)} {_fmt(entry['cells'][key])}")
    return "\n".join(lines) + "\n"


def write_prometheus(snapshot: Mapping[str, Any], path: str, *,
                     force: bool = False) -> str:
    return safe_write_text(path, render_prometheus(snapshot), "prom", force)


# ----------------------------------------------------------------------
# folded stacks (flamegraph input)
# ----------------------------------------------------------------------

def folded_lines(spans: Iterable[Span]) -> List[str]:
    """``parent;child;leaf weight`` lines, weighted by *self* time.

    Self time is a span's duration minus its direct children's, in
    simulated nanoseconds (flamegraph weights must be integers; ns
    keeps sub-microsecond phases from rounding to nothing).  Instants
    contribute nothing.  Identical stacks aggregate.
    """
    spans = list(spans)
    child_us: Dict[int, float] = {}
    for span in spans:
        if span.parent_seq is not None:
            child_us[span.parent_seq] = child_us.get(span.parent_seq, 0.0) \
                + span.duration_us
    weights: Dict[str, int] = {}
    for span in spans:
        if span.is_instant:
            continue
        self_us = span.duration_us - child_us.get(span.seq, 0.0)
        weight = round(max(0.0, self_us) * 1000.0)
        if weight <= 0:
            continue
        stack = ";".join((span.track,) + span.stack).replace(" ", "_")
        weights[stack] = weights.get(stack, 0) + weight
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def write_folded(spans: Iterable[Span], path: str, *, force: bool = False) -> str:
    return safe_write_text(path, "\n".join(folded_lines(spans)) + "\n",
                           "folded", force)


# ----------------------------------------------------------------------
# one-call dispatch
# ----------------------------------------------------------------------

def export(spans: Iterable[Span], snapshot: Optional[Mapping[str, Any]],
           path: str, fmt: str = "chrome", *,
           metadata: Optional[Mapping[str, Any]] = None,
           force: bool = False) -> str:
    """Write one export; ``fmt`` is one of :data:`EXPORT_FORMATS`."""
    if fmt == "chrome":
        return write_chrome_trace(spans, path, metadata=metadata, force=force)
    if fmt == "folded":
        return write_folded(spans, path, force=force)
    if fmt == "prom":
        if snapshot is None:
            raise ValueError("prom export needs a metrics snapshot")
        return write_prometheus(snapshot, path, force=force)
    raise ValueError(f"unknown export format {fmt!r}; choose {EXPORT_FORMATS}")
