"""The benchmark's own arithmetic: percentiles, spreads, host-speed
correction and span self time.

Everything here is a pure function of its arguments so the tests in
``repobench/tests`` can pin it without starting a server or a sweep.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: a percentile is reported only when this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean without the single lowest and highest value (plain mean below 3).

    Per-operation times on a shared host are spread and often bimodal
    (the core is either contended or not); the median of a handful of
    such values jumps between the modes while this mean moves smoothly,
    and dropping the extremes still ignores one stall.
    """
    if not values:
        raise ValueError("mean of no values")
    ordered = sorted(values)
    if len(ordered) >= 3:
        ordered = ordered[1:-1]
    return float(sum(ordered) / len(ordered))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile over the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 < q <= 100.0:
        raise ValueError("q must be in (0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_samples(count: int, q: float) -> int:
    """How many of ``count`` nearest-rank samples lie beyond percentile ``q``."""
    rank = max(1, math.ceil(q / 100.0 * count))
    return count - rank


def reportable_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or ``None`` when fewer than
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    if tail_samples(len(values), q) < MIN_TAIL_SAMPLES:
        return None
    return percentile(values, q)


def highest_reportable(values: Sequence[float],
                       candidates: Sequence[float] = (99.9, 99.0, 95.0, 90.0, 50.0),
                       ) -> Optional[Tuple[float, float]]:
    """(q, value) for the highest candidate percentile the sample supports."""
    for q in candidates:
        value = reportable_percentile(values, q)
        if value is not None:
            return q, value
    return None


# ----------------------------------------------------------------------
# host-speed correction
# ----------------------------------------------------------------------

def corrected(raw: float, ref_ms: float, nominal_ref_ms: float) -> float:
    """Scale a duration measured while the reference kernel took
    ``ref_ms`` to what it would have taken at the nominal host speed."""
    if ref_ms <= 0 or nominal_ref_ms <= 0:
        raise ValueError("reference times must be positive")
    return raw * nominal_ref_ms / ref_ms


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------

def covered(intervals: Sequence[Tuple[float, float]], start: float,
            end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals
                     if b > start and a < end)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Dict[str, object]]) -> Dict[int, float]:
    """Self time per span id: duration minus what its children cover.

    ``spans`` carry ``id``, ``parent`` (an id or None), ``start`` and
    ``end``.  Children may run on another thread and overlap each
    other; only the union of their intervals inside the parent counts,
    so self time is never negative.
    """
    children: Dict[object, List[Tuple[float, float]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(
                (float(span["start"]), float(span["end"])))
    out: Dict[int, float] = {}
    for span in spans:
        start, end = float(span["start"]), float(span["end"])
        out[span["id"]] = (end - start) - covered(
            children.get(span["id"], ()), start, end)
    return out
