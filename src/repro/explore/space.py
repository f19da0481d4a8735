"""Declarative design spaces over :class:`~repro.arch.specs.ArchSpec`.

Section 6 of the paper sketches one OS-friendly RISC by hand; this
module makes that kind of thought experiment systematic.  A
:class:`DesignSpace` is a named cartesian product of *knobs* — scalar
architecture parameters (trap microcode latency, register-window count,
write-buffer depth, TLB/cache geometry) and boolean capabilities
(software-managed TLB, visible pipeline, atomic test-and-set) — each
with an explicit, validated value set.

Three properties matter downstream:

* **Deterministic encoding.**  Points are addressed by a mixed-radix
  index (:meth:`DesignSpace.point` / :meth:`DesignSpace.index_of`), so
  strategies enumerate, sample, and resume over plain integers.
* **Validated against ``arch.specs``.**  Every knob value is checked at
  space construction (positive latencies, power-of-two geometry where
  the cache model requires it), and :meth:`DesignSpace.materialize`
  runs the full :class:`ArchSpec` ``__post_init__`` validation — a
  malformed point fails fast with the knob named, never deep inside an
  executor run.
* **Content-named specs.**  A materialized spec is named by a digest of
  its knob values (not its index or space), so the same configuration
  reached from two spaces or two search generations produces an
  identical spec — and therefore the identical engine cache key.
"""

from __future__ import annotations

import hashlib
import json
import weakref
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Mapping, Tuple

from repro.arch.specs import (
    ArchKind,
    ArchSpec,
    CacheSpec,
    CacheWritePolicy,
    CostModel,
    DelaySlotSpec,
    PipelineSpec,
    RegisterWindowSpec,
    ThreadStateSpec,
    TLBSpec,
    WriteBufferSpec,
)

#: value accepted by a knob: a JSON-representable scalar.
KnobValue = object


def _is_pow2(n: int) -> bool:
    return isinstance(n, int) and not isinstance(n, bool) and n >= 1 and n & (n - 1) == 0


def _require_nonneg_int(name: str) -> Callable[[KnobValue], None]:
    def check(value: KnobValue) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"knob {name!r} requires a non-negative integer, got {value!r}")

    return check


def _require_pos_int(name: str) -> Callable[[KnobValue], None]:
    def check(value: KnobValue) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise ValueError(f"knob {name!r} requires a positive integer, got {value!r}")

    return check


def _require_pow2(name: str) -> Callable[[KnobValue], None]:
    def check(value: KnobValue) -> None:
        if not _is_pow2(value):  # type: ignore[arg-type]
            raise ValueError(f"knob {name!r} requires a power-of-two size, got {value!r}")

    return check


def _require_bool(name: str) -> Callable[[KnobValue], None]:
    def check(value: KnobValue) -> None:
        if not isinstance(value, bool):
            raise ValueError(f"knob {name!r} requires a bool, got {value!r}")

    return check


def _require_window_count(name: str) -> Callable[[KnobValue], None]:
    def check(value: KnobValue) -> None:
        if not isinstance(value, int) or isinstance(value, bool) or value < 0 or value == 1:
            raise ValueError(
                f"knob {name!r} requires 0 (no windows) or >= 2 overlapping windows, "
                f"got {value!r}"
            )

    return check


@dataclass(frozen=True)
class Knob:
    """One explorable architecture parameter."""

    name: str
    description: str
    validate: Callable[[KnobValue], None]
    apply: Callable[[ArchSpec, KnobValue], ArchSpec]


def _apply_trap_entry(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(cost=replace(spec.cost, trap_entry_cycles=v))


def _apply_trap_exit(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(cost=replace(spec.cost, trap_exit_extra_cycles=v))


def _apply_windows(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    count = int(v)  # type: ignore[arg-type]
    if count == 0:
        windows = None
        registers = 32
    else:
        windows = RegisterWindowSpec(
            n_windows=count, regs_per_window=16,
            avg_windows_per_switch=min(3, count - 1),
        )
        registers = count * 16 + 8  # overlapping windows + globals
    return spec.with_overrides(
        windows=windows,
        thread_state=replace(spec.thread_state, registers=registers),
    )


def _apply_wb_depth(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    base = spec.write_buffer or WriteBufferSpec(
        depth=1, retire_cycles_same_page=1, retire_cycles_other_page=2)
    return spec.with_overrides(write_buffer=replace(base, depth=v))


def _apply_tlb_entries(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    tlb = replace(spec.tlb, entries=v)
    if tlb.lockable_entries > int(v):  # type: ignore[arg-type]
        tlb = replace(tlb, lockable_entries=int(v))  # type: ignore[arg-type]
    return spec.with_overrides(tlb=tlb)


def _apply_cache_lines(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(cache=replace(spec.cache, lines=v))


def _apply_cache_line_bytes(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(cache=replace(spec.cache, line_bytes=v))


def _apply_software_tlb(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(tlb=replace(spec.tlb, software_managed=bool(v)))


def _apply_tlb_tags(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(tlb=replace(spec.tlb, pid_tagged=bool(v)))


def _apply_pipeline_exposed(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    exposed = bool(v)
    return spec.with_overrides(
        pipeline=replace(
            spec.pipeline,
            exposed=exposed,
            precise_interrupts=not exposed,
            state_registers=6 if exposed else 0,
        )
    )


def _apply_atomic_tas(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(has_atomic_tas=bool(v))


def _apply_cache_virtual(spec: ArchSpec, v: KnobValue) -> ArchSpec:
    return spec.with_overrides(
        cache=replace(spec.cache, virtually_addressed=bool(v), pid_tagged=False))


#: the explorable parameter registry.  Boolean capabilities flip the
#: same fields the §3-§4 ablations do, so handler synthesis regenerates
#: streams (not rescaled copies) for every point.
KNOBS: Dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob("trap_entry_cycles", "hardware trap entry latency (cycles)",
             _require_nonneg_int("trap_entry_cycles"), _apply_trap_entry),
        Knob("trap_exit_extra_cycles", "return-from-exception extra latency (cycles)",
             _require_nonneg_int("trap_exit_extra_cycles"), _apply_trap_exit),
        Knob("window_count", "register windows (0 = flat file)",
             _require_window_count("window_count"), _apply_windows),
        Knob("write_buffer_depth", "write-buffer slots between CPU and memory",
             _require_pos_int("write_buffer_depth"), _apply_wb_depth),
        Knob("tlb_entries", "TLB capacity (power of two for explore regularity)",
             _require_pow2("tlb_entries"), _apply_tlb_entries),
        Knob("cache_lines", "first-level cache lines (power of two)",
             _require_pow2("cache_lines"), _apply_cache_lines),
        Knob("cache_line_bytes", "cache line size in bytes (power of two)",
             _require_pow2("cache_line_bytes"), _apply_cache_line_bytes),
        Knob("software_tlb", "TLB misses refilled by software (MIPS-style)",
             _require_bool("software_tlb"), _apply_software_tlb),
        Knob("tlb_tags", "process-ID tags on TLB entries",
             _require_bool("tlb_tags"), _apply_tlb_tags),
        Knob("pipeline_exposed", "pipeline state visible to trap handlers",
             _require_bool("pipeline_exposed"), _apply_pipeline_exposed),
        Knob("atomic_tas", "atomic test-and-set instruction present",
             _require_bool("atomic_tas"), _apply_atomic_tas),
        Knob("cache_virtual", "virtually-addressed (untagged) first-level cache",
             _require_bool("cache_virtual"), _apply_cache_virtual),
    )
}


@dataclass(frozen=True)
class Dimension:
    """One axis of a design space: a knob and its candidate values."""

    knob: str
    values: Tuple[KnobValue, ...]


def baseline_spec() -> ArchSpec:
    """The neutral 25 MHz RISC explore points are derived from.

    Deliberately middle-of-the-road: precise pipeline, hardware-walked
    tagged TLB, physical cache, no windows, modest write buffer, the
    R2000's unfilled-slot fraction.  Every §6 mechanism the default
    space varies starts from here, so the search — not the base —
    decides whether the OS-friendly corner wins.
    """
    return ArchSpec(
        name="explorebase",
        system_name="explore baseline RISC",
        kind=ArchKind.RISC,
        clock_mhz=25.0,
        app_performance_ratio=7.0,
        cost=CostModel(trap_entry_cycles=6, trap_exit_extra_cycles=3),
        tlb=TLBSpec(entries=64, pid_tagged=True, software_managed=False,
                    hw_miss_cycles=20),
        cache=CacheSpec(lines=1024, line_bytes=64, virtually_addressed=False,
                        write_policy=CacheWritePolicy.WRITE_BACK),
        thread_state=ThreadStateSpec(registers=32, fp_state=32, misc_state=2),
        pipeline=PipelineSpec(),
        delay_slots=DelaySlotSpec(branch_slots=1, load_slots=1,
                                  unfilled_fraction_os=0.5),
        write_buffer=WriteBufferSpec(depth=4, retire_cycles_same_page=1,
                                     retire_cycles_other_page=2),
        windows=None,
        has_atomic_tas=True,
        fault_address_provided=True,
        vectored_dispatch=True,
    )


#: space -> {point_id: spec}.  Weakly keyed so ad-hoc spaces built by
#: tests do not accumulate; lives outside the frozen dataclass so the
#: materialized specs are no part of a space's value.
_MATERIALIZE_CACHE: "weakref.WeakKeyDictionary[DesignSpace, Dict[str, ArchSpec]]" = (
    weakref.WeakKeyDictionary())


@dataclass(frozen=True)
class DesignSpace:
    """A validated cartesian product of knob values.

    ``base`` names a registry architecture to derive points from; the
    default ``None`` uses :func:`baseline_spec`.  Construction
    validates every dimension eagerly so malformed spaces never reach a
    search loop.
    """

    name: str
    dimensions: Tuple[Dimension, ...]
    base: "str | None" = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("design space needs a name")
        if not self.dimensions:
            raise ValueError("design space needs at least one dimension")
        seen = set()
        for dim in self.dimensions:
            if dim.knob not in KNOBS:
                raise ValueError(
                    f"unknown knob {dim.knob!r}; known: {', '.join(sorted(KNOBS))}")
            if dim.knob in seen:
                raise ValueError(f"duplicate dimension {dim.knob!r}")
            seen.add(dim.knob)
            if not dim.values:
                raise ValueError(f"dimension {dim.knob!r} has no values")
            if len(set(map(repr, dim.values))) != len(dim.values):
                raise ValueError(f"dimension {dim.knob!r} has duplicate values")
            for value in dim.values:
                KNOBS[dim.knob].validate(value)

    # -- geometry -------------------------------------------------------
    @property
    def size(self) -> int:
        n = 1
        for dim in self.dimensions:
            n *= len(dim.values)
        return n

    def point(self, index: int) -> Dict[str, KnobValue]:
        """Decode a mixed-radix index (first dimension most significant)."""
        if not 0 <= index < self.size:
            raise IndexError(f"point index {index} outside [0, {self.size})")
        out: Dict[str, KnobValue] = {}
        for dim in reversed(self.dimensions):
            index, digit = divmod(index, len(dim.values))
            out[dim.knob] = dim.values[digit]
        return {dim.knob: out[dim.knob] for dim in self.dimensions}

    def index_of(self, point: Mapping[str, KnobValue]) -> int:
        """Inverse of :meth:`point`; raises on unknown knobs or values."""
        if set(point) != {dim.knob for dim in self.dimensions}:
            raise ValueError(f"point keys {sorted(point)} do not match space dimensions")
        index = 0
        for dim in self.dimensions:
            try:
                digit = dim.values.index(point[dim.knob])
            except ValueError:
                raise ValueError(
                    f"{point[dim.knob]!r} is not a value of dimension {dim.knob!r}")
            index = index * len(dim.values) + digit
        return index

    def points(self) -> Iterator[Tuple[int, Dict[str, KnobValue]]]:
        """Every (index, point) in deterministic index order."""
        for index in range(self.size):
            yield index, self.point(index)

    # -- identity -------------------------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content hash of the space definition (store metadata)."""
        payload = {
            "name": self.name,
            "base": self.base,
            "dims": [[d.knob, list(d.values)] for d in self.dimensions],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def point_id(self, point: Mapping[str, KnobValue]) -> str:
        """Digest of (base, knob values) — space- and index-independent.

        Identical configurations reached from different spaces or
        search generations share this id, hence the same materialized
        spec name and the same engine cache keys.
        """
        blob = json.dumps(
            {"base": self.base, "point": {k: point[k] for k in sorted(point)}},
            sort_keys=True, separators=(",", ":"), default=str)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    # -- materialization ------------------------------------------------
    def base_spec(self) -> ArchSpec:
        if self.base is None:
            return baseline_spec()
        from repro.arch.registry import get_arch

        return get_arch(self.base)

    def materialize(self, point: Mapping[str, KnobValue]) -> ArchSpec:
        """Build the :class:`ArchSpec` for ``point``, failing fast.

        Knobs apply in sorted-name order (they touch disjoint spec
        fields, so ordering is cosmetic but kept deterministic), then
        the spec re-runs the full ``arch.specs`` validation.  Repeat
        materializations of one point return the *same* frozen spec
        object, so the identity-keyed fingerprint and description memos
        downstream stay warm when a runner materializes a point once
        for its store probe and again for evaluation.
        """
        pid = self.point_id(point)
        cache = _MATERIALIZE_CACHE.get(self)
        if cache is None:
            cache = _MATERIALIZE_CACHE[self] = {}
        spec = cache.get(pid)
        if spec is not None:
            return spec
        spec = self.base_spec()
        for knob_name in sorted(point):
            knob = KNOBS.get(knob_name)
            if knob is None:
                raise ValueError(
                    f"unknown knob {knob_name!r}; known: {', '.join(sorted(KNOBS))}")
            value = point[knob_name]
            try:
                knob.validate(value)
                spec = knob.apply(spec, value)
            except ValueError as err:
                raise ValueError(f"invalid explore point {dict(point)!r}: {err}") from err
        spec = spec.with_overrides(name=f"x{pid}", system_name=f"explore point {pid}")
        cache[pid] = spec
        return spec


# ----------------------------------------------------------------------
# built-in spaces
# ----------------------------------------------------------------------

def mechanisms_space() -> DesignSpace:
    """The default §6 search: 96 points over the paper's mechanisms."""
    return DesignSpace(
        name="mechanisms",
        dimensions=(
            Dimension("trap_entry_cycles", (2, 6, 16, 40)),
            Dimension("window_count", (0, 8)),
            Dimension("write_buffer_depth", (1, 4, 8)),
            Dimension("pipeline_exposed", (False, True)),
            Dimension("software_tlb", (False, True)),
        ),
    )


def tiny_space() -> DesignSpace:
    """An 8-point smoke space (CI, benchmarks, doctests)."""
    return DesignSpace(
        name="tiny",
        dimensions=(
            Dimension("trap_entry_cycles", (4, 20)),
            Dimension("window_count", (0, 8)),
            Dimension("software_tlb", (False, True)),
        ),
    )


def scaling_space() -> DesignSpace:
    """A 384-point grid (mechanisms × TLB capacity) sized for cluster
    scaling benches: large enough that a 2-worker sweep's speedup is
    dominated by evaluation, not lease round trips."""
    return DesignSpace(
        name="scaling",
        dimensions=(
            Dimension("trap_entry_cycles", (2, 6, 16, 40)),
            Dimension("window_count", (0, 8)),
            Dimension("write_buffer_depth", (1, 4, 8)),
            Dimension("pipeline_exposed", (False, True)),
            Dimension("software_tlb", (False, True)),
            Dimension("tlb_entries", (32, 64, 128, 256)),
        ),
    )


#: named spaces the CLI accepts.
SPACES: Dict[str, Callable[[], DesignSpace]] = {
    "mechanisms": mechanisms_space,
    "tiny": tiny_space,
    "scaling": scaling_space,
}


def get_space(name: str) -> DesignSpace:
    key = name.lower()
    if key not in SPACES:
        raise KeyError(f"unknown design space {name!r}; known: {', '.join(sorted(SPACES))}")
    return SPACES[key]()


def describe_space(space: DesignSpace) -> str:
    """Human-readable rundown for ``repro explore`` output."""
    lines: List[str] = [
        f"space {space.name}: {space.size} points over "
        f"{len(space.dimensions)} dimensions "
        f"(base: {space.base or 'neutral baseline RISC'})"
    ]
    for dim in space.dimensions:
        values = ", ".join(str(v) for v in dim.values)
        lines.append(f"  {dim.knob:<22s} {{{values}}}  — {KNOBS[dim.knob].description}")
    return "\n".join(lines)
