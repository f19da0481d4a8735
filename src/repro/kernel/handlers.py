"""Synthesis of handler programs from machine descriptions.

``handler_program(spec, primitive)`` derives the spec's
:class:`~repro.arch.mdesc.MachineDescription` and expands the matching
declarative stream through :mod:`repro.kernel.fragments`:

* the six measured systems carry hand-transcribed stream tables
  (``handlers_{cvax,mips,sparc,m88000,i860,m68k}.STREAMS``) whose
  expansion is bit-identical to the old builder functions — pinned by
  the goldens in ``tests/goldens/``;
* every other spec — the RS/6000, the hypothetical OS-friendly RISC,
  third-party backends, ablated variants of unknown shape — synthesizes
  a full handler set from capabilities alone via
  :func:`~repro.kernel.fragments.generic_streams`.

Programs are cached by ``(family, description fingerprint, primitive)``:
the R2000 and R3000 collapse to one cached stream (equal descriptions),
while an ablated spec with a flipped capability regenerates — and
separately caches — its own stream.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.arch.mdesc import MachineDescription, description_for
from repro.arch.specs import ArchSpec
from repro.isa.executor import ExecutionResult
from repro.isa.program import Program
from repro.kernel import (
    handlers_cvax,
    handlers_i860,
    handlers_m68k,
    handlers_m88000,
    handlers_mips,
    handlers_sparc,
)
from repro.kernel.fragments import PhaseDecl, expand, generic_streams
from repro.kernel.primitives import Primitive

#: architecture name -> stream family (R2000/R3000 share "mips").
#: Unlisted names fall back to their own name and the generic streams.
_FAMILY = {
    "cvax": "cvax",
    "m88000": "m88000",
    "r2000": "mips",
    "r3000": "mips",
    "sparc": "sparc",
    "i860": "i860",
    "m68k": "m68k",
}

_BUILTIN_FAMILIES = frozenset({"cvax", "mips", "sparc", "m88000", "i860", "m68k"})

#: per-family declarative stream tables for the measured systems.
_FAMILY_STREAMS: Dict[str, Dict[Primitive, Tuple[PhaseDecl, ...]]] = {
    "cvax": handlers_cvax.STREAMS,
    "mips": handlers_mips.STREAMS,
    "sparc": handlers_sparc.STREAMS,
    "m88000": handlers_m88000.STREAMS,
    "i860": handlers_i860.STREAMS,
    "m68k": handlers_m68k.STREAMS,
}

#: legacy escape hatch: opaque builder functions registered via
#: :func:`register_family` take precedence over stream synthesis.
_BUILDERS: Dict[Tuple[str, Primitive], Callable[[], Program]] = {}

#: (family, description fingerprint | "builder", primitive) -> program.
_PROGRAM_CACHE: Dict[Tuple[str, str, Primitive], Program] = {}

#: shared expansions for families without a stream table, keyed by a
#: *stream-normalized* description fingerprint.  Every explore point is
#: its own family (family == spec name), so without normalization a
#: cost-only sweep re-expands identical generic streams once per point;
#: with it, points whose capabilities agree share one expansion — and,
#: via :meth:`Program.renamed`, one structural fingerprint and one
#: compiled artifact.
_GENERIC_STREAM = "generic"
_GENERIC_CACHE: Dict[Tuple[str, Primitive], Program] = {}


def register_family(
    family: str,
    arch_names: "tuple[str, ...]",
    builders: Dict[Primitive, Callable[[], Program]],
) -> None:
    """Plug in opaque builder functions for a new architecture family.

    Downstream users adding their own :class:`ArchSpec` normally need
    nothing: any spec synthesizes a full handler set from its derived
    capability description.  This hook remains for backends whose
    streams cannot be expressed as declarations; see
    :func:`register_streams` for the declarative equivalent.  Raises
    ``ValueError`` on an incomplete builder set, a clash with a
    built-in family name, or an arch name already claimed by another
    family.
    """
    if family in _BUILTIN_FAMILIES:
        raise ValueError(f"cannot replace built-in family {family!r}")
    missing = [p for p in Primitive if p not in builders]
    if missing:
        raise ValueError(f"builders missing for: {[p.value for p in missing]}")
    for name in arch_names:
        if _FAMILY.get(name, family) != family:
            raise ValueError(f"architecture {name!r} already maps to {_FAMILY[name]!r}")
    for name in arch_names:
        _FAMILY[name] = family
    for primitive, builder in builders.items():
        _BUILDERS[(family, primitive)] = builder
        _PROGRAM_CACHE.pop((family, "builder", primitive), None)


def register_streams(
    family: str,
    arch_names: "tuple[str, ...]",
    streams: Dict[Primitive, Tuple[PhaseDecl, ...]],
) -> None:
    """Plug in a declarative stream table for a new family.

    The streams are expanded against each spec's derived description,
    so capability gates and symbolic counts work exactly as they do for
    the built-in families.  Same clash rules as
    :func:`register_family`.
    """
    if family in _BUILTIN_FAMILIES:
        raise ValueError(f"cannot replace built-in family {family!r}")
    missing = [p for p in Primitive if p not in streams]
    if missing:
        raise ValueError(f"streams missing for: {[p.value for p in missing]}")
    for name in arch_names:
        if _FAMILY.get(name, family) != family:
            raise ValueError(f"architecture {name!r} already maps to {_FAMILY[name]!r}")
    for name in arch_names:
        _FAMILY[name] = family
    _FAMILY_STREAMS[family] = dict(streams)
    for key in [k for k in _PROGRAM_CACHE if k[0] == family]:
        del _PROGRAM_CACHE[key]


def unregister_family(family: str) -> None:
    """Remove a family added with :func:`register_family` /
    :func:`register_streams`."""
    if family in _BUILTIN_FAMILIES:
        raise ValueError(f"cannot unregister built-in family {family!r}")
    for name in [n for n, f in _FAMILY.items() if f == family]:
        del _FAMILY[name]
    for key in [k for k in _BUILDERS if k[0] == family]:
        del _BUILDERS[key]
    _FAMILY_STREAMS.pop(family, None)
    for key in [k for k in _PROGRAM_CACHE if k[0] == family]:
        del _PROGRAM_CACHE[key]


def handler_family(arch: ArchSpec) -> str:
    """Stream family for ``arch`` (R2000/R3000 -> "mips").

    Names without a dedicated family — the RS/6000, hypothetical and
    third-party specs — are their own family and expand the generic
    capability streams.
    """
    return _FAMILY.get(arch.name, arch.name)


def handler_description(arch: ArchSpec) -> MachineDescription:
    """The machine description handler synthesis runs against."""
    return description_for(arch, stream=handler_family(arch))


def handler_program(arch: ArchSpec, primitive: Primitive) -> Program:
    """The driver instruction stream for ``primitive`` on ``arch``."""
    family = handler_family(arch)
    if (family, primitive) in _BUILDERS:
        key = (family, "builder", primitive)
        if key not in _PROGRAM_CACHE:
            _PROGRAM_CACHE[key] = _BUILDERS[(family, primitive)]()
        return _PROGRAM_CACHE[key]
    md = description_for(arch, stream=family)
    key = (family, md.fingerprint, primitive)
    if key not in _PROGRAM_CACHE:
        table = _FAMILY_STREAMS.get(family)
        if table is not None:
            _PROGRAM_CACHE[key] = expand(
                f"{family}:{primitive.value}", table[primitive], md)
        else:
            _PROGRAM_CACHE[key] = _generic_program(arch, primitive).renamed(
                f"{family}:{primitive.value}")
    return _PROGRAM_CACHE[key]


def _generic_program(arch: ArchSpec, primitive: Primitive) -> Program:
    """The capability-determined generic expansion, shared across names.

    The generic streams and their expansion read only capability fields
    of the description — never the stream label — so keying on the
    stream-normalized fingerprint is exact.  The shared program's
    structural fingerprint and compiled artifact are primed here so
    every renamed per-family clone inherits them instead of recomputing
    per explore point.
    """
    md = description_for(arch, stream=_GENERIC_STREAM)
    key = (md.fingerprint, primitive)
    program = _GENERIC_CACHE.get(key)
    if program is None:
        program = expand(
            f"{_GENERIC_STREAM}:{primitive.value}", generic_streams(md)[primitive], md)
        from repro.core.engine import fingerprint_stream
        from repro.isa.compiled import try_compile

        fingerprint_stream(program)
        try_compile(program)
        _GENERIC_CACHE[key] = program
    return program


def build_handler(arch: ArchSpec, primitive: Primitive) -> ExecutionResult:
    """Build and execute the driver for ``primitive`` on ``arch``.

    The run drains the write buffer when the primitive says so
    (:attr:`Primitive.drains_write_buffer`).
    """
    program = handler_program(arch, primitive)
    from repro.core.engine import run_cached
    from repro.kernel.primitives import primitive_span

    with primitive_span(primitive, arch.name):
        return run_cached(arch, program,
                          drain_write_buffer=primitive.drains_write_buffer)


def instruction_count(arch: ArchSpec, primitive: Primitive) -> int:
    """Table 2 cell: shortest-path instruction count."""
    return build_handler(arch, primitive).instructions


def primitive_time_us(arch: ArchSpec, primitive: Primitive) -> float:
    """Table 1 cell: time in microseconds on this system."""
    return build_handler(arch, primitive).time_us


# ----------------------------------------------------------------------
# completeness validation
# ----------------------------------------------------------------------

def validate_handler_coverage(arch_names: Optional[Tuple[str, ...]] = None) -> List[str]:
    """Check that every architecture resolves a usable handler set.

    For each name in ``arch_names`` (default: the full registry) and
    each :class:`Primitive`, the handler program must synthesize, be
    non-empty, and pass the :mod:`repro.isa.validate` error checks.
    Returns a list of human-readable problems; empty means complete.
    This is the check that used to let the RS/6000 slip through with no
    trap path at all.
    """
    from repro.arch.registry import ALL_ARCH_NAMES, get_arch
    from repro.isa.validate import errors

    problems: List[str] = []
    for name in arch_names if arch_names is not None else ALL_ARCH_NAMES:
        try:
            arch = get_arch(name)
        except KeyError as err:
            problems.append(f"{name}: {err}")
            continue
        for primitive in Primitive:
            try:
                program = handler_program(arch, primitive)
            except Exception as err:  # noqa: BLE001 - report, don't mask
                problems.append(f"{name}/{primitive.value}: synthesis failed: {err}")
                continue
            if len(program) == 0:
                problems.append(f"{name}/{primitive.value}: empty program")
                continue
            for finding in errors(program):
                problems.append(f"{name}/{primitive.value}: {finding.message}")
    return problems


def assert_handler_coverage(arch_names: Optional[Tuple[str, ...]] = None) -> None:
    """Raise ``ValueError`` listing problems when coverage is incomplete."""
    problems = validate_handler_coverage(arch_names)
    if problems:
        raise ValueError(
            "incomplete handler coverage:\n" + "\n".join(f"  - {p}" for p in problems)
        )
