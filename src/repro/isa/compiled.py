"""Compiled fast path: handler streams lowered to sparse cost rows.

The interpreter (:mod:`repro.isa.executor`) walks a program instruction
by instruction, charging each record its class cost plus dynamic
write-buffer stalls.  Every cycle it charges is a *linear* function of
the cost-model knobs, and the only stateful component — the write
buffer — is a FIFO recurrence over the store subsequence alone.  This
module exploits both facts:

* :func:`compile_program` lowers a :class:`~repro.isa.program.Program`
  once into a :class:`CompiledProgram`: per phase, a sparse row of
  ``(cost key, count)`` pairs over interned *cost keys* ``(opclass,
  extra_cycles, uncached)``, plus the store skeleton (per store: the
  non-store work since the previous store as one more sparse row, the
  store's own cost key, and its static same-page flag).  The artifact
  is independent of any cost model, so one lowering serves every
  cost-knob sweep over the same stream; it is cached on the program
  object and carried across renames (see
  :data:`repro.isa.program.DERIVED_CACHE_ATTRS`).
* :func:`execute_compiled` evaluates an artifact against one
  :class:`~repro.arch.specs.ArchSpec`: a phase's cycles are the sum of
  ``unit × count`` over its row, with units from the cost model's
  unit-cost table, and write-buffer stalls come from one pass of the
  FIFO recurrence over the stores — ``O(keys + stores)`` work per job
  instead of ``O(instructions)``.

Exactness, not approximation: every quantity the interpreter sums is an
integral-valued float below 2⁵³ (cost models are integer cycle counts),
so regrouped summation is exact and the compiled result is
**bit-identical** to :meth:`Executor.run` — pinned by
``tests/test_compiled_differential``.  Anything outside that envelope
(an unknown opclass, a fractional cost knob) raises
:class:`CompiledUnsupported` and the engine falls back to the
interpreter, counting the fallback.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple
import weakref

from repro.isa.executor import ExecutionResult, PhaseCost
from repro.isa.instructions import OpClass
from repro.isa.program import Program

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.arch.specs import ArchSpec, CostModel, WriteBufferSpec

#: attribute the artifact memoizes under on the Program object
#: (listed in :data:`repro.isa.program.DERIVED_CACHE_ATTRS` so renamed
#: clones share one lowering).
_ARTIFACT_ATTR = "_compiled_artifact"


class CompiledUnsupported(Exception):
    """The program or spec falls outside the compiled path's envelope.

    ``reason`` is a short stable label ("opclass", "fractional_cost",
    "fractional_write_buffer") used by the engine's fallback counter.
    """

    def __init__(self, reason: str, detail: str = "") -> None:
        super().__init__(detail or reason)
        self.reason = reason


# ----------------------------------------------------------------------
# cost keys: (opclass, extra_cycles, uncached) -> unit cycle cost
# ----------------------------------------------------------------------

#: interned cost keys; a key's index is stable for the process lifetime,
#: so per-cost-model unit tables are shared by every compiled program.
#: The index is keyed on ``(id(opclass), extra, uncached)`` (see
#: ``_OPCLASS_BY_ID``); ``_KEYS`` stores the real members for
#: :func:`_unit_cost`.
_KEY_INDEX: Dict[Tuple[int, int, bool], int] = {}
_KEYS: List[Tuple[OpClass, int, bool]] = []

#: id(OpClass member) -> member.  Enum hashing is a Python-level call;
#: keying the lowering loop's lookups on the singletons' ids keeps the
#: per-instruction work at C speed, and doubles as the validity check
#: (anything that is not a registered member misses).
_OPCLASS_BY_ID = {id(member): member for member in OpClass}


def _intern_key(opclass: OpClass, extra: int, uncached: bool) -> int:
    key = (id(opclass), extra, uncached)
    idx = _KEY_INDEX.get(key)
    if idx is None:
        idx = len(_KEYS)
        _KEY_INDEX[key] = idx
        _KEYS.append((opclass, extra, uncached))
    return idx


def _unit_cost(key: Tuple[OpClass, int, bool], cost: "CostModel") -> float:
    """Cycles one instruction with this key costs (stalls excluded).

    Mirrors :meth:`Executor._instruction_cost` exactly, minus the
    write-buffer stall term handled by the store recurrence.
    """
    opclass, extra, uncached = key
    if opclass is OpClass.TRAP:
        return float(cost.trap_entry_cycles + extra)
    cycles = float(cost.cycles_for_class(opclass) + extra)
    if opclass is OpClass.RFE:
        cycles += cost.trap_exit_extra_cycles
    elif opclass is OpClass.LOAD:
        cycles += cost.uncached_load_extra_cycles if uncached else cost.load_extra_cycles
    elif opclass is OpClass.CACHE_FLUSH:
        cycles += cost.cache_flush_line_cycles - 1
    elif opclass is OpClass.TLB_OP:
        cycles += cost.tlb_op_cycles - 1
    elif opclass is OpClass.ATOMIC:
        cycles += cost.atomic_extra_cycles
    elif opclass is OpClass.FP:
        cycles += cost.fp_extra_cycles
    elif opclass is OpClass.SPECIAL:
        cycles += cost.special_extra_cycles
    return cycles


#: id(CostModel) -> (weakref guard, unit table).  Identity-keyed like
#: the engine's spec-fingerprint memo.  A unit table lists the unit cost
#: of every interned key by global key id; it is extended lazily as new
#: keys are interned.
_UNIT_CACHE: Dict[int, "tuple[weakref.ref, List[float]]"] = {}


def _units_for(cost: "CostModel") -> List[float]:
    entry = _UNIT_CACHE.get(id(cost))
    if entry is not None and entry[0]() is cost:
        units = entry[1]
    else:
        units = []
        if len(_UNIT_CACHE) > 512:
            for stale in [k for k, (ref, _) in _UNIT_CACHE.items() if ref() is None]:
                del _UNIT_CACHE[stale]
        _UNIT_CACHE[id(cost)] = (weakref.ref(cost), units)
    while len(units) < len(_KEYS):
        unit = _unit_cost(_KEYS[len(units)], cost)
        if not unit.is_integer():
            raise CompiledUnsupported(
                "fractional_cost",
                f"non-integral unit cost {unit} for {_KEYS[len(units)]}")
        units.append(unit)
    return units


# ----------------------------------------------------------------------
# lowering
# ----------------------------------------------------------------------

#: a sparse count row: one ``(global cost-key id, count)`` pair per key
#: with a non-zero count.
Row = Tuple[Tuple[int, int], ...]


class CompiledProgram:
    """One program lowered to sparse cost rows and a store skeleton.

    Cost-model independent; name independent (the program's name is
    stamped at execution time), so renamed clones share one artifact.
    """

    __slots__ = (
        "phases", "phase_instructions", "phase_rows", "gap_rows",
        "store_keys", "store_same_page", "store_phases",
        "total_instructions", "nop_instructions", "_phase_pairs",
    )

    def __init__(
        self,
        phases: Tuple[str, ...],
        phase_instructions: Tuple[int, ...],
        phase_rows: Tuple[Row, ...],
        gap_rows: Tuple[Row, ...],
        store_keys: Tuple[int, ...],
        store_same_page: Tuple[bool, ...],
        store_phases: Tuple[int, ...],
        total_instructions: int,
        nop_instructions: int,
    ) -> None:
        #: phase labels in first-appearance order (interpreter dict order).
        self.phases = phases
        #: counted instructions per phase (TRAP contributes zero).
        self.phase_instructions = phase_instructions
        #: per phase: the cost keys of all its instructions.
        self.phase_rows = phase_rows
        #: per store: the non-store instructions since the previous store.
        self.gap_rows = gap_rows
        #: per store: its global cost-key id, in program order.
        self.store_keys = store_keys
        #: per store: same page as the previous store (static property).
        self.store_same_page = store_same_page
        #: per store: its phase index.
        self.store_phases = store_phases
        self.total_instructions = total_instructions
        self.nop_instructions = nop_instructions
        self._phase_pairs = tuple(zip(phases, phase_instructions))

    @property
    def store_count(self) -> int:
        return len(self.store_keys)


def _lower(program: Program) -> CompiledProgram:
    phases: List[str] = []
    phase_index: Dict[str, int] = {}
    phase_instructions: List[int] = []
    phase_counts: List[Dict[int, int]] = []
    gap_counts: List[Dict[int, int]] = []
    store_keys: List[int] = []
    store_same: List[bool] = []
    store_phase: List[int] = []
    prev_store_page: "int | None" = None
    total = 0
    nops = 0

    key_index_get = _KEY_INDEX.get
    phase_index_get = phase_index.get
    trap = OpClass.TRAP
    nop = OpClass.NOP
    store = OpClass.STORE
    gap: Dict[int, int] = {}
    for inst in program:
        opclass = inst.opclass
        gid = key_index_get((id(opclass), inst.extra_cycles, inst.uncached))
        if gid is None:
            # Validity is checked only on an intern miss: common
            # instructions never pay the membership test.
            if id(opclass) not in _OPCLASS_BY_ID:
                raise CompiledUnsupported(
                    "opclass", f"cannot lower opclass {opclass!r}")
            gid = _intern_key(opclass, inst.extra_cycles, inst.uncached)
        pid = phase_index_get(inst.phase)
        if pid is None:
            pid = len(phases)
            phase_index[inst.phase] = pid
            phases.append(inst.phase)
            phase_instructions.append(0)
            phase_counts.append({})
        if opclass is not trap:
            total += 1
            phase_instructions[pid] += 1
            if opclass is nop:
                nops += 1
        row = phase_counts[pid]
        row[gid] = row.get(gid, 0) + 1
        if opclass is store:
            page = inst.mem_page
            store_keys.append(gid)
            store_same.append(page is not None and page == prev_store_page)
            store_phase.append(pid)
            prev_store_page = page
            gap_counts.append(gap)
            gap = {}
        else:
            gap[gid] = gap.get(gid, 0) + 1

    return CompiledProgram(
        phases=tuple(phases),
        phase_instructions=tuple(phase_instructions),
        phase_rows=tuple(tuple(row.items()) for row in phase_counts),
        gap_rows=tuple(tuple(row.items()) for row in gap_counts),
        store_keys=tuple(store_keys),
        store_same_page=tuple(store_same),
        store_phases=tuple(store_phase),
        total_instructions=total,
        nop_instructions=nops,
    )


def compile_program(program: Program) -> CompiledProgram:
    """Lower ``program``, memoized on the program object.

    Raises :class:`CompiledUnsupported` (also memoized) on constructs
    the compiled path cannot represent.
    """
    cached = program.__dict__.get(_ARTIFACT_ATTR)
    if cached is not None:
        if isinstance(cached, CompiledUnsupported):
            raise cached
        return cached
    try:
        artifact = _lower(program)
    except CompiledUnsupported as exc:
        object.__setattr__(program, _ARTIFACT_ATTR, exc)
        raise
    object.__setattr__(program, _ARTIFACT_ATTR, artifact)
    from repro.obs import OBS_STATE as _OBS
    from repro.obs.metrics import REGISTRY as _METRICS

    if _OBS.metrics_on:
        _METRICS.counter(
            "isa_compiled_lowerings_total",
            "programs lowered into compiled cost tables").inc()
    return artifact


def try_compile(program: Program) -> Optional[CompiledProgram]:
    """Prime the lowering memo; ``None`` instead of raising."""
    try:
        return compile_program(program)
    except CompiledUnsupported:
        return None


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------

def _store_terms(
    compiled: CompiledProgram,
    wb: "WriteBufferSpec",
    units: List[float],
) -> "tuple[List[float], float]":
    """(per-phase stalls, retire time of the last store).

    The write buffer's FIFO, one step per store: store ``i`` issues at
    ``now`` (the static cost of everything before it, plus earlier
    stalls), first waits for store ``i - depth`` to retire if the
    buffer is full, then retires at ``max(now, r[i-1]) + c_i``.
    """
    same_cost = float(wb.retire_cycles_same_page)
    other_cost = float(wb.retire_cycles_other_page)
    if not (same_cost.is_integer() and other_cost.is_integer()):
        raise CompiledUnsupported(
            "fractional_write_buffer",
            "non-integral write-buffer retire cycles")
    depth = wb.depth
    stalls = [0.0] * len(compiled.phases)
    store_phases = compiled.store_phases
    retire: List[float] = []
    append = retire.append
    now = 0.0
    r_prev = 0.0
    for i, (gap, key, same) in enumerate(zip(
            compiled.gap_rows, compiled.store_keys, compiled.store_same_page)):
        for k, n in gap:
            now += units[k] * n
        if i >= depth:
            blocker = retire[i - depth]
            if blocker > now:
                stalls[store_phases[i]] += blocker - now
                now = blocker
        r_prev = (now if now > r_prev else r_prev) + (
            same_cost if same else other_cost)
        append(r_prev)
        now += units[key]
    return stalls, r_prev


def execute_compiled(
    compiled: CompiledProgram,
    arch: "ArchSpec",
    program_name: str,
    drain_write_buffer: bool = False,
) -> ExecutionResult:
    """Evaluate a lowered program against ``arch``."""
    units = _units_for(arch.cost)
    phase_cycles = [
        sum([units[k] * n for k, n in row]) for row in compiled.phase_rows]
    phase_stalls: List[float] = []
    drain = 0.0
    wb = arch.write_buffer
    if wb is not None and compiled.store_keys:
        phase_stalls, last_retire = _store_terms(compiled, wb, units)
        if drain_write_buffer:
            # elapsed cycles = every instruction's static cost plus the
            # stalls; what remains of the last retirement is the drain.
            elapsed = sum(phase_cycles) + sum(phase_stalls)
            if last_retire > elapsed:
                drain = last_retire - elapsed

    return _build_result(
        compiled, arch, program_name, phase_cycles, phase_stalls, drain)


def run_compiled(
    arch: "ArchSpec", program: Program, drain_write_buffer: bool = False
) -> ExecutionResult:
    """Compiled-path equivalent of :func:`repro.isa.executor.run_on`.

    Raises :class:`CompiledUnsupported` when the program or the spec's
    cost model falls outside the exact-lowering envelope.
    """
    compiled = compile_program(program)
    return execute_compiled(
        compiled, arch, program.name, drain_write_buffer=drain_write_buffer)


def _build_result(
    compiled: CompiledProgram,
    arch: "ArchSpec",
    program_name: str,
    phase_cycles: Sequence[float],
    phase_stalls: Sequence[float],
    drain: float,
) -> ExecutionResult:
    by_phase: Dict[str, PhaseCost] = {}
    total_cycles = 0.0
    total_stalls = 0.0
    if phase_stalls:
        for (phase, instrs), base_cycles, stall in zip(
                compiled._phase_pairs, phase_cycles, phase_stalls):
            cycles = base_cycles + stall
            by_phase[phase] = PhaseCost(instrs, cycles, stall)
            total_cycles += cycles
            total_stalls += stall
    else:
        for (phase, instrs), cycles in zip(compiled._phase_pairs, phase_cycles):
            by_phase[phase] = PhaseCost(instrs, cycles, 0.0)
            total_cycles += cycles
    if drain:
        by_phase["write_buffer_drain"] = PhaseCost(0, drain, drain)
        total_cycles += drain
        total_stalls += drain
    return ExecutionResult(
        program_name,
        arch.name,
        arch.clock_mhz,
        compiled.total_instructions,
        total_cycles,
        total_stalls,
        compiled.nop_instructions,
        by_phase,
    )
