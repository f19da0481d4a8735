"""Reference-trace experiments behind the paper's motivation (§1).

Two measurement-literature facts motivate the study:

* Agarwal et al. (microcode-based tracing of VAX Ultrix workloads):
  "over 50% of the references were system references" — early
  user-level tracing tools silently ignored half the workload;
* Clark & Emer (VAX-11/780 translation buffer): "while the VMS
  operating system accounts for only one fifth of all references, it
  accounts for more than two thirds of all TLB misses" — OS code uses
  TLBs far worse than applications.

This module builds deterministic synthetic reference traces with
distinct user/system locality profiles (applications loop over a small
working set; kernels wander over many contexts' data with poor reuse),
and replays them through the TLB model to reproduce both facts.
:func:`replay_trace` drives the real :class:`~repro.mem.tlb.TLB` one
reference at a time and is the oracle; :func:`replay_trace_batched`,
the production path, replays one same-page run at a time by the TLB's
fill order alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Tuple

from repro.arch.specs import ArchSpec, TLBSpec
from repro.mem.tlb import TLB, misses_counter, refills_counter
from repro.obs import OBS_STATE as _OBS


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one synthetic workload trace.

    The defaults model a system-call-heavy Ultrix-style workload: the
    user loops tightly over a few pages; the system's references spread
    over per-process kernel stacks, page tables, file-cache metadata
    and driver buffers with little reuse.
    """

    #: total references to generate.
    references: int = 200_000
    #: fraction of references made in system mode (Agarwal: >0.5).
    system_fraction: float = 0.55
    #: distinct pages the user code cycles over.
    user_working_set_pages: int = 12
    #: distinct pages the system touches (across all services).
    system_working_set_pages: int = 400
    #: consecutive same-page references (spatial locality run length).
    user_run_length: int = 24
    system_run_length: int = 4

    def __post_init__(self) -> None:
        if not 0.0 <= self.system_fraction <= 1.0:
            raise ValueError("system_fraction must be in [0, 1]")
        if self.references <= 0:
            raise ValueError("references must be positive")
        if self.user_working_set_pages <= 0 or self.system_working_set_pages <= 0:
            raise ValueError("working-set sizes must be positive")
        if self.user_run_length <= 0 or self.system_run_length <= 0:
            raise ValueError("run lengths must be positive")


@dataclass
class TraceStats:
    user_references: int = 0
    system_references: int = 0
    user_misses: int = 0
    system_misses: int = 0

    @property
    def references(self) -> int:
        return self.user_references + self.system_references

    @property
    def misses(self) -> int:
        return self.user_misses + self.system_misses

    @property
    def system_reference_fraction(self) -> float:
        return self.system_references / self.references if self.references else 0.0

    @property
    def system_miss_fraction(self) -> float:
        return self.system_misses / self.misses if self.misses else 0.0


#: system pages start above the user region so they never collide.
_SYSTEM_PAGE_BASE = 1 << 20


def _burst_plan(config: TraceConfig) -> Tuple[int, int, int]:
    """Shared schedule parameters: (system step, sys bursts, usr bursts).

    Both the scalar generator and the batched replay derive their
    interleaving from this one computation, so the two paths cannot
    drift apart.
    """
    # LCG step coprime to the system working set for full-period walks
    step = max(1, (config.system_working_set_pages * 2) // 3) | 1
    # alternate bursts; the duty cycle realizes system_fraction
    sys_share = config.system_fraction
    usr_share = 1.0 - sys_share
    sys_bursts = max(1, round(sys_share * 100))
    usr_bursts = max(
        1, round(usr_share * 100 * config.system_run_length / config.user_run_length)
    )
    return step, sys_bursts, usr_bursts


def generate_trace(config: TraceConfig) -> Iterator[Tuple[int, bool]]:
    """Yield (vpn, is_system) pairs, deterministically.

    The generator interleaves user and system *bursts* (run lengths),
    walking each region cyclically — a linear-congruential step through
    the system region models its poor reuse without randomness.
    """
    emitted = 0
    user_page = 0
    user_pos = 0
    system_page = 0
    step, sys_bursts, usr_bursts = _burst_plan(config)
    system_burst = config.system_run_length
    user_burst = config.user_run_length

    while emitted < config.references:
        for _ in range(usr_bursts):
            for _ in range(user_burst):
                if emitted >= config.references:
                    return
                yield user_page % config.user_working_set_pages, False
                emitted += 1
                user_pos += 1
                if user_pos % user_burst == 0:
                    user_page += 1
        for _ in range(sys_bursts):
            for _ in range(system_burst):
                if emitted >= config.references:
                    return
                vpn = _SYSTEM_PAGE_BASE + (system_page % config.system_working_set_pages)
                yield vpn, True
                emitted += 1
            system_page = (system_page + step) % max(1, config.system_working_set_pages)


def replay_trace(tlb_spec: TLBSpec, config: TraceConfig = TraceConfig()) -> TraceStats:
    """Replay a synthetic trace through a TLB; returns the §1 stats.

    This is the scalar reference implementation: one probe of the real
    :class:`~repro.mem.tlb.TLB` per reference.  It is the oracle for
    :func:`replay_trace_batched`, the production path; differential
    tests require the two to return equal :class:`TraceStats`.
    """
    tlb = TLB(tlb_spec)
    stats = TraceStats()
    for vpn, is_system in generate_trace(config):
        if is_system:
            stats.system_references += 1
        else:
            stats.user_references += 1
        entry = tlb.lookup(vpn, kernel=is_system)
        if entry is None:
            if is_system:
                stats.system_misses += 1
            else:
                stats.user_misses += 1
            tlb.insert(vpn, vpn, kernel=is_system)
    return stats


def replay_trace_batched(tlb_spec: TLBSpec, config: TraceConfig = TraceConfig()) -> TraceStats:
    """Fill-order fast path for :func:`replay_trace`: one dict probe per run.

    Two facts make a run of same-page references cost one probe, and
    the probe cost one dict lookup instead of a :class:`TLB`:

    * within a run every reference targets one page and nothing is
      inserted or evicted between them, so the first reference decides
      hit-or-miss for the whole run and the rest are hits;
    * the replay never locks an entry and runs in one address space, so
      the PID tag plays no part and the TLB's round-robin victim pointer
      advances exactly once per miss: miss *k* fills slot *k* mod *E*
      (*E* = ``tlb_spec.entries``) and miss *k* + *E* overwrites it.  A
      page therefore hits if, and only if, the miss that last filled it
      is among the last *E* misses.

    The replay keeps one dict (vpn -> index of the miss that last filled
    it) and a miss counter, walks the :func:`_burst_plan` schedule of
    :func:`generate_trace` run by run, and returns the same
    :class:`TraceStats` as the scalar loop (pinned by differential
    tests over every registered TLB and a property grid of TLB specs
    and trace shapes).  With metrics on it charges the
    ``tlb_misses_total``/``tlb_refills_total`` cells the scalar loop
    would, one per miss by mode.
    """
    step, sys_bursts, usr_bursts = _burst_plan(config)
    entries = tlb_spec.entries
    user_pages = config.user_working_set_pages
    system_pages = config.system_working_set_pages
    user_burst = config.user_run_length
    system_burst = config.system_run_length
    last_fill: Dict[int, int] = {}
    misses = user_misses = user_references = 0
    left = config.references
    user_page = system_page = 0
    while left > 0:
        for _ in range(usr_bursts):
            if left <= 0:
                break
            run = min(user_burst, left)
            left -= run
            user_references += run
            vpn = user_page % user_pages
            user_page += 1
            filled = last_fill.get(vpn)
            if filled is None or misses - filled > entries:
                last_fill[vpn] = misses
                misses += 1
                user_misses += 1
        for _ in range(sys_bursts):
            if left <= 0:
                break
            left -= system_burst
            vpn = _SYSTEM_PAGE_BASE + system_page
            system_page = (system_page + step) % system_pages
            filled = last_fill.get(vpn)
            if filled is None or misses - filled > entries:
                last_fill[vpn] = misses
                misses += 1
    stats = TraceStats(
        user_references=user_references,
        system_references=config.references - user_references,
        user_misses=user_misses,
        system_misses=misses - user_misses,
    )
    if _OBS.metrics_on:
        for mode, count in (("user", stats.user_misses),
                            ("kernel", stats.system_misses)):
            if count:
                misses_counter().inc(count, mode=mode)
                refills_counter().inc(count, mode=mode)
    return stats


def agarwal_system_reference_fraction(arch: ArchSpec) -> float:
    """Reproduce 'over 50% of the references were system references'."""
    from repro.core.engine import default_engine

    stats = default_engine().replay(arch.tlb, TraceConfig())
    return stats.system_reference_fraction


def clark_emer_tlb_shares(arch: ArchSpec,
                          system_fraction: float = 0.20) -> Tuple[float, float]:
    """Reproduce Clark & Emer: OS = ~1/5 of references but >2/3 of TLB
    misses.  Returns (system reference share, system miss share)."""
    from repro.core.engine import default_engine

    config = TraceConfig(system_fraction=system_fraction)
    stats = default_engine().replay(arch.tlb, config)
    return stats.system_reference_fraction, stats.system_miss_fraction
