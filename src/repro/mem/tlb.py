"""Translation lookaside buffer model (§3.2, §5).

The properties the paper leans on:

* **PID tags** let entries survive context switches; untagged TLBs
  (CVAX, i860) must be purged, which is why ~25% of a null LRPC on the
  CVAX is TLB-miss time (§3.2, Table 4);
* **software-managed** TLBs (MIPS) refill through one of two handlers:
  a ~dozen-cycle user-space handler and a few-hundred-cycle kernel-space
  handler — kernelized operating systems push much more traffic onto
  the expensive one (§5, Table 7);
* **lockable entries** (SPARC/Cypress) protect OS mappings from
  replacement.

Replacement is round-robin (FIFO over the entry array), skipping locked
slots — deterministic, and close to the random/rotating policies of the
real parts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.arch.specs import TLBSpec
from repro.mem.pagetable import Protection
from repro.obs import OBS_STATE as _OBS
from repro.obs.metrics import REGISTRY as _METRICS, Counter


def misses_counter() -> Counter:
    """``tlb_misses_total``: lookup misses, labelled by mode."""
    return _METRICS.counter("tlb_misses_total", "TLB lookup misses by mode")


def refills_counter() -> Counter:
    """``tlb_refills_total``: entry insertions, labelled by mode."""
    return _METRICS.counter("tlb_refills_total", "TLB entry insertions (refills)")


@dataclass
class TLBEntry:
    vpn: int
    asid: int
    pfn: int
    protection: Protection = Protection.READ_WRITE
    valid: bool = True
    locked: bool = False
    kernel: bool = False


@dataclass
class TLBStats:
    hits: int = 0
    misses: int = 0
    user_misses: int = 0
    kernel_misses: int = 0
    flushes: int = 0
    entries_purged: int = 0
    miss_cycles: float = 0.0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.hits = self.misses = 0
        self.user_misses = self.kernel_misses = 0
        self.flushes = self.entries_purged = 0
        self.miss_cycles = 0.0


class TLB:
    """A fixed-size, optionally PID-tagged translation buffer."""

    def __init__(self, spec: TLBSpec) -> None:
        self.spec = spec
        self._slots: List[Optional[TLBEntry]] = [None] * spec.entries
        self._next_victim = 0
        self._index: Dict[Tuple[int, int], int] = {}
        self.stats = TLBStats()
        self.current_asid = 0

    # ------------------------------------------------------------------
    def _key(self, vpn: int, asid: int) -> Tuple[int, int]:
        # untagged TLBs hold only the current context: the tag collapses
        return (vpn, asid if self.spec.pid_tagged else 0)

    def lookup(self, vpn: int, asid: Optional[int] = None, kernel: bool = False) -> Optional[TLBEntry]:
        """Probe for a translation; records hit/miss statistics."""
        asid = self.current_asid if asid is None else asid
        slot = self._index.get(self._key(vpn, asid))
        entry = self._slots[slot] if slot is not None else None
        if entry is not None and entry.valid:
            self.stats.hits += 1
            return entry
        self.stats.misses += 1
        if kernel:
            self.stats.kernel_misses += 1
        else:
            self.stats.user_misses += 1
        self.stats.miss_cycles += self.miss_cost(kernel=kernel)
        if _OBS.metrics_on:
            misses_counter().inc(mode="kernel" if kernel else "user")
        return None

    def probe(self, vpn: int, asid: Optional[int] = None) -> Optional[TLBEntry]:
        """Look without touching statistics (tlbp-style)."""
        asid = self.current_asid if asid is None else asid
        slot = self._index.get(self._key(vpn, asid))
        entry = self._slots[slot] if slot is not None else None
        return entry if entry is not None and entry.valid else None

    # ------------------------------------------------------------------
    def _evict(self, slot: int) -> None:
        old = self._slots[slot]
        if old is not None:
            self._index.pop(self._key(old.vpn, old.asid), None)
            self._slots[slot] = None

    def _pick_victim(self) -> int:
        for _ in range(len(self._slots)):
            slot = self._next_victim
            self._next_victim = (self._next_victim + 1) % len(self._slots)
            entry = self._slots[slot]
            if entry is None or not entry.locked:
                return slot
        raise RuntimeError("all TLB entries are locked; cannot insert")

    def insert(
        self,
        vpn: int,
        pfn: int,
        asid: Optional[int] = None,
        protection: Protection = Protection.READ_WRITE,
        locked: bool = False,
        kernel: bool = False,
    ) -> TLBEntry:
        asid = self.current_asid if asid is None else asid
        if locked:
            in_use = sum(1 for e in self._slots if e is not None and e.locked)
            if in_use >= self.spec.lockable_entries:
                raise RuntimeError(
                    f"TLB supports only {self.spec.lockable_entries} locked entries"
                )
        key = self._key(vpn, asid)
        slot = self._index.get(key)
        if slot is None:
            slot = self._pick_victim()
            self._evict(slot)
        entry = TLBEntry(
            vpn=vpn, asid=asid, pfn=pfn, protection=protection, locked=locked, kernel=kernel
        )
        self._slots[slot] = entry
        self._index[key] = slot
        if _OBS.metrics_on:
            refills_counter().inc(mode="kernel" if kernel else "user")
        return entry

    def invalidate(self, vpn: int, asid: Optional[int] = None) -> bool:
        """Invalidate one entry (TBIS / tlbwi of an invalid entry)."""
        asid = self.current_asid if asid is None else asid
        slot = self._index.pop(self._key(vpn, asid), None)
        if slot is None:
            return False
        self._slots[slot] = None
        return True

    def flush(self, keep_locked: bool = True) -> int:
        """Purge the TLB; returns how many live entries were lost."""
        purged = 0
        for slot, entry in enumerate(self._slots):
            if entry is None:
                continue
            if keep_locked and entry.locked:
                continue
            self._evict(slot)
            purged += 1
        self.stats.flushes += 1
        self.stats.entries_purged += purged
        if _OBS.metrics_on:
            _METRICS.counter("tlb_flushes_total", "whole-TLB purges").inc()
            if purged:
                _METRICS.counter(
                    "tlb_entries_purged_total", "live entries lost to purges",
                ).inc(purged)
        return purged

    # ------------------------------------------------------------------
    def context_switch(self, new_asid: int) -> int:
        """Switch contexts; untagged TLBs purge.  Returns entries lost."""
        self.current_asid = new_asid
        if self.spec.pid_tagged or self.occupancy == 0:
            return 0
        return self.flush()

    def miss_cost(self, kernel: bool = False) -> float:
        """Cycles to service one miss on this organization."""
        if not self.spec.software_managed:
            return float(self.spec.hw_miss_cycles)
        if kernel:
            return float(self.spec.sw_kernel_miss_cycles)
        return float(self.spec.sw_user_miss_cycles)

    @property
    def occupancy(self) -> int:
        return sum(1 for entry in self._slots if entry is not None)

    @property
    def capacity(self) -> int:
        return self.spec.entries

    def resident_vpns(self, asid: Optional[int] = None) -> "set[int]":
        asid = self.current_asid if asid is None else asid
        want = asid if self.spec.pid_tagged else 0
        return {
            entry.vpn
            for entry in self._slots
            if entry is not None and self._key(entry.vpn, entry.asid)[1] == want
        }
