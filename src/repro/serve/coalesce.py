"""In-flight request coalescing (single-flight execution).

Identical concurrent requests — same endpoint, same content key — are
collapsed onto one execution: the first arrival becomes the *leader*
and owns the computation, every later arrival while the leader is in
flight becomes a *follower* and awaits the leader's future.  N
identical concurrent requests therefore cost one engine execution and
N-1 cache-free replies, which is the serving-side analogue of the
engine's content-addressed memoization: the memo cache deduplicates
across time, the single-flight table deduplicates across concurrency.

The table is strictly in-flight: an entry is removed the moment its
flight finishes, so coalescing never serves stale results.  A request
arriving after completion is answered by the app's answer memo when
its endpoint is pure and it carries no nonce, and otherwise starts a
fresh flight (which typically hits the engine cache).

Single-threaded by design: every method runs on the serving event
loop, so there is no locking here.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Optional, Tuple


class _Flight:
    __slots__ = ("future", "followers")

    def __init__(self, future: "asyncio.Future[Any]") -> None:
        self.future = future
        self.followers = 0


class SingleFlight:
    """Key -> in-flight future, with follower accounting."""

    def __init__(self) -> None:
        self._inflight: Dict[str, _Flight] = {}
        #: lifetime counters (metrics read these through the app).
        self.total_leaders = 0
        self.total_followers = 0

    def __len__(self) -> int:
        return len(self._inflight)

    def join(self, key: str) -> "Tuple[asyncio.Future[Any], bool]":
        """Attach to the flight for ``key``: (shared future, is_leader)."""
        flight = self._inflight.get(key)
        if flight is not None:
            flight.followers += 1
            self.total_followers += 1
            return flight.future, False
        flight = _Flight(asyncio.get_running_loop().create_future())
        self._inflight[key] = flight
        self.total_leaders += 1
        return flight.future, True

    def finish(self, key: str, *, result: Any = None,
               error: Optional[BaseException] = None) -> int:
        """Resolve and remove the flight; returns how many followers shared it."""
        flight = self._inflight.pop(key, None)
        if flight is None:
            return 0
        if not flight.future.done():
            if error is not None:
                flight.future.set_exception(error)
                # Mark retrieved so a leader whose await was cancelled
                # does not leave an "exception never retrieved" warning.
                flight.future.exception()
            else:
                flight.future.set_result(result)
        return flight.followers
