"""Micro-batching: jobs admitted in one event-loop turn share a dispatch.

Admitted jobs do not dispatch one by one: per endpoint, the first
arrival schedules a flush for the next turn of the event loop
(``loop.call_soon``); every job for the same endpoint admitted before
that flush runs — or until the batch reaches ``max_batch``, which
flushes at once — is dispatched as one list through a single
:meth:`repro.core.engine.SweepRunner.map` call on the worker pool.
No job ever waits on a timer: a lone request is dispatched on the very
next turn, and a burst that arrives together (many connections read in
one turn, or a ``gather`` of submissions) still amortizes the executor
hop across its batch.

The batcher owns only the grouping; what a dispatched batch *does* is
the app's callback, so this module stays free of protocol and engine
concerns.  Event-loop-only, like the other serving disciplines.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, List, Optional, Set

from repro.serve.protocol import Endpoint


@dataclass
class Job:
    """One admitted request on its way to a batch."""

    endpoint: Endpoint
    params: Dict[str, Any]
    key: str
    #: perf_counter timestamps (admission, and the absolute deadline).
    admitted_t: float
    deadline_t: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)


class MicroBatcher:
    """Groups the jobs admitted in one event-loop turn, per endpoint."""

    def __init__(self, dispatch: Callable[[List[Job]], Awaitable[None]], *,
                 max_batch: int = 16) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self._dispatch = dispatch
        self.max_batch = max_batch
        self._queues: Dict[str, List[Job]] = {}
        self._dispatches: Set[asyncio.Task] = set()

    def submit(self, job: Job) -> None:
        """Queue a job; flushes immediately when the batch fills."""
        name = job.endpoint.name
        queue = self._queues.get(name)
        if queue is None:
            queue = self._queues[name] = []
            # When an earlier group filled up and flushed at once, its
            # scheduled flush is still pending and takes this queue
            # instead; either way no queued job outlives the next turn.
            asyncio.get_running_loop().call_soon(self._flush, name)
        queue.append(job)
        if len(queue) >= self.max_batch:
            self._flush(name)

    def _flush(self, name: str) -> None:
        jobs = self._queues.pop(name, None)
        if not jobs:
            return
        task = asyncio.get_running_loop().create_task(self._dispatch(jobs))
        self._dispatches.add(task)
        task.add_done_callback(self._dispatches.discard)

    async def drain(self) -> None:
        """Flush and wait until every dispatched batch has completed."""
        for name in list(self._queues):
            self._flush(name)
        while self._dispatches:
            await asyncio.gather(*list(self._dispatches),
                                 return_exceptions=True)
