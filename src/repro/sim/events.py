"""The discrete-event kernel the serving engines run on.

An engine is a list of event sources in its fixed per-instant phase
order.  A source reports the earliest virtual instant it has work
(``peek``) and does all of its work due by an instant (``fire``).  The
one loop, :meth:`EventKernel._run_events`, moves the engine's clock to
the earliest peek and fires every source in phase order: a phase checks
for itself whether it is due, so the later phases of an instant see the
work the earlier ones made.  ``docs/serving.md`` lists each engine's
phases and states the scrape rule.  The legacy scan engine
(:mod:`repro.serve.legacy`) keeps its own loop on purpose, as the oracle.
"""

from __future__ import annotations

import heapq
from operator import itemgetter
from typing import Callable, Hashable, List, NamedTuple, Optional, Sequence, Tuple


class Source(NamedTuple):
    """An event source made of two callables.  With ``peek=None`` the
    phase works at the instants the other sources pick."""

    peek: Optional[Callable[[], Optional[float]]]
    fire: Callable[[float], None]


class Schedule:
    """A fixed, time-sorted list of entries, each handed once to
    ``handle`` when the clock reaches ``at(entry)`` (by default the first
    item of a ``(time_us, ...)`` event tuple)."""

    __slots__ = ("_entries", "_times", "_handle", "_next")

    def __init__(self, entries: Sequence, handle: Callable, *, at=itemgetter(0)) -> None:
        self._entries = entries
        self._times = [at(entry) for entry in entries]
        self._handle = handle
        self._next = 0

    def peek(self) -> Optional[float]:
        i = self._next
        return self._times[i] if i < len(self._times) else None

    def fire(self, now: float) -> None:
        times, entries, handle = self._times, self._entries, self._handle
        i, n = self._next, len(times)
        while i < n and times[i] <= now:
            handle(entries[i])
            i += 1
        self._next = i


class Timers(dict):
    """``key -> deadline``, plus a heap that finds the earliest deadline.

    Set deadlines with :meth:`set`.  Deleting or overwriting a key strands
    its heap entry, which is dropped when it surfaces (lazy invalidation).
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        super().__init__()
        self._heap: List[Tuple[float, Hashable]] = []

    def set(self, key: Hashable, at: float) -> None:
        self[key] = at
        heapq.heappush(self._heap, (at, key))

    def peek(self) -> Optional[float]:
        heap = self._heap
        while heap:
            at, key = heap[0]
            if self.get(key) == at:
                return at
            heapq.heappop(heap)
        return None

    def pop_due(self, now: float) -> Optional[Hashable]:
        """Remove and return the key of the earliest deadline if it is due
        by ``now`` (ties break by key), else None."""
        heap = self._heap
        while heap and heap[0][0] <= now:
            at, key = heapq.heappop(heap)
            if self.get(key) == at:
                del self[key]
                return key
        return None


class EventKernel:
    """Base of the event engines: the virtual clock and its one loop."""

    _now = 0.0
    """The virtual clock (simulated us)."""

    def _run_events(self, sources: Sequence[Source], *, drain, telemetry=None) -> None:
        """Fire ``sources`` in phase order at each instant one of them
        peeks, until none has work; then call ``drain`` for the work that
        can no longer run.  ``telemetry`` (None: off) is the pipeline whose
        ``scrape`` the scrape rule drives every ``scrape_interval_us``:
        a scrape subdivides a wait but never extends the makespan, runs
        last in its instant, and runs once more at the makespan."""
        peeks = [source.peek for source in sources if source.peek is not None]
        fires = [source.fire for source in sources]
        scrape_at = interval = None
        if telemetry is not None:
            interval = telemetry.scrape_interval_us
            scrape_at = self._now + interval
        while True:
            t = None
            for peek in peeks:
                due = peek()
                if due is not None and (t is None or due < t):
                    t = due
            if t is None:
                break
            if scrape_at is not None and scrape_at < t:
                t = scrape_at
            if t > self._now:
                self._now = t
            now = self._now
            for fire in fires:
                fire(now)
            if scrape_at is not None:
                while scrape_at <= now:
                    telemetry.scrape(scrape_at)
                    scrape_at += interval
        drain()
        if telemetry is not None:
            telemetry.scrape(self._now)
