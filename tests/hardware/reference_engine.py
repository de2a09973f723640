"""Reference event engine: the one-event-at-a-time heap loop.

This is the oracle the differential tests hold ``repro.hardware.engine``
to.  It keeps the plainest possible ordering argument: every event is a
``[cycle, sequence, callback]`` heap entry, the sequence counter only
grows, and the loop pops and dispatches one entry at a time.  It exposes
the same public API as :class:`repro.hardware.engine.Engine` (plus the
private fields the sanitizer reads), so a whole machine can be built on
it.

Accounting matches the production engine: an event is counted as
dispatched before its callback runs, so a raising callback is counted; a
cancelled recurrence stays queued as an inert entry that still dispatches
and counts; the runaway error names the last dispatched cycle.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import _coerce_delay

Callback = Callable[[], None]


def _cancelled() -> None:
    """Dispatch target of a cancelled recurring occurrence (a no-op)."""


class ReferenceRecurringEvent:
    """Recurring event that re-arms one mutable heap entry."""

    def __init__(
        self, engine: "ReferenceEngine", interval: int, callback: Callback
    ) -> None:
        if not isinstance(interval, int) or isinstance(interval, bool) or interval < 0:
            raise SimulationError(
                f"recurring interval must be an int >= 0, got {interval!r}"
            )
        self._engine = engine
        self.interval = interval
        self.callback = callback
        self._entry = [0, 0, self._fire]
        self._pending = False

    @property
    def pending(self) -> bool:
        return self._pending

    def _fire(self) -> None:
        self._pending = False
        self.callback()

    def schedule(self) -> None:
        if self._pending:
            raise SimulationError(
                "recurring event re-armed while an occurrence is still pending"
            )
        engine = self._engine
        if engine._sanitizer is not None:
            engine._sanitizer.check_schedule_call(
                engine, self.interval, "engine.recurring"
            )
        entry = self._entry
        entry[0] = engine._now + self.interval
        entry[1] = next(engine._sequence)
        self._pending = True
        heapq.heappush(engine._queue, entry)

    def cancel(self) -> None:
        # The dead entry stays in the heap with an inert callback; re-arming
        # uses a fresh entry rather than rewriting the queued one.
        if not self._pending:
            return
        self._entry[2] = _cancelled
        self._entry = [0, 0, self._fire]
        self._pending = False


class ReferenceEngine:
    """Heap-of-entries event queue dispatching one event at a time."""

    def __init__(self) -> None:
        self._queue: List[list] = []
        self._sequence = itertools.count()
        self._now = 0
        self._running = False
        self._in_dispatch = False
        self._sanitizer = sanitize.current()
        self.events_dispatched = 0
        self.idle_cycles_skipped = 0
        self.tracer = None

    @property
    def now(self) -> int:
        return self._now

    def _push(self, delay: int, callback: Callback) -> None:
        heapq.heappush(
            self._queue, [self._now + delay, next(self._sequence), callback]
        )

    def schedule(self, delay: int, callback: Callback) -> None:
        if type(delay) is not int:
            delay = _coerce_delay(delay)
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        if self._running and not self._in_dispatch:
            raise SimulationError(
                "schedule() outside an event callback while the engine is "
                "running; components must not mutate simulation state "
                "off-queue (the idle fast-forward invariant, see DESIGN.md)"
            )
        self.schedule_after(delay, callback)

    def schedule_after(self, delay: int, callback: Callback) -> None:
        if self._sanitizer is not None:
            self._sanitizer.check_schedule_call(self, delay, "engine.schedule_after")
        self._push(delay, callback)

    def schedule_pair(
        self, delay: int, callback: Callback, now_callback: Callback
    ) -> None:
        if self._sanitizer is not None:
            self._sanitizer.check_schedule_call(self, delay, "engine.schedule_pair")
            self._sanitizer.check_schedule_call(self, 0, "engine.schedule_pair")
        self._push(delay, callback)
        self._push(0, now_callback)

    def recurring(self, interval: int, callback: Callback) -> ReferenceRecurringEvent:
        return ReferenceRecurringEvent(self, interval, callback)

    def pending(self) -> int:
        return len(self._queue)

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> int:
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._in_dispatch = True
        dispatched = 0
        skipped = 0
        try:
            while self._queue:
                time, _, callback = self._queue[0]
                if self._sanitizer is not None and time != self._now:
                    self._sanitizer.check_clock_advance(self, time, self._now)
                if until is not None and time > until:
                    self._now = until
                    break
                if dispatched >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events at cycle {self._now}; "
                        f"simulation is runaway"
                    )
                heapq.heappop(self._queue)
                if time - self._now > 1:
                    skipped += time - self._now - 1
                self._now = time
                dispatched += 1
                callback()
            else:
                if until is not None and until > self._now:
                    self._now = until
            return self._now
        finally:
            self._running = False
            self._in_dispatch = False
            self.events_dispatched += dispatched
            self.idle_cycles_skipped += skipped
            if self.tracer is not None:
                self.tracer.count("engine", "events_dispatched", dispatched)
                self.tracer.count("engine", "runs")
                if skipped:
                    self.tracer.count("engine", "idle_cycles_skipped", skipped)
