"""Discrete-event simulation core.

Time is measured in integer CE instruction cycles (170 ns each).  Components
schedule callbacks at absolute cycles; ties are broken by scheduling order so
runs are deterministic.

The event queue is a calendar queue (Brown, CACM 1988) with one bucket per
cycle: a dict from cycle to the list of callbacks due then, plus a heap of
the distinct cycles that own a bucket.  Cedar's delays are small fixed cycle
counts, so many events share a cycle and the heap is touched once per
distinct cycle rather than twice per event.

**Bucket order is heap order.**  A ``(cycle, sequence)`` heap breaks ties by
a counter that only grows, so within one cycle it yields events in the order
they were scheduled -- which is exactly the order of appends to that
cycle's bucket.  A delay-0 schedule made by a callback that is dispatching
appends to the bucket being iterated, after everything already in it: the
same place a heap would have put it.  ``tests/hardware/reference_engine.py``
keeps the one-event-at-a-time heap loop as the oracle the differential
tests compare this engine against.

**Cancelled recurrences.**  A :class:`RecurringEvent` cancelled while its
occurrence is queued has that bucket slot replaced by an inert no-op.  The
slot still dispatches, and counts, at its cycle, so ``events_dispatched``
and ``idle_cycles_skipped`` are what a heap holding the dead entry reports.

Idle fast-forward relies on one invariant: **no component mutates simulation
state off-queue**.  All state changes happen inside event callbacks (or
before ``run()`` starts), so cycles with no queued event are provably inert
and the clock can jump straight to the next event.  :meth:`Engine.schedule`
enforces the schedulable half of that contract: scheduling while a run is in
progress is only legal from within a dispatching callback.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional

from repro.errors import SimulationError
from repro.hardware import sanitize

Callback = Callable[[], None]


def _cancelled() -> None:
    """Dispatch target of a cancelled recurring occurrence (a no-op)."""


class RecurringEvent:
    """A re-armable periodic event.

    Components with a fixed cadence (the PFU's one-request-per-cycle issue
    engine) re-arm from inside their own callback instead of paying
    :meth:`Engine.schedule` validation per occurrence.  Each occurrence is
    appended to its cycle's bucket like any other event, so tie order
    against ordinary events is identical to plain scheduling.
    """

    __slots__ = ("_engine", "interval", "callback", "_fire", "_cycle", "_pending")

    def __init__(self, engine: "Engine", interval: int, callback: Callback) -> None:
        if not isinstance(interval, int) or isinstance(interval, bool) or interval < 0:
            raise SimulationError(
                f"recurring interval must be an int >= 0, got {interval!r}"
            )
        self._engine = engine
        self.interval = interval
        self.callback = callback
        #: The one bound method queued per occurrence; cancel() finds the
        #: queued slot by identity.
        self._fire = self._fire_once
        self._cycle = 0
        self._pending = False

    @property
    def pending(self) -> bool:
        """True while the next occurrence sits in the event queue."""
        return self._pending

    def _fire_once(self) -> None:
        self._pending = False
        self.callback()

    def schedule(self) -> None:
        """Arm the next occurrence ``interval`` cycles from now.

        Only one occurrence may be queued at a time, so re-arming before
        the previous occurrence fired is rejected.
        """
        if self._pending:
            raise SimulationError(
                "recurring event re-armed while an occurrence is still pending"
            )
        engine = self._engine
        if engine._sanitizer is not None:
            engine._sanitizer.check_schedule_call(
                engine, self.interval, "engine.recurring"
            )
        cycle = self._cycle = engine._now + self.interval
        self._pending = True
        bucket = engine._buckets.get(cycle)
        if bucket is None:
            engine._buckets[cycle] = [self._fire]
            heappush(engine._times, cycle)
        else:
            bucket.append(self._fire)

    def cancel(self) -> None:
        """Cancel the pending occurrence (a no-op when none is pending).

        The queued slot becomes an inert callback that still dispatches,
        and is counted, at its cycle (see the module docstring).
        """
        if not self._pending:
            return
        bucket = self._engine._buckets[self._cycle]
        fire = self._fire
        index = len(bucket) - 1
        while bucket[index] is not fire:
            index -= 1
        bucket[index] = _cancelled
        self._pending = False


class Engine:
    """A deterministic event queue over an integer cycle clock."""

    def __init__(self) -> None:
        #: Cycle -> callbacks due then, in scheduling order.
        self._buckets: Dict[int, List[Callback]] = {}
        #: Heap of the cycles that own a bucket.
        self._times: List[int] = []
        self._now = 0
        self._running = False
        self._in_dispatch = False
        self._run_dispatched = 0
        self._run_skipped = 0
        #: Armed invariant checker or None (see repro.hardware.sanitize).
        self._sanitizer = sanitize.current()
        #: Total events dispatched over this engine's lifetime.
        self.events_dispatched = 0
        #: Cycles the clock jumped over because no event was queued in them.
        self.idle_cycles_skipped = 0
        #: Optional enabled :class:`repro.trace.Tracer`; set by the machine.
        #: Dispatch totals are counted per run() so the per-event cost of
        #: instrumentation is zero.
        self.tracer = None

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def schedule(self, delay: int, callback: Callback) -> None:
        """Run ``callback`` ``delay`` cycles from now (integral delay >= 0).

        Integral floats (``5.0``) are coerced to int; non-integral delays
        raise, because events drifting off the integer cycle clock would
        break the per-cycle tie order that makes runs deterministic.  The
        validated delay is queued through :meth:`schedule_after`.
        """
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
        """:meth:`schedule` minus validation, for dispatch-critical callers.

        ``delay`` MUST be a non-negative int the caller has already
        validated (a constant, or arithmetic over validated ints); hot
        components (memory service completions, network deliveries) use
        this to skip the per-call checks.  The sanitizer re-arms exactly
        those checks, so ``--sanitize`` runs catch a caller breaking the
        contract.
        """
        if self._sanitizer is not None:
            self._sanitizer.check_schedule_call(self, delay, "engine.schedule_after")
        cycle = self._now + delay
        bucket = self._buckets.get(cycle)
        if bucket is None:
            self._buckets[cycle] = [callback]
            heappush(self._times, cycle)
        else:
            bucket.append(callback)

    def schedule_pair(
        self, delay: int, callback: Callback, now_callback: Callback
    ) -> None:
        """``schedule_after(delay, callback)`` then
        ``schedule_after(0, now_callback)``, in one call.

        Same contract as :meth:`schedule_after`; the crossbar queues a
        transfer's completion and its same-cycle re-scan through this.
        """
        sanitizer = self._sanitizer
        if sanitizer is not None:
            # One check per queued event, as every entry point counts.
            sanitizer.check_schedule_call(self, delay, "engine.schedule_pair")
            sanitizer.check_schedule_call(self, 0, "engine.schedule_pair")
        buckets = self._buckets
        now = self._now
        cycle = now + delay
        bucket = buckets.get(cycle)
        if bucket is None:
            buckets[cycle] = [callback]
            heappush(self._times, cycle)
        else:
            bucket.append(callback)
        bucket = buckets.get(now)
        if bucket is None:
            buckets[now] = [now_callback]
            heappush(self._times, now)
        else:
            bucket.append(now_callback)

    def recurring(self, interval: int, callback: Callback) -> RecurringEvent:
        """A reusable periodic event; see :class:`RecurringEvent`."""
        return RecurringEvent(self, interval, callback)

    def pending(self) -> int:
        """Number of events not yet dispatched (between runs only).

        Mid-run the cycle being dispatched still holds its dispatched
        events, so the count would be wrong; that is refused instead.
        """
        if self._running:
            raise SimulationError("pending() is only exact between runs")
        return sum(map(len, self._buckets.values()))

    def run(self, until: Optional[int] = None, max_events: int = 50_000_000) -> int:
        """Dispatch events in time order.

        Args:
            until: Stop once the clock would pass this cycle (events at
                exactly ``until`` still run).  ``None`` runs to exhaustion.
            max_events: Safety valve against runaway simulations.

        Returns:
            The simulation time when the run stopped.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run())")
        self._running = True
        self._run_dispatched = 0
        self._run_skipped = 0
        try:
            return self._dispatch(until, max_events)
        finally:
            self._running = False
            dispatched = self._run_dispatched
            self.events_dispatched += dispatched
            self.idle_cycles_skipped += self._run_skipped
            if self.tracer is not None:
                self.tracer.count("engine", "events_dispatched", dispatched)
                self.tracer.count("engine", "runs")
                if self._run_skipped:
                    self.tracer.count(
                        "engine", "idle_cycles_skipped", self._run_skipped
                    )

    def _dispatch(self, until: Optional[int], max_events: int) -> int:
        """Dispatch one cycle's bucket at a time, in bucket order."""
        buckets = self._buckets
        times = self._times
        dispatched = 0
        now = self._now
        sanitizer = self._sanitizer
        self._in_dispatch = True
        try:
            while times:
                time = times[0]
                if time != now:
                    if sanitizer is not None:
                        sanitizer.check_clock_advance(self, time, now)
                    if until is not None and time > until:
                        now = until
                        break
                    if dispatched >= max_events:
                        raise _runaway(max_events, now)
                    if time - now > 1:
                        # Idle fast-forward: nothing is queued in the gap and
                        # nothing mutates state off-queue, so jump the clock.
                        self._run_skipped += time - now - 1
                    now = self._now = time
                bucket = buckets[time]
                first = dispatched
                try:
                    # Iterating the live list also dispatches the delay-0
                    # events callbacks append to it, in append order.
                    for callback in bucket:
                        if dispatched >= max_events:
                            raise _runaway(max_events, now)
                        # Counted before the call, so an aborted run
                        # accounts the raising event as dispatched.
                        dispatched += 1
                        callback()
                except BaseException:
                    # Leave the rest of this cycle queued for a later run.
                    del bucket[: dispatched - first]
                    if not bucket:
                        del buckets[time]
                        heappop(times)
                    raise
                del buckets[time]
                heappop(times)
            else:
                if until is not None and until > now:
                    now = until
            self._now = now
            return now
        finally:
            self._in_dispatch = False
            self._run_dispatched = dispatched


def _runaway(max_events: int, cycle: int) -> SimulationError:
    # ``cycle`` is the last dispatched cycle, never the one about to start.
    return SimulationError(
        f"exceeded {max_events} events at cycle {cycle}; simulation is runaway"
    )


def _coerce_delay(delay: object) -> int:
    if isinstance(delay, bool):
        raise SimulationError(f"delay must be a cycle count, got {delay!r}")
    if isinstance(delay, int):
        return int(delay)
    if isinstance(delay, float) and delay.is_integer():
        return int(delay)
    raise SimulationError(
        f"delay must be an integral number of cycles, got {delay!r}; "
        f"fractional delays drift events off the integer cycle clock"
    )
