"""Property-based tests: Engine.schedule delay coercion and ordering.

The engine's integer cycle clock accepts integral floats (``5.0``) as a
convenience but must reject every non-integral delay -- a fractional
event would drift off the tie-ordered clock and break determinism.  The
calendar-queue engine must also dispatch exactly what the one-at-a-time
heap reference (``reference_engine.py``) does, on random schedule programs.
"""

import math

from hypothesis import given, settings, strategies as st

import pytest

from reference_engine import ReferenceEngine
from repro.errors import SimulationError
from repro.hardware.engine import Engine


class TestDelayCoercion:
    @settings(max_examples=80, deadline=None)
    @given(delay=st.integers(0, 10_000))
    def test_integral_floats_accepted_like_ints(self, delay):
        as_int, as_float = Engine(), Engine()
        fired = []
        as_int.schedule(delay, lambda: fired.append(as_int.now))
        as_float.schedule(float(delay), lambda: fired.append(as_float.now))
        as_int.run()
        as_float.run()
        assert fired == [delay, delay]

    @settings(max_examples=80, deadline=None)
    @given(
        delay=st.floats(
            min_value=0.0, max_value=10_000.0,
            allow_nan=False, allow_infinity=False,
        ).filter(lambda f: not f.is_integer())
    )
    def test_non_integral_floats_always_rejected(self, delay):
        engine = Engine()
        with pytest.raises(SimulationError, match="integral"):
            engine.schedule(delay, lambda: None)
        assert engine.pending() == 0  # nothing half-scheduled

    @settings(max_examples=40, deadline=None)
    @given(
        delay=st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).filter(
                lambda f: math.isnan(f) or math.isinf(f)
            ),
            st.booleans(),
            st.text(max_size=4),
            st.none(),
        )
    )
    def test_non_cycle_delays_always_rejected(self, delay):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(delay, lambda: None)
        assert engine.pending() == 0

    @settings(max_examples=40, deadline=None)
    @given(delays=st.lists(st.integers(0, 50), min_size=1, max_size=30))
    def test_dispatch_order_is_time_then_fifo(self, delays):
        """Both engines dispatch (cycle, arrival-order) sorted, exactly."""
        runs = []
        for engine_class in (Engine, ReferenceEngine):
            engine = engine_class()
            order = []
            for index, delay in enumerate(delays):
                engine.schedule(delay, lambda d=delay, i=index: order.append((d, i)))
            engine.run()
            runs.append(order)
        expected = sorted((d, i) for i, d in enumerate(delays))
        assert runs[0] == expected
        assert runs[1] == expected


# ---------------------------------------------------------------------------
# Differential: calendar-queue Engine vs the one-at-a-time heap reference
# ---------------------------------------------------------------------------

_DELAYS = st.one_of(
    st.integers(0, 64), st.just(0), st.sampled_from([500, 4096, 100_000])
)


@st.composite
def _programs(draw):
    """A random schedule program, interpreted identically on any engine.

    Events form a forest: event ``j`` is scheduled (with its own delay)
    before the first run when it is a root, else when its parent fires, so
    every event is scheduled exactly once.  An event may also arm or cancel
    one of up to three recurring events (each re-arms itself a bounded
    number of times) or raise mid-cycle.  The run plan mixes
    ``run(until=...)`` stop/resume and ``max_events`` caps.
    """
    count = draw(st.integers(1, 30))
    events = []
    for index in range(count):
        events.append({
            "delay": draw(_DELAYS),
            "parent": draw(st.integers(-1, index - 1)),
            "arm": draw(st.one_of(st.none(), st.integers(0, 2))),
            "cancel": draw(st.one_of(st.none(), st.integers(0, 2))),
            "raises": draw(st.integers(0, 9)) == 0,
        })
    recurring = draw(st.lists(
        st.tuples(st.integers(0, 8), st.integers(1, 5)), min_size=0, max_size=3
    ))
    plan = draw(st.lists(
        st.tuples(
            st.one_of(st.none(), st.integers(0, 80)),
            st.one_of(st.none(), st.integers(0, 12)),
        ),
        min_size=1, max_size=6,
    ))
    return events, recurring, plan


def _interpret(engine_class, program):
    """Run ``program``; return the dispatch stream and per-run snapshots."""
    events, recurring, plan = program
    engine = engine_class()
    stream = []
    children = {index: [] for index in range(len(events))}
    for index, event in enumerate(events):
        if event["parent"] >= 0:
            children[event["parent"]].append(index)
    ticks = []

    def make_tick(slot, limit):
        fired = [0]

        def tick():
            stream.append((engine.now, f"r{slot}"))
            fired[0] += 1
            if fired[0] < limit:
                ticks[slot].schedule()

        return tick

    for slot, (interval, limit) in enumerate(recurring):
        ticks.append(engine.recurring(interval, make_tick(slot, limit)))

    def fire(index):
        event = events[index]
        stream.append((engine.now, index))
        for child in children[index]:
            engine.schedule(events[child]["delay"], lambda c=child: fire(c))
        arm, cancel = event["arm"], event["cancel"]
        if arm is not None and arm < len(ticks) and not ticks[arm].pending:
            ticks[arm].schedule()
        if cancel is not None and cancel < len(ticks):
            ticks[cancel].cancel()
        if event["raises"]:
            raise RuntimeError(f"event {index} faulted")

    for index, event in enumerate(events):
        if event["parent"] < 0:
            engine.schedule(event["delay"], lambda i=index: fire(i))

    def observe(outcome):
        return (
            outcome, engine.now, engine.events_dispatched,
            engine.idle_cycles_skipped, engine.pending(),
        )

    snapshots = []
    for until_offset, max_events in plan + [(None, None)] * 40:
        until = None if until_offset is None else engine.now + until_offset
        kwargs = {} if max_events is None else {"max_events": max_events}
        try:
            outcome = engine.run(until=until, **kwargs)
        except (RuntimeError, SimulationError) as error:
            outcome = type(error).__name__
        snapshots.append(observe(outcome))
        if not engine.pending():
            break
    return stream, snapshots


class TestCalendarMatchesReference:
    @settings(max_examples=300, deadline=None)
    @given(program=_programs())
    def test_dispatch_stream_and_counters_identical(self, program):
        calendar = _interpret(Engine, program)
        reference = _interpret(ReferenceEngine, program)
        assert calendar == reference
        # The program always drains: the last run left nothing queued.
        assert calendar[1][-1][4] == 0
