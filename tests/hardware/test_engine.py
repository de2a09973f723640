"""Tests for the discrete-event engine."""

import pytest

from reference_engine import ReferenceEngine
from repro.errors import SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine


@pytest.fixture(params=[Engine, ReferenceEngine], ids=["fast", "legacy"])
def any_engine(request):
    """The calendar-queue engine and the one-at-a-time heap reference;
    they must be behaviourally identical."""
    return request.param()


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(5, lambda: order.append("late"))
        engine.schedule(1, lambda: order.append("early"))
        engine.run()
        assert order == ["early", "late"]

    def test_ties_break_by_scheduling_order(self):
        engine = Engine()
        order = []
        for tag in ("first", "second", "third"):
            engine.schedule(3, lambda t=tag: order.append(t))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_clock_advances_to_event_time(self):
        engine = Engine()
        seen = []
        engine.schedule(7, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [7]
        assert engine.now == 7

    def test_nested_scheduling(self):
        engine = Engine()
        seen = []

        def outer():
            engine.schedule(2, lambda: seen.append(engine.now))

        engine.schedule(3, outer)
        engine.run()
        assert seen == [5]

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.schedule(-1, lambda: None)


class TestRunControl:
    def test_until_stops_before_later_events(self):
        engine = Engine()
        seen = []
        engine.schedule(5, lambda: seen.append("early"))
        engine.schedule(50, lambda: seen.append("late"))
        engine.run(until=10)
        assert seen == ["early"]
        assert engine.now == 10
        assert engine.pending() == 1
        engine.run()
        assert seen == ["early", "late"]

    def test_event_exactly_at_until_runs(self):
        engine = Engine()
        seen = []
        engine.schedule(10, lambda: seen.append("edge"))
        engine.run(until=10)
        assert seen == ["edge"]

    def test_runaway_guard(self):
        engine = Engine()

        def forever():
            engine.schedule(1, forever)

        engine.schedule(0, forever)
        with pytest.raises(SimulationError):
            engine.run(max_events=1000)

    def test_exactly_max_events_completes(self):
        """The guard fires only when a (max_events+1)-th event is pending."""
        engine = Engine()
        for _ in range(10):
            engine.schedule(1, lambda: None)
        assert engine.run(max_events=10) == 1
        assert engine.pending() == 0

    def test_runaway_error_names_the_cycle(self):
        engine = Engine()

        def forever():
            engine.schedule(1, forever)

        engine.schedule(0, forever)
        with pytest.raises(SimulationError, match=r"at cycle 999"):
            engine.run(max_events=1000)

    def test_run_counts_dispatches_on_attached_tracer(self):
        from repro.trace import Tracer

        engine = Engine()
        tracer = Tracer(clock=lambda: engine.now)
        engine.tracer = tracer.if_enabled()
        for delay in (1, 2, 3):
            engine.schedule(delay, lambda: None)
        engine.run()
        totals = tracer.counter_totals()["engine"]
        assert totals == {"events_dispatched": 3, "runs": 1}

    def test_pending_refused_mid_run(self):
        engine = Engine()
        seen = []
        engine.schedule(1, lambda: None)

        def probe():
            with pytest.raises(SimulationError, match="between runs"):
                engine.pending()
            seen.append(True)

        engine.schedule(1, probe)
        engine.run()
        assert seen == [True]
        assert engine.pending() == 0

    def test_reentrant_run_rejected(self):
        engine = Engine()

        def recurse():
            engine.run()

        engine.schedule(0, recurse)
        with pytest.raises(SimulationError):
            engine.run()

    def test_determinism_across_instances(self):
        def trace():
            engine = Engine()
            log = []
            for delay in (3, 1, 4, 1, 5):
                engine.schedule(delay, lambda d=delay: log.append((engine.now, d)))
            engine.run()
            return log

        assert trace() == trace()


class TestDelayValidation:
    def test_integral_float_coerced(self, any_engine):
        engine = any_engine
        seen = []
        engine.schedule(5.0, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [5]
        assert engine.now == 5

    def test_fractional_delay_rejected(self, any_engine):
        with pytest.raises(SimulationError, match="integral"):
            any_engine.schedule(1.5, lambda: None)

    def test_bool_delay_rejected(self, any_engine):
        with pytest.raises(SimulationError):
            any_engine.schedule(True, lambda: None)

    def test_non_numeric_delay_rejected(self, any_engine):
        with pytest.raises(SimulationError):
            any_engine.schedule("3", lambda: None)


class TestOffQueueInvariant:
    def test_schedule_outside_callback_while_running_rejected(self, any_engine):
        """The idle fast-forward contract: no off-queue scheduling mid-run."""
        engine = any_engine
        engine._running = True  # as if run() were live without a dispatch
        with pytest.raises(SimulationError, match="off-queue"):
            engine.schedule(1, lambda: None)
        engine._running = False

    def test_schedule_inside_callback_allowed(self, any_engine):
        engine = any_engine
        seen = []
        engine.schedule(1, lambda: engine.schedule(1, lambda: seen.append("ok")))
        engine.run()
        assert seen == ["ok"]


class TestFastDispatch:
    def test_same_cycle_batch_preserves_order_with_nested(self, any_engine):
        """Events scheduled while a cycle dispatches run after it, in order."""
        engine = any_engine
        order = []

        def first():
            order.append("first")
            engine.schedule(0, lambda: order.append("nested"))

        engine.schedule(2, first)
        engine.schedule(2, lambda: order.append("second"))
        engine.schedule(3, lambda: order.append("later"))
        engine.run()
        assert order == ["first", "second", "nested", "later"]

    def test_max_events_mid_batch_leaves_remainder_queued(self):
        engine = Engine()
        seen = []
        for tag in range(5):
            engine.schedule(1, lambda t=tag: seen.append(t))
        with pytest.raises(SimulationError):
            engine.run(max_events=3)
        assert seen == [0, 1, 2]
        assert engine.pending() == 2
        assert engine.events_dispatched == 3

    def test_exception_mid_batch_requeues_remainder(self):
        engine = Engine()
        seen = []

        def boom():
            raise RuntimeError("component fault")

        engine.schedule(1, lambda: seen.append("a"))
        engine.schedule(1, boom)
        engine.schedule(1, lambda: seen.append("b"))
        with pytest.raises(RuntimeError):
            engine.run()
        assert seen == ["a"]
        assert engine.pending() == 1  # "b" survived the abort
        engine.run()
        assert seen == ["a", "b"]

    def test_idle_cycles_skipped_counted(self, any_engine):
        engine = any_engine
        engine.schedule(1, lambda: None)
        engine.schedule(1000, lambda: None)
        engine.run()
        assert engine.now == 1000
        # gap 1 -> 1000 has 998 empty cycles; 0 -> 1 has none.
        assert engine.idle_cycles_skipped == 998

    def test_events_dispatched_accumulates_across_runs(self, any_engine):
        engine = any_engine
        engine.schedule(1, lambda: None)
        engine.run()
        engine.schedule(1, lambda: None)
        engine.run()
        assert engine.events_dispatched == 2

    def test_fast_and_legacy_produce_identical_traces(self):
        def trace(engine_class):
            engine = engine_class()
            log = []

            def tick(round_no):
                log.append((engine.now, round_no))
                if round_no < 20:
                    engine.schedule(round_no % 3, lambda: tick(round_no + 1))

            engine.schedule(0, lambda: tick(0))
            engine.schedule(7, lambda: log.append((engine.now, "seven")))
            for delay in (5, 5, 5):
                engine.schedule(delay, lambda d=delay: log.append((engine.now, d)))
            end = engine.run()
            return log, end, engine.events_dispatched, engine.idle_cycles_skipped

        assert trace(Engine) == trace(ReferenceEngine)

    def test_until_with_fast_forward(self, any_engine):
        engine = any_engine
        seen = []
        engine.schedule(5, lambda: seen.append("early"))
        engine.schedule(500, lambda: seen.append("late"))
        assert engine.run(until=100) == 100
        assert seen == ["early"]
        assert engine.now == 100
        engine.run()
        assert seen == ["early", "late"]


class TestSanitizedScheduleCount:
    """The sanitizer counts one ``engine.schedule`` check per queued event,
    whichever entry point queued it."""

    @staticmethod
    def _two_events(entry_point, engine):
        # Events at delay 3 and delay 0, queued from inside a callback.
        if entry_point == "schedule":
            engine.schedule(3, lambda: None)
            engine.schedule(0, lambda: None)
        elif entry_point == "schedule_after":
            engine.schedule_after(3, lambda: None)
            engine.schedule_after(0, lambda: None)
        elif entry_point == "schedule_pair":
            engine.schedule_pair(3, lambda: None, lambda: None)
        else:
            engine.recurring(3, lambda: None).schedule()
            engine.recurring(0, lambda: None).schedule()

    @pytest.mark.parametrize("engine_class", [Engine, ReferenceEngine])
    def test_every_entry_point_counts_one_check_per_event(self, engine_class):
        counts = {}
        for entry_point in ("schedule", "schedule_after", "schedule_pair",
                            "recurring"):
            with sanitize.sanitizing() as sanitizer:
                engine = engine_class()
                engine.schedule_after(
                    0, lambda: self._two_events(entry_point, engine)
                )
                before = sanitizer.checks["engine.schedule"]
                engine.run()
                counts[entry_point] = sanitizer.checks["engine.schedule"] - before
                assert engine.events_dispatched == 3
        assert counts == {
            "schedule": 2, "schedule_after": 2, "schedule_pair": 2,
            "recurring": 2,
        }


class TestRecurringEvent:
    def test_fires_at_interval(self, any_engine):
        engine = any_engine
        ticks = []
        event = engine.recurring(3, lambda: ticks.append(engine.now))

        def start():
            event.schedule()

        engine.schedule(0, start)
        engine.schedule(100, lambda: None)
        engine.run(until=10)
        assert ticks == [3]

    def test_rearm_from_callback_chains(self, any_engine):
        engine = any_engine
        ticks = []

        def tick():
            ticks.append(engine.now)
            if len(ticks) < 4:
                event.schedule()

        event = engine.recurring(2, tick)
        event.schedule()
        engine.run()
        assert ticks == [2, 4, 6, 8]

    def test_rearm_while_pending_rejected(self, any_engine):
        engine = any_engine
        event = engine.recurring(2, lambda: None)
        event.schedule()
        assert event.pending
        with pytest.raises(SimulationError, match="pending"):
            event.schedule()

    def test_interval_validation(self, any_engine):
        with pytest.raises(SimulationError):
            any_engine.recurring(-1, lambda: None)
        with pytest.raises(SimulationError):
            any_engine.recurring(1.5, lambda: None)
        with pytest.raises(SimulationError):
            any_engine.recurring(True, lambda: None)

    def test_ties_with_plain_events_break_by_arming_order(self, any_engine):
        engine = any_engine
        order = []

        def setup():
            event.schedule()  # armed first -> fires first at cycle 2
            engine.schedule(2, lambda: order.append("plain"))

        event = engine.recurring(2, lambda: order.append("recurring"))
        engine.schedule(0, setup)
        engine.run()
        assert order == ["recurring", "plain"]


class TestRecurringCancel:
    def test_cancel_before_fire_suppresses_callback(self, any_engine):
        engine = any_engine
        ticks = []
        event = engine.recurring(5, lambda: ticks.append(engine.now))

        def setup():
            event.schedule()
            event.cancel()

        engine.schedule(0, setup)
        engine.run()
        assert ticks == []
        assert not event.pending

    def test_cancel_mid_batch_neutralizes_queued_occurrence(self, any_engine):
        """A same-cycle event cancelling a recurrence already due in that
        cycle must win: the dead entry dispatches as an inert no-op."""
        engine = any_engine
        ticks = []
        event = engine.recurring(5, lambda: ticks.append(engine.now))

        def setup():
            # The canceller draws the earlier sequence number, so at cycle 5
            # it dispatches first -- with the recurrence in the same cycle.
            engine.schedule(5, event.cancel)
            event.schedule()

        engine.schedule(0, setup)
        engine.run()
        assert ticks == []

    def test_cancel_is_idempotent_and_noop_when_idle(self, any_engine):
        event = any_engine.recurring(3, lambda: None)
        event.cancel()  # never armed: nothing to do
        event.cancel()
        assert not event.pending

    def test_cancel_then_reschedule_uses_a_fresh_entry(self, any_engine):
        """Re-arming after cancel must not resurrect (or rewrite) the dead
        occurrence still sitting in the queue."""
        engine = any_engine
        ticks = []
        event = engine.recurring(3, lambda: ticks.append(engine.now))

        def setup():
            event.schedule()  # would fire at 3
            event.cancel()
            event.schedule()  # fresh entry, also at 3 but a later sequence

        engine.schedule(0, setup)
        engine.run()
        assert ticks == [3]  # exactly once, from the fresh entry

    def test_idle_fast_forward_across_cancelled_recurrence(self, any_engine):
        """A cancelled occurrence still holds its cycle in the queue; the
        clock visits it, dispatches the inert entry, and keeps skipping."""
        engine = any_engine
        ticks = []
        event = engine.recurring(10, lambda: ticks.append(engine.now))

        def setup():
            event.schedule()
            event.cancel()
            engine.schedule(100, lambda: ticks.append(-engine.now))

        engine.schedule(0, setup)
        engine.run()
        assert ticks == [-100]
        assert engine.now == 100
        # Gaps on both sides of the dead entry were fast-forwarded.
        assert engine.idle_cycles_skipped == (10 - 1) + (100 - 10 - 1)

    def test_cancel_accounting_identical_across_loops(self):
        def run(engine_class):
            engine = engine_class()
            ticks = []
            event = engine.recurring(4, lambda: ticks.append(engine.now))

            def setup():
                event.schedule()
                engine.schedule(4, lambda: ticks.append(-engine.now))
                event.cancel()
                event.schedule()

            engine.schedule(0, setup)
            engine.run()
            return ticks, engine.events_dispatched, engine.idle_cycles_skipped

        assert run(Engine) == run(ReferenceEngine)
