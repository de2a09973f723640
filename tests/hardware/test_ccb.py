"""Tests for the concurrency control bus."""

import pytest

from repro.hardware.ccb import IterationCounter
from repro.hardware.ce import Compute
from repro.hardware.machine import CedarMachine


class TestIterationCounter:
    def test_claims_each_iteration_once(self):
        counter = IterationCounter(5)
        claimed = [counter.claim() for _ in range(6)]
        assert claimed == [0, 1, 2, 3, 4, None]

    def test_remaining(self):
        counter = IterationCounter(3)
        counter.claim()
        assert counter.remaining == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            IterationCounter(-1)


class TestConcurrentStart:
    def _run_cdoall(self, iterations, static=False, work_cycles=10):
        machine = CedarMachine()
        cluster = machine.clusters[0]
        executed = []

        def body(ce, iteration):
            executed.append((ce.global_port, iteration))  # cluster 0: port == index
            yield Compute(work_cycles)

        done = {}
        cluster.cdoall(iterations, body,
                       on_done=lambda: done.setdefault("at", machine.engine.now),
                       static=static)
        machine.engine.run()
        return machine, executed, done

    def test_every_iteration_runs_exactly_once(self):
        _, executed, done = self._run_cdoall(100)
        iterations = sorted(i for _, i in executed)
        assert iterations == list(range(100))
        assert "at" in done

    def test_work_spreads_over_ces(self):
        _, executed, _ = self._run_cdoall(64)
        workers = {ce for ce, _ in executed}
        assert len(workers) == 8  # all CEs of the cluster participate

    def test_static_schedule_round_robin(self):
        _, executed, _ = self._run_cdoall(16, static=True)
        for ce, iteration in executed:
            assert iteration % 8 == ce

    def test_gang_start_cost_applied(self):
        machine, _, done = self._run_cdoall(1, work_cycles=0)
        start = machine.config.ccb.concurrent_start_cycles
        join = machine.config.ccb.join_cycles
        assert done["at"] >= start + join

    def test_self_scheduling_balances_uneven_work(self):
        machine = CedarMachine()
        cluster = machine.clusters[0]
        per_ce_iterations = {}

        def body(ce, iteration):
            per_ce_iterations.setdefault(ce.global_port, []).append(iteration)
            # One long iteration; the rest short.
            yield Compute(500 if iteration == 0 else 10)

        cluster.cdoall(33, body)
        machine.engine.run()
        slow_worker = next(
            ce for ce, its in per_ce_iterations.items() if 0 in its
        )
        # The CE stuck on iteration 0 should claim fewer iterations.
        assert len(per_ce_iterations[slow_worker]) < 33 / 8
