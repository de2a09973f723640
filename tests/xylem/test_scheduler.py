"""Tests for the Xylem cluster scheduler."""

import pytest

from repro.errors import SimulationError
from repro.xylem.scheduler import ClusterScheduler, Task, TaskState


def task(name="t", clusters=2, seconds=10.0):
    return Task(name=name, clusters_wanted=clusters, seconds=seconds)


class TestValidation:
    def test_task_validation(self):
        with pytest.raises(ValueError):
            Task(name="x", clusters_wanted=0, seconds=1.0)
        with pytest.raises(ValueError):
            Task(name="x", clusters_wanted=1, seconds=0.0)

    def test_oversized_task_rejected(self):
        scheduler = ClusterScheduler(num_clusters=4)
        with pytest.raises(SimulationError):
            scheduler.submit(task(clusters=5))


class TestGangAllocation:
    def test_all_or_nothing(self):
        scheduler = ClusterScheduler(num_clusters=4)
        big = scheduler.submit(task("big", clusters=3))
        other = scheduler.submit(task("other", clusters=2))
        assert big.state is TaskState.RUNNING
        assert other.state is TaskState.WAITING  # only 1 cluster free

    def test_small_tasks_share_the_machine(self):
        scheduler = ClusterScheduler(num_clusters=4)
        a = scheduler.submit(task("a", clusters=2))
        b = scheduler.submit(task("b", clusters=2))
        assert a.state is TaskState.RUNNING
        assert b.state is TaskState.RUNNING
        assert a.clusters_held.isdisjoint(b.clusters_held)

    def test_clusters_released_on_completion(self):
        scheduler = ClusterScheduler(num_clusters=4)
        scheduler.submit(task("a", clusters=4, seconds=5.0))
        waiting = scheduler.submit(task("b", clusters=4, seconds=5.0))
        assert waiting.state is TaskState.WAITING
        scheduler.run_to_completion()
        assert waiting.state is TaskState.COMPLETE
        assert scheduler.clock == pytest.approx(10.0)


class TestSingleUserMode:
    def test_serializes_everything(self):
        scheduler = ClusterScheduler(num_clusters=4, single_user=True)
        scheduler.submit(task("a", clusters=1, seconds=3.0))
        b = scheduler.submit(task("b", clusters=1, seconds=3.0))
        assert b.state is TaskState.WAITING  # despite free clusters
        scheduler.run_to_completion()
        assert scheduler.clock == pytest.approx(6.0)

    def test_multiprogramming_overlaps(self):
        scheduler = ClusterScheduler(num_clusters=4, single_user=False)
        scheduler.submit(task("a", clusters=1, seconds=3.0))
        scheduler.submit(task("b", clusters=1, seconds=3.0))
        scheduler.run_to_completion()
        assert scheduler.clock == pytest.approx(3.0)


class TestMetrics:
    def test_utilization(self):
        scheduler = ClusterScheduler(num_clusters=4)
        scheduler.submit(task("a", clusters=4, seconds=10.0))
        scheduler.run_to_completion()
        assert scheduler.utilization() == pytest.approx(1.0)

    def test_utilization_with_idle_clusters(self):
        scheduler = ClusterScheduler(num_clusters=4)
        scheduler.submit(task("a", clusters=2, seconds=10.0))
        scheduler.run_to_completion()
        assert scheduler.utilization() == pytest.approx(0.5)

    def test_no_elapsed_time_errors(self):
        scheduler = ClusterScheduler()
        with pytest.raises(SimulationError):
            scheduler.utilization()

    def test_fcfs_order(self):
        scheduler = ClusterScheduler(num_clusters=4)
        first = scheduler.submit(task("first", clusters=4, seconds=1.0))
        second = scheduler.submit(task("second", clusters=1, seconds=1.0))
        scheduler.run_to_completion()
        assert first.finished_at <= second.finished_at
