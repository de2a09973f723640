"""Cluster allocation and gang scheduling.

A Cedar task asks Xylem for a number of clusters; within a cluster the
concurrency-control bus gang-schedules the CEs, but *clusters* are an OS
resource.  The paper's measurements were "collected in single-user mode to
avoid the non-determinism of multiprogramming"; the scheduler models both
regimes so that experiments can quantify what single-user mode avoided.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.errors import SimulationError

_task_ids = itertools.count(1)


class TaskState(enum.Enum):
    WAITING = "waiting"
    RUNNING = "running"
    COMPLETE = "complete"


@dataclass
class Task:
    """One Cedar job: a cluster demand and a nominal execution time."""

    name: str
    clusters_wanted: int
    seconds: float
    task_id: int = field(default_factory=lambda: next(_task_ids))
    state: TaskState = TaskState.WAITING
    clusters_held: Set[int] = field(default_factory=set)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None

    def __post_init__(self) -> None:
        if self.clusters_wanted < 1:
            raise ValueError("a task needs at least one cluster")
        if self.seconds <= 0:
            raise ValueError("task time must be positive")


class ClusterScheduler:
    """First-come first-served cluster allocator with gang dispatch.

    Tasks receive *all* their clusters or none (a Cedar task's SDOALLs
    assume its clusters are simultaneously available -- gang scheduling at
    cluster granularity).  ``single_user=True`` admits one task at a time,
    reproducing the measurement regime of Section 4.2.
    """

    def __init__(self, num_clusters: int = 4, single_user: bool = False) -> None:
        if num_clusters < 1:
            raise ValueError("scheduler needs at least one cluster")
        self.num_clusters = num_clusters
        self.single_user = single_user
        self._free: Set[int] = set(range(num_clusters))
        self._queue: List[Task] = []
        self._running: List[Task] = []
        self.clock = 0.0
        self.completed: List[Task] = []

    # -- submission --------------------------------------------------------

    def submit(self, task: Task) -> Task:
        if task.clusters_wanted > self.num_clusters:
            raise SimulationError(
                f"task {task.name} wants {task.clusters_wanted} clusters; "
                f"machine has {self.num_clusters}"
            )
        self._queue.append(task)
        self._dispatch()
        return task

    def _dispatch(self) -> None:
        while self._queue:
            if self.single_user and self._running:
                return
            task = self._queue[0]
            if task.clusters_wanted > len(self._free):
                return  # FCFS: head of queue blocks (no backfilling)
            self._queue.pop(0)
            held = set(itertools.islice(iter(sorted(self._free)),
                                        task.clusters_wanted))
            self._free -= held
            task.clusters_held = held
            task.state = TaskState.RUNNING
            task.started_at = self.clock
            self._running.append(task)

    # -- time advance ---------------------------------------------------------

    def run_to_completion(self) -> float:
        """Advance time until every submitted task completes."""
        while self._running or self._queue:
            if not self._running:
                raise SimulationError("queued tasks can never be placed")
            next_task = min(
                self._running,
                key=lambda t: (t.started_at or 0.0) + t.seconds,
            )
            self.clock = (next_task.started_at or 0.0) + next_task.seconds
            self._finish(next_task)
        return self.clock

    def _finish(self, task: Task) -> None:
        task.state = TaskState.COMPLETE
        task.finished_at = self.clock
        self._running.remove(task)
        self._free |= task.clusters_held
        self.completed.append(task)
        self._dispatch()

    # -- metrics -----------------------------------------------------------------

    def utilization(self) -> float:
        """Cluster-seconds used over cluster-seconds available."""
        if self.clock <= 0:
            raise SimulationError("no time has elapsed")
        used = sum(t.clusters_wanted * t.seconds for t in self.completed)
        return used / (self.num_clusters * self.clock)
