"""Tests for job lifecycle, coalescing, and the bounded queue.

These exercise :class:`JobRegistry` with an injected stub executor so the
scheduling logic (cache/coalesce/queue decisions, settlement fan-out,
metrics) is tested deterministically without spawning worker processes.
"""

import asyncio
import gc

import pytest

from repro.errors import ServeError, WorkerCrashError
from repro.metrics import MetricsRegistry
from repro.serve import (
    Coalescer,
    Job,
    JobRegistry,
    JobRequest,
    ResultCache,
    canonical_config,
    cache_key,
)
from repro.serve.jobs import RETAINED_JOBS
from repro.version import version_fingerprint


class TestCoalescer:
    def test_lead_follow_settle(self):
        coalescer = Coalescer()
        assert coalescer.leader("k") is None
        coalescer.lead("k", "j1")
        assert coalescer.leader("k") == "j1"
        assert coalescer.follow("k", "j2") == "j1"
        assert coalescer.follow("k", "j3") == "j1"
        assert coalescer.in_flight() == 1
        assert coalescer.settle("k") == ["j2", "j3"]
        assert coalescer.leader("k") is None
        assert coalescer.in_flight() == 0

    def test_double_lead_rejected(self):
        coalescer = Coalescer()
        coalescer.lead("k", "j1")
        with pytest.raises(ValueError, match="already has leader"):
            coalescer.lead("k", "j2")

    def test_follow_without_leader_rejected(self):
        with pytest.raises(ValueError, match="no in-flight leader"):
            Coalescer().follow("k", "j1")

    def test_settle_unknown_key_is_empty(self):
        assert Coalescer().settle("never-led") == []


def request_for(experiment, config=None):
    return JobRequest(
        experiments=(experiment,), config=canonical_config(config)
    )


class Harness:
    """A registry wired to a stub executor that records every execution."""

    def __init__(self, jobs=1, queue_limit=64, cache_dir=None):
        self.executions = []
        self.gate = None  # when set, executions block until it fires
        self.failure = None  # when set, executions raise it
        self.metrics = MetricsRegistry()
        self.cache = ResultCache(cache_dir)
        self.registry = JobRegistry(
            self.cache,
            self.metrics,
            jobs=jobs,
            queue_limit=queue_limit,
            execute=self._execute,
        )

    async def _execute(self, job, post):
        self.executions.append(job.experiment)
        if self.gate is not None:
            await self.gate.wait()
        if self.failure is not None:
            raise self.failure
        post("progress", {"records": 1})
        return b"result:" + job.cache_key.encode()

    def counter(self, name, experiment=None):
        labels = {"experiment": experiment} if experiment else None
        return self.metrics.counter(name, labels).value


def run_with_harness(body, **kwargs):
    async def main():
        harness = Harness(**kwargs)
        harness.registry.start()
        try:
            await body(harness)
        finally:
            await harness.registry.close()

    asyncio.run(main())


async def settled(job, timeout=10):
    await asyncio.wait_for(job.done.wait(), timeout=timeout)
    return job


class TestJobLifecycle:
    def test_miss_computes_then_hit_serves_identical_bytes(self):
        async def body(harness):
            (first,) = harness.registry.submit(request_for("table2"))
            await settled(first)
            assert first.state == "done"
            assert first.source == "computed"
            assert harness.executions == ["table2"]

            (second,) = harness.registry.submit(request_for("table2"))
            # Cache hits resolve synchronously at submit time.
            assert second.state == "done"
            assert second.source == "cache"
            assert second.result == first.result
            assert harness.executions == ["table2"]  # no second run
            assert harness.counter("serve_cache_hits_total") == 1
            assert harness.counter("serve_cache_misses_total") == 1
            assert (
                harness.counter("serve_jobs_completed_total", "table2") == 2
            )

        run_with_harness(body)

    def test_prewarmed_cache_never_executes(self):
        async def body(harness):
            key = cache_key(
                "table5", canonical_config(None), version_fingerprint()
            )
            harness.cache.put(key, b"warm bytes")
            (job,) = harness.registry.submit(request_for("table5"))
            assert job.state == "done"
            assert job.source == "cache"
            assert job.result == b"warm bytes"
            assert harness.executions == []

        run_with_harness(body)

    def test_config_is_part_of_the_identity(self):
        async def body(harness):
            (plain,) = harness.registry.submit(request_for("table2"))
            (sanitized,) = harness.registry.submit(
                request_for("table2", {"sanitize": True})
            )
            await settled(plain)
            await settled(sanitized)
            assert plain.cache_key != sanitized.cache_key
            assert plain.result != sanitized.result
            assert harness.executions == ["table2", "table2"]

        run_with_harness(body)

    def test_sweep_request_creates_one_job_per_experiment(self):
        async def body(harness):
            jobs = harness.registry.submit(
                JobRequest(
                    experiments=("table2", "table5"),
                    config=canonical_config(None),
                )
            )
            assert [job.experiment for job in jobs] == ["table2", "table5"]
            for job in jobs:
                await settled(job)
            assert sorted(harness.executions) == ["table2", "table5"]

        run_with_harness(body)

    def test_event_history_replays_after_completion(self):
        async def body(harness):
            (job,) = harness.registry.submit(request_for("table2"))
            await settled(job)
            names = [event["event"] async for event in job.stream()]
            assert names == [
                "submitted", "queued", "running", "progress", "done",
            ]
            sequences = [event["seq"] for event in job.events]
            assert sequences == list(range(len(sequences)))

        run_with_harness(body)

    def test_unknown_job_id_is_404(self):
        async def body(harness):
            with pytest.raises(ServeError) as info:
                harness.registry.get("j999")
            assert info.value.status == 404

        run_with_harness(body)


class TestCoalescing:
    def test_identical_in_flight_requests_run_once(self):
        async def body(harness):
            harness.gate = asyncio.Event()
            jobs = [
                harness.registry.submit(request_for("table2"))[0]
                for _ in range(4)
            ]
            # Let the leader start before releasing it.
            await asyncio.sleep(0)
            harness.gate.set()
            for job in jobs:
                await settled(job)

            assert harness.executions == ["table2"]  # exactly one simulation
            assert harness.counter("serve_coalesced_requests_total") == 3
            assert jobs[0].source == "computed"
            assert [job.source for job in jobs[1:]] == ["coalesced"] * 3
            bodies = {job.result for job in jobs}
            assert len(bodies) == 1  # everyone got the leader's bytes
            assert (
                harness.counter("serve_jobs_completed_total", "table2") == 4
            )

        run_with_harness(body)

    def test_followers_inherit_leader_failure(self):
        async def body(harness):
            harness.gate = asyncio.Event()
            harness.failure = WorkerCrashError(
                "table2", "worker died", exitcode=9, worker_traceback="trace"
            )
            leader = harness.registry.submit(request_for("table2"))[0]
            follower = harness.registry.submit(request_for("table2"))[0]
            await asyncio.sleep(0)
            harness.gate.set()
            await settled(leader)
            await settled(follower)

            assert leader.state == follower.state == "failed"
            assert leader.source == "computed"
            assert follower.source == "coalesced"
            for job in (leader, follower):
                assert job.error["experiment"] == "table2"
                assert job.error["exitcode"] == 9
            assert harness.counter("serve_jobs_failed_total", "table2") == 2
            # A failure is not cached: the next submit runs again.
            harness.failure = None
            retry = harness.registry.submit(request_for("table2"))[0]
            await settled(retry)
            assert retry.state == "done"
            assert harness.executions == ["table2", "table2"]

        run_with_harness(body)

    def test_completed_leader_does_not_capture_later_requests(self):
        async def body(harness):
            first = harness.registry.submit(request_for("table2"))[0]
            await settled(first)
            later = harness.registry.submit(request_for("table2"))[0]
            # In-flight set is empty, so this is a cache hit, not a follow.
            assert later.source == "cache"
            assert harness.counter("serve_coalesced_requests_total") == 0

        run_with_harness(body)


class TestBoundedQueue:
    def test_full_queue_sheds_load_with_503(self):
        async def body(harness):
            harness.gate = asyncio.Event()
            # jobs=1 and queue_limit=1: one running, one waiting.
            harness.registry.submit(request_for("table1"))
            for _ in range(200):  # wait for the worker to drain the queue
                if harness.executions:
                    break
                await asyncio.sleep(0.01)
            assert harness.executions == ["table1"]
            harness.registry.submit(request_for("table2"))
            with pytest.raises(ServeError) as info:
                harness.registry.submit(request_for("table5"))
            assert info.value.status == 503
            assert "queue full" in str(info.value)
            # Identical requests still coalesce: no queue slot needed.
            follower = harness.registry.submit(request_for("table2"))[0]
            assert follower.events[-1]["event"] == "coalesced"
            harness.gate.set()

        run_with_harness(body, jobs=1, queue_limit=1)

    def test_worker_count_validated(self):
        with pytest.raises(ServeError, match="worker count"):
            JobRegistry(ResultCache(), MetricsRegistry(), jobs=0)


def prewarm(harness, experiment):
    """Store a result for ``experiment`` so submitting it is a cache hit."""
    key = cache_key(experiment, canonical_config(None), version_fingerprint())
    harness.cache.put(key, b"warm:" + experiment.encode())


def submit_hits(harness, experiment, count):
    for _ in range(count):
        harness.registry.submit(request_for(experiment))


def count_live(kind):
    gc.collect()
    return sum(isinstance(obj, kind) for obj in gc.get_objects())


class TestRetention:
    """Finished jobs past RETAINED_JOBS leave the registry, oldest first."""

    def test_oldest_finished_job_is_evicted_first(self):
        async def body(harness):
            prewarm(harness, "table5")
            (first,) = harness.registry.submit(request_for("table2"))
            await settled(first)
            submit_hits(harness, "table5", RETAINED_JOBS - 1)
            assert len(harness.registry.all_jobs()) == RETAINED_JOBS
            assert harness.counter("serve_jobs_evicted_total") == 0

            submit_hits(harness, "table5", 1)
            with pytest.raises(ServeError) as info:
                harness.registry.get(first.id)
            assert info.value.status == 404
            assert str(info.value) == (
                f"job {first.id} was evicted (only the {RETAINED_JOBS} most "
                "recently finished jobs are kept); resubmit it, the result "
                "is cached"
            )
            assert harness.registry.get("j2").state == "done"
            submit_hits(harness, "table5", 1)
            with pytest.raises(ServeError, match="j2 was evicted"):
                harness.registry.get("j2")
            ids = [job.id for job in harness.registry.all_jobs()]
            assert ids == [f"j{n}" for n in range(3, RETAINED_JOBS + 3)]
            assert harness.counter("serve_jobs_evicted_total") == 2
            assert (
                harness.metrics.gauge("serve_jobs_retained").value
                == RETAINED_JOBS
            )
            # The evicted request's bytes are still cached.
            (again,) = harness.registry.submit(request_for("table2"))
            assert again.source == "cache"
            assert again.result == first.result

        run_with_harness(body)

    def test_ids_never_issued_stay_unknown(self):
        async def body(harness):
            harness.gate = asyncio.Event()
            harness.registry.submit(request_for("table1"))
            for _ in range(200):
                if harness.executions:
                    break
                await asyncio.sleep(0.01)
            harness.registry.submit(request_for("table2"))
            with pytest.raises(ServeError):
                harness.registry.submit(request_for("table5"))  # shed: 503
            # A shed request takes no id, so the next one is j3.
            (follower,) = harness.registry.submit(request_for("table2"))
            assert follower.id == "j3"
            for job_id in ("j4", "j0", "j01", "3", "jx"):
                with pytest.raises(ServeError, match="unknown job"):
                    harness.registry.get(job_id)
            harness.gate.set()

        run_with_harness(body, jobs=1, queue_limit=1)

    def test_in_flight_leaders_and_followers_survive(self):
        async def body(harness):
            prewarm(harness, "table5")
            harness.gate = asyncio.Event()
            running = harness.registry.submit(request_for("table2"))[0]
            queued = harness.registry.submit(request_for("table3"))[0]
            follower = harness.registry.submit(request_for("table2"))[0]
            submit_hits(harness, "table5", 2 * RETAINED_JOBS)
            in_flight = (running, queued, follower)
            for job in in_flight:
                assert harness.registry.get(job.id) is job
                assert not job.finished
            assert len(harness.registry.all_jobs()) == RETAINED_JOBS + 3
            harness.gate.set()
            for job in in_flight:
                await settled(job)
            # Now the three most recently finished, they are kept.
            for job in in_flight:
                assert harness.registry.get(job.id).state == "done"
            assert len(harness.registry.all_jobs()) == RETAINED_JOBS
            assert (
                harness.counter("serve_jobs_evicted_total")
                == 2 * RETAINED_JOBS + 3 - RETAINED_JOBS
            )

        run_with_harness(body, jobs=1)

    def test_stream_following_a_job_that_is_evicted_still_ends(self):
        async def body(harness):
            prewarm(harness, "table5")
            harness.gate = asyncio.Event()
            (job,) = harness.registry.submit(request_for("table2"))
            stream = job.stream()
            first = await stream.__anext__()
            harness.gate.set()
            await settled(job)
            submit_hits(harness, "table5", RETAINED_JOBS)
            with pytest.raises(ServeError, match="was evicted"):
                harness.registry.get(job.id)
            rest = [event["event"] async for event in stream]
            assert [first["event"]] + rest == [
                "submitted", "queued", "running", "progress", "done",
            ]

        run_with_harness(body)

    def test_job_objects_stay_bounded_and_hits_allocate_no_event(self):
        async def body(harness):
            prewarm(harness, "table5")
            harness.gate = asyncio.Event()
            in_flight = 2
            harness.registry.submit(request_for("table2"))  # leader
            harness.registry.submit(request_for("table2"))  # follower
            unrelated = count_live(Job) - in_flight  # left by other tests
            events_before = count_live(asyncio.Event)
            submit_hits(harness, "table5", 2 * RETAINED_JOBS)
            assert count_live(Job) - unrelated <= RETAINED_JOBS + in_flight
            assert count_live(asyncio.Event) == events_before
            harness.gate.set()

        run_with_harness(body)

    def test_done_event_works_before_and_after_resolution(self):
        async def body(harness):
            prewarm(harness, "table5")
            (hit,) = harness.registry.submit(request_for("table5"))
            await asyncio.wait_for(hit.done.wait(), timeout=1)
            harness.gate = asyncio.Event()
            (job,) = harness.registry.submit(request_for("table2"))
            waiter = asyncio.ensure_future(job.done.wait())
            await asyncio.sleep(0)
            assert not waiter.done()
            harness.gate.set()
            await asyncio.wait_for(waiter, timeout=10)
            assert job.state == "done"

        run_with_harness(body)
