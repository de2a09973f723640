"""Job lifecycle for the serving tier: registry, bounded queue, workers.

A job is one requested experiment run.  Its lifecycle:

``queued`` -> ``running`` -> ``done`` | ``failed``

with three ways to resolve (the job's ``source``):

* ``computed`` -- a cache miss that went through the bounded queue onto a
  worker process (one fresh process per job, the ``--jobs`` runner);
* ``cache`` -- resolved synchronously at submit time from the
  content-addressed result cache;
* ``coalesced`` -- attached to an identical in-flight job and resolved
  with the leader's bytes (success or failure) when it completes.

Everything here runs on the server's single asyncio event loop; the only
other threads are the executor threads that babysit worker processes, and
they re-enter the loop exclusively via ``call_soon_threadsafe``.  That
makes submit-time cache/coalesce decisions atomic without locks: N
identical requests arriving concurrently are serialized by the loop, the
first becomes the leader, the rest follow, exactly one simulation runs.

All serving counters flow through a :class:`repro.metrics.MetricsRegistry`
so ``GET /metrics`` is the same Prometheus text exposition the bench
harness already speaks.
"""

from __future__ import annotations

import asyncio
import functools
import time
from concurrent.futures import ThreadPoolExecutor
from typing import AsyncIterator, Callable, Dict, List, Optional

from repro.errors import ServeError, WorkerCrashError
from repro.metrics import MetricsRegistry
from repro.parallel import run_in_process
from repro.serve.cache import ResultCache
from repro.serve.coalesce import Coalescer
from repro.serve.schema import JobRequest, cache_key
from repro.serve.worker import execute_job, preload
from repro.version import version_fingerprint

#: Default bound on jobs waiting for a worker (409 more would mean the
#: submitter is outrunning the machine; shed load instead of buffering it).
DEFAULT_QUEUE_LIMIT = 64

_STATES = ("queued", "running", "done", "failed")


def _ms_since(began: float) -> float:
    """Milliseconds from the ``perf_counter`` stamp ``began`` to now."""
    return (time.perf_counter() - began) * 1000.0


class Job:
    """One requested experiment run and its observable history."""

    def __init__(
        self, job_id: str, experiment: str, config: Dict[str, object], key: str
    ) -> None:
        self.id = job_id
        self.experiment = experiment
        self.config = config
        self.cache_key = key
        self.state = "queued"
        self.source: Optional[str] = None
        self.error: Optional[Dict[str, object]] = None
        self.result: Optional[bytes] = None
        #: Columnar trace-snapshot wire bytes from the run that produced
        #: ``result`` (shared by coalesced followers; absent on pure
        #: cache hits, which never ran a simulation).
        self.trace: Optional[bytes] = None
        self.trace_meta: Optional[Dict[str, object]] = None
        #: Server-loop ``perf_counter`` stamp of entering the queue, and
        #: the measured phases of the computation (cache misses only).
        self.queued_at: Optional[float] = None
        self.phases_ms: Optional[Dict[str, float]] = None
        self.events: List[Dict[str, object]] = []
        self.created = time.monotonic()
        self.finished_at: Optional[float] = None
        self.done = asyncio.Event()
        self._advanced = asyncio.Event()

    # -- observable history -------------------------------------------------

    def post(self, event: str, data: Optional[Dict[str, object]] = None) -> None:
        """Append one event to the job's history and wake stream readers."""
        self.events.append(
            {"seq": len(self.events), "event": event, "data": data or {}}
        )
        self._advanced.set()

    async def stream(self, start: int = 0) -> AsyncIterator[Dict[str, object]]:
        """Replay events from ``start``, then follow live until resolution."""
        index = start
        while True:
            while index < len(self.events):
                yield self.events[index]
                index += 1
            if self.state in ("done", "failed"):
                return
            self._advanced.clear()
            await self._advanced.wait()

    # -- transitions (loop-only) --------------------------------------------

    def mark_running(self) -> None:
        self.state = "running"
        self.post("running", {"experiment": self.experiment})

    def resolve(self, source: str, body: bytes) -> None:
        self.state = "done"
        self.source = source
        self.result = body
        self.finished_at = time.monotonic()
        self.post("done", {"source": source, "bytes": len(body)})
        self.done.set()

    def fail(self, source: str, error: Dict[str, object]) -> None:
        self.state = "failed"
        self.source = source
        self.error = error
        self.finished_at = time.monotonic()
        self.post("failed", dict(error))
        self.done.set()

    @property
    def latency_ms(self) -> Optional[float]:
        if self.finished_at is None:
            return None
        return (self.finished_at - self.created) * 1000.0

    def public(self) -> Dict[str, object]:
        """The job document ``GET /jobs/<id>`` serves."""
        document: Dict[str, object] = {
            "id": self.id,
            "experiment": self.experiment,
            "config": dict(self.config),
            "cache_key": self.cache_key,
            "state": self.state,
            "source": self.source,
            "events": len(self.events),
        }
        if self.error is not None:
            document["error"] = dict(self.error)
        if self.latency_ms is not None:
            document["latency_ms"] = round(self.latency_ms, 3)
        if self.trace_meta is not None:
            document["trace"] = dict(self.trace_meta)
        if self.phases_ms is not None:
            document["phases_ms"] = dict(self.phases_ms)
        return document


#: Executes one job, posting progress events; returns either the result
#: bytes alone or the worker's ``{"result", "trace", "trace_meta"}`` dict.
Executor = Callable[[Job, Callable[[object], None]], "asyncio.Future"]


class JobRegistry:
    """All jobs of one server, the bounded queue, and the worker tasks."""

    def __init__(
        self,
        cache: ResultCache,
        metrics: MetricsRegistry,
        jobs: int = 2,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        execute: Optional[Executor] = None,
    ) -> None:
        if jobs < 1:
            raise ServeError(f"worker count must be >= 1, got {jobs}")
        self.cache = cache
        self.metrics = metrics
        self.num_workers = jobs
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue(maxsize=queue_limit)
        self._coalescer = Coalescer()
        if execute is None:
            preload()  # job workers fork with the whole job path loaded
        self._execute = execute or self._execute_in_worker_process
        self._threads = ThreadPoolExecutor(
            max_workers=jobs, thread_name_prefix="cedar-serve-job"
        )
        self._workers: List["asyncio.Task"] = []
        self._sequence = 0
        self._fingerprint = version_fingerprint()
        self._depth_gauge = metrics.gauge(
            "serve_queue_depth", help="jobs waiting for a worker slot"
        )
        self._latency = metrics.histogram(
            "serve_job_latency_ms",
            help="submit-to-resolution latency per job, milliseconds",
        )
        self._trace_bytes = 0
        self._trace_gauge = metrics.gauge(
            "serve_trace_buffer_bytes",
            help="columnar trace-buffer bytes held across resolved jobs",
        )
        self._cache_write_errors = metrics.counter(
            "serve_cache_write_errors_total",
            help="computed results the cache failed to store (still served)",
        )
        #: Telemetry of the most recently computed job (``/healthz``).
        self.last_trace_meta: Optional[Dict[str, object]] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Spawn the worker tasks (call from a running event loop)."""
        loop = asyncio.get_running_loop()
        for _ in range(self.num_workers):
            self._workers.append(loop.create_task(self._worker_loop()))

    async def close(self) -> None:
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers.clear()
        self._threads.shutdown(wait=False, cancel_futures=True)

    # -- submission (loop-only) ---------------------------------------------

    def _counter(self, name: str, experiment: str):
        return self.metrics.counter(
            name, {"experiment": experiment},
            help=None,
        )

    def submit(self, request: JobRequest) -> List[Job]:
        """Create one job per requested experiment; resolve or enqueue each."""
        created = []
        for experiment in request.experiments:
            created.append(self._submit_one(experiment, request.config))
        return created

    def _submit_one(self, experiment: str, config: Dict[str, object]) -> Job:
        self._sequence += 1
        job = Job(
            f"j{self._sequence}",
            experiment,
            config,
            cache_key(experiment, config, self._fingerprint),
        )
        self._counter("serve_jobs_submitted_total", experiment).inc()
        job.post("submitted", {"experiment": experiment, "config": config})

        body = self.cache.get(job.cache_key)
        if body is not None:
            self.metrics.counter(
                "serve_cache_hits_total",
                help="requests served from the content-addressed cache",
            ).inc()
            self._register(job)
            job.resolve("cache", body)
            self._counter("serve_jobs_completed_total", experiment).inc()
            self._observe_latency(job)
            return job

        if self._coalescer.leader(job.cache_key) is not None:
            self.metrics.counter(
                "serve_coalesced_requests_total",
                help="requests attached to an identical in-flight job",
            ).inc()
            leader = self._coalescer.follow(job.cache_key, job.id)
            self._register(job)
            job.post("coalesced", {"leader": leader})
            return job

        self.metrics.counter(
            "serve_cache_misses_total",
            help="requests that had to run a simulation",
        ).inc()
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            raise ServeError(
                f"job queue full ({self._queue.maxsize} queued); retry later",
                status=503,
            ) from None
        job.queued_at = time.perf_counter()
        self._coalescer.lead(job.cache_key, job.id)
        self._register(job)
        self._depth_gauge.set(self._queue.qsize())
        job.post("queued", {"depth": self._queue.qsize()})
        return job

    def _register(self, job: Job) -> None:
        self._jobs[job.id] = job
        self._order.append(job.id)

    # -- lookup -------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServeError(f"unknown job {job_id!r}", status=404)
        return job

    def all_jobs(self) -> List[Job]:
        return [self._jobs[job_id] for job_id in self._order]

    # -- execution ----------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            job = await self._queue.get()
            self._depth_gauge.set(self._queue.qsize())
            assert job.queued_at is not None  # only _submit_one enqueues
            self._phase(job, "queue_wait", _ms_since(job.queued_at))
            running = time.perf_counter()
            job.mark_running()
            failure: Optional[Dict[str, object]] = None
            try:
                outcome = await self._execute(job, job.post)
            except WorkerCrashError as crash:
                failure = {
                    "message": str(crash),
                    "experiment": crash.experiment,
                    "exitcode": crash.exitcode,
                    "traceback": crash.worker_traceback,
                }
            except asyncio.CancelledError:
                raise
            except Exception as error:  # defensive: never kill the worker loop
                failure = {
                    "message": repr(error),
                    "experiment": job.experiment,
                }
            worker_ms = _ms_since(running)
            self._phase(job, "worker", worker_ms)
            if failure is not None:
                self._settle_failure(job, failure)
                continue
            body, trace, trace_meta = self._unpack(outcome)
            if trace_meta and "simulate_ms" in trace_meta:
                # The worker times its own simulate and serialize; the
                # rest is process start, result transfer and reap.
                simulate_ms = float(trace_meta["simulate_ms"])
                serialize_ms = float(trace_meta["serialize_ms"])
                self._phase(job, "spawn", worker_ms - simulate_ms - serialize_ms)
                self._phase(job, "simulate", simulate_ms)
                self._phase(job, "serialize", serialize_ms)
            self._settle_success(job, body, trace, trace_meta)

    def _phase(self, job: Job, name: str, elapsed_ms: float) -> None:
        """Record one phase of a computed job (job document and
        ``/metrics`` only, never the cached result bytes)."""
        if job.phases_ms is None:
            job.phases_ms = {}
        job.phases_ms[name] = round(elapsed_ms, 3)
        self.metrics.histogram(
            "serve_job_phase_ms", {"phase": name},
            help="time a computed job spent per phase, milliseconds",
        ).observe(elapsed_ms)

    @staticmethod
    def _unpack(outcome: object):
        """Normalize an executor's return (dict from the real worker;
        bare result bytes from simplified test executors)."""
        if isinstance(outcome, dict):
            return (
                outcome["result"],
                outcome.get("trace"),
                outcome.get("trace_meta"),
            )
        return outcome, None, None

    def _settle_success(
        self,
        job: Job,
        body: bytes,
        trace: Optional[bytes] = None,
        trace_meta: Optional[Dict[str, object]] = None,
    ) -> None:
        writing = time.perf_counter()
        try:
            self.cache.put(job.cache_key, body)
        except OSError:
            # Serve the bytes in hand; a lost store costs a later
            # recompute, never this job or its followers.
            self._cache_write_errors.inc()
        self._phase(job, "cache_write", _ms_since(writing))
        followers = self._coalescer.settle(job.cache_key)
        if trace is not None:
            job.trace = trace
            job.trace_meta = trace_meta
            self.last_trace_meta = trace_meta
            self._trace_bytes += len(trace)
            self._trace_gauge.set(self._trace_bytes)
        job.resolve("computed", body)
        self._counter("serve_jobs_completed_total", job.experiment).inc()
        self._observe_latency(job)
        for follower_id in followers:
            follower = self._jobs[follower_id]
            follower.trace = trace
            follower.trace_meta = trace_meta
            follower.resolve("coalesced", body)
            self._counter(
                "serve_jobs_completed_total", follower.experiment
            ).inc()
            self._observe_latency(follower)

    def _settle_failure(self, job: Job, error: Dict[str, object]) -> None:
        followers = self._coalescer.settle(job.cache_key)
        job.fail("computed", error)
        self._counter("serve_jobs_failed_total", job.experiment).inc()
        self._observe_latency(job)
        for follower_id in followers:
            follower = self._jobs[follower_id]
            follower.fail("coalesced", error)
            self._counter("serve_jobs_failed_total", follower.experiment).inc()
            self._observe_latency(follower)

    def _observe_latency(self, job: Job) -> None:
        if job.latency_ms is not None:
            self._latency.observe(job.latency_ms)

    async def _execute_in_worker_process(
        self, job: Job, post: Callable[[str, Dict[str, object]], None]
    ) -> Dict[str, object]:
        """Default executor: one fresh worker process per job."""
        loop = asyncio.get_running_loop()

        def forward(data: object) -> None:
            # Called on the executor thread by the process babysitter;
            # re-enter the loop so all Job mutation stays single-threaded.
            name = "progress"
            if isinstance(data, dict) and "type" in data:
                name = str(data["type"])
            loop.call_soon_threadsafe(post, name, data)

        payload = {"experiment": job.experiment, "config": job.config}
        return await loop.run_in_executor(
            self._threads,
            functools.partial(
                run_in_process,
                execute_job,
                job.experiment,
                payload,
                forward,
                # Partitioned jobs fork their own shard processes, which a
                # daemonic worker is forbidden to do.
                daemon=False,
            ),
        )
