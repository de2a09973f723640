"""End-to-end tests for the serve HTTP tier.

The server runs on a background thread with its own event loop; tests
talk to it through :class:`repro.serve.ServeClient` -- the same code path
``cedar-repro submit`` and the CI smoke job use.  Most tests inject a
stub executor so they are fast and deterministic; two tests run a real
(small) simulation to pin down the acceptance criteria: a warm-cache
result is byte-identical to the cold run, and N concurrent identical
submissions cost exactly one simulation.
"""

import asyncio
import concurrent.futures
import json
import os
import threading
import time

import pytest

from repro.errors import ServeError, WorkerCrashError
from repro.metrics import MetricsRegistry, parse_prometheus
from repro.serve import JobRegistry, JobServer, ResultCache, ServeClient
from repro.version import version_fingerprint


class StubExecutor:
    """Injected executor: records calls, optionally blocks or fails."""

    def __init__(self, trace=None, trace_meta=None):
        self.calls = []
        self.gate = None
        self.failure = None
        self.trace = trace
        self.trace_meta = trace_meta

    async def __call__(self, job, post):
        self.calls.append(job.id)
        if self.gate is not None:
            await self.gate.wait()
        if self.failure is not None:
            raise self.failure
        post("progress", {"records": 1})
        result = b"stub:" + job.cache_key.encode()
        if self.trace is not None:
            # The worker-dict form execute_job returns for real runs.
            return {
                "result": result,
                "trace": self.trace,
                "trace_meta": dict(self.trace_meta or {}),
            }
        return result


class ServerThread:
    """A JobServer on a dedicated thread + event loop, bound to port 0."""

    def __init__(self, registry=None, jobs=1, queue_limit=64, cache_dir=None):
        self.server = JobServer(
            port=0, jobs=jobs, queue_limit=queue_limit,
            cache_dir=cache_dir, registry=registry,
        )
        self.loop = asyncio.new_event_loop()
        self._stop = asyncio.Event()
        self._ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="serve-test", daemon=True
        )

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self._main())
        self.loop.close()

    async def _main(self):
        await self.server.start()
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.stop()

    def __enter__(self):
        self._thread.start()
        assert self._ready.wait(timeout=10), "server failed to start"
        return self

    def __exit__(self, *exc_info):
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    def call_in_loop(self, callback):
        self.loop.call_soon_threadsafe(callback)

    @property
    def client(self):
        return ServeClient(port=self.server.port, timeout=30)


def stub_server(jobs=1, queue_limit=64, trace=None, trace_meta=None):
    stub = StubExecutor(trace=trace, trace_meta=trace_meta)
    registry = JobRegistry(
        ResultCache(), MetricsRegistry(),
        jobs=jobs, queue_limit=queue_limit, execute=stub,
    )
    return ServerThread(registry=registry), stub


def wait_for(predicate, timeout=10):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.01)


class TestHealthzCost:
    def test_healthz_never_lists_the_spill_directory(self, tmp_path, monkeypatch):
        """The spill directory is listed once, when the cache is built: 100
        ``/healthz`` calls list it 0 times and see the spilled entries."""
        spilled = ResultCache(str(tmp_path))
        spilled.put("a" * 64, b"1")
        spilled.put("b" * 64, b"2")
        registry = JobRegistry(
            ResultCache(str(tmp_path)), MetricsRegistry(), jobs=1,
            execute=StubExecutor(),
        )
        listed = []
        real_listdir = os.listdir

        def counting_listdir(*args):
            listed.append(args)
            return real_listdir(*args)

        monkeypatch.setattr(os, "listdir", counting_listdir)
        with ServerThread(registry=registry) as server:
            client = server.client
            counts = {client.healthz()["cached_results"] for _ in range(100)}
        assert counts == {2}
        assert listed == []


class TestHttpBasics:
    def test_healthz_and_error_routes(self):
        server, _ = stub_server()
        with server:
            client = server.client
            health = client.healthz()
            assert health["status"] == "ok"
            assert health["code_version"] == version_fingerprint()
            assert health["workers"] == 1

            with pytest.raises(ServeError) as info:
                client.job("j999")
            assert info.value.status == 404

            status, _, _ = client._request("GET", "/no/such/route")
            assert status == 404
            status, _, _ = client._request("DELETE", "/jobs")
            assert status == 405
            status, _, _ = client._request("POST", "/jobs", b"{not json")
            assert status == 400

            with pytest.raises(ServeError) as info:
                client.submit("table99")
            assert info.value.status == 404
            with pytest.raises(ServeError) as info:
                client.submit("table2", config={"warp": True})
            assert info.value.status == 400

    def test_retired_fastpath_key_is_rejected(self):
        """``fastpath`` is not a config key: a 400 naming it, nothing run."""
        server, stub = stub_server()
        with server:
            body = json.dumps(
                {"experiment": "table6", "config": {"fastpath": True}}
            ).encode("utf-8")
            status, _, payload = server.client._request("POST", "/jobs", body)
            assert status == 400
            assert "'fastpath'" in json.loads(payload)["error"]
            assert stub.calls == []

    def test_submit_wait_result_and_listing(self):
        server, stub = stub_server()
        with server:
            client = server.client
            document = client.submit("table2")
            job_id = document["job"]["id"]
            assert document["cache_status"] == "miss"

            final = client.wait(job_id, timeout=10)
            assert final["state"] == "done"
            assert final["source"] == "computed"
            body, cache_status = client.result(job_id)
            assert cache_status == "miss"
            assert body.startswith(b"stub:")

            # Identical resubmission: synchronous cache hit, same bytes.
            second = client.submit("table2")
            assert second["cache_status"] == "hit"
            assert second["job"]["state"] == "done"
            warm, warm_status = client.result(second["job"]["id"])
            assert warm_status == "hit"
            assert warm == body
            assert stub.calls == [job_id]

            listed = client.jobs()
            assert [doc["id"] for doc in listed] == [job_id, second["job"]["id"]]

    def test_sweep_submission(self):
        server, stub = stub_server(jobs=2)
        with server:
            client = server.client
            document = client.submit(experiments=["table2", "table5"])
            assert "job" not in document  # single-job shorthand absent
            ids = [doc["id"] for doc in document["jobs"]]
            assert len(ids) == 2
            for job_id in ids:
                assert client.wait(job_id, timeout=10)["state"] == "done"
            assert sorted(stub.calls) == sorted(ids)

    def test_event_stream_replays_after_completion(self):
        server, _ = stub_server()
        with server:
            client = server.client
            job_id = client.submit("table5")["job"]["id"]
            client.wait(job_id, timeout=10)
            events = list(client.events(job_id))
            names = [name for name, _ in events]
            assert names == [
                "submitted", "queued", "running", "progress", "done", "end",
            ]
            done_data = dict(events)["done"]
            assert done_data["source"] == "computed"

    def test_result_conflict_while_running(self):
        server, stub = stub_server()
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            with pytest.raises(ServeError) as info:
                client.result(job_id)
            assert info.value.status == 409
            server.call_in_loop(stub.gate.set)
            client.wait(job_id, timeout=10)

    def test_failed_job_reports_structured_error(self):
        server, stub = stub_server()
        stub.failure = WorkerCrashError(
            "table2", "simulated crash", exitcode=11, worker_traceback="tb"
        )
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            final = client.wait(job_id, timeout=10)
            assert final["state"] == "failed"
            assert final["error"]["experiment"] == "table2"
            assert final["error"]["exitcode"] == 11
            with pytest.raises(ServeError) as info:
                client.result(job_id)
            assert info.value.status == 500
            samples = parse_prometheus(client.metrics_text())
            assert (
                samples["serve_jobs_failed_total{experiment=table2}"] == 1
            )

    def test_full_queue_is_503(self):
        server, stub = stub_server(jobs=1, queue_limit=1)
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            client.submit("table1")
            wait_for(lambda: len(stub.calls) == 1)
            client.submit("table2")
            with pytest.raises(ServeError) as info:
                client.submit("table5")
            assert info.value.status == 503
            server.call_in_loop(stub.gate.set)


def _stub_trace_bytes():
    """A tiny but real columnar snapshot for the stub executor to serve."""
    from repro.trace import Tracer

    tracer = Tracer(enabled=True)
    tracer.complete("stub", "work", 0, 10)
    tracer.instant("stub", "posted", cycle=5, value=1)
    return tracer.snapshot().to_bytes()


class TestTraceTelemetry:
    """GET /jobs/<id>/trace plus the serve-tier trace gauges."""

    _META = {"buffer_bytes": 4096, "records_seen": 2}

    def _traced_server(self, **kwargs):
        return stub_server(
            trace=_stub_trace_bytes(), trace_meta=self._META, **kwargs
        )

    def test_trace_endpoint_streams_the_columnar_snapshot(self):
        from repro.trace import TraceSnapshot

        server, _ = self._traced_server()
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            client.wait(job_id, timeout=10)
            payload = client.trace(job_id)
            snap = TraceSnapshot.from_bytes(payload)
            assert snap.counts["spans"] == 1
            assert snap.counts["instants"] == 1
            # The job document carries the telemetry sidecar.
            assert client.job(job_id)["trace"] == self._META

    def test_trace_is_409_while_queued_or_running(self):
        server, stub = self._traced_server()
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            with pytest.raises(ServeError) as info:
                client.trace(job_id)
            assert info.value.status == 409
            server.call_in_loop(stub.gate.set)
            client.wait(job_id, timeout=10)

    def test_cache_hit_job_has_no_trace_404(self):
        server, _ = self._traced_server()
        with server:
            client = server.client
            cold = client.submit("table2")["job"]["id"]
            client.wait(cold, timeout=10)
            warm = client.submit("table2")["job"]["id"]  # synchronous hit
            with pytest.raises(ServeError) as info:
                client.trace(warm)
            assert info.value.status == 404
            assert "cache hits" in str(info.value)

    def test_healthz_and_metrics_report_trace_telemetry(self):
        server, _ = self._traced_server(jobs=1)
        with server:
            client = server.client
            assert "trace_buffer_bytes" not in client.healthz()
            for key in ("table2", "table5"):
                job_id = client.submit(key)["job"]["id"]
                client.wait(job_id, timeout=10)
            health = client.healthz()
            assert "trace_overhead_ratio" not in health
            assert health["trace_buffer_bytes"] == 4096
            samples = parse_prometheus(client.metrics_text())
            # The gauge accumulates held wire bytes across resolved jobs.
            assert samples["serve_trace_buffer_bytes"] == 2 * len(
                _stub_trace_bytes()
            )

    def test_untraced_executor_keeps_legacy_shape(self):
        server, _ = stub_server()  # raw-bytes executor, no trace dict
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            client.wait(job_id, timeout=10)
            assert "trace" not in client.job(job_id)
            with pytest.raises(ServeError) as info:
                client.trace(job_id)
            assert info.value.status == 404


class _FullDiskCache(ResultCache):
    """A cache whose first store fails as a full disk would."""

    def __init__(self):
        super().__init__()
        self.failures = 1

    def put(self, key, body):
        if self.failures:
            self.failures -= 1
            raise OSError(28, "No space left on device")
        super().put(key, body)


class TestPhasesAndCacheWrites:
    """Measured per-job phases, and a failed cache write is not fatal."""

    def test_computed_job_reports_its_phases_and_hits_do_not(self):
        # The worker-dict form: the worker times simulate and serialize.
        server, _ = stub_server(
            trace=b"trace", trace_meta={"simulate_ms": 0.0, "serialize_ms": 0.0}
        )
        with server:
            client = server.client
            cold = client.submit("table2")["job"]["id"]
            document = client.wait(cold, timeout=10)
            phases = document["phases_ms"]
            assert set(phases) == {
                "queue_wait", "worker", "spawn", "simulate", "serialize",
                "cache_write",
            }
            assert all(value >= 0 for value in phases.values())
            split = phases["spawn"] + phases["simulate"] + phases["serialize"]
            assert split == pytest.approx(phases["worker"], abs=0.002)
            warm = client.submit("table2")["job"]
            assert warm["source"] == "cache"
            assert "phases_ms" not in warm
            assert "phases_ms" not in client.job(warm["id"])
            samples = parse_prometheus(client.metrics_text())
            for phase in phases:
                assert samples[f"serve_job_phase_ms_count{{phase={phase}}}"] == 1
            assert samples["serve_cache_write_errors_total"] == 0

    def test_failed_cache_write_still_settles_and_loop_survives(self):
        stub = StubExecutor()
        stub.gate = asyncio.Event()
        registry = JobRegistry(
            _FullDiskCache(), MetricsRegistry(), jobs=1, execute=stub,
        )
        with ServerThread(registry=registry) as server:
            client = server.client
            leader = client.submit("table2")["job"]["id"]
            follower = client.submit("table2")["job"]["id"]
            server.call_in_loop(stub.gate.set)
            assert client.wait(leader, timeout=10)["state"] == "done"
            assert client.wait(follower, timeout=10)["state"] == "done"
            body, status = client.result(follower)
            assert status == "coalesced"
            assert body == client.result(leader)[0]
            # The single worker task is still alive for the next miss.
            other = client.submit("table5")["job"]["id"]
            assert client.wait(other, timeout=10)["state"] == "done"
            assert client.submit("table5")["job"]["source"] == "cache"
            assert len(stub.calls) == 2
            samples = parse_prometheus(client.metrics_text())
            assert samples["serve_cache_write_errors_total"] == 1


class TestCoalescingAcceptance:
    def test_concurrent_identical_posts_cost_one_simulation(self):
        """N concurrent identical POST /jobs -> exactly one execution."""
        concurrency = 6
        server, stub = stub_server(jobs=2)
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            with concurrent.futures.ThreadPoolExecutor(concurrency) as pool:
                documents = list(
                    pool.map(
                        lambda _: client.submit("table2"), range(concurrency)
                    )
                )
            # All submissions are in (executor still gated): release the run.
            server.call_in_loop(stub.gate.set)

            ids = [doc["job"]["id"] for doc in documents]
            bodies = set()
            for job_id in ids:
                assert client.wait(job_id, timeout=10)["state"] == "done"
                bodies.add(client.result(job_id)[0])

            assert len(stub.calls) == 1  # exactly one simulation ran
            assert len(bodies) == 1  # and everyone got its bytes
            samples = parse_prometheus(client.metrics_text())
            assert samples["serve_coalesced_requests_total"] == concurrency - 1
            assert samples["serve_cache_misses_total"] == 1
            assert (
                samples["serve_jobs_submitted_total{experiment=table2}"]
                == concurrency
            )
            sources = sorted(
                client.job(job_id)["source"] for job_id in ids
            )
            assert sources == ["coalesced"] * (concurrency - 1) + ["computed"]


class TestRealSimulation:
    """One real (small) experiment through the full stack.

    This is the warm-vs-cold byte-identity acceptance test: the cold run
    goes HTTP -> queue -> worker process -> canonical bytes, the warm run
    is served from the content-addressed cache, and the two must match
    exactly.
    """

    def test_cold_and_warm_results_are_byte_identical(self, tmp_path):
        with ServerThread(jobs=1, cache_dir=str(tmp_path)) as server:
            client = server.client
            cold_doc = client.submit("table6")
            assert cold_doc["cache_status"] == "miss"
            job_id = cold_doc["job"]["id"]
            assert client.wait(job_id, timeout=120)["state"] == "done"
            cold, cold_status = client.result(job_id)
            assert cold_status == "miss"

            warm_doc = client.submit("table6")
            assert warm_doc["cache_status"] == "hit"
            warm, warm_status = client.result(warm_doc["job"]["id"])
            assert warm_status == "hit"
            assert warm == cold

            record = json.loads(cold.decode("utf-8"))
            assert record["experiment"] == "table6"
            assert record["code_version"] == version_fingerprint()
            assert record["config"] == {
                "partitions": 1, "sanitize": False, "spec": None,
            }

            samples = parse_prometheus(client.metrics_text())
            assert samples["serve_cache_hits_total"] == 1
            assert samples["serve_cache_misses_total"] == 1
            assert samples["serve_job_latency_ms_count"] == 2

            # The cold run also produced a live columnar trace buffer --
            # fetchable, parseable, and reported in /healthz telemetry.
            from repro.trace import TraceSnapshot

            snap = TraceSnapshot.from_bytes(client.trace(job_id))
            assert snap.records_seen > 0
            assert snap.counter_totals  # real hardware counters flowed
            meta = client.job(job_id)["trace"]
            assert meta["records_seen"] == snap.records_seen
            assert "overhead_ratio" not in meta
            # The worker phase splits into what the worker timed itself
            # and the process plumbing around it.
            phases = client.job(job_id)["phases_ms"]
            assert min(phases.values()) >= 0
            split = phases["spawn"] + phases["simulate"] + phases["serialize"]
            assert split == pytest.approx(phases["worker"], abs=0.002)
            health = client.healthz()
            assert health["trace_buffer_bytes"] > 0
            assert samples["serve_trace_buffer_bytes"] > 0
            # The warm (cache-hit) job never ran, so it has no buffer.
            with pytest.raises(ServeError) as info:
                client.trace(warm_doc["job"]["id"])
            assert info.value.status == 404
