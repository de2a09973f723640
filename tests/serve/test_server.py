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
import logging
import os
import socket
import threading
import time

import pytest

from repro.errors import ServeError, WorkerCrashError
from repro.metrics import MetricsRegistry, prometheus_text
from repro.serve import JobRegistry, JobServer, ResultCache, ServeClient
from repro.serve.jobs import RETAINED_JOBS
from repro.version import version_fingerprint
from tests.metrics.prometheus_reader import parse_prometheus


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
        self._clients = []
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
        for client in self._clients:
            client.close()  # this thread's kept-alive connection
        self.loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=10)

    def call_in_loop(self, callback):
        self.loop.call_soon_threadsafe(callback)

    @property
    def client(self):
        client = ServeClient(port=self.server.port, timeout=30)
        self._clients.append(client)
        return client


def stub_server(jobs=1, queue_limit=64, trace=None, trace_meta=None):
    stub = StubExecutor(trace=trace, trace_meta=trace_meta)
    registry = JobRegistry(
        ResultCache(), MetricsRegistry(),
        jobs=jobs, queue_limit=queue_limit, execute=stub,
    )
    return ServerThread(registry=registry), stub


def _samples(client):
    """``GET /metrics`` over ``client``'s own connection, parsed."""
    status, _, payload = client._request("GET", "/metrics")
    assert status == 200
    return parse_prometheus(payload.decode("utf-8"))


def _health(client):
    """``GET /healthz`` over ``client``'s own connection, decoded."""
    return client._request_json("GET", "/healthz")[2]


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
            counts = {_health(client)["cached_results"] for _ in range(100)}
        assert counts == {2}
        assert listed == []


class TestHttpBasics:
    def test_healthz_and_error_routes(self):
        server, _ = stub_server()
        with server:
            client = server.client
            health = _health(client)
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
            samples = _samples(client)
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
            assert "trace_buffer_bytes" not in _health(client)
            for key in ("table2", "table5"):
                job_id = client.submit(key)["job"]["id"]
                client.wait(job_id, timeout=10)
            health = _health(client)
            assert "trace_overhead_ratio" not in health
            assert health["trace_buffer_bytes"] == 4096
            samples = _samples(client)
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


class TestEviction:
    """Finished jobs past RETAINED_JOBS are evicted; their ids answer a
    404 that says so, on every route and through the client."""

    @staticmethod
    def _warm_repeats(client, experiment, count):
        for _ in range(count):
            assert client.submit(experiment)["cache_status"] == "hit"

    def test_evicted_id_is_a_distinct_404_everywhere(self):
        server, stub = stub_server(trace=b"trace-bytes", trace_meta={})
        with server:
            client = server.client
            first = client.submit("table2")["job"]["id"]
            client.wait(first, timeout=10)
            cold, _ = client.result(first)
            self._warm_repeats(client, "table2", RETAINED_JOBS)

            expected = (
                f"job {first} was evicted (only the {RETAINED_JOBS} most "
                "recently finished jobs are kept); resubmit it, the result "
                "is cached"
            )
            for call in (client.job, client.wait, client.result, client.trace,
                         lambda job_id: list(client.events(job_id))):
                with pytest.raises(ServeError) as info:
                    call(first)
                assert info.value.status == 404
                assert str(info.value) == expected
            status, _, payload = client._request("GET", f"/jobs/{first}")
            assert status == 404
            assert json.loads(payload) == {"error": expected}
            with pytest.raises(ServeError) as info:
                client.job("j999999")
            assert info.value.status == 404
            assert "unknown job" in str(info.value)

            assert len(client.jobs()) == RETAINED_JOBS
            assert _health(client)["jobs"] == RETAINED_JOBS
            samples = _samples(client)
            assert samples["serve_jobs_evicted_total"] == 1
            assert samples["serve_jobs_retained"] == RETAINED_JOBS
            again = client.submit("table2")
            assert again["cache_status"] == "hit"
            assert client.result(again["job"]["id"])[0] == cold
            assert len(stub.calls) == 1

    def test_retention_metrics_are_registered_at_zero(self):
        server, _ = stub_server()
        with server:
            samples = _samples(server.client)
            assert samples["serve_jobs_retained"] == 0
            assert samples["serve_jobs_evicted_total"] == 0

    def test_trace_gauge_falls_when_a_leader_is_evicted(self):
        trace = _stub_trace_bytes()
        server, stub = stub_server(trace=trace, trace_meta={})
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            leader = client.submit("table2")["job"]["id"]
            follower = client.submit("table2")["job"]["id"]
            server.call_in_loop(stub.gate.set)
            client.wait(leader, timeout=10)
            client.wait(follower, timeout=10)
            other = client.submit("table5")["job"]["id"]
            client.wait(other, timeout=10)

            def gauge():
                return _samples(client)[
                    "serve_trace_buffer_bytes"
                ]

            # The follower shares its leader's bytes: counted once.
            assert gauge() == 2 * len(trace)
            self._warm_repeats(client, "table5", RETAINED_JOBS - 3)
            assert gauge() == 2 * len(trace)
            self._warm_repeats(client, "table5", 1)
            with pytest.raises(ServeError, match="was evicted"):
                client.job(leader)
            assert gauge() == len(trace)
            self._warm_repeats(client, "table5", 2)
            with pytest.raises(ServeError, match="was evicted"):
                client.job(other)
            assert gauge() == 0

    def test_open_event_stream_ends_after_its_job_is_evicted(self):
        server, stub = stub_server()
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            stream = client.events(job_id)
            assert next(stream)[0] == "submitted"
            server.call_in_loop(stub.gate.set)
            client.wait(job_id, timeout=10)
            self._warm_repeats(client, "table2", RETAINED_JOBS)
            with pytest.raises(ServeError, match="was evicted"):
                client.job(job_id)
            names = [name for name, _ in stream]
            assert names == ["queued", "running", "progress", "done", "end"]

    def test_cli_submit_reports_an_evicted_job_without_a_traceback(
        self, capsys, monkeypatch
    ):
        from repro.cli import main

        server, _ = stub_server()
        with server:
            client = server.client
            first = client.submit("table2")["job"]["id"]
            client.wait(first, timeout=10)
            self._warm_repeats(client, "table2", RETAINED_JOBS)
            # The CLI is told of a job the server has since evicted.
            monkeypatch.setattr(
                ServeClient, "submit",
                lambda self, *args, **kwargs: {"jobs": [{"id": first}]},
            )
            code = main(["submit", "table2", "--port", str(server.server.port)])
        captured = capsys.readouterr()
        assert code == 1
        assert f"job {first} was evicted" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""


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
            samples = _samples(client)
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
            samples = _samples(client)
            assert samples["serve_cache_write_errors_total"] == 1


class TestCoalescingAcceptance:
    def test_concurrent_identical_posts_cost_one_simulation(self):
        """N concurrent identical POST /jobs -> exactly one execution."""
        concurrency = 6
        server, stub = stub_server(jobs=2)
        stub.gate = asyncio.Event()
        with server:
            client = server.client

            def submit(_):
                try:
                    return client.submit("table2")
                finally:
                    client.close()  # this pool thread's connection

            with concurrent.futures.ThreadPoolExecutor(concurrency) as pool:
                documents = list(pool.map(submit, range(concurrency)))
            # All submissions are in (executor still gated): release the run.
            server.call_in_loop(stub.gate.set)

            ids = [doc["job"]["id"] for doc in documents]
            bodies = set()
            for job_id in ids:
                assert client.wait(job_id, timeout=10)["state"] == "done"
                bodies.add(client.result(job_id)[0])

            assert len(stub.calls) == 1  # exactly one simulation ran
            assert len(bodies) == 1  # and everyone got its bytes
            samples = _samples(client)
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

            samples = _samples(client)
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
            health = _health(client)
            assert health["trace_buffer_bytes"] > 0
            assert samples["serve_trace_buffer_bytes"] > 0
            # The warm (cache-hit) job never ran, so it has no buffer.
            with pytest.raises(ServeError) as info:
                client.trace(warm_doc["job"]["id"])
            assert info.value.status == 404


def _connections_total(client):
    return _samples(client)["serve_connections_total"]


def _raw_exchange(port, request):
    """Send raw ``request`` bytes, read until the server closes; returns
    (everything received, whether the server closed within 5 s)."""
    with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
        sock.sendall(request)
        received = b""
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    return received, True
                received += chunk
        except socket.timeout:
            return received, False


def _head(response):
    return response.partition(b"\r\n\r\n")[0].decode("latin-1")


class TestPersistentConnections:
    """One kept-alive connection per client thread; the server closes
    exactly where it says ``Connection: close``."""

    def test_connection_metrics_are_registered_at_zero(self):
        server, _ = stub_server()
        with server:
            samples = parse_prometheus(prometheus_text(server.server.metrics))
            assert samples["serve_connections_total"] == 0
            assert samples["serve_connections_open"] == 0
            client = server.client
            samples = _samples(client)
            # The scrape itself arrives on the first connection.
            assert samples["serve_connections_total"] == 1
            assert samples["serve_connections_open"] == 1
            assert _health(client)["connections_open"] == 1

    def test_warm_hits_from_one_thread_share_one_connection(self):
        server, _ = stub_server()
        with server:
            observer = server.client
            client = server.client
            client.wait(client.submit("table2")["job"]["id"], timeout=10)
            client.close()
            before = _connections_total(observer)
            for _ in range(50):
                job = client.submit("table2")["job"]
                assert job["source"] == "cache"
                assert client.result(job["id"])[1] == "hit"
            assert _connections_total(observer) - before == 1

    def test_each_client_thread_keeps_its_own_connection(self):
        server, _ = stub_server()
        with server:
            observer = server.client
            client = server.client
            client.wait(client.submit("table2")["job"]["id"], timeout=10)
            client.close()
            before = _connections_total(observer)
            statuses = []

            def hits():
                for _ in range(25):
                    job = client.submit("table2")["job"]
                    statuses.append(client.result(job["id"])[1])
                client.close()

            threads = [threading.Thread(target=hits) for _ in range(2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert statuses == ["hit"] * 50
            assert _connections_total(observer) - before == 2
            wait_for(lambda: _health(observer)["connections_open"] == 1)

    def test_keep_alive_responses_do_not_say_close(self):
        server, _ = stub_server()
        with server:
            request = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
            received, closed = _raw_exchange(
                server.server.port, request * 2 + b"GET /healthz HTTP/1.0\r\n\r\n"
            )
            assert closed
            responses = received.split(b"HTTP/1.1 200 OK")[1:]
            assert len(responses) == 3
            assert [b"Connection: close" in r for r in responses] == [
                False, False, True,
            ]

    @pytest.mark.parametrize("request_bytes", [
        b"GET /healthz HTTP/1.0\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nConnection: Close\r\n\r\n",
    ])
    def test_close_requests_get_connection_close_then_eof(self, request_bytes):
        server, _ = stub_server()
        with server:
            received, closed = _raw_exchange(server.server.port, request_bytes)
            assert closed
            assert "Connection: close" in _head(received).split("\r\n")
            assert json.loads(received.partition(b"\r\n\r\n")[2])["status"] == "ok"

    def test_event_stream_says_close_then_closes(self):
        server, _ = stub_server()
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            client.wait(job_id, timeout=10)
            received, closed = _raw_exchange(
                server.server.port,
                f"GET /jobs/{job_id}/events HTTP/1.1\r\n\r\n".encode(),
            )
            assert closed
            assert "Connection: close" in _head(received).split("\r\n")
            assert received.endswith(b"0\r\n\r\n")

    def test_eof_between_requests_is_a_clean_close(self, caplog):
        caplog.set_level("DEBUG")
        server, _ = stub_server()
        with server:
            with socket.create_connection(
                ("127.0.0.1", server.server.port), timeout=5
            ) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(65536)
                length = int(
                    head.split(b"Content-Length: ")[1].split(b"\r\n")[0]
                )
                body = head.partition(b"\r\n\r\n")[2]
                while len(body) < length:
                    body += sock.recv(65536)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(65536) == b""  # no 400, just EOF
            wait_for(
                lambda: _health(server.client)["connections_open"] == 1
            )
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    def test_truncated_head_is_still_a_400(self):
        server, _ = stub_server()
        with server:
            with socket.create_connection(
                ("127.0.0.1", server.server.port), timeout=5
            ) as sock:
                sock.sendall(b"GET /healthz HTTP/1.1\r\n")
                sock.shutdown(socket.SHUT_WR)
                received = b""
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        break
                    received += chunk
            assert received.startswith(b"HTTP/1.1 400 ")
            assert b"truncated request" in received

    def test_stop_returns_while_a_client_holds_an_idle_connection(self):
        server, _ = stub_server()
        server.__enter__()
        client = server.client
        assert _health(client)["connections_open"] == 1
        began = time.monotonic()
        server.__exit__(None, None, None)
        assert time.monotonic() - began < 2
        assert not server._thread.is_alive()
        # The server closed the idle connection: the client's one retry
        # finds nothing listening and fails instead of hanging.
        with pytest.raises(ConnectionRefusedError):
            _health(client)

    def test_client_context_closes_its_connection(self):
        server, _ = stub_server()
        with server:
            observer = server.client
            with server.client as client:
                _health(client)
                assert _health(observer)["connections_open"] == 2
            wait_for(lambda: _health(observer)["connections_open"] == 1)


@pytest.mark.parametrize("header, message", [
    (b"Content-Length: abc", "invalid Content-Length 'abc'"),
    (b"Content-Length: -5", "invalid Content-Length '-5'"),
    (b"Transfer-Encoding: chunked", "Transfer-Encoding"),
])
def test_broken_request_framing_is_a_400_and_a_close(header, message):
    server, stub = stub_server()
    with server:
        # A chunked body whose bytes must not be read as a second request.
        request = (
            b"POST /jobs HTTP/1.1\r\n" + header + b"\r\n\r\n"
            b"5\r\nGET /\r\n0\r\n\r\n"
        )
        received, closed = _raw_exchange(server.server.port, request)
        assert closed
        assert received.count(b"HTTP/1.1 ") == 1
        assert received.startswith(b"HTTP/1.1 400 Bad Request\r\n")
        assert "Connection: close" in _head(received).split("\r\n")
        error = json.loads(received.partition(b"\r\n\r\n")[2])["error"]
        assert message in error
        assert stub.calls == []
        assert _health(server.client)["status"] == "ok"


class ScriptedServer:
    """A raw TCP server that runs ``script(sock, index, server)`` on each
    accepted connection, one thread each, to drive the client through failures a
    well-behaved server never produces on demand."""

    def __init__(self, script):
        self.script = script
        self.accepted = 0
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(10)
        self.port = self.listener.getsockname()[1]
        self.release = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while True:
            try:
                sock, _ = self.listener.accept()
            except OSError:
                return
            self.accepted += 1
            threading.Thread(
                target=self._serve, args=(sock, self.accepted - 1), daemon=True
            ).start()

    def _serve(self, sock, index):
        with sock:
            try:
                self.script(sock, index, self)
            except OSError:
                pass

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc_info):
        self.release.set()
        self.listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept
        self.listener.close()
        self._thread.join(timeout=10)

    @staticmethod
    def read_request(sock):
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return None
            data += chunk
        return data

    @staticmethod
    def answer(sock, body=b'{"status": "ok"}', declared=None):
        length = len(body) if declared is None else declared
        sock.sendall(
            b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n" % length + body
        )


class TestClientReconnects:
    def test_recovers_once_when_the_server_closes_an_idle_connection(self):
        def answer_one_then_close(sock, index, server):
            if server.read_request(sock) is not None:
                server.answer(sock)

        with ScriptedServer(answer_one_then_close) as fake:
            with ServeClient(port=fake.port, timeout=5) as client:
                for _ in range(3):
                    assert _health(client) == {"status": "ok"}
            # Each request after the first found its kept connection
            # closed, and reconnected once.
            assert fake.accepted == 3

    def test_a_failed_retry_is_not_retried_again(self):
        def answer_first_connection_only(sock, index, server):
            if server.read_request(sock) is not None and index == 0:
                server.answer(sock)

        with ScriptedServer(answer_first_connection_only) as fake:
            with ServeClient(port=fake.port, timeout=5) as client:
                assert _health(client) == {"status": "ok"}
                with pytest.raises(ConnectionError):
                    _health(client)
            assert fake.accepted == 2

    def test_a_fresh_connection_is_never_retried(self):
        def drop(sock, index, server):
            server.read_request(sock)

        with ScriptedServer(drop) as fake:
            client = ServeClient(port=fake.port, timeout=5)
            with pytest.raises(ConnectionError):
                _health(client)
            assert fake.accepted == 1

    def test_a_refused_connection_is_not_retried(self, monkeypatch):
        with socket.create_server(("127.0.0.1", 0)) as probe:
            port = probe.getsockname()[1]
        client = ServeClient(port=port, timeout=5)
        opened = []
        real = ServeClient._connection

        def counting(self, timeout=None):
            opened.append(timeout)
            return real(self, timeout)

        monkeypatch.setattr(ServeClient, "_connection", counting)
        with pytest.raises(ConnectionRefusedError):
            _health(client)
        assert len(opened) == 1

    def test_timeout_mid_response_leaves_the_next_request_working(self):
        def stall_first_response(sock, index, server):
            while server.read_request(sock) is not None:
                if index == 0:
                    # Promise 100 bytes, send 10, then go silent.
                    server.answer(sock, body=b'{"a": 1}  ', declared=100)
                    server.release.wait(10)
                    return
                server.answer(sock)

        with ScriptedServer(stall_first_response) as fake:
            with ServeClient(port=fake.port, timeout=0.3) as client:
                with pytest.raises(TimeoutError):
                    _health(client)
                assert _health(client) == {"status": "ok"}
                assert _health(client) == {"status": "ok"}
            assert fake.accepted == 2


class TestWaitFollowsTheEventStream:
    def test_wait_does_not_poll(self):
        server, stub = stub_server()
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            requests = []
            real = ServeClient._request

            def counting(self, method, path, body=None):
                requests.append((method, path))
                return real(self, method, path, body)

            threading.Timer(
                0.3, lambda: server.call_in_loop(stub.gate.set)
            ).start()
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(ServeClient, "_request", counting)
                began = time.monotonic()
                final = client.wait(job_id, timeout=10)
            assert final["state"] == "done"
            assert time.monotonic() - began >= 0.25
            # One job fetch after the stream ended; no polling.
            assert requests == [("GET", f"/jobs/{job_id}")]

    def test_wait_times_out_with_a_504(self):
        server, stub = stub_server()
        stub.gate = asyncio.Event()
        with server:
            client = server.client
            job_id = client.submit("table2")["job"]["id"]
            began = time.monotonic()
            with pytest.raises(ServeError) as info:
                client.wait(job_id, timeout=0.3)
            assert 0.25 <= time.monotonic() - began < 2
            assert info.value.status == 504
            assert str(info.value) == f"job {job_id} still running after 0s"
            server.call_in_loop(stub.gate.set)
            assert client.wait(job_id, timeout=10)["state"] == "done"

    def test_wait_on_an_unknown_job_is_a_404(self):
        server, _ = stub_server()
        with server:
            with pytest.raises(ServeError) as info:
                server.client.wait("j42", timeout=5)
            assert info.value.status == 404
            assert "unknown job" in str(info.value)
