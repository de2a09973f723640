"""`cedar-repro serve`: the asyncio HTTP/JSON front of the simulator.

A deliberately small HTTP/1.1 implementation on ``asyncio`` streams -- no
framework, stdlib only, one connection per request.  Routes:

============================  ==============================================
``POST /jobs``                submit an experiment or sweep (JSON body)
``GET  /jobs``                list all jobs (most recent state)
``GET  /jobs/<id>``           one job document
``GET  /jobs/<id>/result``    the result bytes (``X-Cedar-Cache`` header
                              says ``hit``/``miss``/``coalesced``)
``GET  /jobs/<id>/trace``     the run's columnar trace snapshot (binary
                              wire format; 404 for cache hits, which
                              never ran a simulation)
``GET  /jobs/<id>/events``    server-sent-events progress stream over a
                              chunked response (replays history, then
                              follows live until the job resolves)
``GET  /metrics``             Prometheus text exposition of the serve
                              counters (jobs, cache, queue, latency)
``GET  /healthz``             liveness + version fingerprint
============================  ==============================================

The request path holds the determinism line: submissions are parsed and
canonicalized by :mod:`repro.serve.schema`, resolved against the
content-addressed cache or coalesced onto an identical in-flight run by
:class:`repro.serve.jobs.JobRegistry` -- all on the single event loop --
and simulations execute on worker processes, never in the server process.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, Optional, Tuple

from repro.errors import ServeError
from repro.experiments.registry import EXPERIMENTS
from repro.metrics import MetricsRegistry, prometheus_text
from repro.serve.cache import ResultCache
from repro.serve.jobs import DEFAULT_QUEUE_LIMIT, Job, JobRegistry
from repro.serve.schema import parse_job_request
from repro.version import version_fingerprint

#: Largest accepted request head or body, bytes.  Requests are tiny
#: (experiment key + a few booleans); anything bigger is not ours.
MAX_REQUEST_BYTES = 1 << 20

_REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: How a job's ``source`` shows up in the ``X-Cedar-Cache`` header.
_CACHE_HEADER = {"cache": "hit", "computed": "miss", "coalesced": "coalesced"}


class JobServer:
    """One serving instance: HTTP front, job registry, cache, metrics."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 2,
        cache_dir: Optional[str] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
        registry: Optional[JobRegistry] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.metrics = registry.metrics if registry else MetricsRegistry()
        self.cache = registry.cache if registry else ResultCache(cache_dir)
        self.registry = registry or JobRegistry(
            self.cache, self.metrics, jobs=jobs, queue_limit=queue_limit
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Bind, start worker tasks, begin accepting connections."""
        self.registry.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.registry.close()

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except ServeError as error:
                await self._send_json(
                    writer, error.status, {"error": str(error)}
                )
                return
            try:
                await self._route(method, path, body, writer)
            except ServeError as error:
                await self._send_json(
                    writer, error.status, {"error": str(error)}
                )
            except Exception as error:  # never leak a traceback as a hang
                await self._send_json(
                    writer, 500, {"error": f"internal error: {error!r}"}
                )
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, bytes]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise ServeError("request head too large", status=413) from None
        except asyncio.IncompleteReadError:
            raise ServeError("truncated request", status=400) from None
        request_line, _, header_block = head.partition(b"\r\n")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise ServeError(f"malformed request line {request_line!r}")
        method, path, _version = parts
        headers: Dict[str, str] = {}
        for line in header_block.decode("latin-1").split("\r\n"):
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_REQUEST_BYTES:
            raise ServeError("request body too large", status=413)
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    # -- routing ------------------------------------------------------------

    async def _route(
        self, method: str, path: str, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        path = path.split("?", 1)[0]
        if path == "/healthz" and method == "GET":
            document = {
                "status": "ok",
                "code_version": version_fingerprint(),
                "workers": self.registry.num_workers,
                "jobs": len(self.registry.all_jobs()),
                "cached_results": len(self.cache),
            }
            meta = self.registry.last_trace_meta
            if meta is not None:
                document["trace_buffer_bytes"] = meta.get("buffer_bytes")
            await self._send_json(writer, 200, document)
            return
        if path == "/metrics" and method == "GET":
            await self._send(
                writer, 200, prometheus_text(self.metrics).encode("utf-8"),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            )
            return
        if path == "/jobs":
            if method == "POST":
                await self._post_jobs(body, writer)
                return
            if method == "GET":
                await self._send_json(writer, 200, {
                    "jobs": [job.public() for job in self.registry.all_jobs()]
                })
                return
            raise ServeError("use GET or POST on /jobs", status=405)
        if path.startswith("/jobs/"):
            remainder = path[len("/jobs/"):]
            if method != "GET":
                raise ServeError("jobs are immutable; use GET", status=405)
            job_id, _, tail = remainder.partition("/")
            job = self.registry.get(job_id)
            if tail == "":
                await self._send_json(writer, 200, job.public())
                return
            if tail == "result":
                await self._get_result(job, writer)
                return
            if tail == "trace":
                await self._get_trace(job, writer)
                return
            if tail == "events":
                await self._stream_events(job, writer)
                return
        raise ServeError(f"no route for {method} {path}", status=404)

    async def _post_jobs(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as error:
            raise ServeError(f"request body is not valid JSON: {error}") from None
        request = parse_job_request(payload, EXPERIMENTS)
        jobs = self.registry.submit(request)
        document: Dict[str, object] = {
            "jobs": [job.public() for job in jobs],
        }
        headers = []
        if len(jobs) == 1:
            document["job"] = jobs[0].public()
            cache_state = _CACHE_HEADER.get(jobs[0].source or "", "miss")
            headers.append(("X-Cedar-Cache", cache_state))
        status = 200 if all(job.state == "done" for job in jobs) else 202
        await self._send_json(writer, status, document, extra_headers=headers)

    async def _get_result(self, job: Job, writer: asyncio.StreamWriter) -> None:
        if job.state in ("queued", "running"):
            raise ServeError(
                f"job {job.id} is {job.state}; result not ready", status=409
            )
        if job.state == "failed":
            await self._send_json(writer, 500, {
                "error": f"job {job.id} failed",
                "job": job.public(),
            })
            return
        assert job.result is not None
        await self._send(
            writer, 200, job.result,
            content_type="application/json",
            extra_headers=[
                ("X-Cedar-Cache", _CACHE_HEADER.get(job.source or "", "miss")),
                ("X-Cedar-Job", job.id),
            ],
        )

    async def _get_trace(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """Stream the job's columnar trace snapshot (wire format)."""
        if job.state in ("queued", "running"):
            raise ServeError(
                f"job {job.id} is {job.state}; trace not ready", status=409
            )
        if job.trace is None:
            raise ServeError(
                f"job {job.id} has no trace buffer (cache hits never ran)",
                status=404,
            )
        await self._send(
            writer, 200, job.trace,
            content_type="application/octet-stream",
            extra_headers=[("X-Cedar-Job", job.id)],
        )

    async def _stream_events(self, job: Job, writer: asyncio.StreamWriter) -> None:
        """Server-sent events over a chunked response, one event per chunk."""
        head = (
            "HTTP/1.1 200 OK\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Transfer-Encoding: chunked\r\n"
            "Connection: close\r\n"
            "\r\n"
        )
        writer.write(head.encode("latin-1"))
        await writer.drain()
        async for event in job.stream():
            frame = (
                f"event: {event['event']}\n"
                f"id: {event['seq']}\n"
                f"data: {json.dumps(event['data'], sort_keys=True)}\n\n"
            ).encode("utf-8")
            writer.write(b"%x\r\n" % len(frame) + frame + b"\r\n")
            await writer.drain()
        closing = b"event: end\ndata: {}\n\n"
        writer.write(b"%x\r\n" % len(closing) + closing + b"\r\n")
        writer.write(b"0\r\n\r\n")
        await writer.drain()

    # -- response helpers ---------------------------------------------------

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close",
        ]
        for name, value in extra_headers or []:
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    async def _send_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        document: Dict[str, object],
        extra_headers: Optional[List[Tuple[str, str]]] = None,
    ) -> None:
        body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
        await self._send(writer, status, body, extra_headers=extra_headers)


async def serve_forever(
    host: str,
    port: int,
    jobs: int,
    cache_dir: Optional[str],
    queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ready=None,
) -> None:
    """Boot a :class:`JobServer` and run until cancelled (the CLI entry)."""
    server = JobServer(
        host=host, port=port, jobs=jobs,
        cache_dir=cache_dir, queue_limit=queue_limit,
    )
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.stop()
