"""Stdlib client for a running ``cedar-repro serve`` instance.

Used by ``cedar-repro submit``, the test suite, and CI's serve smoke job,
so the server's wire behavior is exercised end to end through the same
code users script against.  One :class:`http.client.HTTPConnection` per
call (the server closes connections after each response), blocking, no
dependencies.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ServeError

#: Default port shared with the ``serve`` subcommand.
DEFAULT_PORT = 8737


class ServeClient:
    """Blocking JSON/SSE client for one server address."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
        timeout: float = 300.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- plumbing -----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        connection = self._connection()
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            header_map = {
                name.lower(): value for name, value in response.getheaders()
            }
            return response.status, header_map, payload
        finally:
            connection.close()

    @staticmethod
    def _error(status: int, payload: bytes) -> ServeError:
        """The server's ``{"error": ...}`` message as a :class:`ServeError`
        (an evicted or unknown job id is a 404 naming which it is)."""
        try:
            message = json.loads(payload.decode("utf-8")).get("error")
        except ValueError:
            message = payload[:200].decode("utf-8", "replace")
        return ServeError(str(message), status=status)

    def _request_json(
        self, method: str, path: str, document: Optional[object] = None
    ) -> Tuple[int, Dict[str, str], Dict[str, object]]:
        body = (
            json.dumps(document).encode("utf-8") if document is not None else None
        )
        status, headers, payload = self._request(method, path, body)
        try:
            decoded = json.loads(payload.decode("utf-8")) if payload else {}
        except ValueError:
            raise ServeError(
                f"{method} {path}: server sent non-JSON ({payload[:80]!r})",
                status=502,
            ) from None
        if status >= 400:
            raise ServeError(
                str(decoded.get("error", f"{method} {path} -> {status}")),
                status=status,
            )
        return status, headers, decoded

    # -- endpoints ----------------------------------------------------------

    def healthz(self) -> Dict[str, object]:
        return self._request_json("GET", "/healthz")[2]

    def metrics_text(self) -> str:
        status, _, payload = self._request("GET", "/metrics")
        if status != 200:
            raise ServeError(f"GET /metrics -> {status}", status=status)
        return payload.decode("utf-8")

    def submit(
        self,
        experiment: Optional[str] = None,
        config: Optional[Dict[str, bool]] = None,
        experiments: Optional[List[str]] = None,
    ) -> Dict[str, object]:
        """POST /jobs; returns the response document plus ``cache_status``."""
        request: Dict[str, object] = {}
        if experiment is not None:
            request["experiment"] = experiment
        if experiments is not None:
            request["experiments"] = experiments
        if config is not None:
            request["config"] = config
        _, headers, document = self._request_json("POST", "/jobs", request)
        document["cache_status"] = headers.get("x-cedar-cache")
        return document

    def job(self, job_id: str) -> Dict[str, object]:
        return self._request_json("GET", f"/jobs/{job_id}")[2]

    def jobs(self) -> List[Dict[str, object]]:
        return self._request_json("GET", "/jobs")[2]["jobs"]

    def result(self, job_id: str) -> Tuple[bytes, Optional[str]]:
        """The result document bytes and the ``X-Cedar-Cache`` status."""
        status, headers, payload = self._request("GET", f"/jobs/{job_id}/result")
        if status != 200:
            raise self._error(status, payload)
        return payload, headers.get("x-cedar-cache")

    def trace(self, job_id: str) -> bytes:
        """The job's columnar trace snapshot, as wire bytes.

        Feed the result to
        :meth:`repro.trace.TraceSnapshot.from_bytes` or a
        :class:`repro.trace.TraceMerger` to render or merge it.
        """
        status, _, payload = self._request("GET", f"/jobs/{job_id}/trace")
        if status != 200:
            raise self._error(status, payload)
        return payload

    def events(self, job_id: str) -> Iterator[Tuple[str, Dict[str, object]]]:
        """Stream ``(event, data)`` pairs until the server ends the stream."""
        connection = self._connection()
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                raise self._error(response.status, response.read())
            event_name: Optional[str] = None
            data_text = ""
            while True:
                raw = response.readline()
                if not raw:
                    return
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event_name = line[len("event: "):]
                elif line.startswith("data: "):
                    data_text = line[len("data: "):]
                elif line == "" and event_name is not None:
                    data = json.loads(data_text) if data_text else {}
                    yield event_name, data
                    if event_name == "end":
                        return
                    event_name, data_text = None, ""
        finally:
            connection.close()

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, object]:
        """Block until the job resolves; returns the final job document.

        Raises :class:`ServeError` (404) at once for an id the server has
        evicted: resubmit the request, a finished result is cached.
        """
        deadline = time.monotonic() + timeout
        while True:
            document = self.job(job_id)
            if document["state"] in ("done", "failed"):
                return document
            if time.monotonic() >= deadline:
                raise ServeError(
                    f"job {job_id} still {document['state']} after "
                    f"{timeout:.0f}s",
                    status=504,
                )
            time.sleep(0.05)
