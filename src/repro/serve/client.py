"""Stdlib client for a running ``cedar-repro serve`` instance.

Used by ``cedar-repro submit``, the test suite, and CI's serve smoke job,
so the server's wire behavior is exercised end to end through the same
code users script against.  Blocking, no dependencies.  Each thread keeps
one persistent :class:`http.client.HTTPConnection` to the server; an
event stream opens its own connection, which closes when the stream
ends.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ServeError

#: Default port shared with the ``serve`` subcommand.
DEFAULT_PORT = 8737

#: How a kept-alive connection fails when the server closed it while it
#: sat idle: before any byte of the response, so the server never read
#: the request and sending it again is safe.
_STALE_CONNECTION = (
    http.client.RemoteDisconnected, BrokenPipeError, ConnectionResetError,
)


class ServeClient:
    """Blocking JSON/SSE client for one server address."""

    def __init__(
        self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
        timeout: float = 300.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        #: ``connection``: the calling thread's kept-alive connection
        #: (an ``HTTPConnection`` is not thread-safe).
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection; the next request opens
        a new one."""
        connection = getattr(self._local, "connection", None)
        self._local.connection = None
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- plumbing -----------------------------------------------------------

    def _connection(
        self, timeout: Optional[float] = None
    ) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port,
            timeout=self.timeout if timeout is None else timeout,
        )

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        headers = {"Content-Type": "application/json"} if body else {}
        kept = getattr(self._local, "connection", None)
        try:
            try:
                response = self._exchange(kept, method, path, body, headers)
            except _STALE_CONNECTION:
                if kept is None:
                    raise
                # The server closed the idle connection: retry once, on a
                # fresh connection, whose failure is final.
                kept.close()
                response = self._exchange(None, method, path, body, headers)
            payload = response.read()
        except BaseException:
            # A half-read response leaves the connection unusable.
            self.close()
            raise
        if response.will_close:
            self.close()
        header_map = {
            name.lower(): value for name, value in response.getheaders()
        }
        return response.status, header_map, payload

    def _exchange(
        self,
        connection: Optional[http.client.HTTPConnection],
        method: str,
        path: str,
        body: Optional[bytes],
        headers: Dict[str, str],
    ) -> http.client.HTTPResponse:
        """Send one request on ``connection`` (on a new one, kept for the
        calling thread, when ``None``) and return its response."""
        if connection is None:
            connection = self._local.connection = self._connection()
        connection.request(method, path, body=body, headers=headers)
        return connection.getresponse()

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
        return self._events(job_id, deadline=None)

    def _events(
        self, job_id: str, deadline: Optional[float]
    ) -> Iterator[Tuple[str, Dict[str, object]]]:
        """:meth:`events`; with a ``deadline`` (``time.monotonic()``), each
        socket wait gets only the time left before it, and running out
        raises :class:`TimeoutError`."""
        connection = self._connection(
            None if deadline is None else _time_left(deadline)
        )
        response: Optional[http.client.HTTPResponse] = None
        try:
            connection.request("GET", f"/jobs/{job_id}/events")
            # The stream's socket: ``getresponse`` hands it to the response
            # and detaches it from the connection (``Connection: close``).
            sock = connection.sock
            response = connection.getresponse()
            if response.status != 200:
                raise self._error(response.status, response.read())
            event_name: Optional[str] = None
            data_text = ""
            while True:
                if deadline is not None:
                    sock.settimeout(_time_left(deadline))
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
            if response is not None:
                response.close()  # it holds the stream's socket
            connection.close()

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, object]:
        """Block until the job resolves; returns the final job document.

        Follows the job's event stream to its end, then fetches the job
        document once.  Raises :class:`ServeError` (504) when the job is
        still unresolved after ``timeout`` seconds, and (404) at once for
        an id the server has evicted: resubmit the request, a finished
        result is cached.
        """
        try:
            for _ in self._events(job_id, time.monotonic() + timeout):
                pass
        except TimeoutError:
            document = self.job(job_id)
            if document["state"] in ("done", "failed"):
                return document
            raise ServeError(
                f"job {job_id} still {document['state']} after "
                f"{timeout:.0f}s",
                status=504,
            ) from None
        document = self.job(job_id)
        if document["state"] not in ("done", "failed"):
            raise ServeError(
                f"job {job_id}: event stream ended while it was "
                f"{document['state']}",
                status=502,
            )
        return document


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline``; :class:`TimeoutError` once it passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("deadline passed")
    return left
