"""Process-per-task parallel runner with structured crash reporting.

This replaces the bare ``multiprocessing.Pool`` behind ``--jobs N`` (both
``cedar-repro run`` and ``cedar-repro bench``) and backs the serving
tier's job execution.  Three properties matter and the stock pool gives
none of them:

* **A worker exception surfaces as a structured error.**  The child
  catches everything, ships ``(repr, traceback)`` back, and the parent
  raises :class:`~repro.errors.WorkerCrashError` carrying the task key --
  not a pickled traceback proxy of unknown type.
* **A dead worker surfaces at once instead of wedging the wait.**  Each
  task reports over its own one-way pipe, and the parent blocks in
  :func:`multiprocessing.connection.wait` on every live task's read end
  *and* a pidfd for its process.  When the process exits, the parent
  reads what the pipe already holds, then raises
  :class:`WorkerCrashError` with the exit code.  EOF alone cannot tell:
  a process forked while the write end was open (a concurrent serve job,
  a worker's own children) may hold it after the task is gone.  Nor can
  the process sentinel, a pipe the worker's children inherit too; it
  stands in only where the OS has no pidfds.
* **Workers can stream events.**  :func:`run_in_process` gives the child
  an ``emit`` callback whose payloads are forwarded to the parent's
  ``on_event`` as they happen -- the transport for the serve tier's
  per-job progress stream off the trace bus.

Each task runs in a fresh process (the ``maxtasksperchild=1`` policy the
pool paths already used), so simulator state can never leak between
experiments.  A child blocks in ``send`` until the parent reads, so the
parent drains every ready pipe and joins a child only after its terminal
message.
"""

from __future__ import annotations

import os
import traceback
from typing import Callable, Iterator, Optional, Sequence, Tuple

from repro.errors import WorkerCrashError


def _child_main(worker, payload, writer, streams_events) -> None:
    """Child-process entry: run one task, report exactly one terminal message."""
    try:
        if streams_events:
            def emit(data: object) -> None:
                writer.send(("event", data))

            message: Tuple = ("ok", worker(payload, emit))
        else:
            message = ("ok", worker(payload))
    except BaseException as error:  # report, don't let it vanish with the process
        message = ("error", repr(error), traceback.format_exc())
    writer.send(message)


class _TaskProcesses:
    """Bookkeeping shared by :func:`run_in_process` and :func:`parallel_map`.

    ``daemon=False`` lets a worker spawn its own children (a partitioned
    run inside a serve job worker); such workers are still terminated by
    :meth:`terminate_all` on the error paths, so nothing outlives the
    parent in practice.
    """

    def __init__(self, daemon: bool = True) -> None:
        # Imported on first use: the sweep builder and the server import
        # this module at start-up, and most of their runs fork nothing.
        import multiprocessing
        from multiprocessing.connection import wait

        self.context = multiprocessing.get_context()
        self.wait = wait
        self.daemon = daemon
        self.active: dict = {}  # read end -> (key, Process, exit waitable)

    def spawn(self, worker, key, payload, streams_events: bool) -> None:
        reader, writer = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_child_main,
            args=(worker, payload, writer, streams_events),
            daemon=self.daemon,
        )
        process.start()
        writer.close()  # the child holds the copy that matters
        try:  # the sentinel only without pidfds, or if the child is reaped
            exited = os.pidfd_open(process.pid)
        except (AttributeError, OSError):
            exited = process.sentinel
        self.active[reader] = (key, process, exited)

    def next_message(self) -> Tuple:
        """Block for the next ``(reader, message)``; raise on a dead worker."""
        owner = {}
        for reader, (_key, _process, exited) in self.active.items():
            owner[reader] = owner[exited] = reader
        reader = owner[self.wait(list(owner))[0]]
        try:
            if reader.poll(0):  # what a dead child sent is still delivered
                return reader, reader.recv()
        except (EOFError, OSError):
            pass  # every write end closed: nothing more will come
        key, process = self.active[reader][:2]
        self.reap(reader)
        raise WorkerCrashError(
            key,
            "worker process died before reporting a result",
            exitcode=process.exitcode,
        )

    def reap(self, reader) -> str:
        """Join a task's process and close its handles; return its key."""
        key, process, exited = self.active.pop(reader)
        process.join()
        reader.close()
        if exited != process.sentinel:
            os.close(exited)
        return key

    def terminate_all(self) -> None:
        for _key, process, _exited in self.active.values():
            if process.is_alive():
                process.terminate()
        for reader in list(self.active):
            self.reap(reader)


def run_in_process(
    worker: Callable[[object, Callable[[object], None]], object],
    key: str,
    payload: object,
    on_event: Optional[Callable[[object], None]] = None,
    daemon: bool = True,
) -> object:
    """Run ``worker(payload, emit)`` in a fresh process; return its result.

    Every ``emit(data)`` call in the child is forwarded to ``on_event`` in
    the parent, in order, before the result is returned -- also the events
    of a worker that dies right after emitting them.  A worker exception
    or death raises :class:`WorkerCrashError` tagged with ``key``.
    Blocking -- the serve tier calls this from an executor thread, one per
    in-flight job.  ``daemon=False`` allows the worker to spawn its own
    processes (partitioned simulation inside a serve job).
    """
    tasks = _TaskProcesses(daemon=daemon)
    try:
        tasks.spawn(worker, key, payload, streams_events=True)
        while True:
            reader, message = tasks.next_message()
            kind = message[0]
            if kind == "event":
                if on_event is not None:
                    on_event(message[1])
                continue
            tasks.reap(reader)
            if kind == "error":
                raise WorkerCrashError(
                    key, message[1], worker_traceback=message[2]
                )
            return message[1]
    finally:
        tasks.terminate_all()


def parallel_map(
    worker: Callable[[object], object],
    tasks: Sequence[Tuple[str, object]],
    jobs: int,
) -> Iterator[Tuple[str, object]]:
    """Run ``worker(payload)`` for every ``(key, payload)`` task.

    Up to ``jobs`` single-shot worker processes run at once; results are
    yielded ``(key, result)`` in completion order (collect into a dict and
    re-walk your key order for deterministic output, as the CLI and bench
    merge paths do).  The first worker exception or death raises
    :class:`WorkerCrashError` for its experiment; remaining workers are
    terminated.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    pool = _TaskProcesses()
    pending = list(tasks)
    pending.reverse()  # pop() from the front of the caller's order
    try:
        while pending and len(pool.active) < jobs:
            key, payload = pending.pop()
            pool.spawn(worker, key, payload, streams_events=False)
        while pool.active:
            reader, message = pool.next_message()
            key = pool.reap(reader)
            if message[0] == "error":
                raise WorkerCrashError(key, message[1], worker_traceback=message[2])
            if pending:
                next_key, next_payload = pending.pop()
                pool.spawn(worker, next_key, next_payload, streams_events=False)
            yield key, message[1]
    finally:
        pool.terminate_all()
