"""Tests for the process-per-task parallel runner (repro.parallel)."""

import contextlib
import multiprocessing
import os
import signal
import time

import pytest

from repro.errors import WorkerCrashError
from repro.parallel import parallel_map, run_in_process


def double(payload):
    return payload * 2


def raise_value_error(payload):
    raise ValueError(f"bad payload {payload}")


def exit_hard(payload):
    os._exit(payload)


def slow_double(payload):
    time.sleep(0.05)
    return payload * 2


def echo_with_events(payload, emit):
    for index in range(3):
        emit({"step": index})
    return payload + 1


def crash_after_event(payload, emit):
    emit({"step": 0})
    os._exit(7)


def crash_leaving_write_end_open(payload, emit):
    # The grandchild inherits the task's write end, so the parent's read
    # end sees no EOF when this worker dies.
    grandchild = os.fork()
    if grandchild == 0:
        time.sleep(10)
        os._exit(0)
    emit(grandchild)
    os._exit(3)


class TestParallelMap:
    def test_all_results_delivered(self):
        tasks = [(f"k{i}", i) for i in range(6)]
        results = dict(parallel_map(double, tasks, jobs=3))
        assert results == {f"k{i}": i * 2 for i in range(6)}

    def test_single_job_serializes(self):
        tasks = [("a", 1), ("b", 2)]
        assert dict(parallel_map(slow_double, tasks, jobs=1)) == {"a": 2, "b": 4}

    def test_more_jobs_than_tasks(self):
        assert dict(parallel_map(double, [("only", 21)], jobs=8)) == {"only": 42}

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            list(parallel_map(double, [("a", 1)], jobs=0))

    def test_worker_exception_is_structured(self):
        with pytest.raises(WorkerCrashError) as info:
            dict(parallel_map(raise_value_error, [("table9", 1)], jobs=1))
        error = info.value
        assert error.experiment == "table9"
        assert "ValueError" in str(error)
        assert "bad payload 1" in error.worker_traceback
        assert error.exitcode is None

    def test_dead_worker_is_structured_not_a_hang(self):
        # A worker killed before reporting must surface as a structured
        # error carrying the experiment key -- the bare pool would wait
        # forever for a result that never comes.
        with pytest.raises(WorkerCrashError) as info:
            dict(parallel_map(exit_hard, [("ppt9", 5)], jobs=1))
        assert info.value.experiment == "ppt9"
        assert info.value.exitcode == 5

    def test_crash_does_not_lose_earlier_results(self):
        # Sequential (jobs=1): the first task completes and is yielded
        # before the crashing one is even started.
        seen = {}
        with pytest.raises(WorkerCrashError):
            for key, value in parallel_map(
                exit_if_negative, [("good", 3), ("bad", -1)], jobs=1
            ):
                seen[key] = value
        assert seen == {"good": 6}

    def test_crash_terminates_the_other_workers(self):
        with pytest.raises(WorkerCrashError) as info:
            dict(parallel_map(sleep_or_exit, [("sleeper", 0), ("crasher", 4)], jobs=2))
        assert info.value.experiment == "crasher"
        assert multiprocessing.active_children() == []


def sleep_or_exit(payload):
    if payload:
        os._exit(payload)
    time.sleep(30)


def sleep_after_event(payload, emit):
    emit("started")
    time.sleep(30)


def exit_if_negative(payload):
    if payload < 0:
        os._exit(2)
    return payload * 2


class TestRunInProcess:
    def test_result_and_events_in_order(self):
        events = []
        result = run_in_process(echo_with_events, "k", 41, on_event=events.append)
        assert result == 42
        assert events == [{"step": 0}, {"step": 1}, {"step": 2}]

    def test_events_optional(self):
        assert run_in_process(echo_with_events, "k", 1) == 2

    def test_crash_after_events(self):
        events = []
        with pytest.raises(WorkerCrashError) as info:
            run_in_process(crash_after_event, "exp", 0, on_event=events.append)
        assert events == [{"step": 0}]  # events before death still delivered
        assert info.value.experiment == "exp"
        assert info.value.exitcode == 7

    def test_crash_reported_while_another_process_holds_the_pipe(self):
        grandchildren = []
        began = time.monotonic()
        try:
            with pytest.raises(WorkerCrashError) as info:
                run_in_process(
                    crash_leaving_write_end_open, "exp", None,
                    on_event=grandchildren.append,
                )
            assert info.value.exitcode == 3
            assert time.monotonic() - began < 5.0
        finally:
            for pid in grandchildren:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
        assert len(grandchildren) == 1

    def test_failing_event_handler_terminates_the_worker(self):
        def refuse(data):
            raise RuntimeError(f"cannot take {data!r}")

        with pytest.raises(RuntimeError, match="started"):
            run_in_process(sleep_after_event, "k", None, on_event=refuse)
        assert multiprocessing.active_children() == []
