"""Child-process side of a serve job: run one experiment, stream progress.

:func:`execute_job` is the function :func:`repro.parallel.run_in_process`
spawns per job.  It applies the job's config (machine spec, partition
count, sanitizer arming), runs the experiment with a progress-forwarding
tracer on the ambient trace bus, and returns the canonical result document bytes
plus the job's columnar trace buffer and its telemetry (buffer bytes,
instrumentation overhead) for the server's gauges, ``/healthz``, and the
``GET /jobs/<id>/trace`` endpoint.

Progress comes off the trace bus, not a wall clock: every machine the
experiment driver builds attaches to the ambient tracer, and
:class:`ProgressTracer` forwards a throttled summary every
``PROGRESS_INTERVAL`` trace records (plus an event per epoch, i.e. per
machine/kernel the driver runs).  Record counts are deterministic, so two
runs of the same job emit the same progress stream -- the serving tier
adds no nondeterminism of its own.

The tracer records into a *bounded* columnar ring (:data:`TRACE_RECORDS`
records): a serve job keeps the most recent window of its timeline at a
fixed memory ceiling instead of a 1M-record store per in-flight request,
while counter totals and busy-cycle aggregates stay exact regardless of
evictions.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from typing import Callable, Dict, Optional

from repro.results import canonical_bytes, jsonable
from repro.trace import Tracer, tracing
from repro.version import version_fingerprint

#: Emit one progress event per this many trace records.  Cycle-level
#: experiments produce millions of records; this keeps the event stream
#: in the tens of events, cheap enough to forward over a pipe per job.
PROGRESS_INTERVAL = 250_000

#: Per-job ring bound: 2**18 records (~14 MiB of columns).
TRACE_RECORDS = 1 << 18

Emit = Callable[[object], None]


class _ProgressStore:
    """Record-store proxy: forwards appends, fires a per-record callback.

    Progress throttling keys off records *appended* (``total_appended``),
    not records retained, so ring evictions never change the progress
    stream a job emits.
    """

    def __init__(self, inner, on_record: Callable[[], None]) -> None:
        self.inner = inner
        self._on_record = on_record

    def add_span(self, *args) -> None:
        self.inner.add_span(*args)
        self._on_record()

    def add_instant(self, *args) -> None:
        self.inner.add_instant(*args)
        self._on_record()

    def add_sample(self, *args) -> None:
        self.inner.add_sample(*args)
        self._on_record()

    @property
    def num_records(self) -> int:
        return self.inner.num_records

    @property
    def dropped(self) -> int:
        return self.inner.dropped

    @property
    def total_appended(self) -> int:
        return self.inner.total_appended

    @property
    def buffer_bytes(self) -> int:
        return self.inner.buffer_bytes

    @property
    def max_records(self) -> int:
        return self.inner.max_records

    def counts(self) -> Dict[str, int]:
        return self.inner.counts()

    def snapshot(self):
        return self.inner.snapshot()


class ProgressTracer(Tracer):
    """A trace bus that records into a bounded ring and streams progress.

    Counter totals, busy-cycle and epoch aggregates accumulate exactly as
    in any recording tracer; the record timeline is the most recent
    ``max_records`` window (oldest evicted), cheap enough to hold and ship
    per serve job.
    """

    def __init__(self, emit: Emit, max_records: Optional[int] = None) -> None:
        super().__init__(
            enabled=True,
            max_records=max_records or TRACE_RECORDS,
        )
        self._emit = emit
        self._store = _ProgressStore(self._store, self._progress)

    def set_clock(self, clock) -> None:
        super().set_clock(clock)
        self._emit({"type": "epoch", "epoch": self.epoch})

    def _progress(self) -> None:
        seen = self._store.total_appended
        if seen % PROGRESS_INTERVAL == 0:
            cycle = self._elapsed.get(self.epoch, 0)
            self._emit(
                {
                    "type": "progress",
                    "records": seen,
                    "epoch": self.epoch,
                    "cycle": cycle,
                }
            )


def build_record(
    experiment_key: str,
    config: Dict[str, object],
    emit: Optional[Emit] = None,
    tracer: Optional[ProgressTracer] = None,
) -> Dict[str, object]:
    """Run one experiment under ``config`` and build its result record.

    The record is the ``run --json`` shape plus the job's canonical config
    and the code-version fingerprint, so a cached document is
    self-describing: it names the experiment, the exact knobs, and the
    code that produced it.  Telemetry that varies run to run (wall time,
    overhead ratio) stays *out* of the record -- cached result bytes must
    be a pure function of (experiment, config, code version) -- and is
    returned separately by :func:`execute_job`.
    """
    from repro.experiments.registry import get_experiment
    from repro.partition import run_partitioned

    if emit is None:
        emit = lambda data: None  # noqa: E731
    experiment = get_experiment(experiment_key)
    partitions = int(config.get("partitions", 1))
    with ExitStack() as scope:
        spec_fields = config.get("spec")
        if spec_fields is not None:
            # Run the experiment on the machine this builder spec
            # elaborates to.  The override is ambient, so every
            # CedarMachine the driver builds -- including inside
            # partition worker processes, which fork while the
            # override is installed -- gets the spec's shape.
            from repro.builder import MachineSpec, build_config
            from repro.config import overriding

            spec = MachineSpec.from_dict(dict(spec_fields))
            scope.enter_context(overriding(build_config(spec)))
        if tracer is None:
            tracer = ProgressTracer(emit)
        emit(
            {
                "type": "running",
                "experiment": experiment_key,
                "config": config,
            }
        )
        # One partition runs whole on the progress tracer.  More shard
        # the units over forked child processes (this worker must be
        # non-daemonic), each unit on its own telemetry tracer.
        with tracing(tracer):
            run = run_partitioned(
                experiment_key,
                partitions if partitions > 1 else None,
                sanitized=bool(config.get("sanitize", False)),
                instrumented=partitions > 1,
            )
    if partitions > 1:
        emit(
            {
                "type": "partitioned",
                "partitions": partitions,
                "events_per_sec": run.telemetry["events_per_sec"],
            }
        )
    record: Dict[str, object] = {
        "experiment": experiment_key,
        "description": experiment.description,
        "config": dict(config),
        "code_version": version_fingerprint(),
        "result": jsonable(run.result),
        "rendered": run.rendered,
    }
    if run.sanitizer is not None:
        record["sanitizer"] = run.sanitizer
    emit(
        {
            "type": "finished",
            "experiment": experiment_key,
            "trace_records": tracer.records_seen,
        }
    )
    return record


def execute_job(payload: Dict[str, object], emit: Emit) -> Dict[str, object]:
    """Worker-process entry point: payload -> result + trace + telemetry.

    Returns ``{"result": canonical document bytes, "trace": columnar
    snapshot wire bytes, "trace_meta": telemetry dict}``.  Only ``result``
    is cached/byte-stable; the trace buffer and telemetry describe this
    particular execution.
    """
    tracer = ProgressTracer(emit)
    began = time.perf_counter()
    record = build_record(
        str(payload["experiment"]), dict(payload["config"]), emit, tracer=tracer
    )
    wall_seconds = time.perf_counter() - began
    overhead = tracer.overhead_estimate(wall_seconds)
    trace_meta: Dict[str, object] = {
        "records_seen": tracer.records_seen,
        "records_retained": tracer.num_records,
        "records_dropped": tracer.dropped,
        "buffer_bytes": tracer.buffer_bytes,
        "wall_seconds": wall_seconds,
        "overhead_ratio": overhead["ratio"],
        "overhead_per_record_ns": overhead["per_record_ns"],
    }
    return {
        "result": canonical_bytes(record),
        "trace": tracer.snapshot().to_bytes(),
        "trace_meta": trace_meta,
    }
