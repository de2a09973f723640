"""Exception hierarchy for the Cedar reproduction library."""

from __future__ import annotations


class CedarError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(CedarError):
    """A machine or workload configuration is inconsistent."""


class SpecError(ConfigurationError):
    """A declarative :class:`~repro.builder.MachineSpec` is invalid.

    Structured so tooling (the sweep runner, the serve schema validator,
    tests) can triage without parsing the message: ``field`` names the
    spec field that failed validation -- a declared field
    (``memory_interleave_bytes``) or a derived quantity
    (``routing_tag_bits``) -- and ``value`` carries the offending value.
    """

    def __init__(self, field: str, message: str, value=None) -> None:
        self.field = field
        self.value = value
        text = f"spec field {field!r}: {message}"
        if value is not None:
            text += f" (got {value!r})"
        super().__init__(text)


class SimulationError(CedarError):
    """The discrete-event simulator reached an invalid state."""


class SanitizerError(SimulationError):
    """A hardware invariant checked by the runtime sanitizer was violated.

    The message leads with the invariant class in brackets
    (``[network.conservation]``, ``[queue.capacity]``, ...).  The error
    also carries, structured, the component that broke it, the simulation
    cycle when known, a free-form details dict, and the trace-bus span
    context (the names of the spans open on the machine when the violation
    fired).
    """

    def __init__(
        self,
        invariant: str,
        component: str,
        message: str,
        cycle=None,
        details=None,
        span_context=None,
    ) -> None:
        self.component = component
        self.cycle = cycle
        self.details = dict(details or {})
        self.span_context = list(span_context or [])
        text = f"[{invariant}] {component}: {message}"
        if cycle is not None:
            text += f" (cycle {cycle})"
        if self.details:
            pairs = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
            text += f" [{pairs}]"
        if self.span_context:
            text += " in " + " > ".join(self.span_context)
        super().__init__(text)


class WorkerCrashError(SimulationError):
    """A parallel worker process raised or died mid-experiment.

    Structured so the serving tier can mark exactly one job failed instead
    of wedging its queue on a bare pool traceback: the experiment key the
    worker was running, the process exit code when the worker died without
    reporting (``None`` if it raised and reported), and the worker-side
    traceback text when one was captured.
    """

    def __init__(
        self,
        experiment: str,
        message: str,
        exitcode=None,
        worker_traceback=None,
    ) -> None:
        self.experiment = experiment
        self.exitcode = exitcode
        self.worker_traceback = worker_traceback
        text = f"experiment {experiment!r}: {message}"
        if exitcode is not None:
            text += f" (worker exit code {exitcode})"
        super().__init__(text)


class ServeError(CedarError):
    """A serving-tier request was malformed or cannot be satisfied.

    ``status`` is the HTTP status the server maps the error to (400 for
    malformed requests, 404 for unknown jobs/experiments, 503 when the job
    queue is full).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        self.status = status
        super().__init__(message)


class ProgramError(CedarError):
    """A Cedar program (lang layer) is malformed."""


class CompilerError(CedarError):
    """The restructuring compiler was given an IR it cannot handle."""


class MonitorError(CedarError):
    """Performance-monitoring hardware was misused (capacity, bad signal)."""


class TraceError(CedarError):
    """The instrumentation/trace bus was misused (unbalanced spans, no clock)."""


class MetricsError(CedarError):
    """The metrics registry was misused (bad name, kind clash, bad value)."""


class BenchError(CedarError):
    """A benchmark snapshot is malformed or cannot be compared."""


class LintError(CedarError):
    """Unusable input to the static analyzer (unparseable file, bad baseline)."""
