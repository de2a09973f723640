"""Validation harness: experiments under the hardware invariant sanitizer.

Glue between :mod:`repro.hardware.sanitize` (the invariant checkers wired
into the hot components) and the rest of the repo: the sanitizer API, and
:mod:`repro.validate.faults`, the fault drills proving each checker class
actually fires.  Sanitized experiment runs go through the one executor,
:func:`repro.partition.run_partitioned` (``sanitized=True``).
"""

from __future__ import annotations

from repro.errors import SanitizerError
from repro.hardware.sanitize import Sanitizer, enabled, sanitizing
from repro.validate.faults import FAULT_DRILLS, run_fault_drills

__all__ = [
    "FAULT_DRILLS",
    "Sanitizer",
    "SanitizerError",
    "enabled",
    "run_fault_drills",
    "sanitizing",
]

