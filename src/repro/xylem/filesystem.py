"""Xylem file-system services, staged through the interactive processors.

"The FX/8 also includes interactive processors (IPs) and IP caches.  IPs
perform input/output and various other tasks."  The file service is the
cost authority behind the workload IR's ``IOSection``: sequential transfers
run at the IP disk rate; *formatted* I/O converts every datum through
library code on a CE and is an order of magnitude slower -- the whole BDNA
story of Section 4.2.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sustained unformatted sequential transfer rate through an IP (bytes/s).
UNFORMATTED_BYTES_PER_SECOND = 4.0e6

#: Formatted I/O cost multiplier: each 8-byte datum is converted to/from
#: text by runtime library code (~tens of microseconds per value on a
#: 68020-class scalar unit).
FORMATTED_PENALTY = 18.0

#: Fixed per-request overhead (open/seek/OS path), seconds.
REQUEST_OVERHEAD_SECONDS = 2e-3


@dataclass(frozen=True)
class IORequest:
    """One logical file transfer."""

    byte_count: float
    formatted: bool = False
    write: bool = True
    label: str = ""

    def __post_init__(self) -> None:
        if self.byte_count < 0:
            raise ValueError("I/O volume cannot be negative")

    @property
    def seconds(self) -> float:
        rate = UNFORMATTED_BYTES_PER_SECOND
        if self.formatted:
            rate /= FORMATTED_PENALTY
        return REQUEST_OVERHEAD_SECONDS + self.byte_count / rate


class FileSystem:
    """File service priced per request."""

    def seconds_for(self, byte_count: float, formatted: bool = False) -> float:
        """Cost of a transfer without recording it (model queries)."""
        return IORequest(byte_count=byte_count, formatted=formatted).seconds

    def reformat_savings(self, byte_count: float) -> float:
        """Seconds saved by converting formatted I/O to unformatted.

        The BDNA fix: "The execution time for BDNA is reduced ... by simply
        replacing formatted with unformatted I/O."
        """
        return self.seconds_for(byte_count, formatted=True) - self.seconds_for(
            byte_count, formatted=False
        )
