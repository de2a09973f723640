"""Run-time library semantics (Sections 3.1-3.2).

The Cedar run-time library starts, terminates and schedules parallel-loop
processors through global memory; the Cedar synchronization instructions
"have been mainly used in the implementation of the runtime library, where
they have proven useful to control loop self-scheduling".  The options here
select between the measured regimes of Table 3:

* ``use_cedar_sync`` -- Test-And-Operate based self-scheduling; turning it
  off makes every dynamic iteration fetch a multi-round-trip Test-And-Set
  spin (the "No Synchronization" column).
* ``use_prefetch`` -- compiler-inserted PFU blocks ahead of global-memory
  vector operands (the "No Prefetch" column removes them).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class Schedule(enum.Enum):
    """How DOALL iterations are assigned to processors."""

    STATIC = "static"
    SELF = "self-scheduled"


@dataclass(frozen=True)
class RuntimeOptions:
    """Knobs of the run-time library + compiler back end."""

    use_cedar_sync: bool = True
    use_prefetch: bool = True
    schedule: Schedule = Schedule.SELF
    #: Confine execution to one cluster (a Perfect-rules option the paper
    #: used "in a few cases ... to avoid intercluster overhead").
    single_cluster: bool = False


#: The configuration used for the "Automatable" column of Table 3.
DEFAULT_OPTIONS = RuntimeOptions()
