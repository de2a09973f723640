"""Data placement attributes (Section 3.1, "Data Placement and Sharing").

"Data can be placed in either cluster or shared global memory on Cedar.  A
user can control this using a GLOBAL attribute.  Variable placement is in
cluster memory by default.  A variable can also be declared inside a
parallel loop.  The loop-local declaration of a variable makes a private
copy for each processor which is placed in cluster memory."
"""

from __future__ import annotations

import enum


class Placement(enum.Enum):
    """Where a loop's dominant data lives."""

    #: Shared global memory (the GLOBAL attribute): reachable by every CE,
    #: 13-cycle latency, prefetchable.
    GLOBAL = "global"
    #: Cluster memory: only CEs of the owning cluster may touch it.
    CLUSTER = "cluster"
    #: Loop-local (private per processor, placed in cluster memory); the
    #: paper found loop-local placement "an important factor in reducing
    #: data access latencies" in all Perfect programs.
    LOOP_LOCAL = "loop-local"
