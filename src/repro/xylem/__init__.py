"""The Xylem operating system (Section 3, [EABM91]).

"All of these make use of the abstractions provided by the Xylem kernel
which links the four separate operating systems in Alliant clusters into
the Cedar OS.  Xylem exports virtual memory, scheduling, and file system
services for Cedar."

* :mod:`repro.xylem.scheduler` -- cluster allocation and gang scheduling of
  Cedar tasks (single-user mode vs multiprogramming).
* :mod:`repro.xylem.memory_manager` -- page placement and fault service on
  top of the hardware VM (per-cluster TLBs, PTEs in global memory).
* :mod:`repro.xylem.filesystem` -- file service through the interactive
  processors, the cost authority behind IOSection.
"""

from repro.xylem.filesystem import FileSystem, IORequest
from repro.xylem.memory_manager import MemoryManager, Segment
from repro.xylem.scheduler import ClusterScheduler, Task, TaskState

__all__ = [
    "ClusterScheduler",
    "Task",
    "TaskState",
    "MemoryManager",
    "Segment",
    "FileSystem",
    "IORequest",
]
