"""Cycle-level discrete-event simulator of the Cedar hardware (Section 2).

The package models the machine bottom-up:

* :mod:`repro.hardware.engine` -- discrete-event core (cycle clock).
* :mod:`repro.hardware.packet` -- 1-4 word network packets.
* :mod:`repro.hardware.crossbar` / :mod:`repro.hardware.network` -- 8x8
  crossbar switches with two-word port queues, assembled into the forward and
  reverse multistage shuffle-exchange networks.
* :mod:`repro.hardware.memory` / :mod:`repro.hardware.sync_processor` --
  interleaved global-memory modules, each with a synchronization processor
  executing Test-And-Set / Test-And-Operate indivisibly.
* :mod:`repro.hardware.prefetch` -- per-CE prefetch units with 512-word
  buffers, full/empty bits and page-crossing suspension.
* :mod:`repro.hardware.cache` / :mod:`repro.hardware.cluster_memory` -- the
  Alliant cluster memory hierarchy.
* :mod:`repro.hardware.ce` / :mod:`repro.hardware.vector_unit` /
  :mod:`repro.hardware.ccb` / :mod:`repro.hardware.cluster` -- computational
  elements and the concurrency control bus.
* :mod:`repro.hardware.vm` -- Xylem virtual memory (4KB pages, TLBs).
* :mod:`repro.hardware.monitor` -- event tracers and histogrammers.
* :mod:`repro.hardware.machine` -- the four-cluster Cedar assembly.
"""
