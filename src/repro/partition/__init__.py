"""The experiment executor, including ``cedar-repro run --partitions N``.

:mod:`repro.partition.runtime` runs one experiment whole, or shards its
independent machine-run units across worker processes and recombines
them deterministically.
"""

from repro.partition.runtime import (
    WHOLE_UNIT,
    PartitionedRun,
    merge_profile_stats,
    plan_units,
    profile_top_from_stats,
    run_partitioned,
    shard_units,
)

__all__ = [
    "WHOLE_UNIT",
    "PartitionedRun",
    "merge_profile_stats",
    "plan_units",
    "profile_top_from_stats",
    "run_partitioned",
    "shard_units",
]
