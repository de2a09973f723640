"""Grid sweeps over machine specs, with Pareto-front extraction.

A sweep is a list of candidate spec field-dicts (usually from
:func:`expand_grid`), each run through the deterministic probe workload
(:mod:`repro.builder.workload`) in its own worker process.  The result is
a schema-versioned artifact:

* ``points`` -- one record per candidate, in candidate order, holding the
  normalized spec and either its metrics or a structured ``error`` (an
  invalid spec is *data* in the artifact, not a crashed sweep).
* ``pareto`` -- indices of the non-dominated points, maximizing delivered
  MFLOPS and speedup while minimizing network conflicts.

Determinism: candidate order fixes record order, every metric comes from
simulator state, and workers are collected into a map and re-walked in
candidate order -- so the canonical JSON is byte-identical for any
``--jobs N``.
"""

from __future__ import annotations

import gc
import itertools
import json
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.builder.spec import MachineSpec
from repro.builder.workload import (
    DEFAULT_BLOCKS,
    FLOPS_PER_ELEMENT,
    measure_spec,
)
from repro.errors import ConfigurationError, SimulationError
from repro.parallel import parallel_map

#: Artifact schema identifier; bump on any shape change.
SWEEP_SCHEMA = "cedar-sweep/v1"


def expand_grid(
    axes: Mapping[str, Sequence[object]],
) -> List[Dict[str, object]]:
    """Cartesian product of sweep axes, in the axes' declared order.

    ``axes`` maps a :class:`MachineSpec` field name to the values it
    sweeps; the first axis varies slowest.  Field names are *not*
    validated here -- an unknown field becomes a per-point spec error in
    the artifact, where the failure is visible next to its point.
    """
    keys = list(axes)
    if not keys:
        return []
    products = itertools.product(*(list(axes[key]) for key in keys))
    return [dict(zip(keys, values)) for values in products]


def run_point(
    fields: Dict[str, object], blocks: int = DEFAULT_BLOCKS
) -> Dict[str, object]:
    """One sweep point: validate, elaborate, measure.

    Never raises on a *bad point*: spec validation errors and simulation
    failures become a structured ``error`` record carrying the offending
    field (when known) and the message, so one invalid corner cannot kill
    an otherwise-useful sweep.
    """
    try:
        spec = MachineSpec.from_dict(fields)
        metrics = measure_spec(spec, blocks=blocks)
    except (ConfigurationError, SimulationError) as error:
        record: Dict[str, object] = {
            "spec": {key: fields[key] for key in sorted(fields)},
            "error": {
                "field": getattr(error, "field", None),
                "message": str(error),
            },
        }
        return record
    finally:
        # A machine is a cyclic object graph (its switches hold callables
        # bound to themselves), so the point's machines die as cyclic
        # garbage.  Freeing them here bounds a sweep's memory high-water to
        # one point's machines; left to the collector's allocation-count
        # thresholds, how many dead machines pile up depends on how many
        # objects the simulator happens to allocate.
        gc.collect()
    return {"spec": spec.to_dict(), "metrics": metrics.to_dict()}


def _sweep_worker(payload: Tuple[Dict[str, object], int]) -> Dict[str, object]:
    fields, blocks = payload
    return run_point(fields, blocks=blocks)


def run_sweep(
    candidates: Iterable[Dict[str, object]],
    jobs: int = 1,
    blocks: int = DEFAULT_BLOCKS,
) -> Dict[str, object]:
    """Run every candidate spec and assemble the sweep artifact.

    ``jobs > 1`` fans points out over worker processes via the same
    :func:`~repro.parallel.parallel_map` runner the CLI's ``run --jobs``
    uses; results are re-walked in candidate order so the artifact is
    identical for any fan-out.
    """
    ordered = list(candidates)
    keys = [f"point{index:04d}" for index in range(len(ordered))]
    if jobs <= 1:
        results = {
            key: run_point(fields, blocks=blocks)
            for key, fields in zip(keys, ordered)
        }
    else:
        tasks = [
            (key, (fields, blocks)) for key, fields in zip(keys, ordered)
        ]
        results = dict(parallel_map(_sweep_worker, tasks, jobs))
    points = [results[key] for key in keys]
    return {
        "schema": SWEEP_SCHEMA,
        "workload": {
            "kernel": "stream",
            "blocks": blocks,
            "flops_per_element": FLOPS_PER_ELEMENT,
        },
        "points": points,
        "pareto": pareto_front(points),
    }


def _dominates(a: Dict[str, object], b: Dict[str, object]) -> bool:
    """True when ``a`` is at least as good as ``b`` on every objective and
    strictly better on one (more MFLOPS, more speedup, fewer conflicts)."""
    better_or_equal = (
        a["mflops"] >= b["mflops"]
        and a["speedup"] >= b["speedup"]
        and a["network_conflicts"] <= b["network_conflicts"]
    )
    strictly = (
        a["mflops"] > b["mflops"]
        or a["speedup"] > b["speedup"]
        or a["network_conflicts"] < b["network_conflicts"]
    )
    return better_or_equal and strictly


def pareto_front(points: Sequence[Dict[str, object]]) -> List[int]:
    """Indices of the non-dominated successful points, ascending.

    Failed points (those carrying ``error``) never enter the front.
    """
    scored = [
        (index, point["metrics"])
        for index, point in enumerate(points)
        if "metrics" in point
    ]
    front = []
    for index, metrics in scored:
        dominated = False
        for _, other in scored:
            if other is not metrics and _dominates(other, metrics):
                dominated = True
                break
        if not dominated:
            front.append(index)
    return front


def canonical_json(artifact: Dict[str, object]) -> str:
    """The byte-stable serialization of a sweep artifact."""
    return json.dumps(artifact, indent=2, sort_keys=True) + "\n"


def render_report(artifact: Dict[str, object]) -> str:
    """Human-readable sweep table with the Pareto front marked."""
    pareto = set(artifact["pareto"])
    lines = [
        f"{'#':>4s} {'machine':>14s} {'net':>8s} {'mem':>10s} "
        f"{'mflops':>9s} {'speedup':>8s} {'conflicts':>10s}  pareto"
    ]
    failures: List[Tuple[int, Dict[str, object]]] = []
    for index, point in enumerate(artifact["points"]):
        spec = point["spec"]
        if "error" in point:
            failures.append((index, point["error"]))
            continue
        metrics = point["metrics"]
        machine = f"{spec['clusters']}x{spec['ces_per_cluster']} CEs"
        net = f"r{spec['switch_radix']}/q{spec['port_queue_words']}"
        mem = f"{spec['memory_modules']}m/i{spec['interleave_words']}"
        marker = "*" if index in pareto else ""
        lines.append(
            f"{index:4d} {machine:>14s} {net:>8s} {mem:>10s} "
            f"{metrics['mflops']:9.1f} {metrics['speedup']:8.2f} "
            f"{metrics['network_conflicts']:10d}  {marker}"
        )
    for index, error in failures:
        field = error["field"] or "spec"
        lines.append(f"{index:4d} INVALID ({field}): {error['message']}")
    lines.append(
        f"pareto front: {len(pareto)} of {len(artifact['points'])} points"
    )
    return "\n".join(lines)
