"""The traced run: per-layer host time, exact simulated counts, and
timed calls into each layer's public functions.

Three things happen here, all from the benchmark's own files:

* **Profiler attribution.**  ``cProfile`` self time is assigned to the
  ``src/repro`` module that defines each function (``hardware/crossbar.py``
  is layer ``hardware.crossbar``).  Self time of a builtin, of generated
  code (dataclass ``__init__``) or of a standard-library function goes to
  its callers, in proportion to the self time each call edge carried, so a
  ``heapq.heappush`` from the engine counts as engine time.  What reaches
  no ``repro`` module is *unattributed*.
* **Counts** read from the existing ``Tracer`` through ``tracing()``.
* **Spans** around public calls (``run_unit``, ``render``, ``build``,
  ``execute_job``, ...), recorded by :class:`common.Spans`.
"""

from __future__ import annotations

import os
from collections import Counter
from typing import Callable, Dict, Mapping, Optional, Tuple

#: Layers whose profiler self time is published as ``<layer>.self_s``.
SELF_TIME_LAYERS = (
    "hardware.engine", "hardware.crossbar", "hardware.queueing",
    "hardware.network", "hardware.memory", "hardware.prefetch",
    "hardware.ce", "hardware.cache", "trace.tracer", "trace.columnar",
)

#: Published count -> the tracer counter name it sums over all components.
COUNTERS = {
    "hardware.engine.events_dispatched": "events_dispatched",
    "hardware.engine.idle_cycles_skipped": "idle_cycles_skipped",
    "hardware.crossbar.port_conflicts": "port_conflicts",
    "hardware.network.injection_rejections": "injection_rejections",
    "hardware.memory.requests_served": "requests_served",
    "hardware.prefetch.requests_issued": "requests_issued",
    "hardware.prefetch.network_stall_cycles": "network_stall_cycles",
}

FuncKey = Tuple[str, int, str]


def module_layer(filename: str, package_root: str) -> Optional[str]:
    """``<root>/hardware/crossbar.py`` -> ``hardware.crossbar``; ``None``
    for a file outside the package."""
    prefix = package_root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    parts = filename[len(prefix):-3].split(os.sep)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) or "repro"


def attribute(
    stats: Mapping[FuncKey, tuple], layer_of: Callable[[str], Optional[str]]
) -> Dict[Optional[str], float]:
    """Self seconds per layer from ``pstats.Stats(...).stats``.

    Each entry is ``(cc, nc, tt, ct, callers)`` with ``callers`` mapping a
    caller to its edge ``(cc, nc, tt, ct)``.  A function in a layer keeps
    its own self time; any other function passes its self time to its
    callers, split by the edges' self time (by call count when that is
    zero).  The ``None`` key collects what reaches no layer.
    """
    shares: Dict[FuncKey, Dict[Optional[str], float]] = {}

    def resolve(func: FuncKey, active: set) -> Dict[Optional[str], float]:
        cached = shares.get(func)
        if cached is not None:
            return cached
        layer = layer_of(func[0])
        entry = stats.get(func)
        if layer is not None or entry is None or func in active:
            return {layer: 1.0}
        edges = [(caller, edge[2] or edge[1]) for caller, edge in entry[4].items()]
        weight = sum(w for _, w in edges)
        if weight <= 0:
            return {None: 1.0}
        active.add(func)
        result: Dict[Optional[str], float] = {}
        for caller, w in edges:
            for target, share in resolve(caller, active).items():
                result[target] = result.get(target, 0.0) + share * w / weight
        active.discard(func)
        shares[func] = result
        return result

    totals: Dict[Optional[str], float] = {}
    for func, entry in stats.items():
        for layer, share in resolve(func, set()).items():
            totals[layer] = totals.get(layer, 0.0) + entry[2] * share
    return totals


def layer_metrics(totals: Mapping[Optional[str], float]) -> Dict[str, float]:
    """Published self-time metrics plus coverage."""
    out = {f"{layer}.self_s": totals.get(layer, 0.0) for layer in SELF_TIME_LAYERS}
    # The analytic model is one layer however many modules it spans.
    out["model.self_s"] = sum(
        seconds for layer, seconds in totals.items()
        if layer is not None and (layer == "model" or layer.startswith("model."))
    )
    whole = sum(totals.values())
    out["layers.unattributed_share"] = totals.get(None, 0.0) / whole if whole else 0.0
    return out


def profile(run: Callable[[], None]) -> Dict[Optional[str], float]:
    """Run ``run`` under ``cProfile``; self seconds per layer."""
    import cProfile
    import pstats

    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats
    return attribute(stats, lambda filename: module_layer(filename, root))


def tracer_counts(tracer) -> Counter:
    """Raw counter sums over every component, plus simulated cycles."""
    counts: Counter = Counter()
    for totals in tracer.counter_totals().values():
        counts.update(totals)
    counts["sim_cycles"] = sum(tracer.elapsed_by_epoch().values())
    return counts


def count_metrics(raw: Mapping[str, float]) -> Dict[str, float]:
    out = {name: float(raw.get(counter, 0)) for name, counter in COUNTERS.items()}
    out["hardware.engine.sim_cycles"] = float(raw.get("sim_cycles", 0))
    injected = raw.get("packets_injected", 0)
    out["hardware.network.reject_ratio"] = (
        raw.get("injection_rejections", 0) / injected if injected else 0.0
    )
    return out


def noop_worker(payload: object, emit: Callable[[object], None]) -> object:
    """The trivial job for timing ``parallel.run_in_process`` spawn cost."""
    return payload
