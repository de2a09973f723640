"""Calibrating the analytic model from the cycle-level simulator.

The one empirical input the analytic model needs is the prefetch-
effectiveness curve: sustained per-CE words/cycle through the PFU as a
function of how many CEs are streaming.  The default curve in
:mod:`repro.model.costs` was produced by this module; re-run
:func:`calibrate_prefetch_curve` to regenerate it from the simulator (it is
the Table 2 experiment viewed as a rate).
"""

from __future__ import annotations

from typing import Dict, Sequence

from repro.config import CedarConfig, DEFAULT_CONFIG
from repro.kernels.vector_load import measure_vector_load


def calibrate_prefetch_curve(
    ce_counts: Sequence[int] = (1, 8, 16, 24, 32),
    config: CedarConfig = DEFAULT_CONFIG,
    blocks: int = 24,
) -> Dict[int, float]:
    """Measure per-CE streaming rate at each CE count via the VL kernel.

    The rate is the reciprocal of the mean interarrival time between
    prefetched words (plus the share of the first-word latency amortized
    over a block), exactly what a long consuming vector instruction sees.
    """
    curve: Dict[int, float] = {}
    block = config.prefetch.compiler_block_words
    for count in ce_counts:
        run = measure_vector_load(count, config, blocks=blocks)
        if run.interarrival is None or run.first_word_latency is None:
            raise RuntimeError("VL kernel produced no prefetch statistics")
        cycles_per_block = run.first_word_latency + (block - 1) * run.interarrival
        curve[count] = block / cycles_per_block
    return curve
