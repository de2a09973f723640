"""Benchmark: regenerate Table 1 (rank-64 update MFLOPS).

Shape criteria from the paper: prefetch improves on the latency-bound
version by ~3.5x at one cluster, declining toward ~2x at four; the cache
version scales near-linearly to ~75% of the 274 MFLOPS effective peak; the
no-prefetch version saturates near 55 MFLOPS.
"""

import pytest

from benchmarks.conftest import run_once
from repro.config import DEFAULT_CONFIG
from repro.experiments import table1
from repro.kernels.rank_update import RankUpdateVersion


@pytest.mark.benchmark(group="table1")
def test_table1_rank_update(benchmark):
    result = run_once(benchmark, table1.run)
    print("\n" + table1.render(result))

    no_pref = result.mflops[RankUpdateVersion.GM_NO_PREFETCH]
    pref = result.mflops[RankUpdateVersion.GM_PREFETCH]
    cache = result.mflops[RankUpdateVersion.GM_CACHE]

    # GM/no-pref: latency bound, ~14.5 -> ~55, near-linear in clusters.
    assert 10.0 <= no_pref[0] <= 18.0
    assert 42.0 <= no_pref[3] <= 62.0

    # Prefetch effectiveness declines with cluster count.
    improvements = tuple(p / n for p, n in zip(pref, no_pref))
    assert improvements[0] > improvements[3]
    assert improvements[0] >= 2.5
    assert improvements[3] >= 1.5

    # The cache version wins everywhere and scales near-linearly.
    for pref_value, cache_value in zip(pref[1:], cache[1:]):
        assert cache_value > pref_value
    assert cache[3] / cache[0] == pytest.approx(4.0, rel=0.12)

    # ~75% of the 274 MFLOPS effective peak at four clusters.
    fraction = cache[3] / DEFAULT_CONFIG.effective_peak_mflops
    assert 0.6 <= fraction <= 0.9
