"""The claim functions `cedar-repro bench` checks, on hand-built results.

No simulation runs here: each driver's ``claims(result)`` is a pure
function of its result, so a passing result and one broken result per
family of claims (a bound, an ordering, a band) pin exactly which claim
each break trips.
"""

from repro.core.ppt import ScalabilityPoint
from repro.experiments import ppt4_scalability, table1, table2
from repro.kernels.rank_update import RankUpdateVersion


def false_claims(claims):
    return sorted(text for text, holds in claims.items() if not holds)


def table1_result(version=None, mflops=None):
    """The paper's own Table 1, with one version's row replaced."""
    rows = dict(table1.PAPER_VALUES)
    if version is not None:
        rows[version] = mflops
    return table1.Table1Result(rows)


class TestTable1:
    def test_the_papers_own_table_passes(self):
        claims = table1.claims(table1_result())
        assert len(claims) == 8
        assert false_claims(claims) == []

    def test_bound(self):
        broken = table1_result(
            RankUpdateVersion.GM_NO_PREFETCH, (9.0, 29.0, 43.0, 55.0)
        )
        assert false_claims(table1.claims(broken)) == [
            "Table 1: GM/no-pref at 1 cluster in [10, 18] MFLOPS (paper 14.5)"
        ]

    def test_ordering(self):
        broken = table1_result(
            RankUpdateVersion.GM_CACHE, (52.0, 80.0, 152.0, 208.0)
        )
        assert false_claims(table1.claims(broken)) == [
            "Table 1: GM/cache beats GM/pref at 2, 3 and 4 clusters"
        ]


#: (latency, interarrival) at 8, 16 and 32 CEs, near the simulator's.
TABLE2 = {
    "VL": ((8.2, 12.0, 26.9), (1.16, 1.8, 3.05)),
    "TM": ((9.9, 13.0, 19.2), (1.28, 1.6, 2.29)),
    "RK": ((9.6, 14.0, 27.1), (1.40, 2.4, 3.81)),
    "CG": ((9.2, 12.0, 19.0), (1.28, 1.6, 2.21)),
}


def table2_result(kernel=None, latency=None, interarrival=None):
    series = dict(TABLE2)
    if kernel is not None:
        series[kernel] = (latency or series[kernel][0],
                          interarrival or series[kernel][1])
    return table2.Table2Result({
        (name, count): table2.Table2Cell(lat, inter)
        for name, (lats, inters) in series.items()
        for count, lat, inter in zip(table2.CE_COUNTS, lats, inters)
    })


class TestTable2:
    def test_passing(self):
        claims = table2.claims(table2_result())
        assert len(claims) == 4 * len(table2.KERNELS) + 3
        assert false_claims(claims) == []

    def test_bound(self):
        broken = table2_result("VL", latency=(14.5, 12.0, 26.9))
        assert false_claims(table2.claims(broken)) == [
            "Table 2: VL latency at 8 CEs <= 14 cycles (minimum 8)"
        ]

    def test_ordering(self):
        broken = table2_result("RK", interarrival=(1.40, 2.4, 2.25))
        assert false_claims(table2.claims(broken)) == [
            "Table 2: RK interarrival at 32 CEs >= TM's"
        ]


def ppt4_study(efficiency=None, mflops=None):
    """A study whose Cedar points are hand-built; the CM-5 side is the
    analytic model's.  ``efficiency`` and ``mflops`` override the default
    per-point values, each a function of (P, N)."""
    efficiency = efficiency or (lambda p, n: 0.6 if n >= 10_240 else 0.3)
    mflops = mflops or (lambda p, n: p * (1.0 + n / 200_000))
    points = [
        ScalabilityPoint(p, n, mflops(p, n), efficiency(p, n))
        for p in ppt4_scalability.CEDAR_PROCESSOR_COUNTS
        for n in ppt4_scalability.CEDAR_PROBLEM_SIZES
        if n >= p * 64
    ]
    return ppt4_scalability._study_from_points(points)


class TestPPT4:
    def test_passing(self):
        claims = ppt4_scalability.claims(ppt4_study())
        assert len(claims) == 13
        assert false_claims(claims) == []

    def test_band(self):
        broken = ppt4_study(
            efficiency=lambda p, n: 0.05 if (p, n) == (8, 1_024)
            else 0.6 if n >= 10_240 else 0.3
        )
        assert false_claims(ppt4_scalability.claims(broken)) == [
            'PPT4: no Cedar CG point is unacceptable ("No unacceptable '
            'performance was observed")'
        ]

    def test_bound(self):
        broken = ppt4_study(
            mflops=lambda p, n: p * (1.0 + n / 200_000) * (2 if p == 32 else 1)
        )
        assert false_claims(ppt4_scalability.claims(broken)) == [
            "PPT4: Cedar CG maximum rate at P=32 in [40, 85] MFLOPS (paper 48)"
        ]

    def test_ordering(self):
        broken = ppt4_study(mflops=lambda p, n: 50.0 if p == 32 else p * 1.5)
        assert false_claims(ppt4_scalability.claims(broken)) == [
            "PPT4: Cedar CG rate at P=32 grows with N (paper 34 -> 48 MFLOPS)"
        ]
