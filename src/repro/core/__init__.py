"""The paper's evaluation methodology (Section 4.3, "Judging Parallelism").

This package is the most portable contribution of the Cedar paper: abstract
performance metrics (speedup, efficiency, MFLOPS) in
:mod:`repro.core.metrics`, the stability/instability measure
``St(P, N, K, e)`` in :mod:`repro.core.stability`, the high / intermediate /
unacceptable performance bands at ``P/2`` and ``P/(2 log2 P)`` in
:mod:`repro.core.bands`, and the five Practical Parallelism Tests
(PPT1-PPT5) with report generators in :mod:`repro.core.ppt` and
:mod:`repro.core.report`.
"""
