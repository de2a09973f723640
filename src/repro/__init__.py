"""cedar-repro: reproduction of "The Cedar System and an Initial
Performance Study" (ISCA 1993).

The package rebuilds, in Python, everything the paper's evaluation rests
on:

* :mod:`repro.hardware` -- a cycle-level discrete-event simulator of the
  Cedar multiprocessor (clusters, vector CEs, prefetch units, the
  shuffle-exchange networks, interleaved global memory with
  synchronization processors, performance-monitoring hardware).
* :mod:`repro.lang` / :mod:`repro.model` -- the CEDAR FORTRAN programming
  model and the calibrated analytic machine model that executes whole
  programs.
* :mod:`repro.compiler` -- KAP-1988 vs the "automatable" restructurer
  (privatization, reductions, induction substitution, run-time tests,
  balanced stripmining, prefetch insertion) on an affine loop-nest IR.
* :mod:`repro.kernels` / :mod:`repro.perfect` -- the Section 4.1 kernels
  and the 13 Perfect Benchmarks workload models.
* :mod:`repro.baselines` -- Cray Y-MP/8, Cray 1 and CM-5 comparison
  models.
* :mod:`repro.core` -- the paper's methodology: stability/instability,
  performance bands, and the five Practical Parallelism Tests.
* :mod:`repro.experiments` -- one driver per table/figure
  (``cedar-repro run table1`` ... ``figure3`` ... ``ppt4``).
"""

from repro._exports import lazy_exports

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"repro.core.bands": ["classify_speedup"]}
)
__all__.append("__version__")
