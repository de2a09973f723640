"""Computational kernels of Section 4.1.

These are the "well-understood algorithms and kernels which are much smaller
[than full codes] and can be modified easily to explore the system":

* :mod:`repro.kernels.vector_load` -- VL, a pure vector load stream.
* :mod:`repro.kernels.tridiag_matvec` -- TM, tridiagonal matrix-vector
  multiply (register-register work lowers its memory demand).
* :mod:`repro.kernels.rank_update` -- RK, the rank-64 update in its three
  memory-system versions (GM/no-pref, GM/pref, GM/cache) of Table 1.
* :mod:`repro.kernels.conjugate_gradient` -- CG, a simple conjugate-gradient
  solver on a 5-diagonal matrix (the PPT4 scalability workload).
* :mod:`repro.kernels.banded_matvec` -- banded matrix-vector product used in
  the CM-5 comparison.
"""
