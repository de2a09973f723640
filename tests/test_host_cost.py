"""The host cost of a simulated hop, pinned as a count of Python calls.

Wall time on a shared host is too noisy to gate in tier-1, but the
number of Python-level calls the simulator makes for one cell is exact:
an extra wrapper frame on the crossbar hop, or a lambda put back in
front of the CE's address steering, adds thousands of calls to one
``table2.run_unit("VL:8")``.  cProfile counts every call whose code
lives under ``src/repro`` (C-level callables such as
``num_modules.__rmod__`` run no frame and count nothing).  The count
differs between interpreter versions (3.12 inlines list comprehensions,
PEP 709), so each minor version has its own ceiling, set at the count of
the change that last lowered it.  A
change that removes calls lowers the ceiling to its new count; one that
must add calls raises it and says why in CHANGES.md.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Python calls into ``src/repro`` for one ``table2.run_unit("VL:8")``.
CALL_CEILINGS = {
    (3, 10): 282_087,
    (3, 11): 282_087,
    (3, 12): 281_884,
    (3, 13): 281_884,
}

#: Run in a fresh interpreter; prints the call count.
COUNT_CALLS = """
import cProfile, os, pstats
import repro
from repro.experiments import table2
root = os.path.dirname(repro.__file__) + os.sep
profile = cProfile.Profile()
profile.runcall(table2.run_unit, "VL:8")
print(sum(
    calls for (path, _, _), (_, calls, *_) in pstats.Stats(profile).stats.items()
    if path.startswith(root)
))
"""


def _count_calls(hash_seed: int) -> int:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", COUNT_CALLS], env=env, check=True,
        capture_output=True, text=True,
    )
    return int(done.stdout)


def test_vl8_python_calls_stay_under_the_ceiling():
    ceiling = CALL_CEILINGS.get(sys.version_info[:2])
    if ceiling is None:
        pytest.skip(f"no call ceiling recorded for Python {sys.version_info[:2]}")
    counts = {seed: _count_calls(seed) for seed in (0, 1, 2)}
    assert len(set(counts.values())) == 1, f"hash seed moves the count: {counts}"
    assert counts[0] <= ceiling, (
        f"table2.run_unit('VL:8') made {counts[0]} Python calls under "
        f"src/repro, over the ceiling of {ceiling}"
    )
