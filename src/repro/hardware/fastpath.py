"""Global switch for the crossbar's behavior-preserving wake masks.

The crossbar's head-route masks (skipping arbiter scans that provably
cannot find work) are *observationally equivalent* to waking every
arbiter: every simulated result, machine counter and monitor histogram is
byte-identical either way.  The only visible difference is the
simulator's own wall clock.

This module is the single place that equivalence claim can be switched off --
``CEDAR_FASTPATH=0`` in the environment, or :func:`set_enabled` from tests --
so the determinism suite can run both variants against each other.  The
event engine has no such switch; its reference loop lives in the tests.
Components snapshot the flag at construction time; flipping it does not
affect machines that already exist.
"""

from __future__ import annotations

import os


def _from_env() -> bool:
    # The sanctioned snapshot-once pattern: read at import into a module
    # switch; components then snapshot the switch at construction.
    return os.environ.get(  # cedar: noqa[det.env-read]
        "CEDAR_FASTPATH", "1"
    ).strip().lower() not in (
        "0", "off", "false", "no",
    )


_enabled = _from_env()


def enabled() -> bool:
    """Whether newly constructed crossbars use the wake masks."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Set the flag (for tests); returns the previous value."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous
