"""Declarative machine construction and design-space exploration.

The paper studies exactly one machine -- the Cedar as built.  This package
turns that machine into the *default point* of a small design space: a
:class:`~repro.builder.spec.MachineSpec` declares the shape (clusters, CEs
per cluster, network radix and queue depths, memory modules, interleave,
synchronization processors, prefetch buffer), validates it, and
:func:`~repro.builder.elaborate.build` elaborates it into the same
:class:`~repro.hardware.machine.CedarMachine` component graph every
experiment already runs against.  ``CEDAR_SPEC`` elaborates to a
configuration *equal* to :data:`repro.config.DEFAULT_CONFIG`, so the
paper's artifacts are unchanged by construction.

:mod:`~repro.builder.sweep` runs grids of specs through the existing
process-parallel runner and extracts the Pareto front over delivered
MFLOPS, speedup, and network conflicts -- the ``cedar-repro sweep``
subcommand.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.builder.elaborate": ["build", "build_config", "describe"],
        "repro.builder.spec": ["CEDAR_SPEC", "MachineSpec"],
        "repro.builder.sweep": [
            "expand_grid",
            "pareto_front",
            "render_report",
            "run_sweep",
        ],
    },
)
