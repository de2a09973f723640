"""Experiment drivers: one per table/figure of the paper's evaluation.

Each module exposes ``run()`` returning a structured result and
``render(result)`` returning the ASCII artifact; the registry maps the
paper's artifact ids to them for :mod:`repro.cli`.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, {"repro.experiments.registry": ["EXPERIMENTS", "get_experiment"]}
)
