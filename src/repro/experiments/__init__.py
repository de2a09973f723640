"""Experiment drivers: one per table/figure of the paper's evaluation.

Each module exposes ``run()`` returning a structured result and
``render(result)`` returning the ASCII artifact; the registry maps the
paper's artifact ids to them for :mod:`repro.cli`.
"""

from repro.experiments.registry import EXPERIMENTS, get_experiment

__all__ = ["EXPERIMENTS", "get_experiment"]
