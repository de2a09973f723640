"""Concrete rules; importing the package registers every rule."""

from repro.lint.rules import determinism, discipline, hygiene  # noqa: F401
