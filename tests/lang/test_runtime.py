"""Tests for the run-time library options."""

from repro.lang.runtime import DEFAULT_OPTIONS, Schedule


def test_defaults_match_automatable_configuration():
    assert DEFAULT_OPTIONS.use_cedar_sync
    assert DEFAULT_OPTIONS.use_prefetch
    assert DEFAULT_OPTIONS.schedule is Schedule.SELF
    assert not DEFAULT_OPTIONS.single_cluster
