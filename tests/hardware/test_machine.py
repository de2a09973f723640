"""Tests for the assembled Cedar machine."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.errors import SimulationError
from repro.hardware.ce import Compute
from repro.hardware.machine import CedarMachine


class TestAssembly:
    def test_default_shape(self, machine):
        assert len(machine.clusters) == 4
        assert len(machine.all_ces) == 32
        assert len(machine.global_memory.modules) == 32

    def test_ces_fill_cluster_by_cluster(self, machine):
        selected = machine.ces(12)
        per_cluster = machine.config.ces_per_cluster
        assert [ce.global_port // per_cluster for ce in selected] == [0] * 8 + [1] * 4

    def test_ces_bounds_checked(self, machine):
        with pytest.raises(SimulationError):
            machine.ces(0)
        with pytest.raises(SimulationError):
            machine.ces(33)

    def test_one_cluster_variant(self, one_cluster_machine):
        assert len(one_cluster_machine.all_ces) == 8


class TestRunning:
    def test_run_kernel_waits_for_all(self, machine):
        def kernel(ce):
            yield Compute(10 * (ce.global_port + 1))

        end = machine.run_kernel(kernel, num_ces=4)
        assert end >= 40

    def test_mflops_accounting(self, machine):
        def kernel(ce):
            yield Compute(100, flops=200.0)

        cycles = machine.run_kernel(kernel, num_ces=2)
        expected = 400.0 / (cycles * 170e-9) / 1e6
        assert machine.mflops(cycles) == pytest.approx(expected)

    def test_mflops_rejects_zero_window(self, machine):
        with pytest.raises(SimulationError):
            machine.mflops(0)

    def test_seconds_conversion(self, machine):
        assert machine.seconds(1_000_000) == pytest.approx(0.17)
