"""Golden equivalence: the builder is a refactor, not a new machine.

``CEDAR_SPEC`` must elaborate to *exactly* the configuration the
hard-coded constructor always used, and every artifact produced through
the builder path must be byte-identical to the direct-construction path.
A non-Cedar spec must survive partitioned execution unchanged too --
sharding and the ambient override have to compose.
"""

import multiprocessing

import pytest

from repro.builder import CEDAR_SPEC, MachineSpec, build, build_config
from repro.config import DEFAULT_CONFIG, active_config, overriding
from repro.hardware.machine import CedarMachine
from repro.kernels.tridiag_matvec import measure_tridiag
from repro.kernels.vector_load import measure_vector_load
from repro.results import canonical_bytes, jsonable
from repro.trace import Tracer, tracing


class TestCedarSpecIsTheMachine:
    def test_elaborates_to_the_default_config(self):
        assert build_config(CEDAR_SPEC) == DEFAULT_CONFIG

    def test_built_machine_carries_its_spec(self):
        machine = build(CEDAR_SPEC)
        assert machine.spec is CEDAR_SPEC
        assert machine.config == DEFAULT_CONFIG

    def test_direct_construction_leaves_spec_unset(self):
        assert CedarMachine().spec is None

    def test_kernel_run_identical_through_both_paths(self):
        direct = measure_vector_load(4)
        with overriding(build_config(CEDAR_SPEC)):
            elaborated = measure_vector_load(4)
        assert elaborated == direct  # frozen dataclass, field-exact

    def test_result_document_bytes_identical(self):
        direct = canonical_bytes(jsonable(measure_tridiag(4)))
        with overriding(build_config(CEDAR_SPEC)):
            elaborated = canonical_bytes(jsonable(measure_tridiag(4)))
        assert elaborated == direct

    def test_trace_bytes_identical(self):
        def traced_run() -> bytes:
            tracer = Tracer()
            with tracing(tracer):
                measure_vector_load(4)
            return tracer.snapshot().to_bytes()

        direct = traced_run()
        with overriding(build_config(CEDAR_SPEC)):
            elaborated = traced_run()
        assert elaborated == direct


class TestAmbientOverride:
    def test_active_config_defaults_to_the_paper(self):
        assert active_config() is DEFAULT_CONFIG

    def test_override_nests_and_restores(self):
        inner = build_config(MachineSpec(memory_modules=16))
        outer = build_config(MachineSpec(memory_modules=8))
        with overriding(outer):
            assert active_config() is outer
            with overriding(inner):
                assert active_config() is inner
            assert active_config() is outer
        assert active_config() is DEFAULT_CONFIG

    def test_override_restored_when_the_block_raises(self):
        with pytest.raises(RuntimeError):
            with overriding(build_config(MachineSpec(clusters=2))):
                raise RuntimeError("boom")
        assert active_config() is DEFAULT_CONFIG

    def test_override_actually_changes_the_machine(self):
        with overriding(build_config(MachineSpec(memory_modules=8))):
            run = measure_vector_load(4)
        assert run != measure_vector_load(4)

    def test_table2_run_unit_resolves_the_ambient_config(self, monkeypatch):
        # Regression: partitioned serve jobs call run_unit(unit) with no
        # explicit config; the RK cell dereferences config directly, so
        # run_unit must resolve the override before dispatching.
        from repro.experiments import table2

        seen = {}

        def probe(num_ces, config):
            seen["config"] = config
            return measure_vector_load(2, config)

        monkeypatch.setitem(table2.KERNELS, "VL", probe)
        override = build_config(MachineSpec(memory_modules=16))
        with overriding(override):
            table2.run_unit("VL:8")
        assert seen["config"] is override


#: A deliberately non-Cedar shape: half the memory modules, deeper port
#: queues, coarser interleave.
NON_CEDAR = MachineSpec(
    memory_modules=16, port_queue_words=4, interleave_words=2
)

_UNITS = {
    "vl:4": lambda: measure_vector_load(4),
    "vl:8": lambda: measure_vector_load(8),
    "td:4": lambda: measure_tridiag(4),
    "td:8": lambda: measure_tridiag(8),
}


def _register_kernel_grid(monkeypatch):
    from repro.experiments import registry

    experiment = registry.Experiment(
        key="kernel-grid",
        description="real kernels as independent units",
        run=lambda: {name: repr(run()) for name, run in _UNITS.items()},
        render=lambda result: "\n".join(
            f"{name}: {result[name]}" for name in sorted(result)
        ),
        units=lambda: list(_UNITS),
        run_unit=lambda name: repr(_UNITS[name]()),
        combine=lambda results: {name: results[name] for name in _UNITS},
    )
    monkeypatch.setitem(registry.EXPERIMENTS, "kernel-grid", experiment)
    return experiment


class TestPartitionedNonCedarSpec:
    def test_partitions_2_byte_identical_under_spec_override(self, monkeypatch):
        """Sharding must be invisible on a non-Cedar machine too.

        The partition workers fork inside the ``overriding`` block, so
        they inherit the elaborated config; every artifact (rendered,
        result, sanitizer summary, trace bytes) must match the
        single-partition run exactly -- and differ from the Cedar
        machine's, proving the override reached the workers.
        """
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("workers inherit the override via fork")
        from repro.partition import run_partitioned

        _register_kernel_grid(monkeypatch)
        cedar = run_partitioned("kernel-grid", 1, sanitized=True, traced=True)
        with overriding(build_config(NON_CEDAR)):
            single = run_partitioned(
                "kernel-grid", 1, sanitized=True, traced=True
            )
            sharded = run_partitioned(
                "kernel-grid", 2, sanitized=True, traced=True
            )
        assert sharded.rendered == single.rendered
        assert sharded.result == single.result
        assert sharded.sanitizer == single.sanitizer
        assert sharded.sanitizer["violations"] == 0
        assert sharded.trace_bytes == single.trace_bytes
        assert single.result != cedar.result
