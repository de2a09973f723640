"""Tests for the hardware invariant sanitizer.

Two halves: clean runs must produce zero violations (and be byte-identical
to unsanitized runs), and every checker class must provably fire when its
invariant is deliberately broken (the fault drills in fault_drills.py).
"""

import pytest

from repro.errors import SanitizerError, SimulationError
from repro.hardware import sanitize
from repro.hardware.engine import Engine
from repro.hardware.machine import CedarMachine
from repro.hardware.queueing import BoundedWordQueue
from repro.kernels.vector_load import measure_vector_load
from repro.trace import Tracer, tracing
from tests.hardware.fault_drills import FAULT_DRILLS, _drill_engine_schedule


class TestAmbientContext:
    def test_disabled_by_default(self):
        assert sanitize.current() is None

    def test_sanitizing_installs_and_removes(self):
        with sanitize.sanitizing() as sanitizer:
            assert sanitize.current() is sanitizer
        assert sanitize.current() is None

    def test_innermost_block_wins(self):
        with sanitize.sanitizing() as outer:
            with sanitize.sanitizing() as inner:
                assert inner is not outer
                assert sanitize.current() is inner
            assert sanitize.current() is outer

    def test_env_flag_arms_a_process_global(self, monkeypatch):
        monkeypatch.setattr(sanitize, "_enabled", True)
        first = sanitize.current()
        assert first is not None
        assert sanitize.current() is first  # stable across calls

    def test_components_snapshot_at_construction(self):
        with sanitize.sanitizing():
            armed = BoundedWordQueue(4, name="armed")
        unarmed = BoundedWordQueue(4, name="unarmed")
        assert armed._sanitizer is not None
        assert unarmed._sanitizer is None

    def test_machine_adopts_ambient_sanitizer(self):
        with sanitize.sanitizing() as sanitizer:
            machine = CedarMachine()
        assert machine.sanitizer is sanitizer
        assert CedarMachine().sanitizer is None


class TestFaultDrills:
    """Every checker class must fire on its deliberately injected fault."""

    @pytest.mark.parametrize("invariant", sorted(FAULT_DRILLS))
    def test_drill_raises_its_own_invariant(self, invariant):
        with sanitize.sanitizing() as sanitizer:
            with pytest.raises(SanitizerError) as excinfo:
                FAULT_DRILLS[invariant]()
        assert str(excinfo.value).startswith(f"[{invariant}] ")
        assert sanitizer.violations == 1

    def test_error_is_structured(self):
        with sanitize.sanitizing():
            with pytest.raises(SanitizerError) as excinfo:
                FAULT_DRILLS["engine.schedule"]()
        error = excinfo.value
        assert str(error).startswith("[engine.schedule] ")
        assert error.component == "engine.schedule_after"
        assert isinstance(error.details, dict) and error.details
        assert isinstance(error, SimulationError)  # catchable as usual

    def test_request_for_another_modules_address_is_caught(self):
        """A request addressed to the module pulling it, for a word that
        module does not own, breaks ``memory.balance`` too."""
        from repro.config import DEFAULT_CONFIG
        from repro.hardware.memory import MemoryModule
        from repro.hardware.network import OmegaNetwork
        from repro.hardware.packet import Packet, PacketKind

        with sanitize.sanitizing():
            engine = Engine()
            forward_queue = BoundedWordQueue(8, name="owner.fwd")
            MemoryModule(
                engine=engine, index=2, config=DEFAULT_CONFIG.global_memory,
                sync_config=DEFAULT_CONFIG.sync, forward_queue=forward_queue,
                reverse=OmegaNetwork(engine, 8, DEFAULT_CONFIG.network),
            )
            with pytest.raises(SanitizerError, match="module 5 owns") as excinfo:
                forward_queue.push(Packet(PacketKind.READ_REQUEST, 0, 2, 5))
        assert str(excinfo.value).startswith("[memory.balance] ")

    def test_violation_carries_open_span_context(self):
        tracer = Tracer(enabled=True)
        tracer.set_clock(lambda: 0)
        with tracing(tracer):
            tracer.begin("drill", "outer_phase")
            with sanitize.sanitizing():
                with pytest.raises(SanitizerError) as excinfo:
                    _drill_engine_schedule()
            tracer.end("drill")
        assert "drill:outer_phase" in excinfo.value.span_context
        assert "outer_phase" in str(excinfo.value)


class TestCrossbarMasks:
    @pytest.mark.parametrize("corrupt", [
        pytest.param(lambda idle: idle & ~0b01, id="wired-output-marked-busy"),
        pytest.param(lambda idle: idle | 0b10, id="unwired-output-marked-idle"),
    ])
    def test_corrupted_idle_mask_caught_on_next_scan(self, corrupt):
        from repro.hardware.crossbar import CrossbarSwitch
        from repro.hardware.packet import Packet, PacketKind

        with sanitize.sanitizing() as sanitizer:
            switch = CrossbarSwitch(
                Engine(), radix=2, route_table=(0, 1), queue_words=8,
                name="idle",
            )
            switch.connect_output(0, BoundedWordQueue(8, name="idle.sink"))
            switch.wake_all()                       # consistent: passes
            switch._idle = corrupt(switch._idle)
            with pytest.raises(SanitizerError) as excinfo:
                switch.input_queues[1].push(
                    Packet(
                        kind=PacketKind.READ_REQUEST, source=1,
                        destination=0, address=0,
                    )
                )
        assert str(excinfo.value).startswith("[queue.head] ")
        assert excinfo.value.details["mask"] == "_idle"
        assert sanitizer.violations == 1


class TestCleanRuns:
    def test_small_kernel_runs_clean_and_identical(self):
        baseline = repr(measure_vector_load(4))
        with sanitize.sanitizing() as sanitizer:
            sanitized = repr(measure_vector_load(4))
        sanitizer.finalize()
        assert sanitized == baseline  # the sanitizer only observes
        assert sanitizer.violations == 0
        assert sanitizer.total_checks > 0
        # The hot invariant classes all saw traffic on a real kernel.
        for invariant in (
            "queue.capacity",
            "flow_control.credit",
            "network.conservation",
            "network.routing",
            "crossbar.arbiter",
            "queue.head",
            "engine.schedule",
            "memory.balance",
        ):
            assert sanitizer.checks.get(invariant, 0) > 0, invariant

    def test_summary_shape(self):
        with sanitize.sanitizing() as sanitizer:
            measure_vector_load(2)
        sanitizer.finalize()
        summary = sanitizer.summary()
        assert summary["enabled"] is True
        assert summary["violations"] == 0
        assert summary["total_checks"] == sum(summary["checks"].values())
        assert list(summary["checks"]) == sorted(summary["checks"])

    def test_run_experiment_sanitized_matches_unsanitized_render(self):
        from repro.experiments.registry import get_experiment
        from repro.partition import run_partitioned

        run = run_partitioned("table5", None, sanitized=True)
        experiment = get_experiment("table5")
        assert run.rendered == experiment.render(experiment.run())
        assert run.sanitizer["violations"] == 0


class TestFinalize:
    def test_flags_a_packet_vanishing_in_flight(self):
        from repro.config import DEFAULT_CONFIG
        from repro.hardware.network import OmegaNetwork
        from repro.hardware.packet import Packet, PacketKind

        with sanitize.sanitizing() as sanitizer:
            engine = Engine()
            network = OmegaNetwork(engine, 8, DEFAULT_CONFIG.network)
            packet = Packet(
                kind=PacketKind.READ_REQUEST, source=0, destination=3, address=3
            )
            network.try_inject(0, packet)
            engine.run()
            # Vaporize the delivered-but-unpopped packet out of its queue.
            queue = network.delivery_queue(3)
            queue._packets.clear()
            queue._used_words = 0
        with pytest.raises(SanitizerError, match="vanished"):
            sanitizer.finalize()

    def test_clean_network_finalizes_quietly(self):
        from repro.config import DEFAULT_CONFIG
        from repro.hardware.network import OmegaNetwork
        from repro.hardware.packet import Packet, PacketKind

        with sanitize.sanitizing() as sanitizer:
            engine = Engine()
            network = OmegaNetwork(engine, 8, DEFAULT_CONFIG.network)
            received = []
            for port in range(8):
                network.attach_sink(port, received.append)
            packet = Packet(
                kind=PacketKind.READ_REQUEST, source=0, destination=3, address=3
            )
            network.try_inject(0, packet)
            engine.run()
        sanitizer.finalize()
        assert [p.packet_id for p in received] == [packet.packet_id]
        assert sanitizer.violations == 0
