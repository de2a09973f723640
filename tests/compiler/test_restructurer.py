"""Tests for the end-to-end compilers (KAP vs automatable)."""

import pytest

from repro.compiler import CedarRestructurer, KapCompiler
from repro.compiler.ir import ArrayRef, Assignment, Loop, LoopNest, const, var
from repro.experiments.restructuring import gallery, run as run_gallery
from repro.lang.loops import Doall

I = var("i")


class TestGallery:
    def test_kap_only_handles_the_clean_loop(self):
        result = run_gallery()
        assert result.kap_count() == 1
        assert result.automatable_count() == 5

    def test_recurrence_resists_both(self):
        result = run_gallery()
        by_name = {name: (kap, auto) for name, kap, auto, _ in result.rows}
        assert by_name["recurrence"] == (False, False)

    def test_gallery_covers_every_transformation(self):
        result = run_gallery()
        transforms = " ".join(t for _, _, _, t in result.rows)
        for expected in ("privatization", "reductions", "induction",
                         "runtime-dependence-test", "balanced-stripmine",
                         "prefetch-insertion"):
            assert expected in transforms


class TestRestructurer:
    def _nest(self):
        return LoopNest("n", Loop("i", const(1), const(64), body=(
            Assignment(lhs=ArrayRef("b", (I,), True),
                       reads=(ArrayRef("a", (I,)),)),
        )))

    def test_strips_match_processor_count(self):
        report = CedarRestructurer(processors=8).compile(self._nest())
        assert len(report.strips) == 8
        assert sum(s.length for s in report.strips) == 64

    def test_processor_validation(self):
        with pytest.raises(ValueError):
            CedarRestructurer(processors=0)

    def test_lowering_produces_doall(self):
        restructurer = CedarRestructurer()
        report = restructurer.compile(self._nest())
        doall = restructurer.lower(report)
        assert isinstance(doall, Doall)
        assert doall.trip_count == 64
        assert doall.label == "n"

    def test_lowering_rejects_serial_nest(self):
        restructurer = CedarRestructurer()
        nest = LoopNest("serial", Loop("i", const(2), const(10), body=(
            Assignment(lhs=ArrayRef("x", (I,), True),
                       reads=(ArrayRef("x", (I - 1,)),)),
        )))
        report = restructurer.compile(nest)
        with pytest.raises(ValueError):
            restructurer.lower(report)

    def test_explicit_global_arrays_respected(self):
        restructurer = CedarRestructurer()
        report = restructurer.compile(self._nest(), global_arrays=set())
        assert report.prefetches == []

    def test_kap_compile_all(self):
        kap = KapCompiler()
        results = [kap.compile(nest) for nest in gallery()]
        assert [r.nest.name for r in results] == [n.name for n in gallery()]
