"""Tests for the experiment registry and the fast (model-level) drivers.

Cycle-simulator experiments (table1, table2, ppt4, network ablation) run
end-to-end under ``cedar-repro bench``, which checks their claims
(``test_claims.py`` checks the claim functions); here we test the registry
plumbing and the analytic-model experiments that run in milliseconds.
"""

import pytest

from repro.experiments import EXPERIMENTS, get_experiment
from repro.experiments import figure3, restructuring, table3, table4, table5, table6


class TestRegistry:
    def test_every_paper_artifact_registered(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure3", "ppt4", "ppt5", "restructuring", "network-ablation",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_descriptions_nonempty(self):
        for experiment in EXPERIMENTS.values():
            assert experiment.description


class TestTable3:
    def test_grid_and_render(self):
        result = table3.run()
        assert len(result.grid) == 13
        text = table3.render(result)
        assert "TRFD" in text
        assert "harmonic-mean" in text

    def test_ymp_ratio_above_one(self):
        result = table3.run()
        assert result.ymp_ratio() > 1.0


class TestTable4:
    def test_rows_cover_paper_codes(self):
        result = table4.run()
        assert {row.code for row in result.rows} == {
            "ARC3D", "BDNA", "DYFESM", "FLO52", "QCD", "SPICE", "TRFD"
        }
        text = table4.render(result)
        assert "QCD" in text


class TestTable5:
    def test_instabilities_and_exclusions(self):
        result = table5.run()
        assert result.profiles["cedar"][0] == pytest.approx(63.4, rel=0.1)
        assert result.profiles["cray-ymp8"][0] == pytest.approx(75.3, abs=0.2)
        assert result.exclusions_needed["cedar"] == 2
        assert result.exclusions_needed["cray-1"] == 2
        assert result.exclusions_needed["cray-ymp8"] == 6
        assert "In(13,0)" in table5.render(result)


class TestTable6:
    def test_census_matches_paper_exactly(self):
        result = table6.run()
        assert (result.cedar.high, result.cedar.intermediate,
                result.cedar.unacceptable) == (1, 9, 3)
        assert (result.ymp.high, result.ymp.intermediate,
                result.ymp.unacceptable) == (0, 6, 7)
        assert "(1)" in table6.render(result)


class TestFigure3:
    def test_census_matches_paper_reading(self):
        result = figure3.run()
        assert result.cedar_census.unacceptable == 0
        assert 3 <= result.cedar_census.high <= 5
        assert result.ymp_census.unacceptable == 1
        assert result.ymp_census.high == 6
        text = figure3.render(result)
        assert "legend" in text


class TestRestructuring:
    def test_counts(self):
        result = restructuring.run()
        assert result.kap_count() == 1
        assert result.automatable_count() == 5
        assert "privatization" in restructuring.render(result)


class TestCli:
    def test_list_command(self, capsys):
        from repro.cli import main
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table5" in out

    def test_run_fast_experiment(self, capsys):
        from repro.cli import main
        assert main(["run", "table6"]) == 0
        assert "Cedar" in capsys.readouterr().out

    def test_run_unknown(self, capsys):
        from repro.cli import main
        assert main(["run", "bogus"]) == 2
