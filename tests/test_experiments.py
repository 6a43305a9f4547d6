"""Smoke/shape tests for the experiment harness (fast variants).

The paper's claims about the full campaigns are each scenario's
``check()`` (asserted where EXPERIMENTS.md is generated); these tests
check that every experiment runs end-to-end at reduced scale and
produces structurally sound results.
"""

from __future__ import annotations

import pytest

from repro.analysis import ExperimentResult, Series
from repro.experiments import (
    cluster_drops,
    drop_response_ratio,
    playability_run,
    run_transfer,
)
from repro.runner import Runner, get_scenario


class TestSeriesContainers:
    def test_series_length_check(self):
        with pytest.raises(ValueError):
            Series("x", [1, 2], [1])

    def test_y_at_and_peak(self):
        s = Series("s", [1, 2, 3], [5.0, 9.0, 7.0])
        assert s.y_at(2) == 9.0
        assert s.peak_x == 2
        with pytest.raises(KeyError):
            s.y_at(99)

    def test_result_table_renders(self):
        r = ExperimentResult(
            figure="Fig X", title="T", x_label="x", y_label="y",
            series=[Series("a", [1, 2], [3.0, 4.0])],
            paper_expectation="up and to the right",
        )
        text = r.table()
        assert "Fig X" in text
        assert "paper:" in text
        assert "3.00" in text

    def test_result_get_unknown_label(self):
        r = ExperimentResult("F", "T", "x", "y")
        with pytest.raises(KeyError):
            r.get("nope")


class TestRawTransferHarness:
    def test_unidirectional_transfer_measures_down(self):
        stats = run_transfer(seed=1, ber=0.0, bidirectional=False, duration=10.0)
        assert stats.delivered_down > 0
        assert stats.delivered_up == 0
        assert stats.down_rate_kbps > 0

    def test_bidirectional_transfer_measures_both(self):
        stats = run_transfer(seed=1, ber=0.0, bidirectional=True, duration=10.0)
        assert stats.delivered_down > 0
        assert stats.delivered_up > 0

    def test_ber_reduces_throughput(self):
        clean = run_transfer(seed=2, ber=0.0, bidirectional=False, duration=15.0)
        lossy = run_transfer(seed=2, ber=2e-5, bidirectional=False, duration=15.0)
        assert lossy.down_rate_kbps < clean.down_rate_kbps


class TestFig2Helpers:
    def test_cluster_drops(self):
        assert cluster_drops([1.0, 1.1, 1.2, 5.0, 5.05, 9.0], min_gap=1.0) == [1.0, 5.0, 9.0]
        assert cluster_drops([]) == []

    def test_drop_response_ratio_empty(self):
        s = Series("s", [], [])
        assert drop_response_ratio(s, [1.0]) is None

    def test_fig2a_mini(self):
        result = Runner().run(
            "fig2a", {"bers": [0.0, 2e-5], "runs": 1, "duration": 10.0}
        ).result
        assert result.get("Uni-TCP").y_at(0.0) > result.get("Uni-TCP").y_at(2e-5)

    def test_fig2bc_mini(self):
        result = Runner().run("fig2bc", {"duration": 10.0}).result
        assert len(result.get("Uni-directional")) > 10
        assert result.parameters["bi_drop_times"]


class TestPlayabilityHarness:
    def test_playability_run_returns_full_curve(self):
        curve = playability_run(1, num_pieces=10)
        assert curve[0] == (0.0, 0.0)
        assert curve[-1] == (100.0, 100.0)

    def test_fig4bc_mini(self):
        result = Runner().run("fig4bc", {"num_pieces": 10, "runs": 2}).result
        series = result.series[0]
        assert series.y_at(0.0) == 0.0
        assert series.y_at(100.0) == 100.0

    def test_fig9ab_mini(self):
        result = Runner().run("fig9ab", {"num_pieces": 10, "runs": 2}).result
        assert {s.label for s in result.series} == {"Default P2P", "wP2P"}
        # MF at least matches rarest-first mid-download on average
        assert result.get("wP2P").y_at(50.0) >= result.get("Default P2P").y_at(50.0) - 10


class TestFig8Mini:
    def test_fig8a_mini_runs(self):
        result = Runner().run(
            "fig8a", {"bers": [1e-5], "runs": 1, "duration": 15.0}
        ).result
        assert result.get("Default P2P").y[0] > 0
        assert result.get("wP2P").y[0] > 0


class TestFigXErasureMini:
    def test_packet_cell_variants_share_volume_fairness(self):
        from repro.experiments.figx_erasure import erasure_run

        rep = erasure_run(
            seed=1300, variant="replication", intensity=0.0,
            mobile_fraction=0.5, duration=240.0, horizon=120.0,
            source_kib=256,
        )
        coded = erasure_run(
            seed=1300, variant="coded", intensity=0.0,
            mobile_fraction=0.5, duration=240.0, horizon=120.0,
            source_kib=256,
        )
        for cell in (rep, coded):
            assert cell["survival"] == 1.0
            assert cell["completion"] is not None
            assert cell["faults"] == 0.0

    def test_fluid_sweep_gate_shape(self):
        # The survival gate at the full default grid, through check().
        run = Runner(backend="fluid").run("figx_erasure")
        verdicts = get_scenario("figx_erasure").check(run)
        assert [v.name for v in verdicts] == [
            "coded_has_no_edge_without_chaos", "survival_advantage_monotone",
            "coded_beats_replication_at_gate",
        ]
        assert all(v.ok for v in verdicts), [v.line() for v in verdicts]
        assert run.result.parameters["gate"]["intensities"][0] == 0.0
        assert len(run.result.series) == 3

    def test_unknown_variant_rejected(self):
        from repro.experiments.figx_erasure import erasure_run

        with pytest.raises(ValueError, match="variant"):
            erasure_run(
                seed=1, variant="parity", intensity=0.0,
                mobile_fraction=0.5, duration=10.0, horizon=10.0,
            )


#: Each ablation at a tiny size: one point, one run, a short horizon.
TINY_ABLATIONS = {
    "ablation_am_gamma": {"gammas": [8760], "runs": 1, "duration": 5.0},
    "ablation_mf_schedule": {"runs": 1, "num_pieces": 8},
    "ablation_lihd": {"runs": 1, "duration": 5.0},
    "ablation_rr_vs_tracker": {"tracker_intervals": [60.0], "runs": 1, "duration": 20.0},
    "ablation_sack": {"bers": [1e-5], "runs": 1, "duration": 5.0},
}


class TestAblations:
    @pytest.mark.parametrize("name", sorted(TINY_ABLATIONS))
    def test_runs_at_a_tiny_size(self, name):
        run = Runner().run(name, TINY_ABLATIONS[name])
        assert not run.failures
        assert run.result.figure.startswith("Ablation: ")
        assert all(len(s.x) == len(s.y) > 0 for s in run.result.series)
        verdicts = get_scenario(name).check(run)
        assert verdicts and all(isinstance(v.ok, bool) for v in verdicts)
