"""Tests for the experiment CLI (python -m repro.experiments).

``list`` and ``run`` are the whole grammar; what the removed bare
``<figure>`` form could do (``--chart``, ``--trace``, a piece count) is
covered here under ``run``.  Scenario parameters have one spelling,
``--set KEY=VALUE``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.__main__ import ALL_ORDER, main
from repro.runner import Verdict, get_scenario, scenario_names

FIGURES = {
    "fig2a", "fig2bc", "fig3a", "fig3b", "fig3c", "fig4a",
    "fig4bc", "fig8a", "fig8b", "fig8c", "fig9ab", "fig9c",
    "figx_arena", "figx_cdn", "figx_chaos", "figx_erasure", "figx_hybrid",
    "figx_scale", "figx_xval",
}


class TestListCommand:
    def test_list_prints_every_figure(self, capsys):
        main(["list"])
        out = capsys.readouterr().out
        for name in FIGURES:
            assert name in out

    def test_list_json(self, capsys):
        main(["list", "--json"])
        entries = json.loads(capsys.readouterr().out)
        by_name = {e["name"]: e for e in entries}
        assert FIGURES <= set(by_name)
        assert by_name["fig2a"]["defaults"]["runs"] == 5
        assert by_name["fig2a"]["description"]

    def test_all_order_covers_the_registry(self):
        assert set(ALL_ORDER) == FIGURES == set(n for n in scenario_names()
                                                if n.startswith("fig"))


class TestRunCommand:
    def test_run_prints_table_and_stats(self, capsys):
        main(["run", "fig2bc", "--no-cache", "--quiet"])
        out = capsys.readouterr().out
        assert "Figure 2(b, c)" in out
        assert "paper:" in out
        assert "2 executed" in out

    def test_run_json_output(self, capsys):
        main(["run", "fig2bc", "--no-cache", "--quiet", "--json",
              "--set", "duration=5.0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "fig2bc"
        assert payload["figure"] == "Figure 2(b, c)"
        assert payload["stats"]["executed"] == 2
        assert payload["failures"] == []
        assert len(payload["spec_hash"]) == 64
        assert {s["label"] for s in payload["series"]} == {
            "Uni-directional", "Bi-directional",
        }

    def test_run_uses_and_fills_the_cache(self, capsys, tmp_path):
        argv = ["run", "fig2bc", "--quiet", "--cache-dir", str(tmp_path),
                "--set", "duration=5.0"]
        main(argv)
        capsys.readouterr()
        main(argv)  # warm: zero simulations
        out = capsys.readouterr().out
        assert "0 executed, 2 cache hits" in out

    def test_run_jobs_parallel(self, capsys):
        main(["run", "fig2bc", "--no-cache", "--quiet", "--jobs", "2"])
        assert "Figure 2(b, c)" in capsys.readouterr().out

    def test_unknown_scenario_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "fig99", "--no-cache", "--quiet"])

    def test_bad_set_syntax_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2bc", "--no-cache", "--quiet", "--set", "duration"])

    def test_a_campaign_with_no_cells_is_an_error(self):
        with pytest.raises(SystemExit, match="error: scenario 'fig2a' has no cells"):
            main(["run", "fig2a", "--no-cache", "--quiet", "--set", "runs=0"])


class TestCheckFlag:
    """``--check``: PASS/FAIL per verdict, ``verdicts`` in --json, exit 1 on FAIL."""

    QUICK = ["run", "fig2bc", "--no-cache", "--quiet", "--check", "--set", "duration=5.0"]

    @pytest.fixture
    def verdicts(self, monkeypatch):
        """fig2bc's check() replaced by one returning the listed verdicts."""
        stated = []
        monkeypatch.setattr(type(get_scenario("fig2bc")), "check",
                            lambda self, run: list(stated))
        return stated

    def test_passing_verdicts_exit_zero(self, capsys, verdicts):
        verdicts.append(Verdict("fine", True, {"x": 2.0}))
        main(self.QUICK)
        assert "[fig2bc] PASS fine: x=2" in capsys.readouterr().out

    def test_a_failing_verdict_exits_one(self, capsys, verdicts):
        verdicts.extend([Verdict("fine", True), Verdict("doomed", False, {"x": 1.5})])
        with pytest.raises(SystemExit) as exc:
            main(self.QUICK)
        assert exc.value.code == 1
        out = capsys.readouterr().out
        assert "[fig2bc] PASS fine" in out and "[fig2bc] FAIL doomed: x=1.5" in out

    def test_json_carries_verdicts(self, capsys, verdicts):
        verdicts.append(Verdict("fine", True, {"x": 2.0}))
        main([*self.QUICK, "--json"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["verdicts"] == [{"name": "fine", "ok": True, "observed": {"x": 2.0}}]
        assert "[fig2bc] PASS fine" in captured.err
        main(["run", "fig2bc", "--no-cache", "--quiet", "--json", "--set", "duration=5.0"])
        assert "verdicts" not in json.loads(capsys.readouterr().out)

    def test_real_claims_pass_at_their_parameters(self, capsys):
        main(["run", "fig2bc", "--no-cache", "--quiet", "--check", "--set", "duration=30.0"])
        out = capsys.readouterr().out
        assert out.count("[fig2bc] PASS") == 3 and "FAIL" not in out


class TestParameterGrammar:
    """Swarm sizes and focal hosts are scenario parameters, set with
    ``--set`` under their own names; no flag re-spells them."""

    @pytest.mark.parametrize("flag", ["--num-pieces", "--swarm-size", "--focal-hosts"])
    def test_parameter_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "fig4bc", "--no-cache", "--quiet", flag, "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_set_pins_swarm_sizes(self, capsys):
        main(["run", "figx_scale", "--no-cache", "--quiet", "--json",
              "--set", "swarm_sizes=[500]", "--set", "dt=2.0"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["swarm_sizes"] == [500]
        assert all(s["x"] == [500.0] for s in payload["series"])

    def test_set_pins_background_sizes_and_focal_hosts(self, capsys):
        main(["run", "figx_hybrid", "--no-cache", "--quiet", "--json",
              "--set", "background_sizes=[1000]", "--set", "focal_hosts=2",
              "--set", "focal_mobile_fractions=[1.0]", "--set", "file_size_kib=256"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["background_sizes"] == [1000]
        assert payload["parameters"]["focal_hosts"] == 2
        assert payload["stats"]["total_cells"] == 2


class TestLegacySpellings:
    """The bare ``<figure>`` form is a usage error; each thing it could
    do is spelled with ``run``."""

    def test_bare_figure_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig2bc"])
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    def test_no_command_names_the_grammar(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
        assert "list | run" in capsys.readouterr().err

    def test_run_with_chart(self, capsys):
        main(["run", "fig2bc", "--no-cache", "--quiet", "--chart"])
        out = capsys.readouterr().out
        assert out.count("Figure 2(b, c)") >= 2  # table + chart headers

    def test_chart_with_json_is_refused_before_running(self, capsys):
        with pytest.raises(SystemExit, match="error: --chart and --json cannot be combined"):
            main(["run", "fig2bc", "--no-cache", "--quiet", "--chart", "--json"])
        assert capsys.readouterr().out == ""

    def test_piecewise_figure_takes_num_pieces_by_set(self, capsys):
        main(["run", "fig4bc", "--no-cache", "--quiet", "--set", "num_pieces=10"])
        out = capsys.readouterr().out
        assert "Playable" in out

    def test_run_trace_writes_jsonl(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        main(["run", "fig2bc", "--no-cache", "--quiet", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert "Figure 2(b, c)" in captured.out
        assert f"[trace written to {trace}]" in captured.err
        lines = trace.read_text().strip().splitlines()
        assert lines and all(json.loads(line) for line in lines)

    def test_trace_with_run_command_degrades_to_serial(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        main(["run", "fig2bc", "--no-cache", "--jobs", "4",
              "--set", "duration=5.0", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert "Figure 2(b, c)" in captured.out
        assert "running serially" in captured.err
        assert trace.read_text().strip()
