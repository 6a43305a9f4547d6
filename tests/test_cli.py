"""Tests for the experiment CLI (python -m repro.experiments).

``list`` and ``run`` are the whole grammar; what the removed bare
``<figure>`` form could do (``--num-pieces``, ``--chart``, ``--trace``)
is covered here under ``run``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.__main__ import ALL_ORDER, main
from repro.runner import scenario_names

FIGURES = {
    "fig2a", "fig2bc", "fig3a", "fig3b", "fig3c", "fig4a",
    "fig4bc", "fig8a", "fig8b", "fig8c", "fig9ab", "fig9c",
    "figx_arena", "figx_cdn", "figx_chaos", "figx_erasure", "figx_hybrid",
    "figx_scale",
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


class TestOverrideConflicts:
    """A dedicated flag and a --set spelling of the same key must be an
    explicit error, not a silent precedence decision."""

    def test_swarm_size_conflicts_with_set_swarm_sizes(self):
        with pytest.raises(SystemExit, match="--swarm-size conflicts"):
            main(["run", "figx_scale", "--no-cache", "--quiet",
                  "--swarm-size", "500", "--set", "swarm_sizes=[1000]"])

    def test_swarm_size_conflicts_with_set_background_sizes(self):
        # figx_hybrid spells the same axis "background_sizes".
        with pytest.raises(SystemExit, match="background_sizes"):
            main(["run", "figx_hybrid", "--no-cache", "--quiet",
                  "--swarm-size", "500", "--set", "background_sizes=[1000]"])

    def test_focal_hosts_conflicts_with_set(self):
        with pytest.raises(SystemExit, match="--focal-hosts conflicts"):
            main(["run", "figx_hybrid", "--no-cache", "--quiet",
                  "--focal-hosts", "2", "--set", "focal_hosts=3"])


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

    def test_piecewise_figure_accepts_num_pieces(self, capsys):
        main(["run", "fig4bc", "--no-cache", "--quiet", "--num-pieces", "10"])
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
