"""``scripts/generate_api_docs.py`` writes only a complete reference.

``--help`` prints usage and touches nothing; a render that fails
partway leaves the committed pages byte-identical, because every page
is rendered in memory before the first file is written.
"""

from __future__ import annotations

import pytest

import generate_api_docs


@pytest.fixture
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(generate_api_docs, "OUT_DIR", str(tmp_path))
    return tmp_path


def test_help_prints_usage_and_writes_nothing(out_dir, capsys):
    with pytest.raises(SystemExit) as exit_info:
        generate_api_docs.main(["--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")
    assert list(out_dir.iterdir()) == []


def test_a_failed_render_leaves_the_pages_as_they_were(out_dir, monkeypatch):
    before = {
        "index.md": b"# old index\n",
        "repro.sim.md": b"# old sim page\n",
        "repro.gone.md": b"# a package that no longer exists\n",
    }
    for name, data in before.items():
        (out_dir / name).write_bytes(data)
    render_module = generate_api_docs._render_module
    calls = 0

    def failing_render(module):
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("render failed")
        return render_module(module)

    monkeypatch.setattr(generate_api_docs, "_render_module", failing_render)
    with pytest.raises(RuntimeError, match="render failed"):
        generate_api_docs.main([])
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_a_run_replaces_pages_and_removes_only_stale_ones(out_dir):
    (out_dir / "repro.gone.md").write_text("# stale\n")
    (out_dir / "notes.txt").write_text("kept\n")
    generate_api_docs.main([])
    names = {p.name for p in out_dir.iterdir()}
    assert "repro.gone.md" not in names
    assert {"index.md", "repro.scale.md", "notes.txt"} <= names
    assert (out_dir / "repro.scale.md").read_text().startswith(
        "# Package `repro.scale`"
    )
