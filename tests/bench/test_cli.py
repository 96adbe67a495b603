"""Smoke tests for the figure-regeneration CLI (`python -m repro.bench.figures`)."""

import pytest

from repro.bench import figures


@pytest.fixture(autouse=True)
def _save_results_to_scratch(monkeypatch, tmp_path_factory):
    """Point ``save_results`` at a scratch directory, so running the CLI
    here never rewrites the committed ``results/``."""
    import repro.bench.harness as harness

    scratch = tmp_path_factory.mktemp("results")
    monkeypatch.setattr(harness, "results_dir", lambda: scratch)


class TestMain:
    def test_fig1(self, capsys):
        figures.main("fig1")
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "[]" in out  # the ASCII structure

    def test_stability(self, capsys):
        figures.main("stability")
        out = capsys.readouterr().out
        assert "Stability" in out
        assert "normal-eq" in out

    def test_unknown_selector_is_noop(self, capsys):
        figures.main("nonexistent-figure")
        assert capsys.readouterr().out == ""


class TestResultsArtifacts:
    def test_fig1_saved(self, capsys):
        figures.main("fig1")
        capsys.readouterr()
        from repro.bench.harness import results_dir

        assert (results_dir() / "fig1.json").exists()
