"""Reproduction-report generator tests."""

import pytest

from repro.eval.report import build_report, main

# Each report build runs the full red-route experiment suite (~4s); keep
# these out of the fast lane (`pytest -m "not slow"`).
pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def report():
    return build_report(seed=3, n_trips=1, network_km=15.0)


class TestReport:
    def test_sections_present(self, report):
        for heading in (
            "# Reproduction report",
            "## Red-route method comparison",
            "## Track-fusion medians",
            "## Fuel/emission uplift",
            "## Lane-change detection",
        ):
            assert heading in report

    def test_paper_numbers_cited(self, report):
        assert "11.9%" in report
        assert "33.4%" in report

    def test_all_methods_reported(self, report):
        for method in ("ops", "ekf", "ann"):
            assert f"| {method} |" in report

    def test_deterministic(self, report):
        again = build_report(seed=3, n_trips=1, network_km=15.0)
        # Strip the timing footer before comparing.
        strip = lambda text: "\n".join(
            line for line in text.splitlines() if not line.startswith("_Report")
        )
        assert strip(again) == strip(report)

    def test_main_writes_file(self, tmp_path, monkeypatch):
        # Patch build_report to the fast variant for the CLI test.
        import repro.eval.report as mod

        monkeypatch.setattr(
            mod, "build_report", lambda: build_report(seed=3, n_trips=1, network_km=15.0)
        )
        out = tmp_path / "report.md"
        assert main([str(out)]) == 0
        assert out.read_text().startswith("# Reproduction report")

    def test_help_prints_usage_and_writes_nothing(self, tmp_path, monkeypatch, capsys):
        import repro.eval.report as mod

        monkeypatch.setattr(mod, "build_report", lambda: "# Reproduction report\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
