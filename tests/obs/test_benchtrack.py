"""Benchmark history tracker and run-manifest tests.

The acceptance-critical case: a synthetic injected regression must make
``python -m repro.obs.benchtrack check`` exit nonzero — that exit code is
what lets CI fail instead of silently archiving a slowdown.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.obs.benchtrack import (
    DEFAULT_RULES,
    HISTORY_NAME,
    SCHEMA,
    RegressionRule,
    append_history,
    check_regressions,
    collect_metrics,
    deltas,
    load_history,
    _main,
)
from repro.obs.manifest import build_manifest, git_revision, write_manifest


def _write_artifacts(bench_dir, speedup=8.0, clean_rmse=0.2, overhead=1.01):
    """A minimal, realistic bench artifact directory."""
    bench_dir.mkdir(parents=True, exist_ok=True)
    (bench_dir / "BENCH_batch.json").write_text(
        json.dumps(
            [
                # A series-1 record (older scalar loop) before series 2.
                {"speedup": 5.0, "batch_s": 0.4, "scalar_s": 2.0},
                {
                    "series": 2,
                    "n_tracks": 64,
                    "speedup": speedup,
                    "scalar_ns_per_track_tick": 1600.0,
                    "batch_ns_per_track_tick": 1600.0 / speedup,
                    "crossover_tracks": 32,
                },
            ]
        )
    )
    (bench_dir / "BENCH_pipeline.json").write_text(
        json.dumps(
            [
                {"speedup": 2.1, "serial_s": 10.0, "batch_s": 4.76, "trips_per_sec": 6.7},
                {
                    "speedup": 2.4,
                    "serial_s": 10.0,
                    "batch_s": 4.17,
                    "trips_per_sec": 7.7,
                    "serial_trips_per_sec": 3.2,
                },
            ]
        )
    )
    (bench_dir / "BENCH_faults.json").write_text(
        json.dumps(
            {
                "clean_rmse_deg": clean_rmse,
                "scenarios": [
                    {"kind": "gps_dropout", "ok": True, "rmse_ratio": 1.2},
                    {"kind": "nan_burst", "ok": True, "rmse_ratio": 2.5},
                    {"kind": "jitter", "ok": False, "rmse_ratio": None},
                ],
            }
        )
    )
    (bench_dir / "bench_telemetry.json").write_text(
        json.dumps(
            {
                "schema": "repro.bench_telemetry/v1",
                "benchmarks": {
                    "test_overhead": {
                        "metrics": {
                            "gauges": {
                                "bench.push_overhead_ratio": overhead,
                                "unrelated.gauge": 99.0,
                            }
                        },
                        "spans": [
                            {
                                "name": "overhead_microbench",
                                "duration_s": 0.5,
                                "attributes": {"ticks": 100},
                            }
                        ],
                    }
                },
            }
        )
    )


class TestCollect:
    def test_extracts_tracked_metrics(self, tmp_path):
        _write_artifacts(tmp_path)
        metrics = collect_metrics(tmp_path)
        assert metrics["batch.speedup_64"] == 8.0  # latest entry wins
        assert metrics["batch.crossover_tracks"] == 32.0
        assert metrics["pipeline.speedup"] == 2.4
        assert metrics["pipeline.trips_per_sec"] == 7.7
        assert metrics["pipeline.serial_trips_per_sec"] == 3.2
        assert metrics["faults.clean_rmse_deg"] == 0.2
        assert metrics["faults.max_rmse_ratio"] == 2.5
        assert metrics["faults.n_scenarios_failed"] == 1.0
        assert metrics["telemetry.push_overhead_ratio"] == 1.01
        assert "telemetry.gauge" not in metrics  # only bench.* gauges

    def test_empty_directory_yields_no_metrics(self, tmp_path):
        assert collect_metrics(tmp_path) == {}

    def test_corrupt_artifact_skipped(self, tmp_path):
        _write_artifacts(tmp_path)
        (tmp_path / "BENCH_batch.json").write_text("{not json")
        metrics = collect_metrics(tmp_path)
        assert "batch.speedup_64" not in metrics
        assert "faults.clean_rmse_deg" in metrics


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        entry = append_history(path, {"batch.speedup": 8.0}, ts=100.0)
        append_history(path, {"batch.speedup": 9.0}, ts=200.0)
        history = load_history(path)
        assert len(history) == 2
        assert history[0] == entry
        assert history[0]["schema"] == SCHEMA
        assert history[1]["metrics"]["batch.speedup"] == 9.0

    def test_missing_history_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope.jsonl") == []

    def test_corrupt_history_raises(self, tmp_path):
        path = tmp_path / HISTORY_NAME
        path.write_text('{"ok": 1}\n{broken\n')
        with pytest.raises(ConfigurationError, match="line 2"):
            load_history(path)

    def test_deltas_against_previous(self):
        prev = {"metrics": {"batch.speedup": 8.0}}
        out = deltas({"batch.speedup": 6.0, "new.metric": 1.0}, prev)
        assert out["batch.speedup"]["change"] == pytest.approx(-0.25)
        assert "change" not in out["new.metric"]


class TestRules:
    def test_direction_validated(self):
        with pytest.raises(ConfigurationError):
            RegressionRule(metric="x", direction="sideways")

    def test_higher_is_better_drop_trips(self):
        rule = RegressionRule(metric="batch.speedup", direction="higher", tolerance=0.25)
        assert rule.evaluate(8.0, 8.0) is None
        assert rule.evaluate(7.0, 8.0) is None  # -12.5%, inside tolerance
        assert "dropped" in rule.evaluate(5.0, 8.0)

    def test_lower_is_better_growth_trips(self):
        rule = RegressionRule(metric="rmse", direction="lower", tolerance=0.25)
        assert rule.evaluate(0.2, 0.2) is None
        assert "grew" in rule.evaluate(0.3, 0.2)

    def test_absolute_ceiling_applies_without_history(self):
        rule = RegressionRule(metric="ratio", direction="lower", max_value=1.05)
        assert rule.evaluate(1.0, None) is None
        assert "ceiling" in rule.evaluate(1.2, None)

    def test_pipeline_throughput_gates_replace_speedup_floor(self):
        # Each evaluation runner's own throughput is gated against the
        # previous same-machine entry; the serial/batched ratio is not.
        rules = {r.metric: r for r in DEFAULT_RULES}
        assert "pipeline.speedup" not in rules
        for metric in ("pipeline.trips_per_sec", "pipeline.serial_trips_per_sec"):
            rule = rules[metric]
            assert rule.direction == "higher" and rule.tolerance == 0.25
            assert rule.min_value is None
            assert rule.evaluate(7.0, 10.0) is not None  # -30 %
            assert rule.evaluate(8.0, 10.0) is None  # -20 %

    def test_absent_metric_skipped(self):
        violations = check_regressions({"other": 1.0}, None, DEFAULT_RULES)
        assert violations == []


class TestCLI:
    def test_check_passes_and_appends(self, tmp_path, capsys):
        _write_artifacts(tmp_path)
        assert _main(["check", str(tmp_path)]) == 0
        assert "no regressions" in capsys.readouterr().out
        history = load_history(tmp_path / HISTORY_NAME)
        assert len(history) == 1
        assert history[0]["metrics"]["batch.speedup_64"] == 8.0

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        # First run establishes the baseline...
        _write_artifacts(tmp_path, speedup=8.0)
        assert _main(["check", str(tmp_path)]) == 0
        # ...then the engine "slows down" by 50%: the gate must fail CI.
        _write_artifacts(tmp_path, speedup=4.0)
        assert _main(["check", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "batch.speedup_64" in out

    def test_absolute_ceiling_regression_without_history(self, tmp_path):
        _write_artifacts(tmp_path, overhead=1.5)  # > 1.05 ceiling
        assert _main(["check", str(tmp_path)]) == 1

    def test_no_append_gates_without_growing_history(self, tmp_path):
        _write_artifacts(tmp_path)
        assert _main(["check", str(tmp_path), "--no-append"]) == 0
        assert not (tmp_path / HISTORY_NAME).exists()

    def test_custom_rules_file(self, tmp_path):
        _write_artifacts(tmp_path, speedup=8.0)
        rules = tmp_path / "rules.json"
        rules.write_text(
            json.dumps(
                [{"metric": "batch.speedup_64", "direction": "higher", "min_value": 100.0}]
            )
        )
        assert _main(["check", str(tmp_path), "--rules", str(rules)]) == 1

    def test_empty_directory_is_usage_error(self, tmp_path):
        assert _main(["check", str(tmp_path)]) == 2
        assert _main(["check", str(tmp_path / "missing")]) == 2

    def test_collect_prints_json(self, tmp_path, capsys):
        _write_artifacts(tmp_path)
        assert _main(["collect", str(tmp_path)]) == 0
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["batch.speedup_64"] == 8.0

    def test_report_renders_health_and_deltas(self, tmp_path, capsys):
        _write_artifacts(tmp_path)
        faults = json.loads((tmp_path / "BENCH_faults.json").read_text())
        faults["scenarios"][0]["health"] = {
            "worst_verdict": "diverged",
            "flag_kinds": ["nis"],
        }
        faults["scenarios"][0]["severity"] = 4.0
        (tmp_path / "BENCH_faults.json").write_text(json.dumps(faults))
        assert _main(["check", str(tmp_path)]) == 0  # seed history
        assert _main(["report", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "1 flagged scenario(s)" in out
        assert "diverged" in out
        assert "overhead_microbench" in out  # span tree rendered

    def test_module_entrypoint_runs(self, tmp_path):
        import subprocess
        import sys

        _write_artifacts(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs.benchtrack", "check", str(tmp_path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
            cwd="/root/repo",
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestManifest:
    def test_git_revision_in_checkout(self):
        sha = git_revision("/root/repo")
        assert sha is None or (len(sha) == 40 and all(c in "0123456789abcdef" for c in sha))

    def test_build_manifest_schema(self):
        from repro.eval.runner import RunnerConfig

        manifest = build_manifest(
            config=RunnerConfig(n_trips=1),
            seed=7,
            metrics={"counters": {"ekf_ticks": 10}},
            health={"worst_verdict": "ok"},
            extra={"kind": "test"},
        )
        decoded = json.loads(json.dumps(manifest))
        assert decoded["schema"] == "repro.run_manifest/v1"
        assert decoded["seed"] == 7
        assert decoded["config"]["n_trips"] == 1
        assert decoded["kind"] == "test"

    def test_extra_collision_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            build_manifest(extra={"seed": 9})

    def test_bad_config_type_rejected(self):
        with pytest.raises(TypeError):
            build_manifest(config=object())

    def test_write_manifest_creates_parents(self, tmp_path):
        path = write_manifest(tmp_path / "a" / "b" / "m.json", seed=1)
        assert json.loads(path.read_text())["seed"] == 1
