"""The fault matrix, the accuracy grid's fault preset: config validation,
severity mapping, and a tiny matrix run.

The preset is ``scenarios=("default",)`` × ``drivers=("legacy",)`` over
every fault kind, as ``benchmarks/bench_faults.py`` builds it. Its exact
cells are pinned by ``tests/eval/sweep_golden.json``; here the preset's
config, the severity mapping of :func:`repro.eval.grid.fault_suite_for`
and the shape of one small run are checked.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.eval.grid import ScenarioGridConfig, fault_suite_for, run_scenario_grid
from repro.eval.parallel import ParallelConfig
from repro.eval.runner import RunnerConfig
from repro.faults.suite import FAULT_KINDS

BENCH_FAULTS = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_faults.py"


def _bench_faults():
    spec = importlib.util.spec_from_file_location("_bench_faults", BENCH_FAULTS)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


bench_faults = _bench_faults()


def _preset(**overrides) -> ScenarioGridConfig:
    fields = {"scenarios": ("default",), "drivers": ("legacy",), **overrides}
    return ScenarioGridConfig(**fields)


class TestConfig:
    def test_defaults_cover_the_whole_taxonomy(self):
        cfg = bench_faults.fault_matrix_config(bench_faults.FULL_SEVERITIES)
        assert set(cfg.fault_kinds) == set(FAULT_KINDS)
        assert cfg.scenarios == ("default",)
        assert cfg.drivers == ("legacy",)

    def test_unknown_kind_rejected(self):
        # The message lists the valid kinds.
        with pytest.raises(ConfigurationError, match="gps_dropout"):
            _preset(fault_kinds=("gps_dropout", "meteor_strike"))

    def test_empty_or_bad_severities_rejected(self):
        for bad in (
            {"severities": ()},
            {"severities": (1.0, -2.0)},
            {"severities": (0.0,)},
            {"fault_kinds": ()},
        ):
            with pytest.raises(ConfigurationError):
                _preset(**bad)

    def test_round_trips_through_json(self):
        cfg = _preset(severities=(0.5, 1.0), channel="gyro")
        clone = ScenarioGridConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg


class TestSeverityMapping:
    def test_window_kinds_map_severity_to_duration(self):
        suite = fault_suite_for("gps_dropout", 3.0, start_s=40.0)
        (spec,) = suite.faults
        assert spec.duration_s == 3.0
        assert spec.start_s == 40.0

    def test_clip_severity_inverts_into_limit(self):
        mild = fault_suite_for("clip", 0.5).faults[0]
        harsh = fault_suite_for("clip", 4.0).faults[0]
        assert mild.severity > harsh.severity  # larger severity -> tighter clip

    def test_jitter_severity_stays_valid(self):
        # The raw severity axis goes beyond the jitter injector's (0, 1)
        # domain; the mapping must compress it, and the spec must build.
        spec = fault_suite_for("jitter", 4.0).faults[0]
        assert 0.0 < spec.severity < 1.0
        spec.build()

    def test_every_kind_builds_at_every_default_severity(self):
        for kind in FAULT_KINDS:
            for severity in bench_faults.FULL_SEVERITIES:
                fault_suite_for(kind, severity).build()


class TestMatrix:
    def test_tiny_matrix_completes_and_serializes(self, red_profile):
        result = run_scenario_grid(
            red_profile,
            base_cfg=RunnerConfig(n_trips=1, seed=3),
            config=_preset(fault_kinds=("gps_dropout", "nan_burst"), severities=(1.0,)),
            parallel=ParallelConfig(backend="serial"),
        )

        assert result["schema"] == "repro.bench_scenarios/v1"
        (clean,) = result["baselines"]
        assert clean["rmse_deg"] is not None
        assert len(result["cells"]) == 2
        for cell in result["cells"]:
            assert "ok" in cell  # recorded, never raised
            assert cell["ok"]
            assert cell["rmse_deg"] is not None
        # Health summaries ride along: the clean baseline is unflagged and
        # every completed cell records a verdict.
        assert clean["health"]["worst_verdict"] == "ok"
        for cell in result["cells"]:
            assert cell["health"]["worst_verdict"] in ("ok", "suspect", "diverged")

        json.dumps(result)  # strict JSON, ready for the bench artifact
