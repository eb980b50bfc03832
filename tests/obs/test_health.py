"""Health-monitor unit tests: NIS bounds, watchdogs, verdicts, reports.

Detection of actual injected faults lives in
``tests/faults/test_health_detection.py``; these tests drive the monitors
with synthetic innovation records so each check is exercised in isolation.
"""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

from repro.core.pipeline import GradientSystemConfig
from repro.errors import ConfigurationError
from repro.obs import Telemetry
from repro.obs.health import (
    HealthConfig,
    HealthFlag,
    HealthMonitor,
    HealthReport,
    StreamingHealthMonitor,
    TrackHealth,
    nis_bound,
)


class TestNisBound:
    def test_matches_chi_square_quantile(self):
        # Exact: the bound is computed the way chi2.ppf computes it, and the
        # pinned default entry (25, 0.999999) must be the same float.
        margin = 2.0
        for w in (2, 5, 10, 25, 50, 100):
            for conf in (0.95, 0.99, 0.999999):
                expected = margin * float(chi2.ppf(conf, w)) / w
                assert nis_bound(w, conf, margin) == expected, (w, conf)

    def test_tightens_with_window(self):
        # Averaging more updates concentrates the mean NIS around 1.
        assert nis_bound(100) < nis_bound(10)

    def test_default_bound_sits_above_consistent_mean(self):
        # A consistent filter has mean NIS ~= 1; the bound must clear it
        # with real headroom, else clean drives false-flag.
        assert nis_bound(25) > 3.0


class TestHealthConfig:
    def test_defaults_valid_and_round_trip(self):
        cfg = HealthConfig()
        clone = HealthConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
        assert clone == cfg
        assert clone.nis_bound() == cfg.nis_bound()

    def test_nested_in_system_config_round_trip(self):
        cfg = GradientSystemConfig(health=HealthConfig(nis_window=11))
        clone = GradientSystemConfig.from_dict(
            json.loads(json.dumps(cfg.to_dict()))
        )
        assert clone.health.nis_window == 11

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nis_window": 1},
            {"nis_confidence": 0.4},
            {"nis_confidence": 1.0},
            {"nis_margin": 0.0},
            {"diverged_factor": -1.0},
            {"max_update_gap_s": 0.0},
            {"condition_max": -5.0},
            {"rail_min_count": 1},
            {"gps_gap_s": 0.0},
        ],
    )
    def test_bad_thresholds_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            HealthConfig(**kwargs)


def _clean_track_inputs(n=2000, dt=0.02, seed=0):
    """A synthetic consistent track: innovations drawn from N(0, S)."""
    rng = np.random.default_rng(seed)
    s = np.full(n, 0.04)
    inno = rng.normal(0.0, np.sqrt(s))
    return {
        "theta": np.full(n, 0.02),
        "variance": np.full(n, 1e-4),
        "innovations": inno,
        "s": s,
        "update_ticks": np.arange(n),
        "dt": dt,
        "n_ticks": n,
        "final_cov": (0.04, 1e-5, 1e-4),
    }


class TestCheckTrack:
    def test_consistent_track_is_ok(self):
        mon = HealthMonitor(p22_initial=np.radians(3.0) ** 2)
        health = mon.check_track("gps", **_clean_track_inputs())
        assert health.verdict == "ok"
        assert health.flags == []
        assert health.nis_mean == pytest.approx(1.0, rel=0.1)
        assert mon.track_verdict("gps") == "ok"

    def test_inflated_nis_flags_suspect_then_diverged(self):
        base = _clean_track_inputs()
        cfg = HealthConfig()
        bound = cfg.nis_bound()

        suspect = dict(base)
        suspect["innovations"] = base["innovations"] * math.sqrt(1.5 * bound)
        mon = HealthMonitor(cfg)
        assert mon.check_track("a", **suspect).verdict == "suspect"

        diverged = dict(base)
        diverged["innovations"] = base["innovations"] * math.sqrt(
            2.0 * cfg.diverged_factor * bound
        )
        assert mon.check_track("b", **diverged).verdict == "diverged"

    def test_nonfinite_innovations_are_diverged(self):
        inputs = _clean_track_inputs()
        inputs["innovations"][100:110] = np.nan
        mon = HealthMonitor()
        health = mon.check_track("gps", **inputs)
        assert health.verdict == "diverged"
        assert "nonfinite_innovation" in [f.kind for f in health.flags]

    def test_nonfinite_state_is_diverged(self):
        inputs = _clean_track_inputs()
        inputs["theta"] = inputs["theta"].copy()
        inputs["theta"][-1] = np.inf
        health = HealthMonitor().check_track("gps", **inputs)
        assert "nonfinite_state" in [f.kind for f in health.flags]
        assert health.verdict == "diverged"

    def test_update_gap_includes_leading_and_trailing_stretches(self):
        inputs = _clean_track_inputs(n=500)
        # All updates bunched at the start: the filter coasts for the
        # remaining 1500 ticks = 30 s >> the 2.5 s default gap.
        inputs["n_ticks"] = 2000
        health = HealthMonitor().check_track("gps", **inputs)
        assert "update_gap" in [f.kind for f in health.flags]
        assert health.max_update_gap_s == pytest.approx((2000 - 500) * 0.02)

    def test_no_updates_at_all_is_one_long_gap(self):
        mon = HealthMonitor()
        health = mon.check_track(
            "gps",
            theta=np.zeros(300),
            variance=np.full(300, 1e-4),
            innovations=np.array([]),
            s=np.array([]),
            update_ticks=np.array([], dtype=int),
            dt=0.02,
            n_ticks=300,
        )
        assert health.n_updates == 0
        assert "update_gap" in [f.kind for f in health.flags]

    def test_variance_growth_past_prior_flags(self):
        inputs = _clean_track_inputs()
        p0 = float(inputs["variance"][0])
        inputs["variance"] = inputs["variance"].copy()
        inputs["variance"][500:] = 10.0 * p0
        health = HealthMonitor(p22_initial=p0).check_track("gps", **inputs)
        assert "variance_growth" in [f.kind for f in health.flags]
        assert health.verdict == "suspect"

    def test_ill_conditioned_final_covariance_flags(self):
        inputs = _clean_track_inputs()
        inputs["final_cov"] = (1e6, 0.0, 1e-6)  # condition number 1e12
        health = HealthMonitor().check_track("gps", **inputs)
        assert "covariance_condition" in [f.kind for f in health.flags]

    def test_indefinite_final_covariance_is_diverged(self):
        inputs = _clean_track_inputs()
        inputs["final_cov"] = (1.0, 2.0, 1.0)  # det < 0
        health = HealthMonitor().check_track("gps", **inputs)
        flags = {f.kind: f.severity for f in health.flags}
        assert flags["covariance_condition"] == "diverged"


class TestReport:
    def test_report_folds_tracks_and_inputs(self):
        mon = HealthMonitor()
        mon.check_track("gps", **_clean_track_inputs())
        bad = _clean_track_inputs(seed=1)
        bad["innovations"][:50] = np.inf
        mon.check_track("canbus", **bad)

        report = mon.report()
        assert report.verdict == "diverged"
        assert report.tracks["gps"].verdict == "ok"
        assert report.tracks["canbus"].verdict == "diverged"
        assert report.n_flags == len(report.flags) >= 1

        summary = report.summary()
        assert summary["verdict"] == "diverged"
        assert summary["tracks"] == {"canbus": "diverged", "gps": "ok"}
        json.dumps(report.to_dict())  # strict JSON

    def test_empty_report_is_ok(self):
        report = HealthReport()
        assert report.verdict == "ok"
        assert report.n_flags == 0
        assert report.flag_kinds() == []

    def test_flag_dict_drops_nonfinite_values(self):
        flag = HealthFlag(
            kind="nis", severity="diverged", source="gps",
            value=math.inf, threshold=5.0,
        )
        d = flag.to_dict()
        assert d["value"] is None
        json.dumps(d)

    def test_worst_verdict_ordering(self):
        ok = TrackHealth("a", 0, 1.0, 1.0, 5.0, 0.0, 1e-4)
        sus = TrackHealth(
            "b", 0, 1.0, 1.0, 5.0, 0.0, 1e-4,
            flags=[HealthFlag("nis", "suspect", "b", 9.0, 5.0)],
        )
        report = HealthReport(tracks={"a": ok, "b": sus})
        assert report.verdict == "suspect"


class TestTelemetryIntegration:
    def test_flags_emit_labelled_counters(self):
        tel = Telemetry("health-test")
        mon = HealthMonitor(telemetry=tel)
        inputs = _clean_track_inputs()
        inputs["innovations"][:50] = np.nan
        mon.check_track("gps", **inputs)
        key = 'health.flag{kind="nonfinite_innovation",severity="diverged"}'
        assert tel.metrics.counters[key].value == 1

    def test_clean_run_adds_no_metrics(self):
        tel = Telemetry("health-clean")
        mon = HealthMonitor(telemetry=tel)
        mon.check_track("gps", **_clean_track_inputs())
        assert tel.metrics.counters == {}


class TestInputScreen:
    def test_clean_recording_raises_no_flags(self, hill_recording):
        mon = HealthMonitor()
        assert mon.check_recording(hill_recording) == []

    def test_stuck_and_nonfinite_channels_flag(self, hill_recording):
        from dataclasses import replace as dc_replace

        sig = hill_recording.accel_long
        values = np.asarray(sig.values, dtype=float).copy()
        values[100:300] = values[100]  # 4 s frozen at 50 Hz
        values[400:410] = np.nan
        bad = dc_replace(
            hill_recording,
            accel_long=type(sig)(t=sig.t, values=values, name=sig.name),
        )
        kinds = {f.kind for f in HealthMonitor().check_recording(bad)}
        assert {"input_stuck", "input_nonfinite"} <= kinds


class TestStreamingMonitor:
    def _core(self, p11=0.04, p12=0.0, p22=1e-4, theta=0.02, v=12.0):
        class _Core:
            pass

        core = _Core()
        core.p11, core.p12, core.p22 = p11, p12, p22
        core.theta, core.v = theta, v
        return core

    def test_consistent_stream_stays_ok(self):
        rng = np.random.default_rng(0)
        mon = StreamingHealthMonitor(p22_initial=1e-3)
        core = self._core()
        for _ in range(500):
            mon.record_update(float(rng.normal(0.0, 0.2)), 0.04)
            mon.record_tick(core, updated=True)
        assert mon.verdict == "ok"
        assert mon.flags == []
        assert mon.nis_window_mean == pytest.approx(1.0, rel=0.5)

    def test_inflated_stream_diverges_once(self):
        mon = StreamingHealthMonitor()
        for _ in range(100):
            mon.record_update(5.0, 0.04)  # NIS = 625 per update
        diverged = [f for f in mon.flags if f.kind == "nis"]
        assert len(diverged) == 1
        assert diverged[0].severity == "diverged"

    def test_suspect_escalates_to_diverged_exactly_once(self):
        cfg = HealthConfig()
        bound = cfg.nis_bound()
        mon = StreamingHealthMonitor(cfg)
        for _ in range(cfg.nis_window):
            mon.record_update(math.sqrt(1.5 * bound * 0.04), 0.04)
        assert [f.severity for f in mon.flags] == ["suspect"]
        for _ in range(cfg.nis_window):
            mon.record_update(math.sqrt(10 * cfg.diverged_factor * bound * 0.04), 0.04)
        assert [f.severity for f in mon.flags if f.kind == "nis"] == [
            "suspect",
            "diverged",
        ]

    def test_update_gap_watchdog(self):
        mon = StreamingHealthMonitor(dt=0.02)
        core = self._core()
        for _ in range(200):  # 4 s without a measurement
            mon.record_tick(core, updated=False)
        assert "update_gap" in [f.kind for f in mon.flags]
        assert mon.max_gap_s == pytest.approx(4.0)

    def test_nonfinite_state_flags_diverged(self):
        mon = StreamingHealthMonitor()
        mon.record_tick(self._core(theta=math.nan), updated=True)
        assert mon.verdict == "diverged"

    def test_to_dict_is_json(self):
        mon = StreamingHealthMonitor()
        mon.record_update(0.1, 0.04)
        d = json.loads(json.dumps(mon.to_dict()))
        assert d["verdict"] == "ok"
        assert d["n_updates"] == 1
