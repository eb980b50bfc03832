"""Telemetry facade, structured logging, and pipeline-integration tests.

The critical guarantees: the span tree covers the four paper stages with
real timings and counters, ``NullTelemetry`` leaves pipeline outputs
bit-identical, metrics reset between runs, and the streaming estimator
keeps its batch-engine parity with telemetry attached.
"""

import io
import json

import numpy as np
import pytest

from repro.constants import GRAVITY
from repro.core.gradient_ekf import GradientEKFConfig, estimate_track
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.online import StreamingGradientEstimator
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.obs import (
    ENV_SWITCH,
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    export_run,
    from_env,
    get_logger,
    log_format,
    telemetry_enabled,
)
from repro.core.lane_change.features import LaneChangeThresholds
from repro.sensors.base import SampledSignal

TH = LaneChangeThresholds(delta=0.05, duration=0.5)

PIPELINE_STAGES = ["alignment", "lane_change", "ekf_tracks", "fusion"]


def _system(profile, telemetry=None):
    cfg = GradientSystemConfig(detector=LaneChangeDetectorConfig(thresholds=TH))
    return GradientEstimationSystem(profile, config=cfg, telemetry=telemetry)


class TestPipelineTelemetry:
    def test_estimate_produces_four_stage_span_tree(self, hill_profile, hill_recording):
        tel = Telemetry("pipeline-test")
        result = _system(hill_profile, tel).estimate(hill_recording)

        root = tel.tracer.find("estimate")
        assert root is not None
        assert [c.name for c in root.children] == PIPELINE_STAGES
        assert all(c.duration > 0.0 for c in root.children)
        # One child span per velocity source under the EKF stage.
        sources = [c.attributes["source"] for c in root.find("ekf_tracks").children]
        assert sources == list(result.tracks)

        counters = tel.metrics.counters
        assert counters["ekf_ticks"].value == 4 * len(hill_recording.gyro.t)
        assert counters["fusion_tracks_in"].value == 4
        assert counters["pipeline.estimates"].value == 1
        assert counters["lane_changes_detected"].value == result.n_lane_changes
        assert tel.metrics.histogram("ekf_innovation_abs").count > 0

    def test_export_round_trips_through_json(self, hill_profile, hill_recording):
        tel = Telemetry("export-test")
        _system(hill_profile, tel).estimate(hill_recording)

        dump = export_run(tel)
        decoded = json.loads(json.dumps(dump))
        assert decoded["name"] == "export-test"
        assert decoded["spans"][0]["name"] == "estimate"
        assert [c["name"] for c in decoded["spans"][0]["children"]] == PIPELINE_STAGES
        assert all(c["cpu_s"] >= 0.0 for c in decoded["spans"][0]["children"])
        assert decoded["metrics"]["counters"]["fusion_tracks_in"] == 4
        assert decoded["metrics"]["counters"]["ekf_ticks"] > 0

    def test_null_telemetry_output_bit_identical(self, hill_profile, hill_recording):
        plain = _system(hill_profile).estimate(hill_recording)
        null = _system(hill_profile, NullTelemetry()).estimate(hill_recording)
        live = _system(hill_profile, Telemetry("identical")).estimate(hill_recording)

        for a, b in ((plain, null), (plain, live)):
            assert np.array_equal(a.fused.theta, b.fused.theta)
            assert np.array_equal(a.fused.variance, b.fused.variance)
            for source in a.tracks:
                assert np.array_equal(a.tracks[source].theta, b.tracks[source].theta)
        assert len(plain.events) == len(null.events) == len(live.events)

    def test_null_telemetry_records_nothing(self, hill_profile, hill_recording):
        tel = NullTelemetry()
        _system(hill_profile, tel).estimate(hill_recording)
        assert tel.tracer.roots == []
        assert tel.metrics.counters == {}

    def test_counters_reset_between_runs(self, hill_profile, hill_recording):
        tel = Telemetry("reset-test")
        system = _system(hill_profile, tel)
        system.estimate(hill_recording)
        first = tel.metrics.counter("ekf_ticks").value
        assert first > 0

        tel.reset()
        assert tel.metrics.counter("ekf_ticks").value == 0
        assert tel.tracer.roots == []

        system.estimate(hill_recording)
        assert tel.metrics.counter("ekf_ticks").value == first
        assert tel.metrics.counter("pipeline.estimates").value == 1


class TestStreamingTelemetry:
    def _synthetic(self, n=1500, seed=3, dt=0.02):
        rng = np.random.default_rng(seed)
        accel = GRAVITY * np.sin(0.04) + rng.normal(0.0, 0.05, n)
        v_meas = 12.0 + rng.normal(0.0, 0.05, n)
        return accel, v_meas, dt

    def test_batch_parity_holds_with_telemetry_attached(self):
        accel, v_meas, dt = self._synthetic()
        t = np.arange(len(accel)) * dt
        track = estimate_track(
            SampledSignal(t=t, values=accel, name="accelerometer"),
            SampledSignal(t=t, values=v_meas, name="speedometer"),
            12.0 * t,
            config=GradientEKFConfig(measurement_std={"speedometer": 0.2}),
        )
        tel = Telemetry("stream-parity")
        est = StreamingGradientEstimator(
            dt=dt, measurement_std=0.2, v0=float(v_meas[0]), telemetry=tel
        )
        theta_stream = est.run(accel, v_meas)
        assert np.allclose(theta_stream, track.theta, atol=1e-12)
        assert tel.metrics.counter("stream.ticks").value == len(accel)
        assert tel.metrics.counter("stream.updates").value == len(accel)

    def test_prediction_only_ticks_counted_separately(self):
        tel = Telemetry("stream-counters")
        est = StreamingGradientEstimator(dt=0.02, v0=10.0, telemetry=tel)
        for i in range(100):
            est.push(0.1, 10.0 if i % 10 == 0 else None)
        assert tel.metrics.counter("stream.ticks").value == 100
        assert tel.metrics.counter("stream.updates").value == 10

    def test_nan_guard_event_fires_once(self):
        stream = io.StringIO()
        logger = get_logger("test.stream.nan", stream=stream, fmt="kv")
        tel = Telemetry("stream-nan", logger=logger)
        est = StreamingGradientEstimator(dt=0.02, v0=10.0, telemetry=tel)
        for _ in range(5):
            est.push(float("nan"), None)
        assert tel.metrics.counter("stream.nonfinite_guard").value == 5
        lines = [l for l in stream.getvalue().splitlines() if "stream.divergence" in l]
        assert len(lines) == 1  # one-shot event, not one per tick
        assert "reason=nonfinite" in lines[0]

    def test_disabled_telemetry_stores_no_observer(self):
        est_none = StreamingGradientEstimator(dt=0.02, v0=10.0)
        est_null = StreamingGradientEstimator(
            dt=0.02, v0=10.0, telemetry=NullTelemetry()
        )
        # The hot path must see the identical `None` fast-path either way.
        assert est_none._obs is None
        assert est_null._obs is None


class TestLoggingAndEnvSwitch:
    def test_key_value_formatter(self):
        stream = io.StringIO()
        logger = get_logger("test.obs.kv", stream=stream, fmt="kv")
        logger.info("my.event", extra={"fields": {"count": 3, "note": "two words"}})
        line = stream.getvalue().strip()
        assert "event=my.event" in line
        assert "count=3" in line
        assert 'note="two words"' in line

    def test_jsonl_formatter(self):
        stream = io.StringIO()
        logger = get_logger("test.obs.json", stream=stream, fmt="json")
        logger.info("my.event", extra={"fields": {"count": 3}})
        record = json.loads(stream.getvalue().strip())
        assert record["event"] == "my.event"
        assert record["count"] == 3
        assert record["level"] == "info"

    def test_get_logger_idempotent(self):
        a = get_logger("test.obs.idempotent")
        b = get_logger("test.obs.idempotent")
        assert a is b
        assert len(a.handlers) == 1

    @pytest.mark.parametrize(
        "value,enabled,fmt",
        [
            (None, False, "kv"),
            ("0", False, "kv"),
            ("false", False, "kv"),
            ("1", True, "kv"),
            ("kv", True, "kv"),
            ("json", True, "json"),
        ],
    )
    def test_env_switch(self, monkeypatch, value, enabled, fmt):
        if value is None:
            monkeypatch.delenv(ENV_SWITCH, raising=False)
        else:
            monkeypatch.setenv(ENV_SWITCH, value)
        assert telemetry_enabled() is enabled
        assert log_format() == fmt

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(ENV_SWITCH, raising=False)
        assert from_env() is NULL_TELEMETRY
        monkeypatch.setenv(ENV_SWITCH, "1")
        tel = from_env("envtest")
        assert isinstance(tel, Telemetry)
        assert tel.active
        assert not isinstance(tel, NullTelemetry)

    def test_null_telemetry_event_and_span_are_noops(self):
        tel = NullTelemetry()
        with tel.span("anything", attr=1) as span:
            span.set(more=2)
            tel.event("ignored", value=3)
            tel.count("ignored")
            tel.observe("ignored", 1.0)
        assert export_run(tel) == {
            "name": "null",
            "active": False,
            "spans": [],
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        }
