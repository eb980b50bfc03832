"""Parallel evaluation runner: backend equivalence and fault tolerance.

Two contracts are pinned:

1. the ``serial``, ``thread`` and ``process`` backends produce the
   *identical* report — fused gradient, per-trip scores and merged
   telemetry — because trips are seeded by ``(seed, index)`` alone and
   merged in index order;
2. a crashing worker degrades the run to a partial report (failed trip
   recorded, ``eval.worker_failed`` counter incremented) instead of
   raising; only an all-trips-failed run raises.
"""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from repro.core.stages import DEFAULT_STAGES, STAGE_REGISTRY, register_stage
from repro.errors import ConfigurationError, EstimationError
from repro.eval import (
    EvalReport,
    ParallelConfig,
    RunnerConfig,
    collect_recordings,
    evaluate_trips,
    simulate_recording,
)
from repro.obs import Telemetry
from repro.roads import SectionSpec, build_profile

CFG = RunnerConfig(n_trips=3, seed=4)


@pytest.fixture(scope="module")
def profile():
    return build_profile(
        [
            SectionSpec.from_degrees(400.0, 2.0, 2, 4.0),
            SectionSpec.from_degrees(300.0, -1.5, 2, -5.0),
        ],
        name="parallel-route",
    )


@pytest.fixture(scope="module")
def serial_run(profile):
    tel = Telemetry("serial")
    report = evaluate_trips(
        profile, CFG, ParallelConfig(backend="serial"), telemetry=tel
    )
    return report, tel


def _crash_on_one(index: int) -> None:
    """Module-level so the process backend can pickle it."""
    if index == 1:
        raise RuntimeError("injected worker crash")


def _crash_always(index: int) -> None:
    raise RuntimeError("nothing survives")


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_report_matches_serial(self, profile, serial_run, backend):
        serial_report, serial_tel = serial_run
        tel = Telemetry(backend)
        report = evaluate_trips(
            profile,
            CFG,
            ParallelConfig(backend=backend, max_workers=2),
            telemetry=tel,
        )
        assert np.array_equal(report.fused_theta, serial_report.fused_theta)
        assert np.array_equal(report.truth, serial_report.truth)
        assert np.array_equal(report.s_grid, serial_report.s_grid)
        assert report.summary() == serial_report.summary()
        # Merged worker telemetry reproduces the serial registry exactly.
        assert tel.metrics.snapshot() == serial_tel.metrics.snapshot()

    def test_trips_are_deterministic_out_of_order(self, profile):
        # The per-trip helper depends on (seed, index) alone, so building
        # trip 2 before trip 0 changes nothing — the property the pool
        # relies on when completion order is arbitrary.
        _, rec_late = simulate_recording(profile, CFG, 2)
        recs = collect_recordings(profile, CFG)
        assert np.array_equal(recs[2][1].accel_long.values, rec_late.accel_long.values)
        assert np.array_equal(
            recs[2][1].gps.speed, rec_late.gps.speed, equal_nan=True
        )

    def test_report_structure(self, serial_run):
        report, _ = serial_run
        assert isinstance(report, EvalReport)
        assert report.n_trips == CFG.n_trips
        assert report.n_failed == 0
        assert len(report.trips) == CFG.n_trips
        assert [t.index for t in report.trips] == list(range(CFG.n_trips))
        assert np.isfinite(report.mae_deg)
        assert np.isfinite(report.fused_theta).all()
        # The fused multi-trip estimate should track the reference.
        assert report.mae_deg < 1.0

    def test_summary_is_json_serialisable(self, serial_run):
        report, _ = serial_run
        decoded = json.loads(json.dumps(report.summary()))
        assert decoded["n_trips"] == CFG.n_trips
        assert len(decoded["trips"]) == CFG.n_trips

    def test_worker_telemetry_counters_merged(self, serial_run):
        _, tel = serial_run
        snap = tel.metrics.snapshot()["counters"]
        # Per-worker pipeline counters surface in the parent registry.
        assert snap["pipeline.estimates"] == CFG.n_trips
        assert snap["ekf_ticks"] > 0
        assert snap["eval.parallel_reports"] == 1


class TestFaultTolerance:
    def test_worker_crash_degrades_to_partial_report(self, profile):
        tel = Telemetry("faulty")
        report = evaluate_trips(
            profile,
            CFG,
            ParallelConfig(backend="thread"),
            telemetry=tel,
            fault_hook=_crash_on_one,
        )
        assert report.n_failed == 1
        assert tel.metrics.counter("eval.worker_failed").value == 1
        failed = [t for t in report.trips if not t.ok]
        assert len(failed) == 1
        assert failed[0].index == 1
        assert "injected worker crash" in failed[0].error
        assert np.isfinite(report.mae_deg)

    def test_partial_report_fuses_survivors_only(self, profile, serial_run):
        serial_report, _ = serial_run
        report = evaluate_trips(
            profile, CFG, ParallelConfig(backend="serial"), fault_hook=_crash_on_one
        )
        # Surviving trips carry the same per-trip scores as the full run.
        for full, partial in zip(serial_report.trips, report.trips):
            if partial.ok:
                assert partial.mae_deg == full.mae_deg
                assert np.array_equal(partial.theta, full.theta)
        assert report.n_failed == 1

    def test_all_workers_failing_raises(self, profile):
        with pytest.raises(EstimationError, match="all .* trips failed"):
            evaluate_trips(
                profile,
                CFG,
                ParallelConfig(backend="thread"),
                fault_hook=_crash_always,
            )


class _FlakyOnce:
    """Crashes the first attempt per trip index, succeeds after — the
    environmental-failure shape retries exist for."""

    def __init__(self, index: int = 1) -> None:
        self.index = index
        self.seen: set[int] = set()

    def __call__(self, index: int) -> None:
        if index == self.index and index not in self.seen:
            self.seen.add(index)
            raise RuntimeError("transient failure")


class TestRetries:
    def test_flaky_trip_recovered_by_retry(self, profile, serial_run):
        serial_report, _ = serial_run
        tel = Telemetry("retry")
        report = evaluate_trips(
            profile,
            CFG,
            ParallelConfig(backend="serial"),
            telemetry=tel,
            fault_hook=_FlakyOnce(index=1),
        )
        assert report.n_failed == 0
        assert tel.metrics.counter("eval.worker_retried").value == 1
        assert tel.metrics.counter("eval.worker_failed").value == 0
        # The retried trip is deterministic, so the recovered report is the
        # clean run's report.
        assert report.summary() == serial_report.summary()
        assert np.array_equal(report.fused_theta, serial_report.fused_theta)

    def test_deterministic_crash_still_fails_after_retry(self, profile):
        tel = Telemetry("retry-fails")
        report = evaluate_trips(
            profile,
            CFG,
            ParallelConfig(backend="thread"),
            telemetry=tel,
            fault_hook=_crash_on_one,
        )
        assert report.n_failed == 1
        assert tel.metrics.counter("eval.worker_retried").value == 1
        assert tel.metrics.counter("eval.worker_failed").value == 1

    def test_retries_zero_disables_recovery(self, profile):
        tel = Telemetry("no-retry")
        report = evaluate_trips(
            profile,
            CFG,
            ParallelConfig(backend="serial", retries=0),
            telemetry=tel,
            fault_hook=_FlakyOnce(index=1),
        )
        assert report.n_failed == 1
        assert tel.metrics.counter("eval.worker_retried").value == 0


class _FailOnTrips:
    """A stage that raises on the trips whose telemetry carries one of
    ``names`` (evaluate_trips names each trip's ``eval-trip-<index>``)."""

    name = "fail_on_trips"

    def __init__(self, names: set[str]) -> None:
        self.names = names

    def run(self, ctx):
        if ctx.telemetry.name in self.names:
            raise EstimationError(f"injected failure on {ctx.telemetry.name}")
        return ctx


class _EventCapture(logging.Handler):
    """Collects the structured fields of every event a logger emits."""

    def __init__(self) -> None:
        super().__init__()
        self.events: list[tuple[str, dict]] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.events.append((record.getMessage(), getattr(record, "fields", {})))


@pytest.fixture
def failing_trips():
    """RunnerConfig whose pipeline fails trips 1 and 2 after fusion."""
    register_stage(
        "fail_on_trips", lambda system: _FailOnTrips({"eval-trip-1", "eval-trip-2"})
    )
    try:
        yield RunnerConfig(n_trips=4, seed=4, stages=DEFAULT_STAGES + ("fail_on_trips",))
    finally:
        del STAGE_REGISTRY["fail_on_trips"]


class TestPipelineFailureTelemetry:
    def test_failed_trips_telemetry_merged(self, profile, failing_trips):
        clean = Telemetry("clean")
        evaluate_trips(
            profile,
            RunnerConfig(n_trips=4, seed=4),
            ParallelConfig(backend="serial"),
            telemetry=clean,
        )
        tel = Telemetry("pipeline-failures")
        report = evaluate_trips(
            profile, failing_trips, ParallelConfig(backend="serial"), telemetry=tel
        )
        assert [t.ok for t in report.trips] == [True, False, False, True]
        counters = tel.metrics.snapshot()["counters"]
        # Each failed trip is merged once, from its last (retried) attempt.
        assert counters["eval.worker_retried"] == 2
        assert counters["eval.worker_failed"] == 2
        assert counters["pipeline.batch.trip_failed"] == 2
        # The failing stage runs after the EKF, so all four trips count.
        assert counters["ekf_ticks"] == clean.metrics.snapshot()["counters"]["ekf_ticks"]

    @pytest.mark.parametrize(
        "chunk_size, positions", [(1, {1: 0, 2: 0}), (3, {1: 1, 2: 2})]
    )
    def test_trip_failed_event_logs_batch_position(
        self, profile, failing_trips, chunk_size, positions
    ):
        captures = {}
        for index in positions:
            captures[index] = _EventCapture()
            logging.getLogger(f"repro.obs.eval-trip-{index}").addHandler(captures[index])
        try:
            evaluate_trips(
                profile,
                failing_trips,
                ParallelConfig(backend="serial", chunk_size=chunk_size, retries=0),
                telemetry=Telemetry(f"positions-{chunk_size}"),
            )
        finally:
            for index, capture in captures.items():
                logging.getLogger(f"repro.obs.eval-trip-{index}").removeHandler(capture)
        for index, want in positions.items():
            [fields] = [
                f for name, f in captures[index].events
                if name == "pipeline.batch.trip_failed"
            ]
            assert fields["batch_position"] == want
            assert "position" not in fields


class TestParallelConfig:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="valid options"):
            ParallelConfig(backend="gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(max_workers=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            ParallelConfig(retries=-1)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError, match="chunks"):
            ParallelConfig(chunk_size=0)

    def test_defaults(self):
        par = ParallelConfig()
        assert par.backend == "thread"
        assert par.max_workers == 4
        assert par.retries == 1
        assert par.chunk_size == 1

    def test_spec_round_trip(self):
        par = ParallelConfig(chunk_size=4, backend="serial")
        assert ParallelConfig.from_dict(par.to_dict()) == par


class TestConfigTransport:
    """Workers receive the run config as a plain spec dict, not a pickled
    object — the contract a distributed deployment would rely on."""

    def test_spec_round_trip_rebuilds_equal_config(self):
        spec = CFG.to_dict()
        assert isinstance(spec, dict)
        json.dumps(spec)  # must be wire-ready
        assert RunnerConfig.from_dict(spec) == CFG

    def test_worker_rebuilds_system_from_spec(self, profile, serial_run):
        # Drive the actual worker body with a spec that went through JSON —
        # exactly what a remote worker would receive — and check the trip
        # outcome matches the in-process run.
        from repro.eval.parallel import _run_chunk
        from repro.eval.runner import _common_grid
        from repro.roads import survey_reference_profile

        serial_report, _ = serial_run
        spec = json.loads(json.dumps(CFG.to_dict()))
        reference = survey_reference_profile(profile).smoothed(CFG.reference_smooth_m)
        s_grid = _common_grid(profile, CFG)
        truth = np.asarray(reference.gradient_at(s_grid), dtype=float)
        [outcome], spans = _run_chunk(profile, spec, (0,), s_grid, truth, False, None)
        assert spans == []  # telemetry off: no span trees ship
        assert outcome.ok
        baseline = serial_report.trips[0]
        assert outcome.mae_deg == baseline.mae_deg
        assert outcome.mre == baseline.mre
        assert np.array_equal(outcome.theta, baseline.theta)

    def test_bad_spec_fails_loudly_in_worker(self, profile):
        from repro.eval.parallel import _guarded_chunk

        grid = np.arange(0.0, 100.0, 5.0)
        truth = np.zeros_like(grid)
        bad_spec = {**CFG.to_dict(), "warp_factor": 9}
        outcomes, spans = _guarded_chunk((profile, bad_spec, (0, 1), grid, truth, False, None))
        assert spans == []
        assert [o.index for o in outcomes] == [0, 1]
        for outcome in outcomes:
            assert not outcome.ok
            assert "warp_factor" in outcome.error
