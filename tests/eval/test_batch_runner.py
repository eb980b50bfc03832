"""Chunked evaluation: report identity across chunk sizes.

``evaluate_trips`` with ``ParallelConfig.chunk_size > 1`` runs each chunk
of the fleet through one whole-pipeline ``estimate_batch`` pass;
everything the caller can observe — per-trip scores, fused gradient,
failure records, merged worker telemetry — must be *identical* to the
one-trip-per-chunk run, on every backend, including under scenario
overrides and injected faults.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError, EstimationError
from repro.eval import ParallelConfig, RunnerConfig, evaluate_trips
from repro.faults.suite import FaultSpec, FaultSuiteConfig
from repro.obs import Telemetry
from repro.roads import SectionSpec, build_profile
from repro.scenarios import SCENARIOS

CFG = RunnerConfig(n_trips=3, seed=4)


@pytest.fixture(scope="module")
def profile():
    return build_profile(
        [
            SectionSpec.from_degrees(400.0, 2.0, 2, 4.0),
            SectionSpec.from_degrees(300.0, -1.5, 2, -5.0),
        ],
        name="batch-runner-route",
    )


@pytest.fixture(scope="module")
def serial_run(profile):
    # No telemetry: per-trip metrics snapshots are collected only when a
    # telemetry sink is active, and the identity tests run both chunkings
    # in the same (inactive) mode.
    return evaluate_trips(profile, CFG, ParallelConfig(backend="serial"))


def assert_reports_identical(a, b):
    assert a.profile_name == b.profile_name
    assert a.n_trips == b.n_trips
    assert np.array_equal(a.s_grid, b.s_grid)
    assert np.array_equal(a.truth, b.truth)
    assert np.array_equal(a.fused_theta, b.fused_theta)
    assert a.mae_deg == b.mae_deg
    assert a.mre == b.mre
    assert len(a.trips) == len(b.trips)
    for ta, tb in zip(a.trips, b.trips):
        assert (ta.index, ta.ok) == (tb.index, tb.ok)
        if ta.ok:
            assert np.array_equal(ta.theta, tb.theta)
            assert ta.mae_deg == tb.mae_deg
            assert ta.mre == tb.mre
            assert ta.n_lane_changes == tb.n_lane_changes
            assert ta.metrics == tb.metrics
            assert ta.health == tb.health


def _crash_on_one(index: int) -> None:
    """Module-level so the process backend can pickle it."""
    if index == 1:
        raise RuntimeError("injected worker crash")


class TestReportIdentity:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_matches_serial_runner_on_every_backend(
        self, profile, serial_run, backend
    ):
        report = evaluate_trips(
            profile, CFG, ParallelConfig(chunk_size=2, backend=backend)
        )
        assert_reports_identical(serial_run, report)

    def test_chunk_size_does_not_change_the_report(self, profile, serial_run):
        for chunk in (1, 2, 3, 8):
            report = evaluate_trips(
                profile, CFG, ParallelConfig(chunk_size=chunk, backend="serial")
            )
            assert_reports_identical(serial_run, report)

    def test_merged_worker_telemetry_matches(self, profile):
        serial_tel = Telemetry("serial-tel")
        evaluate_trips(
            profile, CFG, ParallelConfig(backend="serial"), telemetry=serial_tel
        )
        tel = Telemetry("batch-ref")
        evaluate_trips(
            profile, CFG, ParallelConfig(chunk_size=2, backend="serial"),
            telemetry=tel,
        )
        serial_snap = serial_tel.metrics.snapshot()["counters"]
        batch_snap = tel.metrics.snapshot()["counters"]
        assert batch_snap == serial_snap
        assert batch_snap["eval.parallel_reports"] == 1

    def test_scenario_and_faults_slice_identical(self, profile):
        faults = FaultSuiteConfig(
            faults=(
                FaultSpec(kind="nan_burst", channel="accel_long", start_s=4.0,
                          duration_s=1.0, severity=1.0),
                FaultSpec(kind="gps_dropout", start_s=12.0, duration_s=6.0,
                          severity=1.0),
            ),
            seed=9,
        )
        for scenario_name in ("suburban-commute", "highway-run"):
            cfg = RunnerConfig(
                n_trips=3,
                seed=6,
                scenario=SCENARIOS[scenario_name],
                faults=faults,
                stages=("sanitize", "alignment", "lane_change",
                        "ekf_tracks", "fusion"),
            )
            serial = evaluate_trips(profile, cfg, ParallelConfig(backend="serial"))
            batched = evaluate_trips(
                profile, cfg, ParallelConfig(chunk_size=2, backend="serial")
            )
            assert_reports_identical(serial, batched)


class TestFailureHandling:
    def test_crashed_trip_degrades_to_partial_report(self, profile, serial_run):
        serial_report = serial_run
        tel = Telemetry("batch-faulty")
        report = evaluate_trips(
            profile,
            CFG,
            ParallelConfig(chunk_size=2, backend="serial", retries=0),
            telemetry=tel,
            fault_hook=_crash_on_one,
        )
        assert report.n_failed == 1
        failed = [t for t in report.trips if not t.ok]
        assert failed[0].index == 1
        assert "injected worker crash" in failed[0].error
        # Survivors score identically to the full serial run.
        for full, partial in zip(serial_report.trips, report.trips):
            if partial.ok:
                assert partial.mae_deg == full.mae_deg
                assert np.array_equal(partial.theta, full.theta)

    def test_flaky_trip_recovered_by_inline_retry(self, profile):
        # Telemetry is active here (to observe the retry counter), so the
        # serial reference must run with telemetry too — per-trip metrics
        # snapshots are only collected when a sink is live.
        serial_report = evaluate_trips(
            profile, CFG, ParallelConfig(backend="serial"),
            telemetry=Telemetry("serial-retry-ref"),
        )

        seen: set[int] = set()

        def flaky(index: int) -> None:
            if index == 1 and index not in seen:
                seen.add(index)
                raise RuntimeError("transient failure")

        tel = Telemetry("batch-retry")
        report = evaluate_trips(
            profile,
            CFG,
            ParallelConfig(chunk_size=3, backend="serial", retries=1),
            telemetry=tel,
            fault_hook=flaky,
        )
        assert report.n_failed == 0
        assert_reports_identical(serial_report, report)
        assert tel.metrics.counter("eval.worker_retried").value == 1

    def test_all_trips_failing_raises(self, profile):
        def crash_all(index: int) -> None:
            raise RuntimeError("nothing survives")

        with pytest.raises(EstimationError, match="all .* trips failed"):
            evaluate_trips(
                profile,
                CFG,
                ParallelConfig(chunk_size=2, backend="serial", retries=0),
                fault_hook=crash_all,
            )

    def test_manifest_written(self, profile, tmp_path):
        path = tmp_path / "run" / "manifest.json"
        evaluate_trips(
            profile,
            CFG,
            ParallelConfig(chunk_size=2, backend="serial"),
            manifest_path=path,
        )
        manifest = json.loads(path.read_text())
        assert manifest["kind"] == "evaluate_trips"
        # build_manifest flattens `extra` into the top level.
        assert manifest["backend"] == "serial"
        assert manifest["chunk_size"] == 2


class TestBatchEvalConfig:
    """A chunked run is configured by ``ParallelConfig`` with
    ``chunk_size > 1``; setting a chunk size must not bypass the checks on
    the other fields, nor move their defaults."""

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="valid options"):
            ParallelConfig(chunk_size=4, backend="gpu")

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            ParallelConfig(chunk_size=4, max_workers=0)

    def test_negative_retries_rejected(self):
        with pytest.raises(ConfigurationError, match="retries"):
            ParallelConfig(chunk_size=4, retries=-1)

    def test_defaults(self):
        par = ParallelConfig(chunk_size=8)
        assert par.chunk_size == 8
        assert par.backend == "thread"
        assert par.max_workers == 4
        assert par.retries == 1
