"""TripBatch container and whole-pipeline batch-estimation tests.

The load-bearing contract: ``estimate_batch`` over a fleet must be
*bit-identical* to per-trip ``estimate`` calls — same fused gradients,
same events, same per-trip telemetry — with one bad trip isolated instead
of sinking the batch.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.core import GradientEstimationSystem
from repro.core.stages import (
    DEFAULT_STAGES,
    STAGE_REGISTRY,
    PipelineContext,
    register_stage,
    run_stage_batch,
)
from repro.core.trip_batch import BATCH_CHANNELS, BatchPipelineContext, TripBatch
from repro.errors import EstimationError
from repro.eval.runner import RunnerConfig, make_system, simulate_recordings, system_config
from repro.faults.suite import FaultSpec, FaultSuiteConfig
from repro.obs import Telemetry
from repro.roads.builder import SectionSpec, build_profile
from repro.sensors.base import SampledSignal


@pytest.fixture(scope="module")
def profile():
    return build_profile(
        [
            SectionSpec.from_degrees(350.0, 2.0, lanes=2),
            SectionSpec.from_degrees(300.0, -1.5, lanes=2, turn_deg=25.0),
            SectionSpec.from_degrees(350.0, 1.0, lanes=2),
        ],
        name="batch-test-route",
    )


@pytest.fixture(scope="module")
def fleet(profile):
    return simulate_recordings(profile, RunnerConfig(n_trips=4, seed=5))


class TestTripBatch:
    def test_padding_contract(self, fleet):
        batch = TripBatch(fleet)
        assert batch.n_trips == len(fleet)
        assert batch.max_len == max(len(r.t) for r in fleet)
        t2d = batch.t2d
        mask = batch.sample_mask
        for i, rec in enumerate(fleet):
            n = len(rec.t)
            assert np.array_equal(t2d[i, :n], rec.t)
            assert np.all(t2d[i, n:] == rec.t[-1])  # pad repeats last t
            assert mask[i, :n].all() and not mask[i, n:].any()

    def test_column_matches_signals(self, fleet):
        batch = TripBatch(fleet)
        for name in BATCH_CHANNELS:
            values, valid = batch.column(name)
            for i, rec in enumerate(fleet):
                sig = getattr(rec, name)
                m = min(len(sig.values), batch.max_len)
                assert np.array_equal(values[i, :m], sig.values[:m], equal_nan=True)
                assert np.array_equal(valid[i, :m], sig.valid[:m])
                assert np.all(values[i, m:] == 0.0)
                assert not valid[i, m:].any()

    def test_canbus_has_private_timebase(self, fleet):
        # The simulated CAN bus samples at ~1/5 the master rate, so the
        # all-channels `uniform` flag must be False while per-channel
        # gating (gyro) stays True — this is what keeps the columnar
        # alignment path live on real fleets.
        batch = TripBatch(fleet)
        assert not batch.channel_uniform("canbus").any()
        assert batch.channel_uniform("gyro").all()
        assert batch.channel_uniform("accel_long").all()
        assert not batch.uniform.any()

    def test_unknown_channel_rejected(self, fleet):
        batch = TripBatch(fleet)
        with pytest.raises(EstimationError):
            batch.column("altimeter")
        with pytest.raises(EstimationError):
            batch.channel_uniform("altimeter")

    def test_empty_batch_rejected(self):
        with pytest.raises(EstimationError):
            TripBatch([])

    def test_set_recording_refreshes_rows(self, fleet):
        batch = TripBatch(fleet)
        values_before = batch.column("accel_long")[0].copy()
        rec = fleet[0]
        bumped = dataclasses.replace(
            rec,
            accel_long=SampledSignal(
                t=rec.accel_long.t,
                values=rec.accel_long.values + 1.0,
                valid=rec.accel_long.valid,
                name=rec.accel_long.name,
                unit=rec.accel_long.unit,
            ),
        )
        batch.set_recording(0, bumped)
        assert batch.recording(0) is bumped
        values, _ = batch.column("accel_long")
        n = len(rec.accel_long.values)
        assert np.array_equal(values[0, :n], values_before[0, :n] + 1.0)
        assert np.array_equal(values[1:], values_before[1:])

    def test_set_recording_rejects_length_change(self, fleet):
        batch = TripBatch(fleet)
        rec = fleet[0]
        short = dataclasses.replace(
            rec,
            t=rec.t[:-1],
            accel_long=SampledSignal(t=rec.t[:-1], values=rec.accel_long.values[:-1]),
        )
        with pytest.raises(EstimationError):
            batch.set_recording(0, short)

    def test_from_padded_validates_shapes(self, fleet):
        batch = TripBatch(fleet)
        with pytest.raises(EstimationError):
            TripBatch.from_padded(fleet, np.zeros((1, 3)), {})
        good_t2d = batch.t2d
        with pytest.raises(EstimationError):
            TripBatch.from_padded(fleet, good_t2d, {"bogus": (good_t2d, good_t2d)})

    def test_from_padded_readonly_copy_on_write(self, fleet):
        base = TripBatch(fleet)
        t2d = base.t2d.copy()
        t2d.setflags(write=False)
        values, valid = (a.copy() for a in base.column("accel_long"))
        values.setflags(write=False)
        valid.setflags(write=False)
        batch = TripBatch.from_padded(fleet, t2d, {"accel_long": (values, valid)})
        batch.set_recording(0, fleet[0])  # must promote to writable copies
        assert batch.t2d.flags.writeable
        assert batch.column("accel_long")[0].flags.writeable
        assert not t2d.flags.writeable  # the original is untouched


def _assert_results_equal(a, b):
    assert np.array_equal(a.fused.theta, b.fused.theta)
    assert np.array_equal(a.fused.variance, b.fused.variance)
    assert np.array_equal(a.fused.s, b.fused.s)
    assert sorted(a.tracks) == sorted(b.tracks)
    for name, ta in a.tracks.items():
        assert np.array_equal(ta.theta, b.tracks[name].theta)
    assert len(a.events) == len(b.events)
    assert np.array_equal(a.aligned.w_steer, b.aligned.w_steer)


class TestEstimateBatch:
    @pytest.mark.parametrize("engine", ["batch", "scalar"])
    def test_bit_identical_to_serial(self, profile, fleet, engine, force_kernel):
        force_kernel(engine)
        cfg = system_config(RunnerConfig(n_trips=4, seed=5))
        system = GradientEstimationSystem(road_map=profile, config=cfg)
        serial = [system.estimate(r) for r in fleet]
        batched = system.estimate_batch(fleet)
        assert len(batched.results) == len(fleet)
        assert batched.errors == {}
        for s, b in zip(serial, batched.results):
            _assert_results_equal(s, b)

    @pytest.mark.parametrize("n_trips", [1, 2, 4])
    def test_bit_identical_across_kernel_threshold(
        self, profile, fleet, n_trips, monkeypatch
    ):
        # With the threshold at 8 tracks a per-trip call (4 tracks) runs
        # the scalar core while a chunk of two or more trips runs the
        # vectorized kernel; the chunk a trip lands in must not matter.
        import repro.core.batch as batch_mod

        monkeypatch.setattr(batch_mod, "BATCH_MIN_TRACKS", 8)
        system = make_system(profile, RunnerConfig(n_trips=4, seed=5))
        chunk = fleet[:n_trips]
        serial = [system.estimate(r) for r in chunk]
        batched = system.estimate_batch(chunk)
        want_engine = "scalar" if 4 * n_trips < 8 else "batch"
        for s, b in zip(serial, batched.results):
            _assert_results_equal(s, b)
            for name, track in s.tracks.items():
                assert track.meta["engine"] == "scalar"
                assert b.tracks[name].meta["engine"] == want_engine
                assert np.array_equal(track.variance, b.tracks[name].variance)
                assert np.array_equal(track.v, b.tracks[name].v)
            assert s.health == b.health

    def test_bit_identical_under_faults_and_robust_stages(self, profile):
        faults = FaultSuiteConfig(
            faults=(
                FaultSpec(kind="nan_burst", channel="accel_long", start_s=5.0,
                          duration_s=1.0, severity=1.0),
                FaultSpec(kind="gps_dropout", start_s=10.0, duration_s=8.0,
                          severity=1.0),
            ),
            seed=7,
        )
        cfg = RunnerConfig(n_trips=3, seed=2, faults=faults,
                           stages=("sanitize", "alignment", "lane_change",
                                   "ekf_tracks", "fusion"))
        recs = simulate_recordings(profile, cfg)
        system = make_system(profile, cfg)
        serial = [system.estimate(r) for r in recs]
        batched = system.estimate_batch(recs)
        for s, b in zip(serial, batched.results):
            _assert_results_equal(s, b)

    def test_per_trip_telemetry_matches_serial(self, profile, fleet):
        cfg = RunnerConfig(n_trips=4, seed=5)
        serial_snaps = []
        for i, rec in enumerate(fleet):
            tel = Telemetry(f"trip-{i}")
            make_system(profile, cfg, telemetry=tel).estimate(rec)
            serial_snaps.append(tel.metrics.snapshot())
        tels = [Telemetry(f"trip-{i}") for i in range(len(fleet))]
        make_system(profile, cfg).estimate_batch(fleet, telemetries=tels)
        for want, tel in zip(serial_snaps, tels):
            assert tel.metrics.snapshot() == want

    def test_failure_isolated(self, profile, fleet):
        rec = fleet[1]
        broken = dataclasses.replace(
            rec,
            gyro=SampledSignal(t=rec.gyro.t[:1], values=rec.gyro.values[:1]),
        )
        recs = [fleet[0], broken, fleet[2], fleet[3]]
        tel = Telemetry("batch-failures")
        system = make_system(profile, RunnerConfig(n_trips=4, seed=5), telemetry=tel)
        batched = system.estimate_batch(recs)
        assert set(batched.errors) == {1}
        assert batched.results[1] is None
        serial = [system.estimate(r) for r in (fleet[0], fleet[2], fleet[3])]
        for s, b in zip(serial, [batched.results[0], batched.results[2], batched.results[3]]):
            _assert_results_equal(s, b)
        snap = tel.metrics.snapshot()
        assert snap["counters"].get("pipeline.batch.trip_failed") == 1

    def test_ekf_failure_isolated_on_scalar_route(self, profile, fleet, monkeypatch):
        # Four trips (16 tracks) sit below the vectorized threshold, so a
        # trip whose EKF raises must fail alone, with every other trip's
        # result and telemetry as in a serial run.
        import repro.core.batch as batch_mod

        cfg = RunnerConfig(n_trips=4, seed=5)
        serial, serial_snaps = [], []
        for rec in fleet:
            tel = Telemetry("trip")
            serial.append(make_system(profile, cfg, telemetry=tel).estimate(rec))
            serial_snaps.append(tel.metrics.snapshot())

        bad_accel = fleet[1].accel_long.values
        real = batch_mod.estimate_track

        def flaky(accel, *args, **kwargs):
            if np.array_equal(accel.values, bad_accel):
                raise EstimationError("boom")
            return real(accel, *args, **kwargs)

        monkeypatch.setattr(batch_mod, "estimate_track", flaky)
        tels = [Telemetry("trip") for _ in fleet]
        batched = make_system(profile, cfg).estimate_batch(fleet, telemetries=tels)
        assert set(batched.errors) == {1}
        for i in (0, 2, 3):
            _assert_results_equal(serial[i], batched.results[i])
            assert tels[i].metrics.snapshot() == serial_snaps[i]

    @pytest.mark.parametrize("fill", [1e300, np.inf])
    def test_ekf_overflow_isolated_on_vectorized_route(self, profile, fill):
        # Six trips (24 tracks) run as one vectorized call. A 1e300 accel
        # burst overflows one trip's filter and the scalar core raises
        # ValueError on it; an inf burst only poisons that trip's tracks.
        # Either way every other trip's result and telemetry must match a
        # serial run, and only an overflowing trip may fail.
        import repro.core.batch as batch_mod

        cfg = RunnerConfig(n_trips=6, seed=5)
        recs = simulate_recordings(profile, cfg)
        accel = recs[2].accel_long
        values = accel.values.copy()
        values[500:505] = fill
        recs[2] = dataclasses.replace(
            recs[2], accel_long=dataclasses.replace(accel, values=values)
        )
        assert 4 * len(recs) >= batch_mod.BATCH_MIN_TRACKS

        serial, serial_snaps = [], []
        for rec in recs:
            tel = Telemetry("trip")
            try:
                serial.append(make_system(profile, cfg, telemetry=tel).estimate(rec))
            except ValueError:
                serial.append(None)
            serial_snaps.append(tel.metrics.snapshot())
        assert (serial[2] is None) == (fill == 1e300)

        tels = [Telemetry("trip") for _ in recs]
        with np.errstate(all="ignore"):
            batched = make_system(profile, cfg).estimate_batch(recs, telemetries=tels)
        assert set(batched.errors) == ({2} if serial[2] is None else set())
        for i, (s, b) in enumerate(zip(serial, batched.results)):
            # NaN-equal: the bad trip's snapshot holds NaN gauges.
            assert json.dumps(tels[i].metrics.snapshot(), sort_keys=True) == json.dumps(
                serial_snaps[i], sort_keys=True
            )
            if s is None:
                assert b is None
                assert isinstance(batched.errors[i], ValueError)
                continue
            assert np.array_equal(s.fused.theta, b.fused.theta, equal_nan=True)
            assert sorted(s.tracks) == sorted(b.tracks)
            for name, track in s.tracks.items():
                for field in ("theta", "variance", "v"):
                    assert np.array_equal(
                        getattr(track, field), getattr(b.tracks[name], field),
                        equal_nan=True,
                    )
            assert s.health == b.health
            # After a raise the healthy trips were retried one per call.
            want = "scalar" if serial[2] is None else "batch"
            if i != 2:
                assert {t.meta["engine"] for t in b.tracks.values()} == {want}

    @pytest.mark.parametrize("fill", [1e300, np.inf])
    def test_ekf_overflow_in_a_tail_isolated(self, profile, fill):
        # Eight trips (32 tracks) run as one vectorized call that steps
        # the vector loop only while BATCH_MIN_TRACKS tracks are live; the
        # longest trip finishes on scalar tails. A burst there, after the
        # vector loop stopped, must leave every other trip's result and
        # telemetry as in a serial run (no sink counted twice), and only
        # an overflowing trip may fail.
        import repro.core.batch as batch_mod

        cfg = RunnerConfig(n_trips=8, seed=5)
        recs = simulate_recordings(profile, cfg)
        lengths = [len(rec.t) for rec in recs]
        track_lengths = sorted(n for n in lengths for _ in range(4))  # 4 sources
        h = track_lengths[len(track_lengths) - batch_mod.BATCH_MIN_TRACKS]
        bad = int(np.argmax(lengths))
        assert lengths[bad] > h + 10
        accel = recs[bad].accel_long
        values = accel.values.copy()
        values[h + 5 : h + 10] = fill
        recs[bad] = dataclasses.replace(
            recs[bad], accel_long=dataclasses.replace(accel, values=values)
        )

        serial, serial_snaps = [], []
        for rec in recs:
            tel = Telemetry("trip")
            try:
                with np.errstate(all="ignore"):
                    serial.append(make_system(profile, cfg, telemetry=tel).estimate(rec))
            except ValueError:
                serial.append(None)
            serial_snaps.append(tel.metrics.snapshot())
        assert (serial[bad] is None) == (fill == 1e300)

        tels = [Telemetry("trip") for _ in recs]
        with np.errstate(all="ignore"):
            batched = make_system(profile, cfg).estimate_batch(recs, telemetries=tels)
        assert set(batched.errors) == ({bad} if serial[bad] is None else set())
        for i, (s, b) in enumerate(zip(serial, batched.results)):
            assert json.dumps(tels[i].metrics.snapshot(), sort_keys=True) == json.dumps(
                serial_snaps[i], sort_keys=True
            )
            if s is None:
                assert b is None
                continue
            assert np.array_equal(s.fused.theta, b.fused.theta, equal_nan=True)
            assert sorted(s.tracks) == sorted(b.tracks)
            for name, track in s.tracks.items():
                for field in ("theta", "variance", "v"):
                    assert np.array_equal(
                        getattr(track, field), getattr(b.tracks[name], field),
                        equal_nan=True,
                    )
            assert s.health == b.health

    def test_telemetries_length_validated(self, profile, fleet):
        system = make_system(profile, RunnerConfig(n_trips=4, seed=5))
        with pytest.raises(EstimationError):
            system.estimate_batch(fleet, telemetries=[None])

    def test_empty_rejected(self, profile):
        system = make_system(profile, RunnerConfig(n_trips=1, seed=0))
        with pytest.raises(EstimationError):
            system.estimate_batch([])


class TestRunStageBatch:
    def test_stage_without_run_batch_falls_back_to_run(self, profile, fleet):
        calls = []

        class TracingStage:
            name = "tracing"

            def run(self, ctx):
                calls.append(id(ctx))
                return ctx

        cfg = system_config(RunnerConfig(n_trips=4, seed=5))
        system = GradientEstimationSystem(road_map=profile, config=cfg)
        contexts = system.estimate_batch(fleet)  # warm path for comparison
        assert contexts.errors == {}

        batch = TripBatch(fleet)
        bctx = BatchPipelineContext(
            batch=batch,
            contexts=[object() for _ in fleet],
            config=cfg,
            road_map=profile,
            vehicle=system.vehicle,
        )
        run_stage_batch(TracingStage(), bctx)
        assert len(calls) == len(fleet)  # looped the scalar run() per trip

    def test_fallback_keeps_the_context_run_returns(self, profile, fleet):
        # A stage may hand back a new context instead of mutating the one
        # it got; later stages and the result must see the returned one.
        class RenamingStage:
            name = "renaming"

            def run(self, ctx):
                fused = dataclasses.replace(ctx.fused, name="renamed")
                return dataclasses.replace(ctx, fused=fused)

        register_stage("renaming", lambda system: RenamingStage())
        try:
            cfg = dataclasses.replace(
                system_config(RunnerConfig(n_trips=4, seed=5)),
                stages=DEFAULT_STAGES + ("renaming",),
            )
            system = GradientEstimationSystem(road_map=profile, config=cfg)
            batched = system.estimate_batch(fleet[:2])
        finally:
            del STAGE_REGISTRY["renaming"]
        assert batched.errors == {}
        assert [r.fused.name for r in batched.results] == ["renamed", "renamed"]

    def test_fallback_isolates_per_trip_crashes(self, profile, fleet):
        class ExplodingStage:
            name = "exploding"

            def run(self, ctx):
                raise EstimationError("boom")

        cfg = system_config(RunnerConfig(n_trips=4, seed=5))
        tels = [Telemetry(f"explode-{i}") for i in range(len(fleet))]
        bctx = BatchPipelineContext(
            batch=TripBatch(fleet),
            contexts=[
                PipelineContext(
                    recording=rec, config=cfg, road_map=profile, vehicle=None,
                    telemetry=tel,
                )
                for rec, tel in zip(fleet, tels)
            ],
            config=cfg,
            road_map=profile,
            vehicle=None,
        )
        run_stage_batch(ExplodingStage(), bctx)
        assert set(bctx.failed) == set(range(len(fleet)))
        assert bctx.n_live == 0
        # Each failure is counted on its own trip's telemetry.
        for tel in tels:
            assert tel.metrics.counter("pipeline.batch.trip_failed").value == 1
