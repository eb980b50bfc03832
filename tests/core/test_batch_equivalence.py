"""EKF kernel equivalence: the vectorized kernel == the scalar core, bit for bit.

:func:`repro.core.batch.estimate_tracks_batch` routes each call to the
scalar core (:func:`~repro.core.gradient_ekf.estimate_track`) or to the
vectorized tick loop by track count. The two associate every product the
same way, so this suite pins *exact* equality — states, covariances,
innovations, counters and health verdicts — across both process models,
ragged lengths, shared measurement gaps, the theta clamp and the cos
floor, plus the routing itself and a routes x noise-seeds x lane-change
matrix through the full pipeline, including the total-GPS-outage fixture.
A property test draws ragged mixed-rate batches on top of the fixed seeds.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.core.batch import (
    BATCH_MIN_TRACKS,
    _estimate_tracks_vectorized,
    estimate_tracks_batch,
)
from repro.core.gradient_ekf import PROCESS_MODELS, GradientEKFConfig, estimate_track
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.pipeline import GradientEstimationSystem, GradientSystemConfig
from repro.errors import DegradedInputError, EstimationError
from repro.obs import Telemetry
from repro.obs.health import HealthMonitor
from repro.roads import SectionSpec, build_profile
from repro.sensors import Smartphone
from repro.sensors.base import SampledSignal
from repro.sensors.phone import VELOCITY_SOURCES
from repro.vehicle import DriverProfile, simulate_trip

TH = LaneChangeThresholds(delta=0.05, duration=0.5)
PROCESSES = list(PROCESS_MODELS)

# -- direct kernel API -------------------------------------------------------


def _synthetic_track(
    n: int,
    dt: float,
    seed: int,
    source: str = "speedometer",
    meas_stride: int = 1,
    theta: float = 0.03,
) -> tuple[SampledSignal, SampledSignal, np.ndarray]:
    """One (accel, velocity, arc_length) input triple for the kernels."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) * dt
    accel = SampledSignal(
        t=t,
        values=GRAVITY * np.sin(theta) + rng.normal(0.0, 0.08, n),
        name="accel-long",
    )
    values = 12.0 + rng.normal(0.0, 0.1, n)
    if meas_stride > 1:
        sparse = np.full(n, np.nan)
        sparse[::meas_stride] = values[::meas_stride]
        values = sparse
    velocity = SampledSignal(t=t, values=values, name=source)
    return accel, velocity, 12.0 * t


def _mixed_batch(seed: int):
    """Four tracks with mixed lengths, sources and measurement sparsity."""
    specs = [
        ("gps-speed", 1400, 50),  # GPS-like: one fix per second
        ("speedometer", 1500, 1),
        ("canbus", 1200, 5),
        ("accelerometer-velocity", 900, 1),
    ]
    accels, velocities, arcs = [], [], []
    for j, (source, n, stride) in enumerate(specs):
        a, v, s = _synthetic_track(
            n, 0.02, seed * 37 + j, source=source, meas_stride=stride
        )
        accels.append(a)
        velocities.append(v)
        arcs.append(s)
    return accels, velocities, arcs


def _scalar(accels, velocities, arcs, **kwargs):
    return [estimate_track(a, v, s, **kwargs) for a, v, s in zip(accels, velocities, arcs)]


def _assert_tracks_equal(got_tracks, want_tracks):
    assert len(got_tracks) == len(want_tracks)
    for got, want in zip(got_tracks, want_tracks):
        assert got.name == want.name
        assert np.array_equal(got.t, want.t)
        assert np.array_equal(got.s, want.s)
        assert np.array_equal(got.theta, want.theta)
        assert np.array_equal(got.v, want.v)
        assert np.array_equal(got.variance, want.variance)
        assert got.meta["measurement_std"] == want.meta["measurement_std"]


def test_numpy_trig_matches_math():
    # Bit-identity of the two kernels rests on numpy's float64 sin/cos
    # returning what math.sin/math.cos return (numpy does not promise this
    # on every build and CPU). Checked over the clamped theta range, both
    # on one long array and in 4-wide calls like a trip's tracks.
    clamp = math.pi / 3.0
    rng = np.random.default_rng(0)
    samples = np.concatenate(
        [
            rng.uniform(-clamp, clamp, 50_000),
            rng.normal(0.0, 0.05, 50_000),
            np.linspace(-clamp, clamp, 4_000),
            [0.0, -0.0, clamp, -clamp, 1e-12, -1e-12, 0.5, -0.5],
        ]
    )
    for fn, ref in ((np.sin, math.sin), (np.cos, math.cos)):
        want = np.array([ref(x) for x in samples.tolist()])
        narrow = np.concatenate([fn(row) for row in samples.reshape(-1, 4)])
        for got in (fn(samples), narrow):
            bad = np.flatnonzero(got != want)
            assert bad.size == 0, (
                f"np.{fn.__name__} differs from math.{ref.__name__} at "
                f"{bad.size} of {samples.size} points (first theta="
                f"{samples[bad[0]]!r}); the scalar and vectorized EKF "
                f"kernels cannot be bit-identical on this host"
            )


class TestDirectEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("process", PROCESSES)
    def test_mixed_batch_matches_scalar(self, seed, process):
        # Ragged lengths (900..1500 ticks) and mixed measurement strides.
        accels, velocities, arcs = _mixed_batch(seed)
        cfg = GradientEKFConfig(process=process)
        vec = _estimate_tracks_vectorized(accels, velocities, arcs, config=cfg)
        _assert_tracks_equal(vec, _scalar(accels, velocities, arcs, config=cfg))

    def test_single_track_batch(self):
        a, v, s = _synthetic_track(800, 0.02, seed=5)
        vec = _estimate_tracks_vectorized([a], [v], [s])
        _assert_tracks_equal(vec, [estimate_track(a, v, s)])

    @pytest.mark.parametrize("process", PROCESSES)
    def test_shared_and_partial_measurement_gaps(self, process):
        # Every track loses its measurements over one common stretch (a
        # tick row with no update at all) and each also has its own gap
        # (rows where only some tracks update).
        accels, velocities, arcs = _mixed_batch(4)
        gapped = []
        for j, v in enumerate(velocities):
            values = v.values.copy()
            values[300:420] = np.nan
            values[500 + 60 * j : 560 + 60 * j] = np.nan
            gapped.append(SampledSignal(t=v.t, values=values, name=v.name))
        cfg = GradientEKFConfig(process=process)
        vec = _estimate_tracks_vectorized(accels, gapped, arcs, config=cfg)
        _assert_tracks_equal(vec, _scalar(accels, gapped, arcs, config=cfg))

    @pytest.mark.parametrize(
        "process, accel, spike, grade_rate_std",
        [("specific_force", 9.0, 50.0, 0.5), ("paper", -40.0, 100.0, 0.012)],
    )
    def test_theta_clamp_and_cos_floor(self, process, accel, spike, grade_rate_std):
        # Unphysical drive: a sustained acceleration the speed never shows
        # pushes theta onto the +-pi/3 clamp, and measurement spikes kick
        # it past pi/2 so the next predict runs on the floored cosine.
        n, dt = 3000, 0.02
        rng = np.random.default_rng(0)
        t = np.arange(n) * dt
        a = SampledSignal(t=t, values=accel + rng.normal(0.0, 0.08, n), name="accel-long")
        values = np.full(n, np.nan)
        values[::50] = 30.0
        values[2000] += spike
        values[2400] -= spike
        v = SampledSignal(t=t, values=values, name="gps-speed")
        cfg = GradientEKFConfig(process=process, grade_rate_std=grade_rate_std)
        scalar = estimate_track(a, v, 30.0 * t, config=cfg)
        assert np.any(np.abs(scalar.theta) == math.pi / 3.0)  # clamp hit
        assert np.any(np.cos(scalar.theta[:-1]) < 1e-6)  # cos floor hit
        vec = _estimate_tracks_vectorized([a], [v], [30.0 * t], config=cfg)
        _assert_tracks_equal(vec, [scalar])

    def test_innovations_and_counters_match_scalar(self):
        accels, velocities, arcs = _mixed_batch(9)
        tels = {k: [Telemetry(f"{k}-{j}") for j in range(4)] for k in ("vec", "scalar")}
        p22_0 = GradientEKFConfig().initial_grade_std**2
        mons = {
            k: [HealthMonitor(p22_initial=p22_0) for _ in range(4)]
            for k in ("vec", "scalar")
        }
        _estimate_tracks_vectorized(
            accels, velocities, arcs, telemetries=tels["vec"], monitors=mons["vec"]
        )
        for j, (a, v, s) in enumerate(zip(accels, velocities, arcs)):
            estimate_track(
                a, v, s, telemetry=tels["scalar"][j], monitor=mons["scalar"][j]
            )
        for tel_v, tel_s in zip(tels["vec"], tels["scalar"]):
            assert tel_v.metrics.snapshot() == tel_s.metrics.snapshot()
        # Ragged tracks included: each reports its own final covariance.
        for mon_v, mon_s in zip(mons["vec"], mons["scalar"]):
            assert mon_v.report() == mon_s.report()

    def test_smooth_falls_back_bit_identical(self, force_kernel):
        force_kernel("batch")
        accels, velocities, arcs = _mixed_batch(3)
        cfg = GradientEKFConfig(smooth=True)
        routed = estimate_tracks_batch(accels, velocities, arcs, config=cfg)
        assert all(t.meta["engine"] == "scalar" for t in routed)
        _assert_tracks_equal(routed, _scalar(accels, velocities, arcs, config=cfg))

    def test_bootstrap_without_finite_measurements_matches(self, force_kernel):
        # A velocity source that never reports leaves no first measurement
        # to start v from; estimate_track raises and so must both kernels.
        a, v, s = _synthetic_track(400, 0.02, seed=11)
        v.values[:] = np.nan
        v.valid[:] = False
        with pytest.raises(EstimationError):
            estimate_track(a, v, s)
        for kernel in ("scalar", "batch"):
            force_kernel(kernel)
            with pytest.raises(EstimationError):
                estimate_tracks_batch([a], [v], [s])

    @pytest.mark.parametrize("n_tracks", [4, 32])
    def test_source_without_valid_samples_raises_degraded(self, n_tracks):
        # One dead source in an otherwise healthy call raises the
        # degraded-input error on the natural route at either width (4
        # tracks run the scalar core, 32 the vectorized loop).
        inputs = [_synthetic_track(300, 0.02, seed=k) for k in range(n_tracks)]
        accels, velocities, arcs = (list(col) for col in zip(*inputs))
        dead = velocities[-1]
        velocities[-1] = SampledSignal(
            t=dead.t, values=dead.values, valid=np.zeros(len(dead.t), bool),
            name=dead.name,
        )
        with pytest.raises(DegradedInputError, match="no valid samples"):
            estimate_tracks_batch(accels, velocities, arcs)

    def test_length_mismatch_rejected(self):
        a, v, s = _synthetic_track(400, 0.02, seed=0)
        with pytest.raises(EstimationError):
            estimate_tracks_batch([a], [v, v], [s])
        with pytest.raises(EstimationError):
            estimate_tracks_batch([], [], [])
        with pytest.raises(EstimationError):
            estimate_tracks_batch([a], [v], [s], names=["x", "y"])

    def test_track_names_and_meta(self):
        accels, velocities, arcs = _mixed_batch(1)
        named = _estimate_tracks_vectorized(
            accels, velocities, arcs, names=["a", "b", "c", "d"]
        )
        assert [t.name for t in named] == ["a", "b", "c", "d"]
        assert all(t.meta["engine"] == "batch" for t in named)
        default = estimate_tracks_batch(accels, velocities, arcs)
        assert [t.name for t in default] == [v.name for v in velocities]


@st.composite
def ragged_batches(draw):
    """1-40 tracks of different lengths and timebases, each updating every
    1, 5 or 50 ticks; some carry a non-finite accelerometer burst."""
    n_tracks = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    base = draw(st.integers(20, 300))
    rng = np.random.default_rng(seed)
    accels, velocities, arcs = [], [], []
    for k in range(n_tracks):
        n = base + int(rng.integers(0, max(base // 20, 1) + 1))
        dt = float(rng.choice([0.01, 0.02]))
        source = _SOURCES[k % len(_SOURCES)]
        a, v, s = _synthetic_track(
            n, dt, int(rng.integers(0, 2**31)), source=source,
            meas_stride=int(rng.choice([1, 5, 50])),
            theta=float(rng.uniform(-0.08, 0.08)),
        )
        if rng.random() < 0.1:
            start = int(rng.integers(0, n))
            a.values[start : start + 3] = rng.choice([np.nan, np.inf, -np.inf])
        accels.append(a)
        velocities.append(v)
        arcs.append(s)
    return draw(st.sampled_from(PROCESSES)), accels, velocities, arcs


_SOURCES = ("gps-speed", "speedometer", "canbus", "accelerometer-velocity")


def _with_sinks(fn, n_tracks):
    """Run ``fn(telemetries, monitors)`` with fresh per-track sinks; returns
    the outcome (tracks, or the exception type) and the sinks' records."""
    cfg = GradientEKFConfig()
    tels = [Telemetry(f"track-{k}") for k in range(n_tracks)]
    mons = [HealthMonitor(p22_initial=cfg.initial_grade_std**2) for _ in range(n_tracks)]
    try:
        outcome = fn(tels, mons)
    except ValueError as err:  # math.sin(inf) in the scalar core
        return type(err), None
    records = [(t.metrics.snapshot(), m.report()) for t, m in zip(tels, mons)]
    return outcome, _nan_equal(records)


def _nan_equal(obj):
    """``obj`` with every NaN replaced by a marker, so == treats NaN as
    equal to NaN (a diverged track's records hold NaN in both kernels)."""
    if dataclasses.is_dataclass(obj):
        obj = dataclasses.asdict(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _nan_equal(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_nan_equal(v) for v in obj]
    if isinstance(obj, float) and obj != obj:
        return "nan"
    return obj


@given(ragged_batches())
@settings(max_examples=40, deadline=None)
def test_vectorized_equals_scalar_on_ragged_mixed_rate_batches(batch):
    process, accels, velocities, arcs = batch
    cfg = GradientEKFConfig(process=process)
    n_tracks = len(accels)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf on bursts
        vec, vec_records = _with_sinks(
            lambda tels, mons: _estimate_tracks_vectorized(
                accels, velocities, arcs, config=cfg, telemetries=tels, monitors=mons
            ),
            n_tracks,
        )
        scalar, scalar_records = _with_sinks(
            lambda tels, mons: [
                estimate_track(a, v, s, config=cfg, telemetry=tel, monitor=mon)
                for a, v, s, tel, mon in zip(accels, velocities, arcs, tels, mons)
            ],
            n_tracks,
        )
    if scalar_records is None:
        assert vec is scalar
        return
    for got, want in zip(vec, scalar):
        for field in ("theta", "v", "variance"):
            assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True)
        assert got.name == want.name
    assert vec_records == scalar_records


@pytest.mark.parametrize("process", PROCESSES)
def test_vectorized_kernel_is_warning_free(process):
    # A numpy deprecation path (e.g. a positional out= on np.maximum)
    # silently triples the cost of every call it sits on; any warning the
    # kernel raises on clean input fails here.
    accels, velocities, arcs = _mixed_batch(6)
    cfg = GradientEKFConfig(process=process)
    tel = Telemetry("warnings")
    mon = HealthMonitor(p22_initial=cfg.initial_grade_std**2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tracks = _estimate_tracks_vectorized(
            accels, velocities, arcs, config=cfg,
            telemetries=[tel] * len(accels), monitors=[mon] * len(accels),
        )
    assert all(t.meta["engine"] == "batch" for t in tracks)
    assert tel.metrics.snapshot()
    assert len(mon.report().tracks) == len(accels)


class _RecordingMonitor(HealthMonitor):
    """A :class:`HealthMonitor` that also keeps what each ``check_track``
    call was given, ``final_cov`` included."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = []

    def check_track(self, name, theta, variance, **kwargs):
        self.calls.append(_nan_equal({"name": name, "theta": theta, "variance": variance, **kwargs}))
        return super().check_track(name, theta, variance, **kwargs)


def _ragged_wide_batch(n_tracks: int):
    """``n_tracks`` tracks whose lengths all differ, so a vectorized call's
    live width falls below ``BATCH_MIN_TRACKS`` before the longest ends."""
    inputs = [
        _synthetic_track(
            300 + 13 * k, 0.02, seed=100 + k, source=_SOURCES[k % len(_SOURCES)],
            meas_stride=(1, 5, 50)[k % 3],
        )
        for k in range(n_tracks)
    ]
    return [list(col) for col in zip(*inputs)]


class TestLiveWidthRouting:
    @pytest.mark.parametrize("process", PROCESSES)
    def test_crossing_call_with_sinks_equals_scalar(self, process):
        # Eight tracks more than the threshold: the vector loop stops
        # where the 9th-shortest track ends, and the eight longer tracks
        # finish on the scalar forward pass. Every track, its telemetry,
        # its health report and what its monitor was handed (final_cov
        # included) must equal a per-track estimate_track.
        accels, velocities, arcs = _ragged_wide_batch(BATCH_MIN_TRACKS + 8)
        lengths = sorted(len(a.t) for a in accels)
        assert lengths[8] < lengths[-1]  # the live width crosses mid-call
        cfg = GradientEKFConfig(process=process)
        p22_0 = cfg.initial_grade_std**2
        sinks = {
            k: (
                [Telemetry(f"{k}-{j}") for j in range(len(accels))],
                [_RecordingMonitor(p22_initial=p22_0) for _ in accels],
            )
            for k in ("routed", "scalar")
        }
        tels, mons = sinks["routed"]
        routed = estimate_tracks_batch(
            accels, velocities, arcs, config=cfg, telemetries=tels, monitors=mons
        )
        assert {t.meta["engine"] for t in routed} == {"batch"}
        tels, mons = sinks["scalar"]
        scalar = [
            estimate_track(a, v, s, config=cfg, telemetry=tel, monitor=mon)
            for a, v, s, tel, mon in zip(accels, velocities, arcs, tels, mons)
        ]
        _assert_tracks_equal(routed, scalar)
        for (tel_r, mon_r), (tel_s, mon_s) in zip(
            zip(*sinks["routed"]), zip(*sinks["scalar"])
        ):
            assert tel_r.metrics.snapshot() == tel_s.metrics.snapshot()
            assert mon_r.report() == mon_s.report()
            assert mon_r.calls == mon_s.calls

    def test_only_tracks_past_the_threshold_run_a_tail(self, monkeypatch):
        import repro.core.batch as batch_mod

        tails = []
        real = batch_mod._forward_pass

        def counting(core, a_list, z_list, *args, **kwargs):
            tails.append(len(a_list))
            return real(core, a_list, z_list, *args, **kwargs)

        monkeypatch.setattr(batch_mod, "_forward_pass", counting)
        n_tracks = BATCH_MIN_TRACKS + 8
        accels, velocities, arcs = _ragged_wide_batch(n_tracks)
        estimate_tracks_batch(accels, velocities, arcs)
        lengths = sorted(len(a.t) for a in accels)
        h = lengths[n_tracks - BATCH_MIN_TRACKS]
        assert sorted(tails) == sorted(n - h for n in lengths if n > h)

        # A uniform-length call steps every tick vectorized.
        tails.clear()
        inputs = [_synthetic_track(300, 0.02, seed=k) for k in range(n_tracks)]
        estimate_tracks_batch(*(list(col) for col in zip(*inputs)))
        assert tails == []


def _assert_shares_inputs(tracks, accels, arcs):
    """Each track's ``t`` and ``s`` are read-only views of its inputs, and
    the inputs stay writable."""
    for track, accel, arc in zip(tracks, accels, arcs):
        for got, given in ((track.t, accel.t), (track.s, arc)):
            assert np.shares_memory(got, given)
            with pytest.raises(ValueError):
                got[0] = 0.0
            assert given.flags.writeable


class TestSharedInputs:
    """Tracks hold no copies of the timebase and arc length they were given,
    on either kernel, including the scalar tails of a ragged call."""

    def test_scalar_call_of_one_trip(self):
        # A trip's four sources on one accel timebase and one arc length,
        # as the track stage passes them.
        accels, velocities, arcs = _mixed_batch(0)
        accel, arc = accels[1], arcs[1]
        tracks = estimate_tracks_batch([accel] * 4, velocities, [arc] * 4)
        assert {t.meta["engine"] for t in tracks} == {"scalar"}
        _assert_shares_inputs(tracks, [accel] * 4, [arc] * 4)
        assert all(np.shares_memory(t.t, tracks[0].t) for t in tracks)

    def test_vectorized_call(self):
        inputs = [_synthetic_track(300, 0.02, seed=k) for k in range(BATCH_MIN_TRACKS)]
        accels, velocities, arcs = (list(col) for col in zip(*inputs))
        tracks = estimate_tracks_batch(accels, velocities, arcs)
        assert {t.meta["engine"] for t in tracks} == {"batch"}
        _assert_shares_inputs(tracks, accels, arcs)

    def test_ragged_call_with_scalar_tails(self):
        accels, velocities, arcs = _ragged_wide_batch(BATCH_MIN_TRACKS + 8)
        tracks = estimate_tracks_batch(accels, velocities, arcs)
        assert {t.meta["engine"] for t in tracks} == {"batch"}
        _assert_shares_inputs(tracks, accels, arcs)


class TestRouting:
    def test_threshold_sits_between_trip_and_fleet_widths(self):
        # One trip's four sources run scalar; an 8-trip store chunk (32
        # tracks) runs vectorized.
        assert 4 < BATCH_MIN_TRACKS <= 32

    def test_kernel_recorded_below_and_at_threshold(self):
        n_tracks = BATCH_MIN_TRACKS
        inputs = [
            _synthetic_track(200, 0.02, seed=k, meas_stride=1 + k % 3)
            for k in range(n_tracks)
        ]
        accels, velocities, arcs = (list(col) for col in zip(*inputs))
        below = estimate_tracks_batch(accels[:-1], velocities[:-1], arcs[:-1])
        at = estimate_tracks_batch(accels, velocities, arcs)
        assert {t.meta["engine"] for t in below} == {"scalar"}
        assert {t.meta["engine"] for t in at} == {"batch"}
        _assert_tracks_equal(at[:-1], below)


# -- full pipeline: vectorized vs scalar kernel --------------------------------

ROUTES = {
    "rolling": dict(
        specs=[
            SectionSpec.from_degrees(350.0, 2.0, 2, 5.0),
            SectionSpec.from_degrees(350.0, -1.5, 2, -6.0),
        ],
        gps_outages=None,
        sources=VELOCITY_SOURCES,
    ),
    # The total-GPS-outage fixture: no fix anywhere, GPS track unusable.
    "outage": dict(
        specs=[
            SectionSpec.from_degrees(400.0, 2.0),
            SectionSpec.from_degrees(300.0, -2.0),
        ],
        gps_outages=[(0.0, 800.0)],
        sources=("speedometer", "accelerometer", "canbus"),
    ),
}


@functools.lru_cache(maxsize=None)
def _route_recording(route: str, seed: int, density: float):
    spec = ROUTES[route]
    profile = build_profile(
        spec["specs"], gps_outages=spec["gps_outages"], name=route
    )
    trace = simulate_trip(
        profile, DriverProfile(lane_changes_per_km=density), seed=seed
    )
    rec = Smartphone().record(trace, np.random.default_rng(seed + 1000))
    return profile, rec


def _run_kernel(force_kernel, route: str, seed: int, density: float, kernel: str, tel=None):
    force_kernel(kernel)
    profile, rec = _route_recording(route, seed, density)
    cfg = GradientSystemConfig(
        detector=LaneChangeDetectorConfig(thresholds=TH),
        velocity_sources=ROUTES[route]["sources"],
    )
    return GradientEstimationSystem(profile, config=cfg, telemetry=tel).estimate(rec)


class TestPipelineEquivalence:
    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("seed", [17, 99])
    @pytest.mark.parametrize("density", [0.0, 3.0])
    def test_engines_agree(self, route, seed, density, force_kernel):
        res_b = _run_kernel(force_kernel, route, seed, density, "batch")
        res_s = _run_kernel(force_kernel, route, seed, density, "scalar")
        assert np.array_equal(res_b.s_grid, res_s.s_grid)
        assert res_b.n_lane_changes == res_s.n_lane_changes
        assert set(res_b.tracks) == set(res_s.tracks)
        for source in res_b.tracks:
            got, want = res_b.tracks[source], res_s.tracks[source]
            assert got.meta["engine"] == "batch" and want.meta["engine"] == "scalar"
            assert np.array_equal(got.theta, want.theta)
            assert np.array_equal(got.variance, want.variance)
            assert np.array_equal(got.v, want.v)
        assert np.array_equal(res_b.fused.theta, res_s.fused.theta)
        assert res_b.health == res_s.health

    def test_outage_recording_has_no_fix(self):
        _, rec = _route_recording("outage", 17, 0.0)
        assert rec.gps.availability == 0.0

    def test_batch_engine_telemetry_matches_scalar(self, force_kernel):
        snaps = {}
        for kernel in ("batch", "scalar"):
            tel = Telemetry(kernel)
            _run_kernel(force_kernel, "rolling", 17, 3.0, kernel, tel=tel)
            snaps[kernel] = tel.metrics.snapshot()
        assert snaps["batch"] == snaps["scalar"]
