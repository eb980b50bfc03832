"""The offline forward pass == a loop over the streaming filter core.

:func:`repro.core.gradient_ekf._forward_pass` runs the ``[v, theta]`` EKF
over a whole track on Python locals; :class:`GradientFilterCore` is the
streaming tick that :mod:`repro.core.online` drives one sample at a time.
They are two spellings of the same equations, so this suite pins them
*bit for bit*: per-tick outputs, innovations, the RTS history columns,
plan-event counts and the final state, over both process models,
measurement gaps, the theta clamp, the cos floor, covariance inflation and
prior-map updates.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.core.gradient_ekf import (
    GradientEKFConfig,
    GradientFilterCore,
    _forward_pass,
    estimate_track,
)
from repro.sensors.base import SampledSignal

NAN = float("nan")
CLAMP = math.pi / 3.0


@dataclass(frozen=True)
class Case:
    """One forward-pass input: filter setup, tick inputs and plan events."""

    process: str
    dt: float
    grade_rate_std: float
    v0: float
    accel: tuple[float, ...]
    z: tuple[float, ...]
    events: tuple[tuple[int, str, float, float], ...] = ()
    inflation: float = 1.0


def _core(case: Case) -> GradientFilterCore:
    cfg = GradientEKFConfig(process=case.process, grade_rate_std=case.grade_rate_std)
    return GradientFilterCore(case.dt, config=cfg, measurement_std=0.3, v0=case.v0)


def _reference(case: Case) -> dict:
    """The method loop: inflate -> predict -> update / update_theta."""
    core = _core(case)
    by_tick = {tick: (kind, z, r) for tick, kind, z, r in case.events}
    out: dict = {key: [] for key in ("theta", "var", "v", "inno", "s")}
    hist: list[list[float]] = [[] for _ in range(10)]
    n_map = n_inflate = 0
    for i, (a, zi) in enumerate(zip(case.accel, case.z)):
        kind, z_map, r_map = by_tick.get(i, (None, 0.0, 0.0))
        if kind == "inflate":
            core.inflate(case.inflation)
            n_inflate += 1
        core.predict(a)
        for col, value in zip(
            hist,
            (core.v, core.theta, core.p11, core.p12, core.p22, core.b, core.c, core.d),
        ):
            col.append(value)
        if zi == zi:
            out["s"].append(core.innovation_variance())
            out["inno"].append(core.update(zi))
        elif kind == "map":
            core.update_theta(z_map, r_map)
            n_map += 1
        out["theta"].append(core.theta)
        out["var"].append(core.p22)
        out["v"].append(core.v)
        hist[8].append(core.p11)
        hist[9].append(core.p12)
    out["history"] = hist
    out["counts"] = (n_map, n_inflate)
    out["final"] = _state(core)
    return out


def _state(core: GradientFilterCore) -> list[float]:
    return [core.v, core.theta, core.p11, core.p12, core.p22, core.b, core.c, core.d]


def _bits(values) -> np.ndarray:
    """Float bit patterns, so NaN == NaN and -0.0 != 0.0."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _assert_bitwise(got, want) -> None:
    assert np.array_equal(_bits(got), _bits(want))


def _assert_matches(case: Case):
    want = _reference(case)
    core = _core(case)
    fwd = _forward_pass(
        core,
        list(case.accel),
        list(case.z),
        list(case.events),
        case.inflation,
        smooth=True,
    )
    _assert_bitwise(fwd.theta, want["theta"])
    _assert_bitwise(fwd.var, want["var"])
    _assert_bitwise(fwd.v, want["v"])
    _assert_bitwise(fwd.innovations, want["inno"])
    _assert_bitwise(fwd.inno_var, want["s"])
    assert fwd.history is not None
    for got_col, want_col in zip(fwd.history, want["history"]):
        _assert_bitwise(got_col, want_col)
    assert (fwd.map_updates, fwd.inflations) == want["counts"]
    _assert_bitwise(_state(core), want["final"])

    # Without the history the outputs are the same.
    plain = _forward_pass(
        _core(case), list(case.accel), list(case.z), list(case.events), case.inflation
    )
    assert plain.history is None
    _assert_bitwise(plain.theta, fwd.theta)
    _assert_bitwise(plain.var, fwd.var)
    return fwd


@st.composite
def cases(draw) -> Case:
    n = draw(st.integers(2, 240))
    # A drive level plus per-tick jitter: large levels the speed never
    # shows push theta onto the clamp and, with spiky measurements, past
    # pi/2 onto the cos floor.
    level = draw(st.floats(-45.0, 45.0))
    jitter = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    accel = tuple(level + j for j in jitter)
    measured = st.one_of(st.just(NAN), st.floats(0.0, 40.0), st.floats(-200.0, 200.0))
    z = tuple(draw(st.lists(measured, min_size=n, max_size=n)))
    ticks = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=12))
    events = []
    for tick in sorted(ticks):
        if draw(st.booleans()):
            events.append((tick, "inflate", 0.0, 0.0))
        else:
            z_map = draw(st.floats(-1.0, 1.0))
            r_map = draw(st.floats(1e-7, 1.0))
            events.append((tick, "map", z_map, r_map))
    return Case(
        process=draw(st.sampled_from(["specific_force", "accelerometer"])),
        dt=draw(st.sampled_from([0.01, 0.02, 0.1])),
        grade_rate_std=draw(st.floats(1e-3, 0.5)),
        v0=draw(st.floats(0.0, 40.0)),
        accel=accel,
        z=z,
        events=tuple(events),
        inflation=draw(st.floats(1.0, 100.0)),
    )


def _unphysical_drive(process: str, accel: float, spike: float, grade_rate_std: float) -> Case:
    """A sustained acceleration the speed never shows drives theta onto the
    clamp; measurement spikes kick it past pi/2 so the next predict runs on
    the floored cosine. Sparse fixes leave NaN gaps for plan events."""
    n = 3000
    rng = np.random.default_rng(0)
    z = np.full(n, NAN)
    z[::50] = 30.0
    z[2000] += spike
    z[2400] -= spike
    events = (
        (120, "map", 0.02, 1e-4),
        (1500, "map", 0.1, 1e-3),
        (2460, "map", 0.5, 1e-2),
        (2600, "inflate", 0.0, 0.0),
        (2601, "map", -0.01, 1e-3),
    )
    return Case(
        process=process,
        dt=0.02,
        grade_rate_std=grade_rate_std,
        v0=30.0,
        accel=tuple((accel + rng.normal(0.0, 0.08, n)).tolist()),
        z=tuple(z.tolist()),
        events=events,
        inflation=8.0,
    )


PINNED = [
    _unphysical_drive("specific_force", 9.0, 50.0, 0.5),
    _unphysical_drive("accelerometer", -40.0, 100.0, 0.012),
]


@given(cases())
@example(PINNED[0])
@example(PINNED[1])
@settings(max_examples=150, deadline=None)
def test_forward_pass_matches_core_loop(case):
    _assert_matches(case)


def test_pinned_cases_cover_clamp_cos_floor_and_plan():
    for case in PINNED:
        fwd = _assert_matches(case)
        theta = np.array(fwd.history.theta)  # predicted theta per tick
        assert np.any(np.abs(theta) == CLAMP)  # clamp hit
        assert np.any(np.cos(np.array(fwd.theta[:-1])) < 1e-6)  # cos floor hit
        assert fwd.inflations == 1
        assert fwd.map_updates == 3  # tick 1500 has a fix: no map update


def test_smoothed_track_triggers_few_gc_collections():
    # The forward pass keeps its smoothing history as flat float lists,
    # which the cyclic GC never tracks; one tuple per tick and column
    # group would trigger a gen-0 collection every few hundred ticks
    # (over a dozen on this track).
    n, dt = 6000, 0.02
    rng = np.random.default_rng(3)
    t = np.arange(n) * dt
    accel = SampledSignal(
        t=t, values=GRAVITY * math.sin(0.03) + rng.normal(0.0, 0.05, n), name="accel"
    )
    vel = SampledSignal(t=t, values=12.0 + rng.normal(0.0, 0.1, n), name="speedometer")
    cfg = GradientEKFConfig(smooth=True)
    # A short warm-up call first, so lazy imports on the first call do not
    # count against the track.
    head = slice(0, 200)
    estimate_track(
        SampledSignal(t=t[head], values=accel.values[head], name="accel"),
        SampledSignal(t=t[head], values=vel.values[head], name="speedometer"),
        12.0 * t[head],
        config=cfg,
    )

    collections: list[int] = []

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collections.append(info["generation"])

    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        track = estimate_track(accel, vel, 12.0 * t, config=cfg)
    finally:
        gc.callbacks.remove(on_gc)
        if not was_enabled:
            gc.disable()
    assert track.meta["smoothed"] is True
    assert len(collections) <= 2, collections
