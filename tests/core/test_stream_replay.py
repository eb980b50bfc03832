"""``run()`` is a ``push()`` loop, bit for bit, on a faster route.

``StreamingGradientEstimator.run`` replays stretches of every outage mode
through the offline forward pass and hands only decision ticks to
``_tick``. This suite pins the replay to a ``push()`` per sample over
drawn inputs -- outages, fix quality, non-finite samples, bootstrap, split
calls, telemetry and a health monitor -- comparing outputs, the full end
state, counters and the logged events; deterministic cases pin the edges
of dead-reckoning stretches. A mechanism test records the ``_tick`` calls
so a refactor cannot fall back to the per-tick path unnoticed.
"""

from __future__ import annotations

import io
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import GRAVITY
from repro.core.dead_reckoning import DeadReckoningConfig, GPSDeniedConfig
from repro.core.online import StreamingGradientEstimator
from repro.obs import HealthConfig, Telemetry, get_logger
from repro.roads import SectionSpec, build_profile
from repro.roads.prior_map import PriorGradeMap

from .gen_streaming_golden import build_case, end_state

DT = 0.02
ROAD = build_profile(
    [
        SectionSpec.from_degrees(600.0, 2.0, 1, 10.0),
        SectionSpec.from_degrees(600.0, -1.0, 1, -20.0),
    ],
    name="replay-road",
)
PRIOR = PriorGradeMap.from_profile(ROAD)
# Non-finite samples, a clamp-forcing spike and finite overflow.
SPECIALS = (float("nan"), float("inf"), float("-inf"), 1e6, -1e6, 1e300, -1e300)
_LOGGER_IDS = itertools.count()


def full_state(est: StreamingGradientEstimator) -> dict:
    """:func:`end_state` plus the private bookkeeping a replay leaves."""
    state = end_state(est)
    state.update(
        need_init=est._need_init,
        updated=est.state.updated,
        ok_v=float(est._ok_v).hex(),
        ok_theta=float(est._ok_theta).hex(),
        diverged=est._diverged,
    )
    if est._gd is not None:
        state.update(good_streak=est._good_streak, inflated=est._outage_inflated)
        dr = est._dr
        if dr is not None:
            keys = ("s", "psi", "p_ss", "p_sp", "p_pp")
            state["dr"] = [float(getattr(dr, k)).hex() for k in keys]
    if est.health is not None:
        h = est.health
        state["health"] = (
            h.verdict, [str(f) for f in h.flags], h.n_updates,
            float(h.nis_window_mean).hex(), float(h.max_gap_s).hex(),
        )
    return state


@st.composite
def replays(draw):
    n = draw(st.integers(20, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    accel = GRAVITY * np.sin(0.03) + rng.normal(0.0, 0.05, n)
    v_true = 12.0 + rng.normal(0.0, 0.05, n)
    period = draw(st.integers(1, 8))
    v_meas = np.full(n, np.nan)
    v_meas[::period] = v_true[::period]
    gaps = st.tuples(st.integers(0, n), st.integers(1, 80))
    for start, length in draw(st.lists(gaps, max_size=3)):
        v_meas[start : start + length] = np.nan
    for k in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        v_meas[k] = np.inf
    spikes = st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIALS))
    for k, value in draw(st.lists(spikes, max_size=3)):
        accel[k] = value
    quality = None
    if draw(st.booleans()):
        quality = rng.choice([1.0, 0.9, 0.5, 0.1, np.nan], size=n, p=[0.5, 0.15, 0.15, 0.15, 0.05])
    gd = None
    if draw(st.booleans()):
        enter = draw(st.integers(1, 30))
        gd = GPSDeniedConfig(
            enabled=True,
            outage_enter_ticks=enter,
            dead_reckoning_after_ticks=enter + draw(st.integers(0, 30)),
            reacquire_good_ticks=draw(st.integers(1, 4)),
            map_update_interval_ticks=draw(st.integers(1, 10)),
            use_dead_reckoning=draw(st.booleans()),
            use_prior_map=draw(st.booleans()),
            dead_reckoning=DeadReckoningConfig(
                match_interval_ticks=draw(st.integers(1, 30))
            ),
        )
    return {
        "accel": accel,
        "v_meas": v_meas,
        "gyro": rng.normal(0.0, 0.01, n) if draw(st.booleans()) else None,
        "fix_quality": quality,
        "kwargs": {
            "v0": draw(st.sampled_from([None, 12.0])),
            "gps_denied": gd,
            "prior_map": PRIOR if gd is not None else None,
            "road": ROAD if draw(st.booleans()) else None,
            "health": HealthConfig() if draw(st.booleans()) else None,
        },
        "telemetry": draw(st.booleans()),
        "split": draw(st.none() | st.integers(0, n)),
    }


def _estimator(case):
    log = io.StringIO()
    tel = None
    if case["telemetry"]:
        tel = Telemetry(
            "replay", logger=get_logger(f"replay.{next(_LOGGER_IDS)}", stream=log, fmt="json")
        )
    return StreamingGradientEstimator(DT, telemetry=tel, **case["kwargs"]), tel, log


def _observed(est, theta, tel, log) -> dict:
    out = {"theta": np.asarray(theta).tobytes(), "state": full_state(est)}
    if tel is not None:
        out["counters"] = tel.metrics.snapshot()["counters"]
        out["events"] = [
            {k: v for k, v in json.loads(line).items() if k not in ("ts", "logger")}
            for line in log.getvalue().splitlines()
        ]
    return out


def _via_run(case) -> dict:
    est, tel, log = _estimator(case)
    arrays = [case[k] for k in ("accel", "v_meas", "gyro", "fix_quality")]
    cut = case["split"]
    if cut is None:
        theta = est.run(*arrays)
    else:
        first = [None if x is None else x[:cut] for x in arrays]
        rest = [None if x is None else x[cut:] for x in arrays]
        theta = np.concatenate([est.run(*first), est.run(*rest)])
    return _observed(est, theta, tel, log)


def _via_push(case) -> dict:
    est, tel, log = _estimator(case)
    n = len(case["accel"])
    gyro = case["gyro"].tolist() if case["gyro"] is not None else [0.0] * n
    quality = case["fix_quality"].tolist() if case["fix_quality"] is not None else [None] * n
    theta = [
        est.push(a, z, g, q).theta
        for a, z, g, q in zip(case["accel"].tolist(), case["v_meas"].tolist(), gyro, quality)
    ]
    return _observed(est, np.array(theta), tel, log)


@settings(max_examples=150, deadline=None)
@given(replays())
def test_run_equals_push_loop(case):
    assert _via_run(case) == _via_push(case)


def _record_ticks(est: StreamingGradientEstimator) -> list[tuple]:
    """Wrap ``est._tick``; each call appends ``(tick, mode before, usable
    fix, transitions made)``."""
    seen = []
    tick = est._tick
    gd = est._gd

    def recording(accel, v_meas, gyro=0.0, fix_quality=None):
        before = (est.ticks, est.mode, est.mode_transitions)
        usable = v_meas is not None and v_meas == v_meas
        if usable and gd is not None and fix_quality is not None:
            usable = not fix_quality <= gd.fix_quality_bad
        updated = tick(accel, v_meas, gyro, fix_quality)
        seen.append((before[0], before[1], usable, est.mode_transitions - before[2]))
        return updated

    est._tick = recording
    return seen


class TestFastPathTaken:
    """No timing: record the per-tick fallbacks ``run()`` makes."""

    def test_nominal_replay_makes_no_per_tick_calls(self):
        case = build_case("gps_denied_off")
        est = StreamingGradientEstimator(
            DT, v0=12.0, measurement_std=0.3, config=case.kwargs["config"]
        )
        seen = _record_ticks(est)
        est.run(case.accel, case.v_meas)
        assert seen == []
        assert est.ticks == len(case.accel)

    def test_outage_replay_ticks_only_outside_nominal(self):
        case = build_case("outage_map_road")
        tel = Telemetry("mechanism")
        est = StreamingGradientEstimator(
            DT, v0=12.0, telemetry=tel, **case.kwargs
        )
        seen = _record_ticks(est)
        est.run(case.accel, case.v_meas, gyro=case.gyro)
        counters = tel.metrics.snapshot()["counters"]
        outside = sum(
            counters[f"stream.mode.{m}"]
            for m in ("coasting", "dead_reckoning", "reacquiring")
        )
        transitions = counters["stream.mode.transitions"]
        assert transitions == 4  # one outage episode
        assert counters["stream.mode.dead_reckoning"] > 0
        assert counters["stream.map_updates"] > 0
        # The four mode counters account for every tick.
        assert counters["stream.mode.nominal"] == est.ticks - outside
        # Every per-tick call is a decision: a transition (the one into
        # coasting is the only call that starts in nominal), or a usable
        # fix the mode machine weighs outside nominal.
        for tick, mode, usable, made in seen:
            assert made > 0 or (usable and mode != "nominal"), (tick, mode)
        assert 0 < len(seen) <= transitions + est._gd.reacquire_good_ticks


def _outage_case(gaps, cut=None, spikes=()) -> dict:
    """A seeded 600-tick replay with a fix every 5 ticks, NaN over each
    ``(start, stop)`` gap, dead reckoning on ``ROAD`` and prior-map
    updates; the road matches (every 7 dry ticks) and map updates (every
    5) fall on known ticks."""
    n = 600
    rng = np.random.default_rng(7)
    accel = GRAVITY * np.sin(0.03) + rng.normal(0.0, 0.05, n)
    v_meas = np.full(n, np.nan)
    v_meas[::5] = 12.0 + rng.normal(0.0, 0.05, n)[::5]
    for start, stop in gaps:
        v_meas[start:stop] = np.nan
    for k, value in spikes:
        accel[k] = value
    gd = GPSDeniedConfig(
        enabled=True,
        outage_enter_ticks=10,
        dead_reckoning_after_ticks=20,
        reacquire_good_ticks=2,
        map_update_interval_ticks=5,
        dead_reckoning=DeadReckoningConfig(match_interval_ticks=7),
    )
    return {
        "accel": accel,
        "v_meas": v_meas,
        "gyro": rng.normal(0.0, 0.01, n),
        "fix_quality": None,
        "kwargs": {
            "v0": 12.0, "gps_denied": gd, "prior_map": PRIOR, "road": ROAD,
            "health": None,
        },
        "telemetry": True,
        "split": cut,
    }


class TestDeadReckoningStretches:
    """Deterministic ``run()``-equals-``push()`` pins at the boundaries of
    dead-reckoning stretches. The gap after the fix at tick 100 coasts
    from tick 110 and dead-reckons from tick 120 (dry count 20) to 199."""

    @pytest.mark.parametrize("cut", [135, 136])
    def test_split_at_an_event_tick(self, cut):
        # Tick 135 has dry count 35: a road match and a map update.
        case = _outage_case([(101, 200)], cut=cut)
        got = _via_run(case)
        assert got == _via_push(case)
        assert got["counters"]["stream.map_updates"] == 16  # dry 20, 25, ..., 95

    def test_accel_faults_inside_a_stretch(self):
        # A NaN sample ends the stretch and recovers per tick; a finite
        # 1e300 sample overflows the filter, so its stretch is rolled back
        # and replayed per tick.
        case = _outage_case([(101, 200)], spikes=[(150, np.nan), (170, 1e300)])
        est, tel, log = _estimator(case)
        results = []
        stretch = est._stretch

        def recording(*args):
            results.append((est.mode, stretch(*args)))
            return results[-1][1]

        est._stretch = recording
        theta = est.run(case["accel"], case["v_meas"], gyro=case["gyro"])
        assert ("dead_reckoning", False) in results
        assert est.recoveries > 0
        assert _observed(est, theta, tel, log) == _via_push(case)

    def test_two_outage_episodes(self):
        case = _outage_case([(101, 200), (301, 420)])
        got = _via_run(case)
        assert got == _via_push(case)
        assert got["counters"]["stream.mode.transitions"] == 8
