"""Bump segmentation tests.

:func:`find_bumps` takes its excursions from run edges over a sign label;
the oracle below is the per-sample scan it replaced, and the two must
agree exactly on every profile: NaN and zero samples, sign flips with no
cold sample between them, runs touching either end, and thresholds whose
floor is zero or negative (so zero samples are hot).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lane_change.bumps import Bump, find_bumps
from repro.core.lane_change.features import LaneChangeThresholds
from repro.errors import EstimationError

TH = LaneChangeThresholds(delta=0.1, duration=0.5)


def scan_find_bumps(t, w, thresholds):
    """The per-sample scan: walk each hot run of one sign sample by sample."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    if len(t) < 3:
        return []
    hot = np.abs(w) >= thresholds.threshold_coeff * thresholds.delta
    with np.errstate(invalid="ignore"):  # NaN samples are cold either way
        sign = np.sign(w).astype(int)
    bumps = []
    i = 0
    n = len(w)
    while i < n:
        if not hot[i]:
            i += 1
            continue
        j = i
        while j < n and hot[j] and sign[j] == sign[i]:
            j += 1
        seg_w = w[i:j]
        seg_t = t[i:j]
        bump_sign = int(sign[i])
        peak_rel = int(np.argmax(bump_sign * seg_w))
        delta = float(bump_sign * seg_w[peak_rel])
        if delta >= thresholds.delta and len(seg_w) >= 2:
            above = bump_sign * seg_w >= thresholds.threshold_coeff * delta
            lo = peak_rel
            while lo > 0 and above[lo - 1]:
                lo -= 1
            hi = peak_rel
            while hi < len(above) - 1 and above[hi + 1]:
                hi += 1
            duration = float(seg_t[hi] - seg_t[lo])
            if duration >= thresholds.duration:
                bumps.append(
                    Bump(
                        start=i,
                        end=j,
                        peak_index=i + peak_rel,
                        sign=bump_sign,
                        delta=delta,
                        duration=duration,
                        t_start=float(seg_t[0]),
                        t_end=float(seg_t[-1]),
                        t_peak=float(seg_t[peak_rel]),
                    )
                )
        i = j
    return bumps


@st.composite
def profiles(draw):
    """A steering profile on a jittered clock, with its thresholds."""
    n = draw(st.integers(0, 160))
    sample = st.one_of(
        st.just(0.0),
        st.just(-0.0),
        st.just(float("nan")),
        st.floats(-0.4, 0.4, allow_subnormal=False),
    )
    w = np.array(draw(st.lists(sample, min_size=n, max_size=n)), dtype=float)
    steps = draw(st.lists(st.floats(0.005, 0.1), min_size=n, max_size=n))
    t = np.cumsum(np.array(steps, dtype=float))
    thresholds = LaneChangeThresholds(
        delta=draw(st.one_of(st.just(0.0), st.floats(-0.05, 0.3))),
        duration=draw(st.floats(0.0, 0.5)),
        threshold_coeff=draw(st.one_of(st.just(0.7), st.floats(0.0, 1.0))),
    )
    return t, w, thresholds


def profile_with_bump(peak=0.15, t1=2.0, dt=0.02, pad=2.0, sign=+1):
    t = np.arange(0.0, t1 + 2 * pad, dt)
    w = np.zeros_like(t)
    inside = (t >= pad) & (t < pad + t1)
    w[inside] = sign * peak * np.sin(np.pi * (t[inside] - pad) / t1)
    return t, w


class TestFindBumps:
    def test_detects_qualified_bump(self):
        t, w = profile_with_bump(peak=0.15)
        bumps = find_bumps(t, w, TH)
        assert len(bumps) == 1
        assert bumps[0].sign == +1
        assert bumps[0].delta == pytest.approx(0.15, abs=0.003)

    def test_below_delta_rejected(self):
        t, w = profile_with_bump(peak=0.08)
        assert find_bumps(t, w, TH) == []

    def test_too_short_rejected(self):
        t, w = profile_with_bump(peak=0.15, t1=0.4)
        assert find_bumps(t, w, TH) == []

    def test_negative_bump_sign(self):
        t, w = profile_with_bump(sign=-1)
        bumps = find_bumps(t, w, TH)
        assert bumps[0].sign == -1

    def test_two_separate_bumps(self):
        t1, w1 = profile_with_bump(peak=0.15)
        t2, w2 = profile_with_bump(peak=0.2, sign=-1)
        t = np.concatenate([t1, t2 + t1[-1] + 0.02])
        w = np.concatenate([w1, w2])
        bumps = find_bumps(t, w, TH)
        assert [b.sign for b in bumps] == [1, -1]
        assert bumps[0].t_peak < bumps[1].t_peak

    def test_indices_consistent(self):
        t, w = profile_with_bump(peak=0.15)
        bump = find_bumps(t, w, TH)[0]
        assert w[bump.peak_index] == pytest.approx(bump.delta)
        assert bump.start <= bump.peak_index < bump.end

    def test_flat_profile(self):
        t = np.arange(100) * 0.02
        assert find_bumps(t, np.zeros(100), TH) == []

    def test_short_input(self):
        assert find_bumps(np.array([0.0, 0.1]), np.array([0.0, 0.0]), TH) == []

    def test_shape_mismatch(self):
        with pytest.raises(EstimationError):
            find_bumps(np.arange(5.0), np.zeros(4), TH)

    def test_duration_uses_own_peak(self):
        """T is measured against 0.7 * this bump's peak, not the threshold."""
        t, w = profile_with_bump(peak=0.4, t1=2.0)
        bump = find_bumps(t, w, TH)[0]
        assert bump.duration == pytest.approx(0.506 * 2.0, abs=0.1)


@given(profiles())
@settings(max_examples=300, deadline=None)
def test_find_bumps_matches_per_sample_scan(case):
    t, w, thresholds = case
    assert find_bumps(t, w, thresholds) == scan_find_bumps(t, w, thresholds)


def test_find_bumps_matches_scan_on_noisy_trip_profile():
    # A trip-length noisy profile: many short runs around the floor.
    rng = np.random.default_rng(7)
    n = 9700
    t = np.arange(n) * 0.05
    w = 0.03 * rng.standard_normal(n) + 0.2 * np.sin(t / 7.0) ** 3
    w[rng.integers(0, n, 40)] = np.nan
    w[rng.integers(0, n, 40)] = 0.0
    bumps = find_bumps(t, w, TH)
    assert bumps == scan_find_bumps(t, w, TH)
    assert bumps  # the profile does hold qualified bumps
