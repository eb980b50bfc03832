"""The vectorized EKF kernel's working set does not grow with trip length.

The kernel runs its tick loop over fixed blocks of ticks and drains each
block into the tracks' own output arrays, so what a call allocates beyond
the outputs it returns is the blocks plus one measurement array per track.
Measured with ``tracemalloc`` (started and stopped here) at two trip
lengths: the transient may grow by one float64 array per track between
them, plus a constant.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.batch import _estimate_tracks_vectorized
from repro.sensors.base import SampledSignal

N_TRACKS = 24
SHORT, LONG = 2_000, 8_000


def _tracks(n: int):
    """``N_TRACKS`` tracks of ``n`` ticks, a speed measurement every tick."""
    rng = np.random.default_rng(n)
    t = np.arange(n) * 0.02
    accels = [SampledSignal(t=t, values=rng.normal(0.3, 0.08, n), name="accel-long")]
    velocities = [SampledSignal(t=t, values=12.0 + rng.normal(0.0, 0.1, n), name="speedometer")]
    accels *= N_TRACKS
    velocities *= N_TRACKS
    return accels, velocities, [12.0 * t] * N_TRACKS


def _transient_bytes(n: int) -> int:
    """Peak traced memory of one kernel call minus what it retains."""
    accels, velocities, arcs = _tracks(n)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        tracks = _estimate_tracks_vectorized(accels, velocities, arcs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tracks) == N_TRACKS and len(tracks[0].theta) == n
    return peak - current


def test_transient_grows_by_at_most_one_array_per_track():
    growth = _transient_bytes(LONG) - _transient_bytes(SHORT)
    one_array_per_track = N_TRACKS * (LONG - SHORT) * 8
    # Stacking the whole call at once grew by ~4 arrays per track here.
    assert growth <= one_array_per_track + 256 * 1024, (
        f"transient grew by {growth / 2**20:.2f} MiB from {SHORT} to {LONG} ticks, "
        f"{growth / one_array_per_track:.1f} float64 arrays per track"
    )
