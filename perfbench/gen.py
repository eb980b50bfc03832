"""Seeded input generation for the benchmark workloads.

Every input is a pure function of ``(seed, index)``: the same seed yields
the same recordings bit for bit (:func:`digest` hashes every array, and the
benchmark's tests pin it), and a prefix of a pool (``n=1`` for the set-up
probes) is the same as the first entries of the full pool. Nothing is
cached on disk between runs, so a change to the simulator, the phone model
or the fault injectors can never leave stale inputs behind; the trip
stores of ``fleet_store`` are rewritten by every run.

The library is driven through its public API: trips come from
``repro.eval.runner.simulate_recording`` (driver, simulator and phone all
seeded per trip index), extra phones re-record the same drive with their
own generator, and faults are applied with ``apply_fault_suite``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import Smartphone, red_route
from repro.core.gradient_ekf import measurements_on_timebase
from repro.eval.runner import RunnerConfig, simulate_recording
from repro.faults.suite import FaultSpec, FaultSuiteConfig, apply_fault_suite
from repro.sensors.phone import PhoneRecording
from repro.sensors.recording_io import TripStore

#: Distinct faulty trips in one ``trip_single`` pass.
TRIP_SINGLE_TRIPS = 12
#: ``fleet_store``: drives x phones, one store per phone (8 trips each).
FLEET_DRIVES = 8
FLEET_STORES = 4
#: ``stream_outage``: drives x phones replays, each cut to the same length
#: so that every call does the same work; replays whose index is 1 or 3
#: modulo 5 (10 of 24) have an outage. Not exactly half, so that the
#: median call does not fall on the gap between the two kinds of replay.
STREAM_DRIVES = 8
STREAM_PHONES = 3
STREAM_TICKS = 8000
STREAM_OUTAGE_S = 30.0

#: Trip-index ranges per workload, so the workloads never share a drive.
_TRIP_SINGLE_BASE = 0
_FLEET_BASE = 100
_STREAM_BASE = 200
_PRIOR_DRIVE = 300


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _drive(seed: int, index: int):
    """One simulated drive over the red route and its first phone."""
    trace, rec = simulate_recording(red_route(), RunnerConfig(n_trips=1, seed=seed), index)
    # Estimators never read the truth; dropping it keeps the pools small.
    return trace, dataclasses.replace(rec, truth=None)


def _rerecord(trace, seed: int, *stream: int) -> PhoneRecording:
    """Another phone riding the same drive, with its own noise draw."""
    rec = Smartphone().record(trace, _rng(seed, *stream))
    return dataclasses.replace(rec, truth=None)


def trip_single_inputs(seed: int, n: int = TRIP_SINGLE_TRIPS) -> list[PhoneRecording]:
    """Faulty red-route trips: a 20 s GPS dropout, a short accelerometer
    NaN burst and timestamp jitter on every trip, windows drawn per trip."""
    out = []
    for i in range(n):
        _, rec = _drive(seed, _TRIP_SINGLE_BASE + i)
        rng = _rng(seed, 1, i)
        duration = float(rec.t[-1] - rec.t[0])
        suite = FaultSuiteConfig(
            faults=(
                FaultSpec(
                    kind="gps_dropout",
                    start_s=float(rng.uniform(40.0, duration - 60.0)),
                    duration_s=20.0,
                ),
                FaultSpec(
                    kind="nan_burst",
                    channel="accel_long",
                    start_s=float(rng.uniform(20.0, duration - 20.0)),
                    duration_s=float(rng.uniform(0.2, 0.6)),
                ),
                FaultSpec(kind="jitter", severity=0.2),
            ),
            seed=seed,
        )
        out.append(apply_fault_suite(rec, suite, i))
    return out


def fleet_recordings(seed: int) -> list[list[PhoneRecording]]:
    """Clean fleet trips grouped per store: store ``k`` holds phone ``k``'s
    recordings of all drives, so every store mixes eight distinct drives."""
    stores: list[list[PhoneRecording]] = [[] for _ in range(FLEET_STORES)]
    for d in range(FLEET_DRIVES):
        trace, rec = _drive(seed, _FLEET_BASE + d)
        stores[0].append(rec)
        for k in range(1, FLEET_STORES):
            stores[k].append(_rerecord(trace, seed, 2, d, k))
    return stores


def write_fleet_stores(seed: int, root: Path) -> tuple[list[Path], str]:
    """Write the fleet as trip stores under ``root``; returns the store
    directories and the digest of the recordings written."""
    if root.exists():
        shutil.rmtree(root)
    groups = fleet_recordings(seed)
    paths = []
    for k, recs in enumerate(groups):
        path = root / f"store-{k}"
        TripStore.write(path, recs)
        paths.append(path)
    return paths, digest(groups)


@dataclass(frozen=True)
class Replay:
    """One GPS-speed-only streaming replay and its truth."""

    dt: float
    accel: np.ndarray
    gyro: np.ndarray
    v_meas: np.ndarray  # GPS Doppler speed on the phone timebase, NaN = no fix
    truth_t: np.ndarray
    truth_grade: np.ndarray
    outage: tuple[float, float] | None  # [start, end) in recording time


@dataclass(frozen=True)
class StreamInputs:
    prior_drive: PhoneRecording  # clean "previous drive" the prior map is banked from
    replays: list[Replay]


def _replay(trace, rec: PhoneRecording, outage_start: float | None) -> Replay:
    n = STREAM_TICKS
    t = rec.accel_long.t[:n]
    z = measurements_on_timebase(t, rec.gps.speed_signal())
    outage = None
    if outage_start is not None:
        start = float(t[0]) + outage_start
        outage = (start, start + STREAM_OUTAGE_S)
        z[(t >= outage[0]) & (t < outage[1])] = np.nan
    return Replay(
        dt=float(np.median(np.diff(t))),
        accel=np.array(rec.accel_long.values[:n], dtype=float),
        gyro=np.array(rec.gyro.values[:n], dtype=float),
        v_meas=z,
        truth_t=np.array(trace.t[:n], dtype=float),
        truth_grade=np.array(trace.grade[:n], dtype=float),
        outage=outage,
    )


def stream_inputs(seed: int, n: int = STREAM_DRIVES * STREAM_PHONES) -> StreamInputs:
    """The prior-map drive plus ``n`` replays of ``STREAM_TICKS`` samples;
    an outage replay loses every GPS fix for 30 s, starting at least 50 s
    into the replay and at least 60 s before its end."""
    _, prior = _drive(seed, _PRIOR_DRIVE)
    replays = []
    trace = None
    for r in range(n):
        d, p = divmod(r, STREAM_PHONES)
        if p == 0:
            trace, rec = _drive(seed, _STREAM_BASE + d)
        else:
            rec = _rerecord(trace, seed, 3, d, p)
        start = None
        if r % 5 in (1, 3):
            duration = float(rec.t[: STREAM_TICKS][-1] - rec.t[0])
            start = float(_rng(seed, 4, r).uniform(50.0, duration - 60.0))
        replays.append(_replay(trace, rec, start))
    return StreamInputs(prior_drive=prior, replays=replays)


def digest(obj) -> str:
    """SHA-256 over every array and scalar reachable from ``obj``."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj) -> None:
    if isinstance(obj, np.ndarray):
        h.update(f"nd{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, dict):
        for key in sorted(obj, key=str):
            h.update(str(key).encode())
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(f"seq{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())
