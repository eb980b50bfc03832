"""Golden outputs of the offline estimator on seeded red-route trips.

Two kinds of case, each recording what must never drift, per track: the
CRC-32 of the full theta and variance series, both at a few fixed ticks
as ``float.hex``, the track's health verdict and mean NIS; per trip: the
fused theta's CRC-32, the trip's health verdict and the matched-fix count
of the map matcher (the ``alignment.matched_fixes`` counter).

* ``estimate/faulty-<seed>``: one faulty trip (a GPS dropout, an
  accelerometer NaN burst and timestamp jitter) through ``estimate`` with
  ``ROBUST_STAGES``.
* ``estimate/gps-denied-7``: one red-route trip with a 30 s GPS dropout
  at 40 s through ``estimate`` with ``ROBUST_STAGES`` and the GPS-denied
  mode on, fed a prior map built from the true profile. It also records
  the GPS track's outage plan (map updates, reacquisitions).
* ``estimate_batch/ragged-8``: eight clean trips of different lengths
  through one ``estimate_batch`` call. Their 32 EKF tracks take the
  vectorized kernel, and fewer than ``BATCH_MIN_TRACKS`` of them are still
  live at the longest trip's end, so the call's live width crosses the
  routing threshold.
* ``evaluate_trips/red-route-<n>``: a small seeded red-route run of the
  fleet evaluator (serial backend), and ``.../fail-1`` the same run with a
  ``fault_hook`` that fails trip 1 at ``retries=0``. Each records the
  per-trip theta CRC-32s (on the report grid), the fused theta's CRC-32,
  ``summary()`` with floats as ``float.hex`` and the merged ``ekf_ticks``
  and ``pipeline.estimates`` counters.

``tests/core/test_offline_golden.py`` reruns every case and compares it
with ``offline_golden.json``; the batch case must also come out of
per-trip ``estimate`` calls, and the evaluator cases out of one-trip and
three-trip chunks alike.

Regenerate (only when a change to the offline outputs is intended)::

    PYTHONPATH=src python tests/core/gen_offline_golden.py --force

Without ``--force`` the script refuses to overwrite an existing file.
"""

from __future__ import annotations

import argparse
import json
import logging
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np

from repro.core.pipeline import GradientEstimationSystem
from repro.core.stages import ROBUST_STAGES
from repro.datasets.charlottesville import red_route
from repro.eval.parallel import ParallelConfig, evaluate_trips
from repro.eval.runner import RunnerConfig, simulate_recording, system_config
from repro.faults.suite import FaultSpec, FaultSuiteConfig, apply_fault_suite
from repro.core.dead_reckoning import GPSDeniedConfig
from repro.obs import Telemetry
from repro.roads.prior_map import PriorGradeMap

GOLDEN_PATH = Path(__file__).with_name("offline_golden.json")

#: Ticks whose theta and variance are stored bit for bit (a 50 Hz red-route
#: trip lasts ~9-10k ticks).
PROBE_TICKS = (0, 1, 49, 500, 2999, 6000, 8800)

#: Seeds of the faulty ``estimate`` trips.
FAULTY_SEEDS = (3, 4, 5)

#: Seed of the GPS-denied ``estimate`` trip, and its dropout window [s].
GPS_DENIED_SEED = 7
GPS_DENIED_DROPOUT = (40.0, 30.0)

#: Seed and trip count of the ragged ``estimate_batch`` case.
BATCH_SEED = 11
BATCH_TRIPS = 8

#: Seed and trip count of the ``evaluate_trips`` cases; chunks of three
#: split the run into a full and a ragged chunk.
EVAL_SEED = 21
EVAL_TRIPS = 4
EVAL_CHUNK_SIZES = (1, 3)

#: The trip the ``fail-1`` evaluator case fails.
EVAL_FAILING_TRIP = 1

#: Merged counters the evaluator cases pin.
EVAL_COUNTERS = ("ekf_ticks", "pipeline.estimates")

#: The health monitor logs every flag; the goldens hold the verdicts.
_QUIET = logging.getLogger("offline_golden")
_QUIET.addHandler(logging.NullHandler())
_QUIET.propagate = False


def _telemetry(name: str) -> Telemetry:
    return Telemetry(name, logger=_QUIET)


def _hex(x: float) -> str:
    return float(x).hex()


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr, dtype=np.float64).tobytes())


def _hexify(value):
    """``value`` with every float written as ``float.hex`` (JSON-ready)."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: _hexify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexify(item) for item in value]
    return value


def _faulty_trip(seed: int):
    _, rec = simulate_recording(red_route(), RunnerConfig(seed=seed), 0)
    duration = float(rec.t[-1] - rec.t[0])
    suite = FaultSuiteConfig(
        faults=(
            FaultSpec(kind="gps_dropout", start_s=0.3 * duration, duration_s=20.0),
            FaultSpec(
                kind="nan_burst",
                channel="accel_long",
                start_s=0.6 * duration,
                duration_s=0.4,
            ),
            FaultSpec(kind="jitter", severity=0.2),
        ),
        seed=seed,
    )
    return apply_fault_suite(rec, suite, 0)


@lru_cache(maxsize=None)
def batch_recordings() -> tuple:
    """The ragged batch's eight clean red-route trips."""
    route = red_route()
    cfg = RunnerConfig(seed=BATCH_SEED)
    return tuple(simulate_recording(route, cfg, i)[1] for i in range(BATCH_TRIPS))


def record_trip(result, tel: Telemetry) -> dict:
    """One trip's golden record, JSON-ready (floats as ``float.hex``)."""
    counters = tel.metrics.snapshot()["counters"]
    tracks = {}
    for name, track in sorted(result.tracks.items()):
        health = result.health.tracks[name]
        tracks[name] = {
            "n": len(track.theta),
            "theta_crc32": _crc(track.theta),
            "variance_crc32": _crc(track.variance),
            "theta_at": {
                str(i): _hex(track.theta[i]) for i in PROBE_TICKS if i < len(track.theta)
            },
            "variance_at": {
                str(i): _hex(track.variance[i])
                for i in PROBE_TICKS
                if i < len(track.variance)
            },
            "verdict": health.verdict,
            "nis_mean": _hex(health.nis_mean),
        }
    return {
        "fused_crc32": _crc(result.fused.theta),
        "verdict": result.health.verdict,
        "matched_fixes": counters["alignment.matched_fixes"],
        "tracks": tracks,
    }


def run_faulty(seed: int) -> dict:
    """A faulty trip through ``estimate`` with ``ROBUST_STAGES``."""
    tel = _telemetry(f"faulty-{seed}")
    system = GradientEstimationSystem(
        red_route(), config=system_config(RunnerConfig(stages=ROBUST_STAGES)),
        telemetry=tel,
    )
    return record_trip(system.estimate(_faulty_trip(seed)), tel)


def run_gps_denied(seed: int) -> dict:
    """A trip with a GPS dropout through ``estimate`` with the GPS-denied
    mode and a prior map of the true profile."""
    route = red_route()
    _, rec = simulate_recording(route, RunnerConfig(seed=seed), 0)
    start_s, duration_s = GPS_DENIED_DROPOUT
    suite = FaultSuiteConfig(
        faults=(FaultSpec(kind="gps_dropout", start_s=start_s, duration_s=duration_s),),
        seed=seed,
    )
    gps_denied = GPSDeniedConfig(
        enabled=True, prior_map=PriorGradeMap.from_profile(route).to_config()
    )
    cfg = system_config(RunnerConfig(stages=ROBUST_STAGES, gps_denied=gps_denied))
    tel = _telemetry(f"gps-denied-{seed}")
    system = GradientEstimationSystem(route, config=cfg, telemetry=tel)
    result = system.estimate(apply_fault_suite(rec, suite, 0))
    record = record_trip(result, tel)
    record["gps_plan"] = result.tracks["gps"].meta["gps_denied"]
    return record


def run_batch() -> list[dict]:
    """The ragged batch through one ``estimate_batch`` call."""
    recs = batch_recordings()
    tels = [_telemetry(f"batch-{i}") for i in range(len(recs))]
    system = GradientEstimationSystem(red_route(), config=system_config(RunnerConfig()))
    out = system.estimate_batch(list(recs), telemetries=tels)
    if out.errors:
        raise RuntimeError(f"batch trips failed: {out.errors}")
    return [record_trip(res, tel) for res, tel in zip(out.results, tels)]


def run_batch_serial() -> list[dict]:
    """The ragged batch's trips through one ``estimate`` call each."""
    out = []
    for i, rec in enumerate(batch_recordings()):
        tel = _telemetry(f"batch-{i}")
        system = GradientEstimationSystem(
            red_route(), config=system_config(RunnerConfig()), telemetry=tel
        )
        out.append(record_trip(system.estimate(rec), tel))
    return out


def _fail_one_trip(index: int) -> None:
    if index == EVAL_FAILING_TRIP:
        raise RuntimeError("injected trip failure")


def run_eval(name: str, chunk_size: int = 1) -> dict:
    """The named evaluator case on the serial backend, in chunks of
    ``chunk_size``."""
    tel = _telemetry("eval")
    cfg = RunnerConfig(n_trips=EVAL_TRIPS, seed=EVAL_SEED)
    failing = name.endswith(f"/fail-{EVAL_FAILING_TRIP}")
    report = evaluate_trips(
        red_route(),
        cfg,
        ParallelConfig(backend="serial", retries=0, chunk_size=chunk_size),
        telemetry=tel,
        fault_hook=_fail_one_trip if failing else None,
    )
    counters = tel.metrics.snapshot()["counters"]
    return {
        "trips_theta_crc32": [
            None if trip.theta is None else _crc(trip.theta) for trip in report.trips
        ],
        "fused_crc32": _crc(report.fused_theta),
        "summary": _hexify(report.summary()),
        "counters": {key: counters[key] for key in EVAL_COUNTERS},
    }


def eval_case_names() -> list[str]:
    run = f"evaluate_trips/red-route-{EVAL_TRIPS}"
    return [run, f"{run}/fail-{EVAL_FAILING_TRIP}"]


def case_names() -> list[str]:
    return (
        [f"estimate/faulty-{s}" for s in FAULTY_SEEDS]
        + [f"estimate/gps-denied-{GPS_DENIED_SEED}"]
        + [f"estimate_batch/ragged-{BATCH_TRIPS}"]
        + eval_case_names()
    )


def run_case(name: str):
    """The named case's golden record."""
    kind, _, label = name.partition("/")
    if kind == "estimate" and label.startswith("gps-denied-"):
        return run_gps_denied(int(label.rsplit("-", 1)[1]))
    if kind == "estimate":
        return run_faulty(int(label.rsplit("-", 1)[1]))
    if kind == "estimate_batch":
        return run_batch()
    if kind == "evaluate_trips":
        return run_eval(name)
    raise KeyError(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="overwrite an existing golden file"
    )
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    if args.out.exists() and not args.force:
        parser.error(f"{args.out} exists; pass --force to overwrite it")
    goldens = {name: run_case(name) for name in case_names()}
    if run_batch_serial() != goldens[f"estimate_batch/ragged-{BATCH_TRIPS}"]:
        raise SystemExit("estimate_batch and per-trip estimate disagree")
    for name in eval_case_names():
        for chunk_size in EVAL_CHUNK_SIZES:
            if run_eval(name, chunk_size) != goldens[name]:
                raise SystemExit(f"{name} differs at chunk size {chunk_size}")
    args.out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
