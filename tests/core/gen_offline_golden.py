"""Golden outputs of the offline estimator on seeded red-route trips.

Two kinds of case, each recording what must never drift, per track: the
CRC-32 of the full theta and variance series, both at a few fixed ticks
as ``float.hex``, the track's health verdict and mean NIS; per trip: the
fused theta's CRC-32, the trip's health verdict and the matched-fix count
of the map matcher (the ``alignment.matched_fixes`` counter).

* ``estimate/faulty-<seed>``: one faulty trip (a GPS dropout, an
  accelerometer NaN burst and timestamp jitter) through ``estimate`` with
  ``ROBUST_STAGES``.
* ``estimate_batch/ragged-8``: eight clean trips of different lengths
  through one ``estimate_batch`` call. Their 32 EKF tracks take the
  vectorized kernel, and fewer than ``BATCH_MIN_TRACKS`` of them are still
  live at the longest trip's end, so the call's live width crosses the
  routing threshold.

``tests/core/test_offline_golden.py`` reruns every case and compares it
with ``offline_golden.json``; the batch case must also come out of
per-trip ``estimate`` calls.

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
from repro.eval.runner import RunnerConfig, simulate_recording, system_config
from repro.faults.suite import FaultSpec, FaultSuiteConfig, apply_fault_suite
from repro.obs import Telemetry

GOLDEN_PATH = Path(__file__).with_name("offline_golden.json")

#: Ticks whose theta and variance are stored bit for bit (a 50 Hz red-route
#: trip lasts ~9-10k ticks).
PROBE_TICKS = (0, 1, 49, 500, 2999, 6000, 8800)

#: Seeds of the faulty ``estimate`` trips.
FAULTY_SEEDS = (3, 4, 5)

#: Seed and trip count of the ragged ``estimate_batch`` case.
BATCH_SEED = 11
BATCH_TRIPS = 8

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


def case_names() -> list[str]:
    return [f"estimate/faulty-{s}" for s in FAULTY_SEEDS] + [
        f"estimate_batch/ragged-{BATCH_TRIPS}"
    ]


def run_case(name: str):
    """The named case's golden record."""
    kind, _, label = name.partition("/")
    if kind == "estimate":
        return run_faulty(int(label.rsplit("-", 1)[1]))
    if kind == "estimate_batch":
        return run_batch()
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
    args.out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
