"""Golden outputs of the streaming estimator on seeded red-route replays.

Each case replays one simulated red-route trip (GPS Doppler speed only,
the on-phone situation) through :class:`StreamingGradientEstimator` and
records what must never drift: the CRC-32 of the full theta series, theta
at a few fixed ticks as ``float.hex``, the estimator's end state and, for
the telemetry case, the counter snapshot and the logged events.
``tests/core/test_streaming_golden.py`` replays every case through both
``run()`` and a ``push()`` loop and compares against
``streaming_golden.json``.

Regenerate (only when a change to the streaming outputs is intended)::

    PYTHONPATH=src python tests/core/gen_streaming_golden.py --force

Without ``--force`` the script refuses to overwrite an existing file.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core.dead_reckoning import GPSDeniedConfig
from repro.core.gradient_ekf import GradientEKFConfig, measurements_on_timebase
from repro.core.online import StreamingGradientEstimator
from repro.datasets.charlottesville import red_route
from repro.eval.runner import RunnerConfig, simulate_recording
from repro.obs import Telemetry, get_logger
from repro.roads.prior_map import PriorGradeMap

GOLDEN_PATH = Path(__file__).with_name("streaming_golden.json")

#: Ticks whose theta is stored bit for bit (a 50 Hz replay lasts ~9.4k ticks).
PROBE_TICKS = (0, 1, 49, 500, 2999, 3500, 4200, 6000, 9000)

#: GPS Doppler speed noise the replays are fused with [m/s].
MEASUREMENT_STD = 0.30

#: ``get_logger`` is idempotent per name, so each replay logs under its own.
_LOGGER_IDS = itertools.count()


@dataclass(frozen=True)
class Replay:
    """One streaming case: estimator arguments plus the run() inputs."""

    kwargs: dict
    accel: np.ndarray
    v_meas: np.ndarray
    gyro: np.ndarray | None = None
    fix_quality: np.ndarray | None = None
    telemetry: bool = False


def _trip(seed: int):
    route = red_route()
    _, rec = simulate_recording(route, RunnerConfig(seed=seed), 0)
    t = rec.accel_long.t
    z = measurements_on_timebase(t, rec.gps.speed_signal())
    return route, t, rec, z


def _outage(t: np.ndarray, z: np.ndarray, start_s: float, length_s: float):
    z = z.copy()
    z[(t >= t[0] + start_s) & (t < t[0] + start_s + length_s)] = np.nan
    return z


def _gps_denied_kwargs(route, prior: bool) -> dict:
    return {
        "gps_denied": GPSDeniedConfig(enabled=True),
        "prior_map": PriorGradeMap.from_profile(route) if prior else None,
        "road": route,
    }


def build_case(name: str) -> Replay:
    """The named case's estimator arguments and input arrays."""
    base = {
        "config": GradientEKFConfig(process=RunnerConfig().process),
        "measurement_std": MEASUREMENT_STD,
    }
    if name == "gps_denied_off":
        # Bootstrap from the first fix; the mode machine is off.
        route, t, rec, z = _trip(seed=1)
        return Replay(base, rec.accel_long.values, z)
    if name == "outage_map_road":
        # A 30 s total outage: coasting, dead reckoning on the road's
        # headings, prior-map gradient updates, reacquisition.
        route, t, rec, z = _trip(seed=2)
        return Replay(
            {**base, **_gps_denied_kwargs(route, prior=True)},
            rec.accel_long.values,
            _outage(t, z, 60.0, 30.0),
            gyro=rec.gyro.values,
        )
    if name == "fix_quality":
        # Mostly good fixes with marginal and unusable ones sprinkled in,
        # a 20 s unusable stretch (an outage by quality alone) and a
        # marginal fix at the start of reacquisition.
        route, t, rec, z = _trip(seed=3)
        rng = np.random.default_rng(33)
        quality = rng.choice(
            [1.0, 0.9, 0.5, 0.1, np.nan], size=len(t), p=[0.6, 0.1, 0.15, 0.1, 0.05]
        )
        rel = t - t[0]
        quality[(rel >= 70.0) & (rel < 90.0)] = 0.1
        quality[(rel >= 90.0) & (rel < 92.0)] = 0.5
        return Replay(
            {**base, "v0": float(z[np.isfinite(z)][0]),
             **_gps_denied_kwargs(route, prior=False)},
            rec.accel_long.values,
            z,
            gyro=rec.gyro.values,
            fix_quality=quality,
        )
    if name == "nan_accel_burst":
        # A 1.2 s NaN accelerometer burst: every tick recovers.
        route, t, rec, z = _trip(seed=4)
        accel = rec.accel_long.values.copy()
        accel[4000:4060] = np.nan
        return Replay({**base, "v0": float(z[np.isfinite(z)][0])}, accel, z)
    if name == "telemetry":
        # The outage case's shape plus a NaN burst after reacquisition,
        # with telemetry active.
        route, t, rec, z = _trip(seed=5)
        accel = rec.accel_long.values.copy()
        accel[7000:7010] = np.nan
        return Replay(
            {**base, **_gps_denied_kwargs(route, prior=True)},
            accel,
            _outage(t, z, 80.0, 30.0),
            gyro=rec.gyro.values,
            telemetry=True,
        )
    raise KeyError(name)


CASE_NAMES = (
    "gps_denied_off",
    "outage_map_road",
    "fix_quality",
    "nan_accel_burst",
    "telemetry",
)


def _hex(x: float) -> str:
    return float(x).hex()


def end_state(est: StreamingGradientEstimator) -> dict:
    """Every piece of estimator state a replay leaves behind, JSON-ready
    (floats as ``float.hex`` so equality is bit equality)."""
    core = est._core
    state = {
        "v": _hex(core.v),
        "theta": _hex(core.theta),
        "p11": _hex(core.p11),
        "p12": _hex(core.p12),
        "p22": _hex(core.p22),
        "b": _hex(core.b),
        "c": _hex(core.c),
        "d": _hex(core.d),
        "t": _hex(est._t),
        "ticks": est.ticks,
        "recoveries": est.recoveries,
        "mode": est.mode,
        "transitions": est.mode_transitions,
        "map_updates": est.map_updates,
    }
    if est._gd is not None:
        state["s_est"] = _hex(est._s_est)
        state["dry_ticks"] = est._dry_ticks
    return state


def _make(case: Replay):
    log = io.StringIO()
    tel = None
    if case.telemetry:
        tel = Telemetry(
            "streaming-golden",
            logger=get_logger(
                f"streaming.golden.{next(_LOGGER_IDS)}", stream=log, fmt="json"
            ),
        )
    return StreamingGradientEstimator(0.02, telemetry=tel, **case.kwargs), tel, log


def _record(est, theta: np.ndarray, tel, log: io.StringIO) -> dict:
    theta = np.ascontiguousarray(theta, dtype=np.float64)
    out = {
        "n": len(theta),
        "crc32": zlib.crc32(theta.tobytes()),
        "theta_at": {str(i): _hex(theta[i]) for i in PROBE_TICKS if i < len(theta)},
        "end": end_state(est),
    }
    if tel is not None:
        out["counters"] = tel.metrics.snapshot()["counters"]
        events = []
        for line in log.getvalue().splitlines():
            record = json.loads(line)
            del record["ts"], record["logger"]
            events.append(record)
        out["events"] = events
    return out


def replay_run(case: Replay) -> dict:
    """The case through one ``run()`` call."""
    est, tel, log = _make(case)
    theta = est.run(
        case.accel, case.v_meas, gyro=case.gyro, fix_quality=case.fix_quality
    )
    return _record(est, theta, tel, log)


def replay_push(case: Replay) -> dict:
    """The case through a ``push()`` per sample."""
    est, tel, log = _make(case)
    n = len(case.accel)
    gyro = case.gyro.tolist() if case.gyro is not None else [0.0] * n
    quality = case.fix_quality.tolist() if case.fix_quality is not None else [None] * n
    theta = np.array([
        est.push(a, z, g, q).theta
        for a, z, g, q in zip(case.accel.tolist(), case.v_meas.tolist(), gyro, quality)
    ])
    return _record(est, theta, tel, log)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="overwrite an existing golden file"
    )
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    if args.out.exists() and not args.force:
        parser.error(f"{args.out} exists; pass --force to overwrite it")
    goldens = {}
    for name in CASE_NAMES:
        case = build_case(name)
        got = replay_run(case)
        if replay_push(case) != got:
            raise SystemExit(f"{name}: run() and the push() loop disagree")
        goldens[name] = got
    args.out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
