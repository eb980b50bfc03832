"""The three workloads: inputs, set-up, one timed pass, scoring, mechanism.

Each workload runs whole *passes* over a fixed, seeded pool of inputs, so
every pass does the same work and every exact count is a fixed multiple of
the pass count. A pass is one session: it builds a fresh system, so no
cached road geometry carries over from an earlier pass and every trip is
new to the system that estimates it.

Every call into the library goes through a public entry point and sits in
a benchmark span (``bench.*``); with tracing off those spans are the
library's shared no-op span.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import red_route
from repro.core.dead_reckoning import GPSDeniedConfig
from repro.core.gradient_ekf import GradientEKFConfig
from repro.core.online import StreamingGradientEstimator
from repro.core.pipeline import GradientEstimationSystem, fuse_estimates
from repro.core.stages import ROBUST_STAGES
from repro.eval.runner import RunnerConfig, system_config
from repro.obs import Telemetry
from repro.obs.metrics import parse_metric_key
from repro.roads.prior_map import PriorGradeMap
from repro.roads.reference import survey_reference_profile
from repro.sensors.recording_io import TripStore

from . import gen
from .hostspeed import HostSpeed
from .measure import spans_named

#: Scoring grid for the offline workloads, as in ``repro.eval.runner``:
#: the route minus an 80 m trim at each end, every 5 m, against the Sec
#: III-D reference survey smoothed over 15 m.
TRIM_M = 80.0
GRID_M = 5.0
REFERENCE_SMOOTH_M = 15.0
#: The streaming workload skips the filter bootstrap when scoring.
STREAM_SETTLE_S = 10.0
STREAM_MEASUREMENT_STD = 0.30


@dataclass
class PassResult:
    """What one pass over the pool did."""

    trips: int = 0
    calls: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per entry-point call
    failed: dict[int, str] = field(default_factory=dict)  # pool index -> reason
    checksums: list[int] = field(default_factory=list)  # crc32 of every output, in order
    outputs: list | None = None  # the outputs themselves, kept for scoring
    evidence: dict[str, int] = field(default_factory=dict)  # road-cache hits and misses


@dataclass
class Accuracy:
    mae_deg: float
    rmse_deg: float
    non_finite: list[int]  # pool indices whose output was not finite
    extra: dict[str, float] = field(default_factory=dict)


def _crc(arr: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(arr).tobytes())


def _reference(route) -> tuple[np.ndarray, np.ndarray]:
    reference = survey_reference_profile(route).smoothed(REFERENCE_SMOOTH_M)
    n = int((route.length - 2 * TRIM_M) / GRID_M) + 1
    grid = TRIM_M + np.arange(n) * GRID_M
    return grid, np.asarray(reference.gradient_at(grid), dtype=float)


def _pooled(errors: list[np.ndarray]) -> tuple[float, float]:
    err = np.concatenate(errors) if errors else np.array([math.nan])
    return float(np.mean(np.abs(err))), float(np.sqrt(np.mean(err**2)))


def _score_tracks(tracks: list, grid: np.ndarray, truth: np.ndarray) -> Accuracy:
    """Pooled error of fused tracks (``None`` = failed trip) on the grid."""
    errors, bad = [], []
    for i, track in enumerate(tracks):
        if track is None:
            continue
        theta = np.interp(grid, track.s, track.theta)
        if not np.all(np.isfinite(theta)):
            bad.append(i)
            continue
        errors.append(np.degrees(theta - truth))
    mae, rmse = _pooled(errors)
    return Accuracy(mae, rmse, bad)


#: The sanitize stage's repair counters.
SANITIZE_COUNTERS = ("pipeline.gap_interpolated", "pipeline.gap_masked", "pipeline.gps_fixes_masked")


def counter_total(tel: Telemetry, names) -> int:
    """Sum of the named counters over every label set."""
    wanted = {names} if isinstance(names, str) else set(names)
    return sum(
        int(value)
        for key, value in tel.metrics.snapshot()["counters"].items()
        if parse_metric_key(key)[0] in wanted
    )


def tracks_per_ekf_call(roots) -> float:
    """Velocity-source tracks entering one ``ekf_tracks`` stage call."""
    calls = spans_named(roots, "ekf_tracks")
    tracks = sum(
        1
        for call in calls
        for span in spans_named([call], "track")
        if not span.attributes.get("rejected")
    )
    return tracks / len(calls) if calls else 0.0


class TripSingle:
    """``estimate`` on one faulty trip per call, ``ROBUST_STAGES``."""

    name = "trip_single"

    def generate(self, seed: int, data_dir: Path, probe: bool) -> dict:
        recs = gen.trip_single_inputs(seed, 1 if probe else gen.TRIP_SINGLE_TRIPS)
        return {"recordings": recs, "digest": gen.digest(recs)}

    def build(self, inputs: dict, timings: dict) -> dict:
        route = red_route()
        config = system_config(RunnerConfig(stages=ROBUST_STAGES))
        return {
            "route": route,
            "config": config,
            "system": GradientEstimationSystem(route, config=config),
            "recordings": inputs["recordings"],
        }

    def warm_up(self, state: dict) -> None:
        state["system"].estimate(state["recordings"][0])

    def run_pass(self, state: dict, tel: Telemetry, keep: bool, host: HostSpeed | None) -> PassResult:
        out = PassResult(outputs=[] if keep else None)
        system = GradientEstimationSystem(state["route"], config=state["config"], telemetry=tel)
        for i, rec in enumerate(state["recordings"]):
            if host:
                host.between_calls()
            t0 = perf_counter()
            try:
                with tel.span("bench.call"):
                    result = system.estimate(rec)
            except Exception as exc:  # noqa: BLE001 - a failed trip is counted, not fatal
                out.calls.append((t0, perf_counter()))
                out.failed[i] = f"{type(exc).__name__}: {exc}"
                result = None
            else:
                out.calls.append((t0, perf_counter()))
                out.checksums.append(_crc(result.fused.theta))
            out.trips += 1
            if keep:
                out.outputs.append(None if result is None else result.fused)
        info = system.road_map.cache_info()
        out.evidence = {"cache_hits": info["hits"], "cache_misses": info["misses"]}
        return out

    def score(self, state: dict, outputs: list) -> Accuracy:
        grid, truth = _reference(state["route"])
        return _score_tracks(outputs, grid, truth)

    def mechanism(self, state: dict, tel: Telemetry) -> tuple[bool, str]:
        """Sanitize must repair samples of the faulty trip."""
        system = GradientEstimationSystem(state["route"], config=state["config"], telemetry=tel)
        system.estimate(state["recordings"][0])
        repaired = counter_total(tel, SANITIZE_COUNTERS)
        return repaired > 0, f"sanitize repaired {repaired} samples on trip 0"


class FleetStore:
    """``estimate_batch`` over memory-mapped trip stores, then cloud fusion."""

    name = "fleet_store"

    def generate(self, seed: int, data_dir: Path, probe: bool) -> dict:
        if probe:
            # Set-up probes open the stores their parent run wrote.
            paths = sorted(data_dir.glob("store-*"))
            if len(paths) != gen.FLEET_STORES:
                raise FileNotFoundError(f"no trip stores under {data_dir}")
            return {"paths": paths, "digest": ""}
        paths, digest = gen.write_fleet_stores(seed, data_dir)
        return {"paths": paths, "digest": digest}

    def build(self, inputs: dict, timings: dict) -> dict:
        route = red_route()
        config = system_config(RunnerConfig())
        return {
            "route": route,
            "config": config,
            "system": GradientEstimationSystem(route, config=config),
            "paths": inputs["paths"],
            "stores": [TripStore.open(p) for p in inputs["paths"]],
        }

    def warm_up(self, state: dict) -> None:
        state["system"].estimate_batch(state["stores"][0].batch())

    def run_pass(self, state: dict, tel: Telemetry, keep: bool, host: HostSpeed | None) -> PassResult:
        out = PassResult(outputs=[] if keep else None)
        system = GradientEstimationSystem(state["route"], config=state["config"], telemetry=tel)
        results = []
        for path in state["paths"]:
            if host:
                host.between_calls()
            with tel.span("bench.open"):
                store = TripStore.open(path)
            with tel.span("bench.batch"):
                batch = store.batch()
            t0 = perf_counter()
            with tel.span("bench.call"):
                estimate = system.estimate_batch(batch)
            out.calls.append((t0, perf_counter()))
            for j, result in enumerate(estimate.results):
                pos = out.trips + j
                if result is None:
                    err = estimate.errors.get(j)
                    out.failed[pos] = f"{type(err).__name__}: {err}"
                else:
                    out.checksums.append(_crc(result.fused.theta))
                    results.append(result)
                if keep:
                    out.outputs.append(None if result is None else result.fused)
            out.trips += len(estimate)
        with tel.span("bench.fuse"):
            cloud = fuse_estimates(results, telemetry=tel)
        out.checksums.append(_crc(cloud.theta))
        if keep:
            out.outputs.append(cloud)
        info = system.road_map.cache_info()
        out.evidence = {"cache_hits": info["hits"], "cache_misses": info["misses"]}
        return out

    def score(self, state: dict, outputs: list) -> Accuracy:
        grid, truth = _reference(state["route"])
        acc = _score_tracks(outputs[:-1], grid, truth)
        cloud = _score_tracks(outputs[-1:], grid, truth)
        acc.extra["cloud_mae_deg"] = cloud.mae_deg
        if cloud.non_finite:
            acc.non_finite.append(len(outputs) - 1)
        return acc

    def mechanism(self, state: dict, tel: Telemetry) -> tuple[bool, str]:
        """One EKF stage call must carry every track of a whole store."""
        system = GradientEstimationSystem(state["route"], config=state["config"], telemetry=tel)
        system.estimate_batch(state["stores"][0].batch())
        per_call = tracks_per_ekf_call(tel.tracer.roots)
        return per_call >= 32, f"{per_call:g} tracks per ekf_tracks call"


class StreamOutage:
    """``StreamingGradientEstimator.run`` on GPS-speed-only replays with
    GPS-denied mode, dead reckoning and a prior grade map."""

    name = "stream_outage"

    def generate(self, seed: int, data_dir: Path, probe: bool) -> dict:
        inputs = gen.stream_inputs(seed, 2 if probe else gen.STREAM_DRIVES * gen.STREAM_PHONES)
        return {"inputs": inputs, "digest": gen.digest(inputs)}

    def build(self, inputs: dict, timings: dict) -> dict:
        route = red_route()
        t0 = perf_counter()
        offline = GradientEstimationSystem(route, config=system_config(RunnerConfig()))
        prior = PriorGradeMap.from_track(
            offline.estimate(inputs["inputs"].prior_drive).fused, noise_floor=1e-4
        )
        timings["prior_map.build_s"] = perf_counter() - t0
        return {
            "route": route,
            "prior": prior,
            "ekf": GradientEKFConfig(process=RunnerConfig().process),
            "gps_denied": GPSDeniedConfig(enabled=True),
            "replays": inputs["inputs"].replays,
        }

    def _estimator(self, state: dict, replay: gen.Replay, tel: Telemetry | None):
        return StreamingGradientEstimator(
            replay.dt,
            config=state["ekf"],
            measurement_std=STREAM_MEASUREMENT_STD,
            gps_denied=state["gps_denied"],
            prior_map=state["prior"],
            road=state["route"],
            telemetry=tel,
        )

    def warm_up(self, state: dict) -> None:
        replay = state["replays"][1]  # the first replay with an outage
        self._estimator(state, replay, None).run(replay.accel, replay.v_meas, gyro=replay.gyro)

    def run_pass(self, state: dict, tel: Telemetry, keep: bool, host: HostSpeed | None) -> PassResult:
        out = PassResult(outputs=[] if keep else None)
        for replay in state["replays"]:
            if host:
                host.between_calls()
            with tel.span("bench.init"):
                est = self._estimator(state, replay, tel)
            t0 = perf_counter()
            with tel.span("bench.replay"):
                theta = est.run(replay.accel, replay.v_meas, gyro=replay.gyro)
            out.calls.append((t0, perf_counter()))
            out.checksums.append(_crc(theta))
            out.trips += 1
            if keep:
                out.outputs.append(theta)
        return out

    def score(self, state: dict, outputs: list) -> Accuracy:
        errors, bad = [], []
        for i, (theta, replay) in enumerate(zip(outputs, state["replays"])):
            if not np.all(np.isfinite(theta)):
                bad.append(i)
                continue
            scored = replay.truth_t >= replay.truth_t[0] + STREAM_SETTLE_S
            errors.append(np.degrees(theta[scored] - replay.truth_grade[scored]))
        mae, rmse = _pooled(errors)
        return Accuracy(mae, rmse, bad)

    def mechanism(self, state: dict, tel: Telemetry) -> tuple[bool, str]:
        """An outage replay must dead-reckon and fuse prior-map updates."""
        replay = state["replays"][1]
        self._estimator(state, replay, tel).run(replay.accel, replay.v_meas, gyro=replay.gyro)
        dr_ticks = counter_total(tel, "stream.mode.dead_reckoning")
        updates = counter_total(tel, "stream.map_updates")
        return (
            dr_ticks > 0 and updates > 0,
            f"{dr_ticks} dead-reckoning ticks, {updates} map updates on replay 1",
        )


WORKLOADS = {w.name: w for w in (TripSingle(), FleetStore(), StreamOutage())}
