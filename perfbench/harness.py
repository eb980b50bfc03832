"""One benchmark run of one workload in this process.

Order of a run: import (already done by ``run.py``), a reference burst,
generate the seeded inputs (untimed), build and first call, another burst
(import + build + first call, scaled by those two bursts, is one
``setup_s`` sample), ``gc.collect()``, the timed phase (whole passes until
``--seconds`` have elapsed, bursts between calls), scoring and checks, the
mechanism probe, and with tracing off two more set-up samples, each from a
fresh child process. Nothing is written to disk and nothing is logged
inside the timed phase.
"""

from __future__ import annotations

import gc
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

from repro.obs import NULL_TELEMETRY, Telemetry

from .hostspeed import QUIET_BURST_S, HostSpeed, burst
from .measure import duration, layer_self_times, spans_named, tail
from .workloads import (
    SANITIZE_COUNTERS,
    WORKLOADS,
    PassResult,
    counter_total,
    tracks_per_ekf_call,
)

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"
OUT_DIR = BENCH_DIR / "out"
EXPECTED = BENCH_DIR / "expected.json"

#: Set-up samples taken in child processes, on top of the run's own.
SETUP_PROBES = 2
#: The timed phase also runs until this many entry-point calls were made,
#: so the tail percentile always has calls beyond it.
MIN_CALLS = 24
#: Stage spans the library records inside ``estimate``/``estimate_batch``.
STAGES = ("sanitize", "alignment", "lane_change", "ekf_tracks", "fusion")
MODES = ("nominal", "coasting", "dead_reckoning", "reacquiring")

END_TO_END_UNITS = {
    "setup_s": "s",
    "trips_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "mae_deg": "deg",
    "rmse_deg": "deg",
    "ok_frac": "1",
}

PER_LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.build_s": "s",
    "setup.first_call_s": "s",
    "prior_map.build_ms": "ms",
    **{f"{stage}.ms_per_trip": "ms" for stage in STAGES},
    "pipeline.overhead_ms_per_trip": "ms",
    "ekf.ns_per_track_tick": "ns",
    "recording_io.open_ms": "ms",
    "trip_batch.build_ms": "ms",
    "cloud_fusion_ms": "ms",
    "online.ns_per_tick": "ns",
    "online.init_us": "us",
    "ekf.ticks_per_trip": "count",
    "ekf.updates_per_trip": "count",
    "ekf.tracks_per_call": "count",
    "roads_cache.hit_ratio": "1",
    "health.trips_flagged": "count",
    "sanitize.gaps_repaired": "count",
    "estimate_batch.trips_per_call": "count",
    **{f"online.mode_share.{mode}": "1" for mode in MODES},
    "online.map_updates_per_trip": "count",
    "online.mode_transitions_per_trip": "count",
    "trace.overhead_ratio": "1",
    "trace.accounted_frac": "1",
}


@dataclass
class Pass:
    traced: bool
    t0: float
    t1: float
    result: PassResult


def live_telemetry(name: str) -> Telemetry:
    """Library telemetry whose structured logs go to a null sink."""
    log = logging.getLogger("perfbench.null")
    if not log.handlers:
        log.addHandler(logging.NullHandler())
    log.propagate = False
    log.setLevel(logging.CRITICAL + 1)
    return Telemetry(name, logger=log)


def _steal_jiffies() -> tuple[int, int] | None:
    """(steal, total) jiffies of the whole machine, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def data_dir(name: str, seed: int) -> Path:
    """Where a run keeps the files it generates (``fleet_store``'s stores)."""
    return DATA_DIR / f"{name}-seed{seed}"


def setup(workload, seed: int, import_s: float, probe: bool) -> tuple[dict, dict]:
    """Generate inputs (untimed), build and warm up; returns the state and
    the set-up timings, raw and scaled to the quiet host."""
    first_burst = burst()
    inputs = workload.generate(seed, data_dir(workload.name, seed), probe)
    timings = {"import_s": import_s}
    t0 = perf_counter()
    state = workload.build(inputs, timings)
    t1 = perf_counter()
    workload.warm_up(state)
    t2 = perf_counter()
    factor = QUIET_BURST_S / ((first_burst + burst()) / 2)
    timings["build_s"] = t1 - t0
    timings["first_call_s"] = t2 - t1
    timings["raw_setup_s"] = import_s + (t2 - t0)
    timings["setup_s"] = timings["raw_setup_s"] * factor
    state["digest"] = inputs["digest"]
    return state, timings


def probe_setup(name: str, seed: int, import_s: float) -> dict:
    """The ``--setup-probe`` child: one set-up sample, printed as JSON."""
    return setup(WORKLOADS[name], seed, import_s, probe=True)[1]


def _child_setups(name: str, seed: int) -> list[dict]:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=170, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def timed_phase(workload, state: dict, seconds: float, trace: bool) -> dict:
    """Whole passes until ``seconds`` have elapsed (and ``MIN_CALLS`` calls
    were made). With ``trace``, passes alternate untraced / traced."""
    traced_tel = live_telemetry("perfbench") if trace else None
    host = HostSpeed()
    passes: list[Pass] = []
    calls = 0
    gc.collect()
    steal0 = _steal_jiffies()
    cpu0, wall0 = process_time(), perf_counter()
    host.sample()
    while True:
        traced = trace and len(passes) % 2 == 1
        tel = traced_tel if traced else NULL_TELEMETRY
        t0 = perf_counter()
        result = workload.run_pass(state, tel, keep=not passes, host=host)
        passes.append(Pass(traced, t0, perf_counter(), result))
        calls += len(result.calls)
        done = perf_counter() - wall0 >= seconds and calls >= MIN_CALLS
        if done and (not trace or len(passes) >= 2):
            break
    host.sample()
    cpu_s, wall_s = process_time() - cpu0, perf_counter() - wall0
    steal1 = _steal_jiffies()
    steal = None
    if steal0 and steal1 and steal1[1] > steal0[1]:
        steal = (steal1[0] - steal0[0]) / (steal1[1] - steal0[1])
    return {
        "passes": passes,
        "host": host,
        "telemetry": traced_tel,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "steal_frac": steal,
    }


def _rate(passes: list[Pass], host: HostSpeed | None) -> float:
    """Trips per second over the passes, scaled when ``host`` is given."""
    if host is None:
        seconds = sum(p.t1 - p.t0 for p in passes)
    else:
        seconds = sum(host.scaled_span(p.t0, p.t1) for p in passes)
    return sum(p.result.trips for p in passes) / seconds


def _check(workload, seed: int, state: dict, passes: list[Pass]):
    """Correctness checks; returns (problems, accuracy, attempted, failed)."""
    first = passes[0].result
    acc = workload.score(state, first.outputs)
    problems = []
    if any(p.result.checksums != first.checksums for p in passes[1:]):
        problems.append("a later pass produced different outputs than the first")
    attempted = sum(p.result.trips for p in passes)
    failed = sum(len(p.result.failed) for p in passes) + len(acc.non_finite) * len(passes)
    for i, reason in sorted(first.failed.items()):
        problems.append(f"trip {i} failed: {reason}")
    if acc.non_finite:
        problems.append(f"non-finite output for pool entries {acc.non_finite}")
    accuracy = {"mae_deg": acc.mae_deg, "rmse_deg": acc.rmse_deg, **acc.extra}
    problems += _check_accuracy(workload.name, seed, accuracy, state["digest"])
    return problems, accuracy, attempted, failed


def _check_accuracy(name: str, seed: int, accuracy: dict, digest: str) -> list[str]:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    tol = expected["tolerance"]
    recorded = expected["seeds"].get(name, {}).get(str(seed))
    problems = []
    if recorded is None:
        for key, ceiling in expected["ceilings"][name].items():
            if not accuracy[key] <= ceiling:
                problems.append(f"{key} {accuracy[key]:.6g} above the ceiling {ceiling}")
        print(f"accuracy: seed {seed} not recorded; checked against ceilings")
        return problems
    if digest and recorded.get("digest") and digest != recorded["digest"]:
        print(f"warning: inputs for seed {seed} differ from the recorded digest")
    for key, want in recorded.items():
        if key == "digest":
            continue
        got = accuracy[key]
        if not abs(got - want) <= tol["abs"] + tol["rel"] * abs(want):
            problems.append(f"{key} {got:.9g} differs from the recorded {want:.9g}")
    print(f"accuracy: seed {seed} checked against recorded values "
          f"(rel {tol['rel']:g}, abs {tol['abs']:g})")
    return problems


def _per_layer(phase: dict, timings: dict) -> dict:
    """Every per-layer metric from the traced passes (raw wall times)."""
    tel = phase["telemetry"]
    traced = [p for p in phase["passes"] if p.traced]
    untraced = [p for p in phase["passes"] if not p.traced]
    roots = tel.tracer.roots
    trips = sum(p.result.trips for p in traced)
    n_calls = sum(len(p.result.calls) for p in traced)
    self_s = layer_self_times(roots, {"bench.call", *STAGES})
    call_s = sum(duration(s) for s in spans_named(roots, "bench.call"))
    replay_s = sum(duration(s) for s in spans_named(roots, "bench.replay"))
    ekf_ticks = counter_total(tel, "ekf_ticks")
    stream_ticks = counter_total(tel, "stream.ticks")
    hits = sum(p.result.evidence.get("cache_hits", 0) for p in traced)
    misses = sum(p.result.evidence.get("cache_misses", 0) for p in traced)

    def mean_ms(name: str) -> float:
        spans = spans_named(roots, name)
        return 1e3 * sum(duration(s) for s in spans) / len(spans) if spans else 0.0

    def per_tick(name: str) -> float:
        return counter_total(tel, name) / stream_ticks if stream_ticks else 0.0

    m = {
        "setup.import_s": timings["import_s"],
        "setup.build_s": timings["build_s"],
        "setup.first_call_s": timings["first_call_s"],
        "prior_map.build_ms": 1e3 * timings.get("prior_map.build_s", 0.0),
    }
    for stage in STAGES:
        m[f"{stage}.ms_per_trip"] = 1e3 * self_s[stage] / trips
    m["pipeline.overhead_ms_per_trip"] = 1e3 * self_s["bench.call"] / trips
    m["ekf.ns_per_track_tick"] = 1e9 * self_s["ekf_tracks"] / ekf_ticks if ekf_ticks else 0.0
    m["recording_io.open_ms"] = mean_ms("bench.open")
    m["trip_batch.build_ms"] = mean_ms("bench.batch")
    m["cloud_fusion_ms"] = mean_ms("bench.fuse")
    m["online.ns_per_tick"] = 1e9 * replay_s / stream_ticks if stream_ticks else 0.0
    m["online.init_us"] = 1e3 * mean_ms("bench.init")
    m["ekf.ticks_per_trip"] = ekf_ticks / trips
    m["ekf.updates_per_trip"] = counter_total(tel, "ekf_updates") / trips
    m["ekf.tracks_per_call"] = tracks_per_ekf_call(roots)
    m["roads_cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["health.trips_flagged"] = counter_total(tel, "health.trips_flagged") / len(traced)
    m["sanitize.gaps_repaired"] = counter_total(tel, SANITIZE_COUNTERS) / trips
    m["estimate_batch.trips_per_call"] = trips / n_calls
    for mode in MODES:
        m[f"online.mode_share.{mode}"] = per_tick(f"stream.mode.{mode}")
    m["online.map_updates_per_trip"] = counter_total(tel, "stream.map_updates") / trips
    m["online.mode_transitions_per_trip"] = counter_total(tel, "stream.mode.transitions") / trips
    host = phase["host"]
    m["trace.overhead_ratio"] = _rate(untraced, host) / _rate(traced, host)
    m["trace.accounted_frac"] = sum(self_s.values()) / call_s if call_s else 1.0
    return m


def _end_to_end(name: str, seed: int, phase: dict, timings: dict, accuracy: dict,
                attempted: int, failed: int, log: dict) -> dict:
    """Every end-to-end metric, times scaled to the quiet host; the raw
    wall-clock figures go to the run log."""
    host = phase["host"]
    calls = [c for p in phase["passes"] for c in p.result.calls]
    scaled = [host.scaled(a, b) for a, b in calls]
    raw = [b - a for a, b in calls]
    tail_s, pct, n_calls = tail(scaled)
    setups = [timings, *_child_setups(name, seed)]
    log["latency_tail"] = {"percentile": pct, "calls": n_calls}
    log["raw"] = {
        "setup_s": statistics.median(s["raw_setup_s"] for s in setups),
        "trips_per_s": _rate(phase["passes"], None),
        "latency_p50_ms": 1e3 * statistics.median(raw),
        "latency_tail_ms": 1e3 * tail(raw)[0],
        "median_burst_ms": 1e3 * host.median_burst(),
    }
    log["setup_samples_s"] = [s["setup_s"] for s in setups]
    log["pass_s"] = [host.scaled_span(p.t0, p.t1) for p in phase["passes"]]
    log["pass_raw_s"] = [p.t1 - p.t0 for p in phase["passes"]]
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "trips_per_s": _rate(phase["passes"], host),
        "latency_p50_ms": 1e3 * statistics.median(scaled),
        "latency_tail_ms": 1e3 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mae_deg": accuracy["mae_deg"],
        "rmse_deg": accuracy["rmse_deg"],
        "ok_frac": 1.0 - failed / attempted,
    }


def _write_spans(name: str, seed: int, tel: Telemetry) -> str:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    doc = {"spans": tel.tracer.to_list(), "metrics": tel.metrics.snapshot()}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path.relative_to(BENCH_DIR.parent))


def platform_info() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> tuple[dict, int]:
    """One run; returns the result object and the exit code."""
    workload = WORKLOADS[name]
    state, timings = setup(workload, seed, import_s, probe=False)
    phase = timed_phase(workload, state, seconds, trace)
    problems, accuracy, attempted, failed = _check(workload, seed, state, phase["passes"])

    mech_ok, evidence = workload.mechanism(state, live_telemetry("perfbench.mechanism"))
    if not mech_ok:
        problems.append(f"mechanism did not run: {evidence}")

    log = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(phase["passes"]),
        "cpu_s": phase["cpu_s"],
        "wall_s": phase["wall_s"],
        "cpu_over_wall": phase["cpu_s"] / phase["wall_s"],
        "steal_frac": phase["steal_frac"],
        "input_digest": state["digest"],
        "mechanism": evidence,
        "accuracy": accuracy,
        "platform": platform_info(),
    }
    if trace:
        metrics, units = _per_layer(phase, timings), PER_LAYER_UNITS
        log["spans_file"] = _write_spans(name, seed, phase["telemetry"])
        if metrics["trace.accounted_frac"] < 0.9:
            problems.append(
                f"stage spans account for {metrics['trace.accounted_frac']:.1%} of call time"
            )
    else:
        metrics = _end_to_end(name, seed, phase, timings, accuracy, attempted, failed, log)
        units = END_TO_END_UNITS
    shutil.rmtree(data_dir(name, seed), ignore_errors=True)

    for key, value in metrics.items():
        note = ""
        if key == "latency_tail_ms":
            note = f"  (p{log['latency_tail']['percentile']:.2f} of {log['latency_tail']['calls']} calls)"
        print(f"{name:14s} {key:36s} {value:14.6g} {units[key]}{note}")
    for problem in problems:
        print(f"FAIL {name}: {problem}")
    print("runlog " + json.dumps(log, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, 0 if not problems else 1
