"""Performance benchmark of the road-gradient estimation library.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload trip_single --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, any failed check, and a
``runlog`` record (CPU over wall time, machine steal, platform, input
digest). The exit code is 0 only when every check passed.

Workloads, and why each was chosen
----------------------------------
All three are closed loops on one thread in one process: the next call
starts when the previous one returned. Each runs whole passes over a
seeded pool of inputs until ``--seconds`` have elapsed.

``trip_single``
    ``GradientEstimationSystem.estimate`` on one faulty red-route trip per
    call (twelve distinct trips per pass), with ``ROBUST_STAGES`` and the
    default EKF engine. Every trip has a 20 s GPS dropout, a short
    accelerometer NaN burst and timestamp jitter. This is the batch-of-one
    path: ``ekf_tracks`` sees four tracks per call and takes almost all of
    it. It is where the EKF engine crossover and the cost of running
    ``estimate`` as a batch of one would show, and it is the only workload
    where the ``sanitize`` stage and the non-ok health path run.
``fleet_store``
    The cloud ingest path. Thirty-two clean trips are written in
    generation to four ``TripStore`` directories of eight trips each. A
    pass opens each store (memory-mapped), calls ``estimate_batch`` on
    ``store.batch()``, then fuses all results with ``fuse_estimates``.
    ``ekf_tracks`` sees 32 tracks per call and dispatch is amortised. It
    runs the same stage code as ``trip_single`` at a different width, so a
    change that trades one trip against eight shows on one of the two.
``stream_outage``
    The phone tick. ``StreamingGradientEstimator.run`` replays GPS Doppler
    speed only, with ``GPSDeniedConfig(enabled=True)``, dead reckoning and
    a ``PriorGradeMap`` built in set-up from one clean offline estimate.
    There are 24 replays of 160 s each; 10 of them have a 30 s total GPS
    outage and the rest stay nominal. The filter core runs one sample at a
    time here, and the dead reckoner and prior-map updates run only here.

End-to-end metrics (``--trace 0``)
----------------------------------
Times are wall-clock times scaled to a quiet host (``hostspeed.py``): the
machine is shared and its speed drifts by up to a factor of two over
minutes, so a fixed reference burst runs between calls and every stretch
of work is scaled by the bursts around it. The raw wall-clock figures are
printed in the run log beside them.

``setup_s`` is the median of three set-ups (this run's and two fresh
child processes'), each from the first statement of this script through
imports, road map, system / store / prior-map construction and the first
call; input generation is not included. ``trips_per_s`` is trips over the
whole timed phase (a replay is a trip). ``latency_p50_ms`` and
``latency_tail_ms`` are the median and the highest percentile, up to
p95, with ten calls beyond it of one entry-point call; the percentile and
call count are printed beside it. ``peak_rss_mb`` is the process's peak resident memory.
``mae_deg`` / ``rmse_deg`` are the pooled errors of the first pass against
the surveyed reference (``stream_outage``: against the true grade).
``ok_frac`` is one minus the failed fraction: trips that raised, landed in
``BatchEstimate.errors`` or gave non-finite output, over trips attempted.
It stands in for a failed fraction, which would read 0 on a healthy run.

Per-layer metrics (``--trace 1``)
---------------------------------
Passes alternate between tracing off and the library's own ``Telemetry``
(logs to a null sink, spans kept in memory and written once to
``perfbench/out/``), with the benchmark's ``bench.*`` spans around each
public call. Stage figures are raw wall-clock self time per trip: a stage
span's duration minus what nested stage spans cover (spans that are not
stages, such as the per-source ``track`` spans, count toward the stage
around them). ``pipeline.overhead_ms_per_trip`` is the call's own self
time: everything in ``estimate`` / ``estimate_batch`` outside the stages.
Counts are per trip unless named otherwise; ``health.trips_flagged`` is
per pass over the pool. A layer a workload does not run reads 0.
``trace.overhead_ratio`` is untraced over traced trips per second, from
passes that alternate, so the host's drift cancels.

Checks
------
Outputs must be identical in every pass; ``mae_deg`` and ``rmse_deg`` must
match the values in ``perfbench/expected.json`` for the seed (relative
tolerance 1e-3), or stay under its ceilings for a seed not recorded there
(``perfbench/record.py`` records seeds); no trip may fail; and each
workload's mechanism must run: sanitize repairs on ``trip_single``, at
least 32 tracks per EKF stage call on ``fleet_store``, dead-reckoning
ticks and prior-map updates on ``stream_outage``.

Noise hygiene: one fresh process per workload; BLAS and OpenMP pinned to
one thread before numpy is imported; no worker pools; ``gc.collect()``
before the timed phase; no disk writes or logging inside it.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402 - the clock above must start first
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("trip_single", "fleet_store", "stream_outage")
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
ROOT = Path(__file__).resolve().parents[1]


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    return args


def _run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"FAIL {name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return code or (0 if combined["correct"] else 1)


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    args = _args(argv)
    if args.workload == "all":
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness  # imports numpy and the library

    import_s = time.perf_counter() - _T0
    if args.setup_probe:
        print(json.dumps(harness.probe_setup(args.workload, args.seed, import_s)))
        return 0
    result, code = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), import_s
    )
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
