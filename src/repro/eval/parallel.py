"""Parallel evaluation engine: fan trips out over a worker pool.

The serial runner (:mod:`repro.eval.runner`) simulates and estimates trips
one after another; crowd-sourced workloads (many vehicles per road segment)
are embarrassingly parallel across trips. :func:`evaluate_trips` groups the
trips into chunks of ``ParallelConfig.chunk_size``, runs every chunk —
simulate, record, estimate in one
:meth:`~repro.core.pipeline.GradientEstimationSystem.estimate_batch` pass,
score — as an independent task on a ``concurrent.futures`` pool, and merges
the per-trip results into one :class:`EvalReport`.

Determinism and report equality
-------------------------------
Each trip is seeded by ``(cfg.seed, trip_index)`` alone (see
:func:`repro.eval.runner.simulate_recording`), a trip's estimate does not
depend on the batch it rides in, and merge order is always trip-index
order, so the report is identical for the ``serial``, ``thread`` and
``process`` backends and for every chunk size — pinned by
``tests/eval/test_parallel_runner.py``, ``tests/eval/test_batch_runner.py``
and the ``evaluate_trips`` goldens in ``tests/core/offline_golden.json``.

Fault tolerance
---------------
A trip that raises degrades the run to a *partial* report instead of
killing it; the rest of its chunk completes. A crashed trip is first
retried (``ParallelConfig.retries``, default one attempt) inline with the
same seed, as a chunk of one — trips are deterministic in
``(cfg.seed, index)``, so a retry only helps against environmental
failures (a killed worker process, an OOM, a transient I/O error), and
each attempt increments ``eval.worker_retried``. A trip that still fails
is recorded with its error string, the ``eval.worker_failed`` counter
increments, and fusion proceeds over the surviving trips. Only a run with
zero surviving trips raises.

Telemetry
---------
Workers cannot share the caller's registry, so each trip runs with its own
:class:`~repro.obs.Telemetry` and ships back a metrics snapshot; the
parent folds the snapshots in trip order via
:meth:`~repro.obs.MetricsRegistry.merge_snapshot`, reproducing exactly the
counters a serial run would have accumulated. A trip that fails inside the
pipeline ships its snapshot too (the stages it ran before failing counted
on it); a trip that fails in simulation has none.

Config transport
----------------
Workers receive the run configuration as a plain *spec dict*
(:meth:`RunnerConfig.to_dict`), not a pickled config object, and rebuild
it with :meth:`RunnerConfig.from_dict` — the same contract a distributed
deployment (task queue, RPC) would use, where configs must travel as
data. Every backend, including ``serial``, goes through the identical
rebuild path so the reports stay pinned equal.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import SerializableConfig
from ..core.track import GradientTrack
from ..core.track_fusion import fuse_tracks
from ..errors import ConfigurationError, EstimationError
from ..obs.telemetry import NULL_TELEMETRY, Telemetry
from ..roads.profile import RoadProfile
from ..roads.reference import survey_reference_profile
from .metrics import mean_absolute_error, mean_relative_error
from .runner import RunnerConfig, _common_grid, make_system, simulate_recording

__all__ = [
    "ParallelConfig",
    "TripOutcome",
    "EvalReport",
    "evaluate_trips",
]

_BACKENDS = ("serial", "thread", "process")


@dataclass(frozen=True)
class ParallelConfig(SerializableConfig):
    """How to fan trips out.

    Trips are grouped into chunks of ``chunk_size``; each chunk is one
    worker task that simulates its trips and estimates them in a single
    :meth:`~repro.core.pipeline.GradientEstimationSystem.estimate_batch`
    pass, paying the pipeline's interpreter and dispatch cost once per
    chunk instead of once per trip. The default of 1 runs one trip per
    task.

    ``thread`` (default) keeps everything in-process — numpy does the heavy
    lifting, so threads already overlap well and nothing needs pickling.
    ``process`` buys full parallelism for CPU-bound sweeps at the cost of
    shipping the profile and results across process boundaries. ``serial``
    runs the identical code path inline; it is the reference the parallel
    backends are pinned against.

    ``retries`` bounds how many times a crashed trip is re-run (inline, in
    the parent, with the identical seed, as a chunk of one) before it is
    recorded as failed; 0 disables retrying.
    """

    max_workers: int = 4
    backend: str = "thread"
    retries: int = 1
    chunk_size: int = 1

    def __post_init__(self) -> None:
        if self.backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown parallel backend {self.backend!r}; "
                f"valid options are {list(_BACKENDS)}"
            )
        if self.max_workers < 1:
            raise ConfigurationError("need at least one worker")
        if self.retries < 0:
            raise ConfigurationError("retries cannot be negative")
        if self.chunk_size < 1:
            raise ConfigurationError("chunks need at least one trip")


@dataclass
class TripOutcome:
    """One trip's contribution to the report (or its failure record)."""

    index: int
    ok: bool
    error: str = ""
    n_lane_changes: int = 0
    theta: np.ndarray | None = None  # on the report grid
    fused: GradientTrack | None = None
    mae_deg: float = float("nan")
    mre: float = float("nan")
    metrics: dict = field(default_factory=dict)  # worker metrics snapshot
    health: dict = field(default_factory=dict)  # HealthReport.summary()


@dataclass
class EvalReport:
    """Merged result of a (possibly partial) multi-trip evaluation."""

    profile_name: str
    n_trips: int
    s_grid: np.ndarray
    truth: np.ndarray
    trips: list[TripOutcome]
    fused_theta: np.ndarray
    mae_deg: float
    mre: float

    @property
    def n_failed(self) -> int:
        """Trips that crashed and were excluded from fusion."""
        return sum(1 for t in self.trips if not t.ok)

    def health_summary(self) -> dict:
        """Run-level health digest over the surviving trips' reports."""
        verdicts = [
            t.health.get("verdict", "ok") for t in self.trips if t.ok and t.health
        ]
        worst = "ok"
        if "diverged" in verdicts:
            worst = "diverged"
        elif "suspect" in verdicts:
            worst = "suspect"
        kinds: set[str] = set()
        for t in self.trips:
            if t.ok and t.health:
                kinds.update(t.health.get("flag_kinds", ()))
        return {
            "worst_verdict": worst,
            "n_flagged_trips": sum(1 for v in verdicts if v != "ok"),
            "flag_kinds": sorted(kinds),
        }

    def summary(self) -> dict:
        """JSON-able digest (the 'report' parallel/serial equality pins)."""
        return {
            "profile": self.profile_name,
            "n_trips": self.n_trips,
            "n_failed": self.n_failed,
            "mae_deg": self.mae_deg,
            "mre": self.mre,
            "health": self.health_summary(),
            "trips": [
                {
                    "index": t.index,
                    "ok": t.ok,
                    "error": t.error,
                    "n_lane_changes": t.n_lane_changes,
                    "mae_deg": t.mae_deg,
                    "mre": t.mre,
                    "health_verdict": t.health.get("verdict", "ok")
                    if t.ok
                    else None,
                }
                for t in self.trips
            ],
        }


def evaluate_trips(
    profile: RoadProfile,
    cfg: RunnerConfig | None = None,
    parallel: ParallelConfig | None = None,
    telemetry: Telemetry | None = None,
    fault_hook: Callable[[int], None] | None = None,
    profiler=None,
    manifest_path=None,
) -> EvalReport:
    """Simulate, estimate and score ``cfg.n_trips`` trips on a worker pool.

    Parameters
    ----------
    parallel:
        Pool sizing, backend and chunk size; default is a 4-thread pool
        running one trip per task. Every backend and chunk size produces
        the identical report.
    fault_hook:
        Failure injection for tests: called with each trip index before the
        trip runs; raising makes that trip a recorded failure. Must be
        picklable for the ``process`` backend.
    profiler:
        Optional :class:`~repro.obs.profile.Profiler`. Wraps every pipeline
        stage (``stage.<name>`` sections, one call per chunk) plus the
        ``reference``/``trips``/``fusion`` phases, and records per-trip
        throughput in EKF ticks/s. Incompatible with the ``process``
        backend — stage wrappers do not cross process boundaries.
    manifest_path:
        When set, write a self-describing run manifest JSON here
        (:func:`~repro.obs.manifest.write_manifest`): config, seed, git
        revision, metrics snapshot, health summary, and profile.
    """
    cfg = cfg or RunnerConfig()
    par = parallel or ParallelConfig()
    tel = telemetry if telemetry is not None else NULL_TELEMETRY
    if profiler is not None and par.backend == "process":
        raise ConfigurationError(
            "profiling is not supported on the 'process' backend; stage "
            "timing sections cannot cross process boundaries"
        )

    prof_install = profiler.install() if profiler is not None else nullcontext()

    def _section(name: str):
        return profiler.section(name) if profiler is not None else nullcontext()

    with prof_install, tel.span(
        "evaluate_trips",
        n_trips=cfg.n_trips,
        backend=par.backend,
        chunk_size=par.chunk_size,
    ):
        with tel.span("reference"), _section("reference"):
            reference = survey_reference_profile(profile).smoothed(
                cfg.reference_smooth_m
            )
            s_grid = _common_grid(profile, cfg)
            truth = np.asarray(reference.gradient_at(s_grid), dtype=float)

        # Workers always collect metrics when profiling so throughput can
        # count EKF ticks, even if the caller's telemetry is off.
        collect_metrics = tel.active or profiler is not None
        cfg_spec = cfg.to_dict()  # workers rebuild the config from data

        def chunk_args(indices: tuple[int, ...]) -> tuple:
            return (profile, cfg_spec, indices, s_grid, truth, collect_metrics, fault_hook)

        args = [
            chunk_args(tuple(range(start, min(start + par.chunk_size, cfg.n_trips))))
            for start in range(0, cfg.n_trips, par.chunk_size)
        ]
        with tel.span("trips", n_chunks=len(args)), _section("trips"):
            if par.backend == "serial":
                chunks = [_guarded_chunk(a) for a in args]
            else:
                pool_cls = (
                    ThreadPoolExecutor
                    if par.backend == "thread"
                    else ProcessPoolExecutor
                )
                with pool_cls(max_workers=par.max_workers) as pool:
                    chunks = list(pool.map(_guarded_chunk, args))
        outcomes = [o for chunk in chunks for o in chunk]

        _retry_crashed(outcomes, chunk_args, par.retries, tel)
        survivors = _merge_survivors(outcomes, tel, cfg.n_trips)

        with tel.span("fusion", n_tracks=len(survivors)), _section("fusion"):
            fused_theta = _fuse_survivors(survivors, s_grid, tel)

    tel.count("eval.parallel_reports")
    report = EvalReport(
        profile_name=profile.name,
        n_trips=cfg.n_trips,
        s_grid=s_grid,
        truth=truth,
        trips=outcomes,
        fused_theta=fused_theta,
        mae_deg=mean_absolute_error(fused_theta, truth, degrees=True),
        mre=mean_relative_error(fused_theta, truth),
    )

    if profiler is not None:
        total_ticks = sum(
            int(o.metrics.get("counters", {}).get("ekf_ticks", 0))
            for o in survivors
        )
        profiler.set_throughput(
            n_trips=len(survivors),
            ticks=total_ticks,
            wall_s=profiler.wall("trips"),
        )

    if manifest_path is not None:
        from ..obs.manifest import write_manifest

        write_manifest(
            manifest_path,
            config=cfg,
            seed=cfg.seed,
            metrics=tel.metrics.snapshot() if tel.active else {},
            health=report.health_summary(),
            profile=profiler.to_dict() if profiler is not None else None,
            extra={
                "kind": "evaluate_trips",
                "road_profile": profile.name,
                "backend": par.backend,
                "chunk_size": par.chunk_size,
                "aggregate": {
                    "mae_deg": report.mae_deg,
                    "mre": report.mre,
                    "n_trips": report.n_trips,
                    "n_failed": report.n_failed,
                },
            },
        )
    return report


def _retry_crashed(
    outcomes: list[TripOutcome],
    chunk_args: Callable[[tuple[int, ...]], tuple],
    retries: int,
    tel: Telemetry,
) -> None:
    """Retry crashed trips before recording them as failures.

    Retries run inline in the parent as chunks of one — same seed, fresh
    state — so every backend and chunk size takes the identical path and
    reports stay pinned equal. ``chunk_args`` builds the
    :func:`_run_chunk` arguments for a tuple of trip indices;
    ``outcomes`` is updated in place.
    """
    if retries <= 0:
        return
    for pos, outcome in enumerate(outcomes):
        if outcome.ok:
            continue
        for _ in range(retries):
            tel.count("eval.worker_retried")
            tel.event(
                "eval.worker_retried",
                index=outcome.index,
                error=outcome.error,
            )
            outcome = _guarded_chunk(chunk_args((outcome.index,)))[0]
            if outcome.ok:
                break
        outcomes[pos] = outcome


def _merge_survivors(
    outcomes: list[TripOutcome], tel: Telemetry, n_trips: int
) -> list[TripOutcome]:
    """Merge telemetry in trip order and count failures; raise if none survive.

    Every final outcome's telemetry is merged, failed trips' included: a
    trip that failed inside the pipeline ran (and counted) stages first.
    ``outcomes`` already holds each retried trip's last attempt only, so
    nothing is counted twice.
    """
    survivors: list[TripOutcome] = []
    for outcome in outcomes:
        # Merge only into a *live* registry: with profiling on but
        # telemetry off, tel is the shared NULL_TELEMETRY and must never
        # accumulate state.
        if tel.active and outcome.metrics:
            tel.metrics.merge_snapshot(outcome.metrics)
        if outcome.ok:
            survivors.append(outcome)
        else:
            tel.count("eval.worker_failed")
            tel.event(
                "eval.worker_failed", index=outcome.index, error=outcome.error
            )
    if not survivors:
        raise EstimationError(
            f"all {n_trips} trips failed; first error: "
            f"{outcomes[0].error if outcomes else 'none ran'}"
        )
    return survivors


def _fuse_survivors(
    survivors: list[TripOutcome], s_grid: np.ndarray, tel: Telemetry
) -> np.ndarray:
    """The run-level fused gradient over the surviving trips."""
    if len(survivors) > 1:
        fused = fuse_tracks(
            [o.fused for o in survivors],
            s_grid,
            name="trips-fused",
            telemetry=tel,
        )
        return fused.theta
    return survivors[0].theta


def _run_chunk(
    profile: RoadProfile,
    cfg_spec: dict,
    indices: tuple[int, ...],
    s_grid: np.ndarray,
    truth: np.ndarray,
    collect_metrics: bool,
    fault_hook: Callable[[int], None] | None,
) -> list[TripOutcome]:
    """Worker body: simulate a chunk of trips, then estimate them in one
    batched pipeline pass. Must stay top-level picklable.

    ``cfg_spec`` is the serialized :class:`RunnerConfig` dict — the worker
    rebuilds the config (and from it the estimation system) from plain
    data, never from a pickled config object. Simulation failures
    (including ``fault_hook`` raises) are per-trip outcomes, not chunk
    failures; surviving recordings go through a single
    :meth:`~repro.core.pipeline.GradientEstimationSystem.estimate_batch`
    call with one telemetry per trip, so each trip's outcome — scores,
    metrics snapshot, health summary — does not depend on its chunk.
    """
    cfg = RunnerConfig.from_dict(cfg_spec)
    outcomes: dict[int, TripOutcome] = {}
    live: list[tuple[int, object]] = []
    for index in indices:
        try:
            if fault_hook is not None:
                fault_hook(index)
            _, rec = simulate_recording(profile, cfg, index)
        except Exception as exc:  # noqa: BLE001 - per-trip isolation
            outcomes[index] = TripOutcome(
                index=index, ok=False, error=f"{type(exc).__name__}: {exc}"
            )
            continue
        live.append((index, rec))

    if live:
        tels = [
            Telemetry(f"eval-trip-{index}") if collect_metrics else None
            for index, _ in live
        ]
        system = make_system(profile, cfg)
        estimates = system.estimate_batch(
            [rec for _, rec in live], telemetries=tels
        )
        for pos, (index, _) in enumerate(live):
            worker_tel = tels[pos]
            # A trip that failed inside the pipeline still ran stages;
            # its telemetry ships back with the failure.
            metrics = worker_tel.metrics.snapshot() if worker_tel is not None else {}
            error = estimates.errors.get(pos)
            if error is not None:
                outcomes[index] = TripOutcome(
                    index=index,
                    ok=False,
                    error=f"{type(error).__name__}: {error}",
                    metrics=metrics,
                )
                continue
            result = estimates.results[pos]
            theta = np.interp(s_grid, result.fused.s, result.fused.theta)
            outcomes[index] = TripOutcome(
                index=index,
                ok=True,
                n_lane_changes=result.n_lane_changes,
                theta=theta,
                fused=result.fused,
                mae_deg=mean_absolute_error(theta, truth, degrees=True),
                mre=mean_relative_error(theta, truth),
                metrics=metrics,
                health=result.health.summary()
                if result.health is not None
                else {},
            )
    return [outcomes[index] for index in indices]


def _guarded_chunk(packed) -> list[TripOutcome]:
    """Run one chunk, converting a chunk-level crash into per-trip failures.

    Per-trip exceptions are already isolated inside :func:`_run_chunk`;
    this guard only fires on whole-chunk failures (a config spec that does
    not rebuild, say), and the parent's inline retry then re-runs each
    affected trip as a chunk of one.
    """
    indices = packed[2]
    try:
        return _run_chunk(*packed)
    except Exception as exc:  # noqa: BLE001 - deliberate degrade-not-crash
        error = f"{type(exc).__name__}: {exc}"
        return [TripOutcome(index=i, ok=False, error=error) for i in indices]
