"""Deterministic pipeline profiler: per-stage wall/CPU time and throughput.

ROADMAP item 2 asks for vectorization guided by *measured* stage cost, not
guesses. The :class:`Profiler` here is that instrument:

* :meth:`Profiler.section` times any labelled region — wall clock
  (``perf_counter``), per-thread CPU time (``thread_time``), call counts,
  and optional ``tracemalloc`` allocation deltas;
* :meth:`Profiler.install` wraps every registered pipeline stage
  (:data:`~repro.core.stages.STAGE_REGISTRY`) so each stage call — a
  batch pass, or a per-trip ``run`` — lands in a ``stage.<name>``
  section, with no pipeline code changes needed;
* :func:`~repro.eval.parallel.evaluate_trips` accepts a ``profiler=`` and
  wraps its phases (reference build, per-trip estimation, cloud fusion),
  reporting per-trip throughput in EKF ticks/s.

The profiler observes timing only — it never touches data flowing through
the stages — so estimation outputs are bit-identical with or without it.
Section accounting is guarded by a lock and keyed per thread for CPU time,
making the thread backend of ``evaluate_trips`` safe to profile (wall
times of concurrent trips overlap, as they should).

``python -m repro.obs.profile`` runs a small red-route evaluation under
the profiler and prints the flat table (see ``make profile``).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

__all__ = ["Profiler", "SectionStats"]

SCHEMA = "repro.profile/v1"


@dataclass
class SectionStats:
    """Accumulated cost of one profiled section."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    alloc_kb: float = 0.0
    max_wall_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "max_wall_s": round(self.max_wall_s, 6),
            "alloc_kb": round(self.alloc_kb, 3),
        }


@dataclass
class _Throughput:
    n_trips: int = 0
    ticks: int = 0
    wall_s: float = 0.0

    @property
    def ticks_per_s(self) -> float:
        return self.ticks / self.wall_s if self.wall_s > 0.0 else 0.0

    @property
    def trips_per_s(self) -> float:
        return self.n_trips / self.wall_s if self.wall_s > 0.0 else 0.0

    def to_dict(self) -> dict:
        return {
            "n_trips": self.n_trips,
            "ticks": self.ticks,
            "wall_s": round(self.wall_s, 6),
            "ticks_per_s": round(self.ticks_per_s, 1),
            "trips_per_s": round(self.trips_per_s, 4),
        }


class Profiler:
    """Flat section profiler for the estimation pipeline.

    Parameters
    ----------
    trace_malloc:
        Also record net allocation deltas per section via ``tracemalloc``.
        Off by default — tracing slows allocation-heavy code noticeably,
        and nesting accounting is per top-level section only.
    """

    def __init__(self, trace_malloc: bool = False) -> None:
        self.trace_malloc = trace_malloc
        self.sections: dict[str, SectionStats] = {}
        self.throughput = _Throughput()
        self._lock = threading.Lock()
        self._malloc_depth = 0

    @contextmanager
    def section(self, name: str) -> "Iterator[Profiler]":
        """Time one region under ``name`` (re-entrant across threads)."""
        snap = None
        if self.trace_malloc:
            import tracemalloc

            with self._lock:
                if self._malloc_depth == 0 and not tracemalloc.is_tracing():
                    tracemalloc.start()
                self._malloc_depth += 1
            snap = tracemalloc.get_traced_memory()[0]
        wall0 = time.perf_counter()
        cpu0 = time.thread_time()
        try:
            yield self
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.thread_time() - cpu0
            alloc_kb = 0.0
            if snap is not None:
                import tracemalloc

                alloc_kb = (tracemalloc.get_traced_memory()[0] - snap) / 1024.0
                with self._lock:
                    self._malloc_depth -= 1
            with self._lock:
                stats = self.sections.get(name)
                if stats is None:
                    stats = self.sections[name] = SectionStats(name)
                stats.calls += 1
                stats.wall_s += wall
                stats.cpu_s += cpu
                stats.alloc_kb += alloc_kb
                if wall > stats.max_wall_s:
                    stats.max_wall_s = wall

    @contextmanager
    def install(self) -> "Iterator[Profiler]":
        """Wrap every registered pipeline stage in a profiled section.

        Swaps each :data:`~repro.core.stages.STAGE_REGISTRY` factory for
        one producing a timing wrapper (section ``stage.<name>``), and
        restores the registry on exit. Systems *built* inside the block are
        profiled; the stage objects themselves are untouched.
        """
        from ..core.stages import STAGE_REGISTRY

        saved = dict(STAGE_REGISTRY)
        profiler = self

        def _wrap(factory: "Callable[[object], object]") -> "Callable[[object], object]":
            def build(system: object) -> "_ProfiledStage":
                return _ProfiledStage(factory(system), profiler)

            return build

        for name, factory in saved.items():
            STAGE_REGISTRY[name] = _wrap(factory)
        try:
            yield self
        finally:
            STAGE_REGISTRY.clear()
            STAGE_REGISTRY.update(saved)

    def wall(self, name: str) -> float:
        """Total wall time of one section (0.0 if never entered)."""
        stats = self.sections.get(name)
        return stats.wall_s if stats is not None else 0.0

    def set_throughput(self, n_trips: int, ticks: int, wall_s: float) -> None:
        """Record the run's per-trip throughput denominator."""
        self.throughput = _Throughput(
            n_trips=int(n_trips), ticks=int(ticks), wall_s=float(wall_s)
        )

    def to_dict(self) -> dict:
        """JSON-able flat profile (sections sorted by name)."""
        return {
            "schema": SCHEMA,
            "trace_malloc": self.trace_malloc,
            "sections": {
                name: self.sections[name].to_dict()
                for name in sorted(self.sections)
            },
            "throughput": self.throughput.to_dict(),
        }

    def table(self) -> str:
        """The flat profile as an aligned terminal table."""
        header = f"{'section':<28s} {'calls':>6s} {'wall_s':>9s} {'cpu_s':>9s} {'max_ms':>8s}"
        if self.trace_malloc:
            header += f" {'alloc_kb':>10s}"
        lines = [header, "-" * len(header)]
        ordered = sorted(
            self.sections.values(), key=lambda st: st.wall_s, reverse=True
        )
        for st in ordered:
            line = (
                f"{st.name:<28s} {st.calls:>6d} {st.wall_s:>9.4f} "
                f"{st.cpu_s:>9.4f} {st.max_wall_s * 1e3:>8.2f}"
            )
            if self.trace_malloc:
                line += f" {st.alloc_kb:>10.1f}"
            lines.append(line)
        tp = self.throughput
        if tp.wall_s > 0.0:
            lines.append(
                f"throughput: {tp.n_trips} trips, {tp.ticks} EKF ticks in "
                f"{tp.wall_s:.3f} s -> {tp.ticks_per_s:,.0f} ticks/s, "
                f"{tp.trips_per_s:.2f} trips/s"
            )
        return "\n".join(lines)


class _ProfiledStage:
    """Transparent stage wrapper timing ``run`` and ``run_batch`` under
    ``stage.<name>`` (one call per trip or per batch)."""

    def __init__(self, inner: object, profiler: Profiler) -> None:
        self._inner = inner
        self._profiler = profiler
        self.name = inner.name

    def run(self, ctx: object) -> object:
        with self._profiler.section(f"stage.{self.name}"):
            return self._inner.run(ctx)

    def run_batch(self, bctx: object) -> None:
        from ..core.stages import run_stage_batch

        with self._profiler.section(f"stage.{self.name}"):
            run_stage_batch(self._inner, bctx)

    def __getattr__(self, attr: str) -> object:
        return getattr(self._inner, attr)


def _main(argv: "Sequence[str] | None" = None) -> int:
    """CLI demo: profile a small red-route evaluation (``make profile``)."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.profile",
        description="Profile an evaluate_trips run on the red route.",
    )
    parser.add_argument("--trips", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-malloc", action="store_true")
    parser.add_argument(
        "--manifest", default=None, help="also write a run manifest JSON here"
    )
    args = parser.parse_args(argv)

    from ..datasets.charlottesville import red_route
    from ..eval.parallel import evaluate_trips
    from ..eval.runner import RunnerConfig

    profiler = Profiler(trace_malloc=args.trace_malloc)
    cfg = RunnerConfig(n_trips=args.trips, seed=args.seed)
    report = evaluate_trips(
        red_route(),
        cfg,
        profiler=profiler,
        manifest_path=args.manifest,
    )
    summary = report.summary()
    print(profiler.table())
    print()
    print(
        json.dumps(
            {
                "mae_deg": summary["mae_deg"],
                "mre": summary["mre"],
                "n_failed": summary["n_failed"],
                "health": summary["health"],
            },
            indent=2,
            sort_keys=True,
        )
    )
    if args.manifest:
        print(f"manifest written to {args.manifest}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(_main())
