"""Per-stage wall/CPU profile and throughput, read off the span tree.

The span tree is the one timing source: every live span records its wall
time (``perf_counter``) and its thread CPU time (``thread_time``).
:meth:`Profiler.from_telemetry` aggregates a run's spans into flat
sections:

* ``reference``, ``trips`` and ``fusion`` — the phases of
  :func:`~repro.eval.parallel.evaluate_trips`;
* ``stage.<name>`` — each child of an ``estimate`` span, i.e. one call
  per :meth:`~repro.core.pipeline.GradientEstimationSystem.estimate_batch`
  pass (one per chunk in ``evaluate_trips``), however many trips it holds;

plus throughput: the merged ``ekf_ticks`` counter over the ``trips``
span's wall time. ``evaluate_trips`` grafts its workers' span trees under
``trips`` on every backend, the process pool included, so the profile of
a run does not depend on where its chunks ran — only its timings do.

Reading spans never touches the data flowing through the stages, so
estimation outputs are bit-identical whether or not a run is profiled.

``python -m repro.obs.profile`` runs a small red-route evaluation with
live telemetry and prints the flat table (see ``make profile``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .telemetry import Telemetry
    from .trace import Span

__all__ = ["Profiler", "SectionStats"]

SCHEMA = "repro.profile/v2"

#: The ``evaluate_trips`` phases, profiled under their own names.
PHASES = ("reference", "trips", "fusion")


@dataclass
class SectionStats:
    """Accumulated cost of one profiled section."""

    name: str
    calls: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_wall_s: float = 0.0

    def add(self, span: "Span") -> None:
        wall = span.duration
        self.calls += 1
        self.wall_s += wall
        self.cpu_s += span.cpu_s
        self.max_wall_s = max(self.max_wall_s, wall)

    def to_dict(self) -> dict:
        return {
            "calls": self.calls,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "max_wall_s": round(self.max_wall_s, 6),
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
    """Flat section profile of the estimation pipeline, built from spans."""

    def __init__(self) -> None:
        self.sections: dict[str, SectionStats] = {}
        self.throughput = _Throughput()

    @classmethod
    def from_spans(cls, roots: "Iterable[Span]", ekf_ticks: int = 0) -> "Profiler":
        """Aggregate span trees; ``ekf_ticks`` is the throughput numerator.

        Throughput counts the trips each ``trips`` span was tagged with
        (``n_ok``, the trips that survived) over those spans' wall time.
        """
        prof = cls()
        tp = prof.throughput
        tp.ticks = int(ekf_ticks)
        for root in roots:
            for span in root.walk():
                if span.name == "evaluate_trips":
                    for phase in span.children:
                        if phase.name in PHASES:
                            prof._add(phase.name, phase)
                        if phase.name == "trips":
                            tp.n_trips += int(phase.attributes.get("n_ok", 0))
                            tp.wall_s += phase.duration
                elif span.name == "estimate":
                    for stage in span.children:
                        prof._add(f"stage.{stage.name}", stage)
        return prof

    @classmethod
    def from_telemetry(cls, telemetry: "Telemetry") -> "Profiler":
        """The profile of everything ``telemetry`` recorded."""
        ticks = telemetry.metrics.snapshot()["counters"].get("ekf_ticks", 0)
        return cls.from_spans(telemetry.tracer.roots, ekf_ticks=ticks)

    def _add(self, name: str, span: "Span") -> None:
        stats = self.sections.get(name)
        if stats is None:
            stats = self.sections[name] = SectionStats(name)
        stats.add(span)

    def to_dict(self) -> dict:
        """JSON-able flat profile (sections sorted by name)."""
        return {
            "schema": SCHEMA,
            "sections": {
                name: self.sections[name].to_dict()
                for name in sorted(self.sections)
            },
            "throughput": self.throughput.to_dict(),
        }

    def table(self) -> str:
        """The flat profile as an aligned terminal table."""
        header = f"{'section':<28s} {'calls':>6s} {'wall_s':>9s} {'cpu_s':>9s} {'max_ms':>8s}"
        lines = [header, "-" * len(header)]
        ordered = sorted(
            self.sections.values(), key=lambda st: st.wall_s, reverse=True
        )
        for st in ordered:
            lines.append(
                f"{st.name:<28s} {st.calls:>6d} {st.wall_s:>9.4f} "
                f"{st.cpu_s:>9.4f} {st.max_wall_s * 1e3:>8.2f}"
            )
        tp = self.throughput
        if tp.wall_s > 0.0:
            lines.append(
                f"throughput: {tp.n_trips} trips, {tp.ticks} EKF ticks in "
                f"{tp.wall_s:.3f} s -> {tp.ticks_per_s:,.0f} ticks/s, "
                f"{tp.trips_per_s:.2f} trips/s"
            )
        return "\n".join(lines)


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
    parser.add_argument(
        "--manifest", default=None, help="also write a run manifest JSON here"
    )
    args = parser.parse_args(argv)

    from ..datasets.charlottesville import red_route
    from ..eval.parallel import evaluate_trips
    from ..eval.runner import RunnerConfig
    from .telemetry import Telemetry

    tel = Telemetry("profile")
    cfg = RunnerConfig(n_trips=args.trips, seed=args.seed)
    report = evaluate_trips(
        red_route(), cfg, telemetry=tel, manifest_path=args.manifest
    )
    summary = report.summary()
    print(Profiler.from_telemetry(tel).table())
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
