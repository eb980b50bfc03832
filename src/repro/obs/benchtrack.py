"""Benchmark history tracking and regression gating.

The nightly bench jobs drop point-in-time artifacts (``BENCH_batch.json``,
``BENCH_faults.json``, ``bench_telemetry.json``) into ``benchmarks/`` —
numbers with no memory. This module folds them into an append-only,
schema'd history (``BENCH_history.jsonl``, one JSON entry per run),
computes deltas against the previous entry, and exits nonzero when a
configured :class:`RegressionRule` trips — which is what lets CI *fail* on
a throughput or accuracy regression instead of silently archiving it.

CLI
---
::

    python -m repro.obs.benchtrack collect benchmarks/   # extract metrics
    python -m repro.obs.benchtrack check benchmarks/     # append + gate
    python -m repro.obs.benchtrack report benchmarks/    # human summary

``check`` exits 0 when no rule trips, 1 on a detected regression, and 2 on
usage errors (no artifacts, unreadable history). ``--no-append`` gates
without growing the history (useful on PR builds); ``--rules`` loads a
JSON list of rule dicts replacing the defaults. ``report`` renders the
latest metrics, the deltas, the health flags recorded in the fault
matrix, and the span tree of the benchmark telemetry artifact.

Metrics extracted per artifact
------------------------------
==============================  ===============================================
``batch.speedup_64``            vectorized-vs-scalar EKF kernel speedup at 64
                                tracks (latest series-2 uniform-traffic entry)
``batch.*_ns_per_track_tick``   both kernels' cost at 64 tracks [ns]
``batch.crossover_tracks``      measured scalar/vectorized crossover width
``pipeline.trips_per_sec``      batched evaluation runner throughput [1/s]
``pipeline.serial_trips_per_sec``  serial evaluation runner throughput [1/s]
``pipeline.speedup``            their ratio (reported, not gated)
``faults.clean_rmse_deg``       clean-baseline accuracy of the fault matrix
``faults.max_rmse_ratio``       worst degradation ratio across ok scenarios
``faults.n_scenarios_failed``   scenarios that produced no estimate
``telemetry.<gauge>``           every ``bench.*`` gauge from the overhead
                                benchmarks (e.g. ``telemetry.push_overhead_ratio``)
==============================  ===============================================
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ..config import SerializableConfig
from ..errors import ConfigurationError
from .manifest import git_revision

__all__ = [
    "SCHEMA",
    "DEFAULT_RULES",
    "RegressionRule",
    "collect_metrics",
    "append_history",
    "load_history",
    "check_regressions",
]

SCHEMA = "repro.bench_history/v1"

#: Default history file name inside the bench directory.
HISTORY_NAME = "BENCH_history.jsonl"


@dataclass(frozen=True)
class RegressionRule(SerializableConfig):
    """One gate: how much a metric may move before CI fails.

    ``direction`` names the *good* direction — ``"higher"`` means bigger is
    better (throughput), ``"lower"`` means smaller is better (error,
    overhead). ``tolerance`` is the allowed fractional move in the bad
    direction relative to the previous entry (0.15 = 15%). ``max_value`` /
    ``min_value`` additionally gate the absolute value regardless of
    history. A rule whose metric is absent from a run is skipped — bench
    artifacts are produced by different jobs and need not all be present.
    """

    metric: str
    direction: str = "higher"
    tolerance: float = 0.15
    max_value: float | None = None
    min_value: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in ("higher", "lower"):
            raise ConfigurationError(
                f"rule direction must be 'higher' or 'lower', "
                f"got {self.direction!r}"
            )
        if self.tolerance < 0.0:
            raise ConfigurationError("rule tolerance cannot be negative")

    def evaluate(self, current: float, previous: float | None) -> str | None:
        """The violation message, or ``None`` when the rule passes."""
        if self.max_value is not None and current > self.max_value:
            return (
                f"{self.metric}: {current:.4g} exceeds absolute ceiling "
                f"{self.max_value:.4g}"
            )
        if self.min_value is not None and current < self.min_value:
            return (
                f"{self.metric}: {current:.4g} below absolute floor "
                f"{self.min_value:.4g}"
            )
        # reprolint: disable=RL005 -- exact zero-division guard, not a tolerance check
        if previous is None or previous == 0.0:
            return None
        change = (current - previous) / abs(previous)
        if self.direction == "higher" and change < -self.tolerance:
            return (
                f"{self.metric}: dropped {-change:.1%} "
                f"({previous:.4g} -> {current:.4g}), tolerance {self.tolerance:.0%}"
            )
        if self.direction == "lower" and change > self.tolerance:
            return (
                f"{self.metric}: grew {change:.1%} "
                f"({previous:.4g} -> {current:.4g}), tolerance {self.tolerance:.0%}"
            )
        return None


#: The gates CI runs with: engine throughput must not sink, fault-matrix
#: and scenario-grid accuracy must not drift, observability overhead must
#: stay bounded. The absolute ``max_value`` gates make the scenario rules
#: bite even on a fresh checkout with no history to diff against.
DEFAULT_RULES: tuple[RegressionRule, ...] = (
    RegressionRule(metric="batch.speedup_64", direction="higher", tolerance=0.25),
    # Whole-pipeline throughput: each evaluation runner on its own, on the
    # same machine. Their ratio is not gated — it falls whenever the serial
    # runner gets faster.
    RegressionRule(
        metric="pipeline.trips_per_sec", direction="higher", tolerance=0.25
    ),
    RegressionRule(
        metric="pipeline.serial_trips_per_sec", direction="higher", tolerance=0.25
    ),
    RegressionRule(
        metric="faults.clean_rmse_deg", direction="lower", tolerance=0.25
    ),
    RegressionRule(
        metric="scenarios.max_clean_rmse_deg",
        direction="lower",
        tolerance=0.25,
        max_value=1.5,
    ),
    RegressionRule(
        metric="scenarios.max_rmse_ratio",
        direction="lower",
        tolerance=0.5,
        max_value=4.0,
    ),
    RegressionRule(
        metric="scenarios.n_cells_failed",
        direction="lower",
        tolerance=0.0,
        max_value=0.0,
    ),
    # GPS-denied contract: a 30 s outage with dead reckoning + prior map
    # keeps gradient RMSE within 2x clean (the ISSUE acceptance gate), the
    # worst aided in-outage drift stays bounded, and no aided cell fails.
    RegressionRule(
        metric="gps_denied.rmse_ratio_30s_aided",
        direction="lower",
        tolerance=0.5,
        max_value=2.0,
    ),
    RegressionRule(
        metric="gps_denied.max_drift_deg",
        direction="lower",
        tolerance=0.5,
        max_value=6.0,
    ),
    RegressionRule(
        metric="gps_denied.n_cells_failed",
        direction="lower",
        tolerance=0.0,
        max_value=0.0,
    ),
    RegressionRule(
        metric="telemetry.push_overhead_ratio",
        direction="lower",
        tolerance=0.25,
        max_value=1.05,
    ),
    RegressionRule(
        metric="telemetry.monitor_overhead_ratio",
        direction="lower",
        tolerance=0.25,
        max_value=1.10,
    ),
)


def _read_json(path: Path) -> dict | list | float | None:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def collect_metrics(bench_dir: str | Path) -> dict:
    """Extract the tracked scalar metrics from a bench artifact directory."""
    bench_dir = Path(bench_dir)
    metrics: dict[str, float] = {}

    batch = _read_json(bench_dir / "BENCH_batch.json")
    # Series 2 times the unboxed scalar loop; earlier records divided by a
    # slower scalar loop and start no metric. The latest
    # uniform-traffic record counts (no "traffic" key = uniform), so a
    # mixed-rate record appended after it does not change these metrics.
    uniform: dict = {}
    if isinstance(batch, list) and batch and batch[-1].get("series") == 2:
        for record in batch:
            if (
                isinstance(record, dict)
                and record.get("series") == 2
                and record.get("traffic", "uniform") == "uniform"
            ):
                uniform = record
    for field_name, key in (
        ("speedup", "batch.speedup_64"),
        ("scalar_ns_per_track_tick", "batch.scalar_ns_per_track_tick"),
        ("batch_ns_per_track_tick", "batch.batch_ns_per_track_tick"),
        ("crossover_tracks", "batch.crossover_tracks"),
    ):
        value = uniform.get(field_name)
        if isinstance(value, (int, float)):
            metrics[key] = float(value)

    pipeline = _read_json(bench_dir / "BENCH_pipeline.json")
    if isinstance(pipeline, list) and pipeline:
        latest = pipeline[-1]
        for field_name, key in (
            ("speedup", "pipeline.speedup"),
            ("serial_s", "pipeline.serial_s"),
            ("batch_s", "pipeline.batch_s"),
            ("trips_per_sec", "pipeline.trips_per_sec"),
            ("serial_trips_per_sec", "pipeline.serial_trips_per_sec"),
        ):
            value = latest.get(field_name)
            if isinstance(value, (int, float)):
                metrics[key] = float(value)

    faults = _read_json(bench_dir / "BENCH_faults.json")
    if isinstance(faults, dict):
        clean = faults.get("clean_rmse_deg")
        if isinstance(clean, (int, float)):
            metrics["faults.clean_rmse_deg"] = float(clean)
        scenarios = faults.get("scenarios")
        if isinstance(scenarios, list) and scenarios:
            ratios = [
                s["rmse_ratio"]
                for s in scenarios
                if s.get("ok") and isinstance(s.get("rmse_ratio"), (int, float))
            ]
            if ratios:
                metrics["faults.max_rmse_ratio"] = float(max(ratios))
            metrics["faults.n_scenarios_failed"] = float(
                sum(1 for s in scenarios if not s.get("ok"))
            )

    gps_denied = _read_json(bench_dir / "BENCH_gps_denied.json")
    if isinstance(gps_denied, dict):
        summary = gps_denied.get("summary")
        if isinstance(summary, dict):
            for key in (
                "clean_rmse_deg",
                "rmse_ratio_30s_aided",
                "max_drift_deg",
                "n_cells_failed",
            ):
                value = summary.get(key)
                if isinstance(value, (int, float)):
                    metrics["gps_denied." + key] = float(value)

    grid = _read_json(bench_dir / "BENCH_scenarios.json")
    if isinstance(grid, dict):
        summary = grid.get("summary")
        if isinstance(summary, dict):
            for key in ("max_clean_rmse_deg", "max_rmse_ratio"):
                value = summary.get(key)
                if isinstance(value, (int, float)):
                    metrics["scenarios." + key] = float(value)
            for key in ("n_cells_failed", "n_baselines_failed"):
                value = summary.get(key)
                if isinstance(value, (int, float)):
                    metrics["scenarios." + key] = float(value)

    telemetry = _read_json(bench_dir / "bench_telemetry.json")
    if isinstance(telemetry, dict):
        # The artifact nests one export_run dict per benchmark under
        # "benchmarks"; tolerate a bare export_run dict too.
        runs = telemetry.get("benchmarks")
        if not isinstance(runs, dict):
            runs = {"run": telemetry}
        for run in runs.values():
            if not isinstance(run, dict):
                continue
            gauges = run.get("metrics", {}).get("gauges", {})
            for name, value in gauges.items():
                if name.startswith("bench.") and isinstance(value, (int, float)):
                    metrics["telemetry." + name[len("bench.") :]] = float(value)

    return metrics


def load_history(path: str | Path) -> list[dict]:
    """Parse a ``BENCH_history.jsonl`` file (missing file = empty history)."""
    path = Path(path)
    if not path.exists():
        return []
    entries: list[dict] = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(
                f"corrupt bench history {path} at line {lineno}: {exc}"
            ) from exc
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def append_history(path: str | Path, metrics: dict, ts: float | None = None) -> dict:
    """Append one schema'd entry to the history; returns the entry."""
    entry = {
        "schema": SCHEMA,
        # reprolint: disable=RL001 -- history entries are timestamped by design; ts= injects a clock
        "ts": time.time() if ts is None else float(ts),
        "git_sha": git_revision(),
        "metrics": {k: metrics[k] for k in sorted(metrics)},
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def deltas(metrics: dict, previous: dict | None) -> dict:
    """Per-metric ``(previous, current, change)`` records vs. the last entry."""
    prev_metrics = (previous or {}).get("metrics", {})
    out: dict[str, dict] = {}
    for name in sorted(metrics):
        current = metrics[name]
        prev = prev_metrics.get(name)
        record: dict = {"current": current, "previous": prev}
        if isinstance(prev, (int, float)) and prev != 0:
            record["change"] = (current - prev) / abs(prev)
        out[name] = record
    return out


def check_regressions(
    metrics: dict,
    previous: dict | None,
    rules: tuple[RegressionRule, ...] = DEFAULT_RULES,
) -> list[str]:
    """Evaluate every rule; returns the violation messages (empty = pass)."""
    prev_metrics = (previous or {}).get("metrics", {})
    violations: list[str] = []
    for rule in rules:
        current = metrics.get(rule.metric)
        if current is None:
            continue
        prev = prev_metrics.get(rule.metric)
        message = rule.evaluate(
            float(current), float(prev) if prev is not None else None
        )
        if message is not None:
            violations.append(message)
    return violations


def _load_rules(path: str) -> tuple[RegressionRule, ...]:
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, list):
        raise ConfigurationError(
            f"rules file {path} must hold a JSON list of rule dicts"
        )
    return tuple(RegressionRule.from_dict(d) for d in raw)


def _cmd_collect(bench_dir: Path, args: "argparse.Namespace") -> int:
    metrics = collect_metrics(bench_dir)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def _cmd_check(bench_dir: Path, args: "argparse.Namespace") -> int:
    metrics = collect_metrics(bench_dir)
    if not metrics:
        print(f"benchtrack: no bench artifacts found in {bench_dir}")
        return 2
    history_path = Path(args.history) if args.history else bench_dir / HISTORY_NAME
    try:
        history = load_history(history_path)
    except ConfigurationError as exc:
        print(f"benchtrack: {exc}")
        return 2
    previous = history[-1] if history else None
    rules = _load_rules(args.rules) if args.rules else DEFAULT_RULES

    violations = check_regressions(metrics, previous, rules)
    for name, record in deltas(metrics, previous).items():
        change = record.get("change")
        change_text = f" ({change:+.1%})" if change is not None else ""
        print(f"  {name}: {record['current']:.4g}{change_text}")

    if not args.no_append:
        append_history(history_path, metrics)
        print(f"benchtrack: appended entry #{len(history) + 1} to {history_path}")

    if violations:
        print(f"benchtrack: {len(violations)} regression(s) detected:")
        for message in violations:
            print(f"  REGRESSION {message}")
        return 1
    print("benchtrack: no regressions")
    return 0


def _cmd_report(bench_dir: Path, args: "argparse.Namespace") -> int:
    from .export import format_span_tree

    metrics = collect_metrics(bench_dir)
    history_path = Path(args.history) if args.history else bench_dir / HISTORY_NAME
    history = load_history(history_path)
    previous = history[-1] if history else None

    print(f"bench report for {bench_dir} ({len(history)} history entries)")
    print()
    print("metrics vs previous entry:")
    for name, record in deltas(metrics, previous).items():
        change = record.get("change")
        change_text = f" ({change:+.1%})" if change is not None else ""
        print(f"  {name:36s} {record['current']:>12.4g}{change_text}")

    faults = _read_json(bench_dir / "BENCH_faults.json")
    if isinstance(faults, dict):
        flagged = [
            s
            for s in faults.get("scenarios", [])
            if isinstance(s.get("health"), dict)
            and s["health"].get("worst_verdict", "ok") != "ok"
        ]
        print()
        print(
            f"fault-matrix health: {len(flagged)} flagged scenario(s) of "
            f"{len(faults.get('scenarios', []))}"
        )
        for s in flagged:
            h = s["health"]
            print(
                f"  {s.get('kind'):12s} sev={s.get('severity')}: "
                f"{h.get('worst_verdict')} {h.get('flag_kinds', [])}"
            )

    grid = _read_json(bench_dir / "BENCH_scenarios.json")
    if isinstance(grid, dict):
        summary = grid.get("summary", {})
        print()
        print(
            "scenario grid: {} cell(s), {} failed; worst cell: {}".format(
                summary.get("n_cells"),
                summary.get("n_cells_failed"),
                summary.get("worst_cell"),
            )
        )

    telemetry = _read_json(bench_dir / "bench_telemetry.json")
    if isinstance(telemetry, dict):
        runs = telemetry.get("benchmarks")
        if not isinstance(runs, dict):
            runs = {"run": telemetry}
        trees = [
            (name, run)
            for name, run in sorted(runs.items())
            if isinstance(run, dict) and run.get("spans")
        ]
        if trees:
            print()
            print("benchmark span trees:")
            for name, run in trees:
                print(f"  [{name}]")
                for line in format_span_tree(run).splitlines():
                    print(f"  {line}")
    return 0


def _main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.benchtrack",
        description="Track benchmark history and gate on regressions.",
    )
    parser.add_argument("command", choices=("collect", "check", "report"))
    parser.add_argument("bench_dir", help="directory holding BENCH_*.json artifacts")
    parser.add_argument(
        "--history", default=None, help=f"history file (default <bench_dir>/{HISTORY_NAME})"
    )
    parser.add_argument(
        "--rules", default=None, help="JSON file with a list of RegressionRule dicts"
    )
    parser.add_argument(
        "--no-append", action="store_true", help="gate without growing the history"
    )
    args = parser.parse_args(argv)

    bench_dir = Path(args.bench_dir)
    if not bench_dir.is_dir():
        print(f"benchtrack: {bench_dir} is not a directory")
        return 2
    try:
        if args.command == "collect":
            return _cmd_collect(bench_dir, args)
        if args.command == "check":
            return _cmd_check(bench_dir, args)
        return _cmd_report(bench_dir, args)
    except ConfigurationError as exc:
        print(f"benchtrack: {exc}")
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(_main())
