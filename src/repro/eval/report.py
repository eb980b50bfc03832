"""One-shot reproduction report: every headline experiment in one markdown.

``python -m repro.eval.report [output.md]`` runs the red-route method
comparison, the fusion sweep, the fuel-uplift computation and the
lane-change detection score, and writes a self-contained markdown report
with paper-vs-measured tables. Meant for CI artifacts and quick sanity
checks after changing estimator tuning; the full per-figure harness lives
in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from ..constants import KMH
from ..datasets.charlottesville import city_network, red_route
from ..emissions.fuel import gradient_fuel_uplift
from .metrics import cdf_value_at
from .runner import RunnerConfig, evaluate_fusion_counts, evaluate_methods

__all__ = ["build_report", "main"]

_PAPER = {
    "mre": {"ops": 0.119, "ekf": 0.203, "ann": 0.316},
    "fusion_median": {1: 0.23, 2: 0.09, 3: 0.09, 4: 0.09},
    "uplift": 0.334,
}


def _table(headers: list[str], rows: list[list]) -> str:
    def fmt(x):
        return f"{x:.3f}" if isinstance(x, float) else str(x)

    out = ["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
    out.extend("| " + " | ".join(fmt(c) for c in row) + " |" for row in rows)
    return "\n".join(out)


def build_report(seed: int = 3, n_trips: int = 2, network_km: float = 60.0) -> str:
    """Run the headline experiments and return the markdown report."""
    # reprolint: disable=RL001 -- report generation wall time is display-only
    started = time.time()
    route = red_route()
    cfg = RunnerConfig(n_trips=n_trips, seed=seed)

    sections = ["# Reproduction report", ""]
    sections.append(
        f"Seeds: runner={seed}, trips={n_trips}. All numbers deterministic."
    )

    # 1. Method comparison (Fig 8a).
    res = evaluate_methods(route, methods=("ops", "ekf", "ann"), cfg=cfg)
    rows = [
        [
            name,
            f"{_PAPER['mre'][name] * 100:.1f}%",
            f"{m.mre * 100:.1f}%",
            m.mean_error_deg,
            m.median_error_deg,
        ]
        for name, m in res.methods.items()
    ]
    sections += [
        "",
        "## Red-route method comparison (Fig 8a)",
        "",
        _table(["method", "paper MRE", "repro MRE", "mean err deg", "median err deg"], rows),
        "",
        f"OPS improvement over the best baseline: "
        f"**{res.improvement_over(min((n for n in res.methods if n != 'ops'), key=lambda n: res.methods[n].mre)) * 100:.1f}%** (paper: 22%).",
    ]

    # 2. Fusion sweep (Fig 8b).
    fusion = evaluate_fusion_counts(route, RunnerConfig(n_trips=1, seed=seed))
    rows = [
        [k, _PAPER["fusion_median"][k], float(np.degrees(cdf_value_at(v, 0.5)))]
        for k, v in sorted(fusion.items())
    ]
    sections += [
        "",
        "## Track-fusion medians (Fig 8b)",
        "",
        _table(["tracks", "paper median deg", "repro median deg"], rows),
    ]

    # 3. Fuel uplift headline.
    city = city_network(target_length_km=network_km)
    total_with = total_flat = 0.0
    for edge in city.edges():
        w, f, _ = gradient_fuel_uplift(edge.profile.grade, edge.profile.s, 40.0 * KMH)
        total_with += w
        total_flat += f
    uplift = total_with / total_flat - 1.0
    sections += [
        "",
        "## Fuel/emission uplift",
        "",
        f"Ignoring gradients underestimates fuel and emissions by "
        f"**{uplift * 100:.1f}%** on the {city.total_length / 1000:.0f} km "
        f"synthetic city (paper: +{_PAPER['uplift'] * 100:.1f}%).",
    ]

    # 4. Lane-change detection.
    d = res.detection
    sections += [
        "",
        "## Lane-change detection (red-route trips)",
        "",
        _table(
            ["TP", "FP", "FN", "precision", "recall", "F1"],
            [[d.true_positives, d.false_positives, d.false_negatives,
              d.precision, d.recall, d.f1]],
        ),
        "",
        # reprolint: disable=RL001 -- report generation wall time is display-only
        f"_Report generated in {time.time() - started:.1f} s._",
        "",
    ]
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: write the report to a file or stdout."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.report", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "output", nargs="?", help="markdown file to write (default: stdout)"
    )
    args = parser.parse_args(argv)
    report = build_report()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report)
        print(f"wrote {args.output}")
    else:
        print(report)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
