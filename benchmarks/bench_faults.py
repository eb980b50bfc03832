"""Fault matrix: RMSE degradation under fault kind × severity.

The matrix is the accuracy grid's preset: the default scenario with the
legacy driver over every fault kind (:mod:`repro.eval.grid`).

Pytest mode (``pytest benchmarks/bench_faults.py``) is the CI smoke: a
small kind × severity grid on the red route asserting the robustness
contract — every cell completes (``ok`` recorded, never raised), and
short-gap faults (< 2 s dropouts mid-trip) stay within 2× the clean
baseline RMSE.

Script mode (``PYTHONPATH=src python benchmarks/bench_faults.py``) sweeps
the full fault taxonomy across the severity grid and writes the
degradation matrix to ``benchmarks/BENCH_faults.json``. ``--reduced``
shrinks the severity grid (nightly CI budget); ``--no-sanitize`` runs the
plain paper pipeline instead of :data:`~repro.core.stages.ROBUST_STAGES`
for an ablation of what the degradation machinery buys.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.datasets.charlottesville import red_route
from repro.eval.grid import ScenarioGridConfig, run_scenario_grid, write_grid_artifact
from repro.eval.parallel import ParallelConfig
from repro.eval.runner import RunnerConfig
from repro.faults.suite import FAULT_KINDS

ARTIFACT = Path(__file__).resolve().parent / "BENCH_faults.json"

#: Severity grid of the full sweep; ``--reduced`` drops the harshest row.
FULL_SEVERITIES = (0.5, 1.0, 2.0, 4.0)
REDUCED_SEVERITIES = (0.5, 1.0, 2.0)


def fault_matrix_config(
    severities: tuple[float, ...], use_sanitize: bool = True
) -> ScenarioGridConfig:
    """The fault-matrix preset of the grid: every kind, no scenario or
    driver variation."""
    return ScenarioGridConfig(
        scenarios=("default",),
        drivers=("legacy",),
        fault_kinds=tuple(sorted(FAULT_KINDS)),
        severities=severities,
        use_sanitize=use_sanitize,
    )


def run_matrix(
    severities: tuple[float, ...] = FULL_SEVERITIES,
    use_sanitize: bool = True,
    n_trips: int = 2,
    telemetry=None,
) -> dict:
    """One full-taxonomy sweep on the red route."""
    return run_scenario_grid(
        red_route(),
        base_cfg=RunnerConfig(n_trips=n_trips, seed=3),
        config=fault_matrix_config(severities, use_sanitize),
        parallel=ParallelConfig(max_workers=4, backend="thread"),
        telemetry=telemetry,
    )


def short_gap_cells(result: dict) -> list[dict]:
    """Window faults shorter than 2 s — the sanitize stage's home turf."""
    return [
        c
        for c in result["cells"]
        if c["kind"] in ("gps_dropout", "nan_burst", "inf_burst", "stuck")
        and c["severity"] < 2.0
    ]


# -- pytest smoke ------------------------------------------------------------


def test_fault_matrix_smoke(bench_telemetry):
    result = run_matrix(severities=(0.5, 2.0), telemetry=bench_telemetry)

    assert result["schema"] == "repro.bench_scenarios/v1"
    (clean,) = result["baselines"]
    assert clean["rmse_deg"] is not None
    assert clean["rmse_deg"] < 1.0  # red-route clean baseline

    # Robustness contract 1: the matrix records every cell — a fault that
    # crashes the pipeline must surface as ok=False data, not raise.
    assert len(result["cells"]) == len(FAULT_KINDS) * len(result["severities"])
    assert all("ok" in c for c in result["cells"])
    assert all(c["ok"] for c in result["cells"]), [
        c for c in result["cells"] if not c["ok"]
    ]

    # Robustness contract 2: short-gap faults degrade gracefully.
    short = short_gap_cells(result)
    assert short, "severity grid must include a sub-2s window fault"
    for c in short:
        assert c["rmse_ratio"] is not None
        assert c["rmse_ratio"] < 2.0, c

    json.dumps(result)  # the artifact must stay strict JSON

    print(
        "\nclean RMSE {:.3f} deg; worst short-gap ratio {:.3f}\n".format(
            clean["rmse_deg"],
            max(c["rmse_ratio"] for c in short),
        ),
        flush=True,
    )


# -- script mode -------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="smaller severity grid for the nightly CI budget",
    )
    parser.add_argument(
        "--no-sanitize",
        action="store_true",
        help="ablation: run the plain paper pipeline without the sanitize stage",
    )
    parser.add_argument(
        "--out", type=Path, default=ARTIFACT, help="artifact path"
    )
    parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="also write a run manifest JSON here (CI artifact)",
    )
    args = parser.parse_args()

    severities = REDUCED_SEVERITIES if args.reduced else FULL_SEVERITIES
    result = run_matrix(severities=severities, use_sanitize=not args.no_sanitize)
    path = write_grid_artifact(result, args.out)
    (clean,) = result["baselines"]

    if args.manifest is not None:
        from repro.obs.manifest import write_manifest

        flagged = sum(
            1
            for c in result["cells"]
            if isinstance(c.get("health"), dict)
            and c["health"].get("worst_verdict", "ok") != "ok"
        )
        write_manifest(
            args.manifest,
            config=fault_matrix_config(severities, not args.no_sanitize),
            seed=3,
            health=clean["health"],
            extra={
                "kind": "bench_faults",
                "aggregate": {
                    "clean_rmse_deg": clean["rmse_deg"],
                    "n_cells": len(result["cells"]),
                    "n_flagged": flagged,
                },
            },
        )
        print(f"manifest written to {args.manifest}")

    n_ok = sum(1 for c in result["cells"] if c["ok"])
    print(f"wrote {path} ({n_ok}/{len(result['cells'])} cells ok)")
    print(f"clean RMSE: {clean['rmse_deg']} deg")
    for c in result["cells"]:
        ratio = c["rmse_ratio"] if c["ok"] else f"FAILED: {c['error']}"
        print(f"  {c['kind']:<12} severity {c['severity']:<4} -> {ratio}")


if __name__ == "__main__":
    main()
