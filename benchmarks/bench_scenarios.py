"""Scenario × fault × driver accuracy grid on the red route.

Pytest mode (``pytest benchmarks/bench_scenarios.py``) is the CI smoke: a
small grid (two scenarios × two drivers × one fault) asserting the grid
contract — every cell completes (``ok`` recorded, never raised), clean
baselines stay accurate, and the artifact is strict JSON.

Script mode (``PYTHONPATH=src python benchmarks/bench_scenarios.py``)
sweeps the standing grid (3 scenarios × 3 driver styles × 3 fault kinds ×
2 severities = 54 fault cells + 9 clean baselines) and writes
``benchmarks/BENCH_scenarios.json``. ``--reduced`` drops the harshest
severity row for the nightly budget. ``tests/eval/sweep_golden.json`` pins
a small grid's cells exactly.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.datasets.charlottesville import red_route
from repro.eval.grid import (
    ScenarioGridConfig,
    run_scenario_grid,
    write_grid_artifact,
)
from repro.eval.parallel import ParallelConfig
from repro.eval.runner import RunnerConfig

ARTIFACT = Path(__file__).resolve().parent / "BENCH_scenarios.json"

FULL_SEVERITIES = (0.5, 2.0)
REDUCED_SEVERITIES = (0.5,)


def run_grid(
    config: ScenarioGridConfig | None = None,
    n_trips: int = 2,
    telemetry=None,
) -> dict:
    """One grid sweep on the red route (the passthrough scenarios' road)."""
    return run_scenario_grid(
        red_route(),
        base_cfg=RunnerConfig(n_trips=n_trips, seed=3),
        config=config or ScenarioGridConfig(),
        parallel=ParallelConfig(max_workers=4, backend="thread"),
        telemetry=telemetry,
    )


# -- pytest smoke ------------------------------------------------------------


def test_scenario_grid_smoke(bench_telemetry):
    cfg = ScenarioGridConfig(
        scenarios=("default", "suburban-commute"),
        drivers=("safe", "aggressive"),
        fault_kinds=("nan_burst",),
        severities=(2.0,),
    )
    result = run_grid(config=cfg, telemetry=bench_telemetry)

    assert result["schema"] == "repro.bench_scenarios/v1"
    assert len(result["baselines"]) == 4
    assert len(result["cells"]) == cfg.n_cells == 4

    # Grid contract 1: every baseline and cell is recorded data — a
    # combination that crashes the pipeline must be ok=False, not raise.
    assert all("ok" in b for b in result["baselines"])
    assert all(b["ok"] for b in result["baselines"]), [
        b for b in result["baselines"] if not b["ok"]
    ]
    assert all(c["ok"] for c in result["cells"]), [
        c for c in result["cells"] if not c["ok"]
    ]

    # Grid contract 2: clean accuracy holds across scenarios and styles,
    # and no fault cell degrades beyond 4x its own clean baseline.
    assert result["summary"]["max_clean_rmse_deg"] < 1.5
    assert result["summary"]["max_rmse_ratio"] <= 4.0

    json.dumps(result)  # the artifact must stay strict JSON

    print(
        "\nmax clean RMSE {:.3f} deg; worst fault ratio {:.3f} ({})\n".format(
            result["summary"]["max_clean_rmse_deg"],
            result["summary"]["max_rmse_ratio"],
            result["summary"]["worst_cell"],
        ),
        flush=True,
    )


# -- script mode -------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="single-severity grid for the nightly CI budget",
    )
    parser.add_argument("--out", type=Path, default=ARTIFACT, help="artifact path")
    parser.add_argument(
        "--manifest",
        type=Path,
        default=None,
        help="also write a run manifest JSON here (CI artifact)",
    )
    args = parser.parse_args()

    severities = REDUCED_SEVERITIES if args.reduced else FULL_SEVERITIES
    cfg = ScenarioGridConfig(severities=severities)
    result = run_grid(config=cfg)
    path = write_grid_artifact(result, args.out)

    if args.manifest is not None:
        from repro.obs.manifest import write_manifest

        write_manifest(
            args.manifest,
            config=cfg,
            seed=3,
            health=None,
            extra={"kind": "bench_scenarios", "aggregate": result["summary"]},
        )
        print(f"manifest written to {args.manifest}")

    summary = result["summary"]
    n_ok = summary["n_cells"] - summary["n_cells_failed"]
    print(f"wrote {path} ({n_ok}/{summary['n_cells']} cells ok)")
    print(f"max clean RMSE: {summary['max_clean_rmse_deg']} deg")
    print(f"worst fault ratio: {summary['max_rmse_ratio']} at {summary['worst_cell']}")
    for c in result["cells"]:
        ratio = c["rmse_ratio"] if c["ok"] else f"FAILED: {c['error']}"
        print(
            f"  {c['scenario']:<18} {c['driver']:<10} {c['kind']:<12} "
            f"sev {c['severity']:<4} -> {ratio}"
        )


if __name__ == "__main__":
    main()
