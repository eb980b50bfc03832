"""Golden outputs of the accuracy sweeps on seeded routes.

Every sweep cell is a pure function of its configuration and seed, so the
sweeps are pinned exactly, not within a tolerance. Three cases:

* ``fault_preset``: the fault matrix, the grid's default-scenario ×
  legacy-driver preset, on the red route — one seed-3 trip, every fault
  kind at severities 0.5 and 2.0, serial backend. Stored as the clean
  baseline's ``rmse_deg`` and ``health``, plus ``ok``, ``rmse_deg``,
  ``rmse_ratio``, ``n_failed`` and ``health`` per ``(kind, severity)``
  cell.
* ``small_grid``: the scenario grid on the red route — three scenarios ×
  the ``safe`` and ``aggressive`` drivers × three fault kinds at severity
  0.5, one seed-3 trip, serial backend. Stored as returned.
* ``gps_denied``: the GPS-denied matrix exactly as
  ``benchmarks/bench_gps_denied.py`` runs its smoke (its route, its
  reduced outages). Stored as returned.

``tests/eval/test_sweep_golden.py`` reruns every case and compares it
with ``sweep_golden.json``; the fault preset must also come out the same
on the thread and process backends.

Regenerate (only when a change to the sweep outputs is intended)::

    PYTHONPATH=src python tests/eval/gen_sweep_golden.py --force

Without ``--force`` the script refuses to overwrite an existing file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

from repro.datasets.charlottesville import red_route
from repro.eval.grid import ScenarioGridConfig, run_scenario_grid
from repro.eval.parallel import ParallelConfig
from repro.eval.runner import RunnerConfig
from repro.faults.suite import FAULT_KINDS

GOLDEN_PATH = Path(__file__).with_name("sweep_golden.json")

BENCH_GPS_DENIED = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "bench_gps_denied.py"
)

BASE = RunnerConfig(n_trips=1, seed=3)
SERIAL = ParallelConfig(backend="serial")

#: The per-cell fields of the fault preset's golden.
CELL_FIELDS = ("kind", "severity", "ok", "rmse_deg", "rmse_ratio", "n_failed", "health")


def fault_preset(parallel: ParallelConfig = SERIAL) -> dict:
    """Every fault kind × severities (0.5, 2.0) on one red-route trip."""
    result = run_scenario_grid(
        red_route(),
        base_cfg=BASE,
        config=ScenarioGridConfig(
            scenarios=("default",),
            drivers=("legacy",),
            fault_kinds=tuple(sorted(FAULT_KINDS)),
            severities=(0.5, 2.0),
        ),
        parallel=parallel,
    )
    (clean,) = result["baselines"]
    return {
        "clean": {"rmse_deg": clean["rmse_deg"], "health": clean["health"]},
        "cells": [{k: c[k] for k in CELL_FIELDS} for c in result["cells"]],
    }


def small_grid() -> dict:
    return run_scenario_grid(
        red_route(),
        base_cfg=BASE,
        config=ScenarioGridConfig(drivers=("safe", "aggressive"), severities=(0.5,)),
        parallel=SERIAL,
    )


def gps_denied() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_gps_denied", BENCH_GPS_DENIED)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench.run_matrix(outages=bench.REDUCED_OUTAGES)


CASES = {"fault_preset": fault_preset, "small_grid": small_grid, "gps_denied": gps_denied}
CASE_NAMES = tuple(CASES)


def run_case(name: str) -> dict:
    """The named case as its JSON form (tuples become lists)."""
    return json.loads(json.dumps(CASES[name]()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--force", action="store_true", help="overwrite an existing golden file"
    )
    parser.add_argument("--out", type=Path, default=GOLDEN_PATH)
    args = parser.parse_args(argv)
    if args.out.exists() and not args.force:
        parser.error(f"{args.out} exists; pass --force to overwrite it")
    goldens = {name: run_case(name) for name in CASE_NAMES}
    args.out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(goldens)} cases to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
