"""GPS-denied matrix: outage length × dead reckoning × prior map.

Pytest mode (``pytest benchmarks/bench_gps_denied.py``) is the CI smoke: a
reduced outage grid on a long curvy route asserting the GPS-denied
contract — every cell completes, the mode machine actually engages
(transitions and map updates recorded), and the *aided* 30 s outage cell
(dead reckoning + prior map on) keeps its gradient RMSE within 2× the
clean streaming baseline.

Script mode (``PYTHONPATH=src python benchmarks/bench_gps_denied.py``)
sweeps the full outage grid (10/30/120 s) and writes the matrix to
``benchmarks/BENCH_gps_denied.json``. ``--reduced`` drops the 120 s row for
the nightly CI budget. ``tests/eval/sweep_golden.json`` pins the smoke's
matrix exactly.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.eval.gps_denied import GPSDeniedMatrixConfig, run_gps_denied_matrix
from repro.eval.grid import write_grid_artifact
from repro.eval.runner import RunnerConfig
from repro.roads import SectionSpec, build_profile
from repro.roads.profile import RoadProfile

ARTIFACT = Path(__file__).resolve().parent / "BENCH_gps_denied.json"

#: Outage grid of the full sweep; ``--reduced`` drops the 120 s row.
FULL_OUTAGES = (10.0, 30.0, 120.0)
REDUCED_OUTAGES = (10.0, 30.0)


def gps_denied_route() -> RoadProfile:
    """A ~4 km route with grade changes and curves inside every outage.

    Curves matter: the dead reckoner's road-heading match only observes
    along-track error where curvature is non-zero, and the prior map is
    only informative where the grade actually changes.
    """
    specs = [
        SectionSpec.from_degrees(800.0, 2.0, 2),
        SectionSpec.from_degrees(700.0, -1.5, 2, turn_deg=40.0),
        SectionSpec.from_degrees(800.0, 3.0, 2, turn_deg=-35.0),
        SectionSpec.from_degrees(700.0, -2.5, 2),
        SectionSpec.from_degrees(1000.0, 1.0, 2, turn_deg=25.0),
    ]
    return build_profile(specs, name="gps-denied-route")


def run_matrix(
    outages: tuple[float, ...] = FULL_OUTAGES, telemetry=None
) -> dict:
    """One GPS-denied sweep on the long route."""
    return run_gps_denied_matrix(
        gps_denied_route(),
        base_cfg=RunnerConfig(n_trips=1, seed=3),
        config=GPSDeniedMatrixConfig(outages_s=outages),
        telemetry=telemetry,
    )


def aided_cells(result: dict) -> list[dict]:
    """The cells with both aids on — the acceptance-gated configuration."""
    return [
        c for c in result["cells"] if c["dead_reckoning"] and c["prior_map"]
    ]


# -- pytest smoke ------------------------------------------------------------


def test_gps_denied_matrix_smoke(bench_telemetry):
    result = run_matrix(outages=REDUCED_OUTAGES, telemetry=bench_telemetry)

    assert result["schema"] == "repro.bench_gps_denied/v1"
    assert result["clean"]["rmse_deg"] is not None
    assert result["clean"]["rmse_deg"] < 1.5  # clean streaming baseline

    # Every combination is recorded: outages x DR on/off x map on/off.
    assert len(result["cells"]) == len(REDUCED_OUTAGES) * 4
    assert all(c["ok"] for c in result["cells"]), [
        c for c in result["cells"] if not c["ok"]
    ]

    # The mode machine engaged: an outage always costs transitions, dead
    # reckoning adds one more, and the aided cells fused map updates.
    assert all(c["mode_transitions"] >= 3 for c in result["cells"])
    assert all(c["final_mode"] == "nominal" for c in result["cells"])
    aided = aided_cells(result)
    assert aided and all(c["map_updates"] > 0 for c in aided)

    # The ISSUE acceptance gate: a 30 s outage with both aids on keeps the
    # gradient RMSE within 2x the clean baseline.
    assert result["summary"]["anchor_outage_s"] == 30.0
    assert result["summary"]["rmse_ratio_30s_aided"] is not None
    assert result["summary"]["rmse_ratio_30s_aided"] <= 2.0
    assert result["summary"]["n_cells_failed"] == 0
    # The worst in-outage drift of an aided cell stays bounded.
    assert result["summary"]["max_drift_deg"] <= 6.0

    json.dumps(result)  # the artifact must stay strict JSON

    print(
        "\nclean RMSE {:.3f} deg; 30s aided ratio {:.3f}; "
        "aided max drift {:.3f} deg\n".format(
            result["clean"]["rmse_deg"],
            result["summary"]["rmse_ratio_30s_aided"],
            result["summary"]["max_drift_deg"],
        ),
        flush=True,
    )


# -- script mode -------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--reduced",
        action="store_true",
        help="drop the 120 s outage row for the nightly CI budget",
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

    outages = REDUCED_OUTAGES if args.reduced else FULL_OUTAGES
    result = run_matrix(outages=outages)
    path = write_grid_artifact(result, args.out)

    if args.manifest is not None:
        from repro.obs.manifest import write_manifest

        write_manifest(
            args.manifest,
            config=GPSDeniedMatrixConfig(outages_s=outages),
            seed=3,
            extra={
                "kind": "bench_gps_denied",
                "aggregate": dict(result["summary"]),
            },
        )
        print(f"manifest written to {args.manifest}")

    summary = result["summary"]
    n_ok = sum(1 for c in result["cells"] if c["ok"])
    print(f"wrote {path} ({n_ok}/{len(result['cells'])} cells ok)")
    print(f"clean RMSE: {result['clean']['rmse_deg']} deg")
    for c in result["cells"]:
        aids = ("dr" if c["dead_reckoning"] else "--") + "+" + (
            "map" if c["prior_map"] else "---"
        )
        print(
            f"  outage {c['outage_s']:>5.0f}s [{aids}] -> ratio "
            f"{c['rmse_ratio']} drift {c['max_drift_deg']} deg"
        )
    print(
        f"30s aided ratio: {summary['rmse_ratio_30s_aided']} "
        f"(gate <= {result['config']['max_rmse_ratio']}); "
        f"{summary['n_cells_failed']} cells failed"
    )


if __name__ == "__main__":
    main()
