"""Steadiness report: run the benchmark repeatedly and show its spread.

Usage (from the root of a checkout)::

    python3 perfbench/steadiness.py --rounds 10
    python3 perfbench/steadiness.py --rounds 5 --workload trip_single --sets 2

Each round runs every selected workload once, one after another, so the
workloads alternate and share the machine's slow and fast spells; round
``r`` uses seed ``--seed + r``. With ``--sets 2`` the whole series runs
twice, as two independent sets. For every end-to-end metric and workload
the report prints the median, quartiles, min and max, the spread (the
inter-quartile distance over the median, from
``statistics.quantiles(values, n=4)``) next to the metric's bound in
``BENCHMARK.json``, and with two sets how far the second median moved
in the metric's worse direction. A row is flagged ``WIDE`` when the spread
exceeds a third of the bound and ``FAIL`` when it, or the move between
sets, exceeds the bound (``setup_s`` is exempt from the spread rule).
Raw results go to ``perfbench/out/steadiness.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.measure import spread  # noqa: E402 - needs the path above


def _run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=600, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    logs = [json.loads(line[len("runlog "):]) for line in lines if line.startswith("runlog ")]
    result["runlog"] = logs[-1] if logs else None
    return result


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    p.add_argument("--seed", type=int, default=100)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workload", action="append", choices=names)
    args = p.parse_args(argv)
    workloads = args.workload or names

    runs: dict = {s: {w: [] for w in workloads} for s in range(args.sets)}
    for s in range(args.sets):
        for r in range(args.rounds):
            for w in workloads:
                result = _run(w, args.seed + r, args.seconds)
                runs[s][w].append(result)
                tps = result["metrics"]["trips_per_s"]["value"]
                print(f"set {s} round {r} {w}: trips_per_s {tps:.4g}", flush=True)

    failed = False
    print(f"\n{'workload':14s} {'metric':16s} set {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'min':>10s} {'max':>10s} {'spread':>7s} {'bound':>6s} {'moved':>7s}")
    for w in workloads:
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians = []
            for s in range(args.sets):
                values = [r["metrics"][key]["value"] for r in runs[s][w]]
                q1, med, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                sp = spread(values)
                moved = _worse_by(medians[0], med, metric["better"])
                flags = []
                if key != "setup_s" and sp > bound:
                    flags.append("FAIL")
                elif key != "setup_s" and sp > bound / 3:
                    flags.append("WIDE")
                if moved > bound:
                    flags.append("FAIL-moved")
                failed = failed or any(f.startswith("FAIL") for f in flags)
                print(f"{w:14s} {key:16s} {s:3d} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                      f"{min(values):10.4g} {max(values):10.4g} {sp:7.3f} {bound:6.2f} "
                      f"{moved:7.3f} {' '.join(flags)}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(runs), encoding="utf-8")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
