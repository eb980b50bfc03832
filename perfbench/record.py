"""Record the reference accuracy of each workload per seed.

Usage (from the root of a checkout)::

    python3 perfbench/record.py --seeds 0-31            # print, change nothing
    python3 perfbench/record.py --seeds 0-31 --write    # update expected.json

For every workload and seed it generates the inputs, runs one untimed pass
and scores it exactly as ``run.py`` does, then prints each value next to
the one on record. ``--write`` stores the new values (and the input
digest) in ``perfbench/expected.json`` and sets each workload's ceilings,
which hold a seed that is not on record, 30 % above the worst recorded
value; the benchmark compares every run against them. Re-record only when a change to the library is meant to
change accuracy.
"""

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-31", help="e.g. 0-31 or 0,5,9")
    p.add_argument("--workload", action="append", help="default: all workloads")
    p.add_argument("--write", action="store_true", help="update expected.json")
    args = p.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from repro.obs import NULL_TELEMETRY

    from perfbench.harness import EXPECTED, data_dir
    from perfbench.workloads import WORKLOADS

    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    changed = 0
    for name in args.workload or list(WORKLOADS):
        workload = WORKLOADS[name]
        table = expected["seeds"].setdefault(name, {})
        for seed in _seeds(args.seeds):
            inputs = workload.generate(seed, data_dir(name, seed), probe=False)
            state = workload.build(inputs, {})
            result = workload.run_pass(state, NULL_TELEMETRY, keep=True, host=None)
            acc = workload.score(state, result.outputs)
            if result.failed or acc.non_finite:
                print(f"{name} seed {seed}: failed trips {sorted(result.failed)} "
                      f"non-finite {acc.non_finite}; not recorded")
                return 1
            new = {"mae_deg": acc.mae_deg, "rmse_deg": acc.rmse_deg, **acc.extra,
                   "digest": inputs["digest"]}
            old = table.get(str(seed), {})
            for key, value in new.items():
                mark = "" if old.get(key) == value else "  (changed)"
                changed += bool(mark)
                print(f"{name:14s} seed {seed:3d} {key:14s} {value!s:24.20s} "
                      f"recorded {old.get(key)!s:.20s}{mark}")
            table[str(seed)] = new
            shutil.rmtree(data_dir(name, seed), ignore_errors=True)
    # A seed not on record is held to ceilings 30 % above the worst recorded.
    for name, table in expected["seeds"].items():
        keys = {k for entry in table.values() for k in entry if k != "digest"}
        expected["ceilings"][name] = {
            k: math.ceil(130 * max(entry[k] for entry in table.values())) / 100
            for k in sorted(keys)
        }
    if args.write:
        EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {EXPECTED.relative_to(ROOT)} ({changed} values changed)")
    else:
        print(f"{changed} values differ from the record; pass --write to store them")
    return 0


if __name__ == "__main__":
    sys.exit(main())
