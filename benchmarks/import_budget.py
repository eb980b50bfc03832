"""How much of ``repro`` a fresh process loads for its first estimate.

Run from the root of a checkout (``make coldstart`` does)::

    PYTHONPATH=src python benchmarks/import_budget.py

Prints the number of ``repro`` modules in ``sys.modules`` and their source
lines twice: after ``import repro``, and after one ``estimate`` of a seeded
red-route trip with ``ROBUST_STAGES`` (the recipe of
``tests/test_cold_start.py``). Each package ``__init__`` is a lazy name map,
so a module loads only when a name it defines is first used.
"""

import sys
from pathlib import Path


def _budget() -> str:
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "repro"]
    lines = sum(len(Path(m.__file__).read_text().splitlines()) for m in modules)
    return f"{len(modules)} modules, {lines} source lines"


def main() -> int:
    import repro

    print(f"import repro:   {_budget()}")

    import numpy as np

    from repro.eval.runner import system_config

    route = repro.red_route()
    recording = repro.Smartphone().record(
        repro.simulate_trip(route, seed=0), np.random.default_rng(0)
    )
    cfg = system_config(repro.RunnerConfig(stages=repro.ROBUST_STAGES))
    repro.GradientEstimationSystem(route, config=cfg).estimate(recording)
    print(f"first estimate: {_budget()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
