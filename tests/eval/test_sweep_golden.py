"""Accuracy sweeps against committed golden outputs.

``sweep_golden.json`` holds the fault preset's clean baseline and cells,
a small scenario grid and the bench's GPS-denied matrix, each exactly as
the sweep reports it. The sweeps are deterministic in their configuration
and seed, so every case must come back equal, and the fault preset must
come back equal on every backend. The cases and the generator live in
``gen_sweep_golden.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.parallel import ParallelConfig

from .gen_sweep_golden import CASE_NAMES, GOLDEN_PATH, fault_preset, main, run_case

GOLDENS = json.loads(GOLDEN_PATH.read_text())


def test_every_case_has_a_golden():
    assert sorted(GOLDENS) == sorted(CASE_NAMES)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_case_matches_golden(name):
    assert run_case(name) == GOLDENS[name]


@pytest.mark.parametrize("backend", ["thread", "process"])
def test_fault_preset_is_backend_independent(backend):
    got = fault_preset(ParallelConfig(backend=backend, max_workers=2))
    assert json.loads(json.dumps(got)) == GOLDENS["fault_preset"]


def test_generator_refuses_to_overwrite(tmp_path):
    out = tmp_path / "golden.json"
    out.write_text("{}")
    with pytest.raises(SystemExit):
        main(["--out", str(out)])
    assert out.read_text() == "{}"
