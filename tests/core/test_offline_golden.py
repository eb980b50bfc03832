"""Offline estimation against committed golden outputs.

``offline_golden.json`` holds, per seeded red-route case, each track's
theta and variance CRC-32s and probes, health verdict and mean NIS, and
each trip's fused CRC-32, verdict and matched-fix count. ``estimate`` must
reproduce the faulty-trip cases, and both ``estimate_batch`` and per-trip
``estimate`` the ragged batch case. The cases and the generator live in
``gen_offline_golden.py``.
"""

from __future__ import annotations

import json

import pytest

import repro.core.batch as batch_mod

from .gen_offline_golden import (
    BATCH_TRIPS,
    GOLDEN_PATH,
    batch_recordings,
    case_names,
    main,
    run_batch_serial,
    run_case,
)

GOLDENS = json.loads(GOLDEN_PATH.read_text())
BATCH_CASE = f"estimate_batch/ragged-{BATCH_TRIPS}"


def test_every_case_has_a_golden():
    assert sorted(GOLDENS) == sorted(case_names())


@pytest.mark.parametrize("name", case_names())
def test_case_matches_golden(name):
    assert run_case(name) == GOLDENS[name]


def test_batch_case_matches_golden_trip_by_trip():
    assert run_batch_serial() == GOLDENS[BATCH_CASE]


def test_batch_case_crosses_the_routing_threshold():
    # Four tracks per trip: the call runs vectorized, and the longest
    # trips outlast the point where fewer than BATCH_MIN_TRACKS are live.
    lengths = sorted((len(rec.t) for rec in batch_recordings()), reverse=True)
    n_tracks = 4 * len(lengths)
    assert n_tracks >= batch_mod.BATCH_MIN_TRACKS
    live_width_at_end = 4 * lengths.count(lengths[0])
    assert live_width_at_end < batch_mod.BATCH_MIN_TRACKS


def test_generator_refuses_to_overwrite(tmp_path):
    out = tmp_path / "golden.json"
    out.write_text("{}")
    with pytest.raises(SystemExit):
        main(["--out", str(out)])
    assert out.read_text() == "{}"
