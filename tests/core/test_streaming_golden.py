"""Streaming replays against committed golden outputs.

``streaming_golden.json`` holds, per seeded red-route case, the CRC-32 of
the full theta series, theta at fixed ticks, the estimator's end state and
(telemetry case) the counter snapshot and logged events. Both replay APIs
must reproduce it bit for bit: ``run()`` and a ``push()`` per sample. The
cases and the generator live in ``gen_streaming_golden.py``.
"""

from __future__ import annotations

import json

import pytest

from .gen_streaming_golden import (
    CASE_NAMES,
    GOLDEN_PATH,
    build_case,
    main,
    replay_push,
    replay_run,
)

GOLDENS = json.loads(GOLDEN_PATH.read_text())


def test_every_case_has_a_golden():
    assert sorted(GOLDENS) == sorted(CASE_NAMES)


@pytest.mark.parametrize("replay", [replay_run, replay_push], ids=["run", "push"])
@pytest.mark.parametrize("name", CASE_NAMES)
def test_replay_matches_golden(name, replay):
    assert replay(build_case(name)) == GOLDENS[name]


def test_generator_refuses_to_overwrite(tmp_path):
    out = tmp_path / "golden.json"
    out.write_text("{}")
    with pytest.raises(SystemExit):
        main(["--out", str(out)])
    assert out.read_text() == "{}"
