"""Input generation is deterministic per seed; the entry point refuses to
run without the library source."""

import shutil
import subprocess
import sys
from pathlib import Path

from perfbench import gen

ROOT = Path(__file__).resolve().parents[2]


def test_trip_single_inputs_repeat_bit_for_bit():
    first = gen.digest(gen.trip_single_inputs(3, n=1))
    assert gen.digest(gen.trip_single_inputs(3, n=1)) == first
    assert gen.digest(gen.trip_single_inputs(4, n=1)) != first


def test_stream_inputs_repeat_and_carry_one_outage():
    a = gen.stream_inputs(5, n=2)
    assert gen.digest(gen.stream_inputs(5, n=2)) == gen.digest(a)
    nominal, outage = a.replays
    assert nominal.outage is None
    start, end = outage.outage
    assert end - start == gen.STREAM_OUTAGE_S


def test_fleet_stores_reopen_as_written(tmp_path):
    from repro.sensors.recording_io import TripStore

    paths, digest = gen.write_fleet_stores(2, tmp_path / "fleet")
    assert len(paths) == gen.FLEET_STORES
    stores = [TripStore.open(p) for p in paths]
    assert all(len(s) == gen.FLEET_DRIVES for s in stores)
    assert digest == gen.digest(gen.fleet_recordings(2))


def test_entry_point_fails_without_the_library(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("data", "out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trip_single",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
