"""Zero-copy TripStore tests: columnar fleet persistence.

The contract under test: ``TripStore.write`` → ``TripStore.open`` is a
bit-exact round trip for every channel (including the CAN bus's private
timebase), GPS and truth; the reopened recordings are *views* into the
memory-mapped files, never copies; and every way a store directory can rot
on disk surfaces as a :class:`~repro.errors.SensorError` naming the
problem, not a numpy traceback.
"""

import json

import numpy as np
import pytest

from repro.core.trip_batch import BATCH_CHANNELS, TripBatch
from repro.errors import SensorError
from repro.eval.runner import RunnerConfig, simulate_recordings
from repro.roads import SectionSpec, build_profile
from repro.sensors import Smartphone, TripStore
from repro.sensors.recording_io import _SIGNAL_CHANNELS
from repro.vehicle.trip import TruthTrace


@pytest.fixture(scope="module")
def profile():
    return build_profile(
        [
            SectionSpec.from_degrees(350.0, 2.0, 2, 5.0),
            SectionSpec.from_degrees(300.0, -1.0, 2, -4.0),
        ],
        name="store-route",
    )


@pytest.fixture(scope="module")
def fleet(profile):
    return simulate_recordings(profile, RunnerConfig(n_trips=3, seed=13))


@pytest.fixture(scope="module")
def store_root(fleet, tmp_path_factory):
    root = tmp_path_factory.mktemp("trip_store") / "fleet"
    TripStore.write(root, fleet)
    return root


def assert_recordings_equal(a, b):
    assert np.array_equal(a.t, b.t)
    assert a.dt == b.dt
    assert a.mounting_yaw_true == b.mounting_yaw_true
    assert a.mounting_yaw_estimate == b.mounting_yaw_estimate
    for name in _SIGNAL_CHANNELS:
        sa, sb = getattr(a, name), getattr(b, name)
        assert np.array_equal(sa.t, sb.t)
        assert np.array_equal(sa.values, sb.values, equal_nan=True)
        assert np.array_equal(sa.valid, sb.valid)
        assert (sa.name, sa.unit) == (sb.name, sb.unit)
        assert sa.meta == sb.meta
    for key in ("t", "x", "y", "speed", "available"):
        assert np.array_equal(getattr(a.gps, key), getattr(b.gps, key), equal_nan=True)
    if a.truth is None:
        assert b.truth is None
    else:
        for key in TruthTrace.__dataclass_fields__:
            if key in ("profile", "extras"):
                continue  # not persisted
            va, vb = getattr(a.truth, key), getattr(b.truth, key)
            if isinstance(va, np.ndarray):
                assert np.array_equal(va, vb, equal_nan=True), key
            else:
                assert va == vb, key


class TestRoundTrip:
    @pytest.mark.parametrize("mmap", [True, False], ids=["mmap", "in-memory"])
    def test_bit_exact(self, fleet, store_root, mmap):
        store = TripStore.open(store_root, mmap=mmap)
        assert len(store) == len(fleet)
        for orig, clone in zip(fleet, store.recordings()):
            assert_recordings_equal(orig, clone)

    def test_canbus_keeps_private_timebase(self, fleet, store_root):
        # The simulated CAN bus samples at ~1/5 the master rate: its stored
        # timebase must come back verbatim, not be replaced by the master t.
        store = TripStore.open(store_root)
        for orig, clone in zip(fleet, store.recordings()):
            assert len(clone.canbus.t) < len(clone.t)
            assert np.array_equal(clone.canbus.t, orig.canbus.t)

    def test_uniform_channels_share_master_timebase(self, store_root):
        # Zero-copy fast path: a uniform channel's t must alias the master
        # row's mapped pages, not be an equal copy. (SampledSignal rewraps
        # the memmap via asarray, so compare memory, not object identity.)
        store = TripStore.open(store_root)
        rec = store.recording(0)
        assert np.shares_memory(rec.gyro.t, rec.t)
        assert np.shares_memory(rec.accel_long.t, rec.t)

    def test_truthless_trips_round_trip(self, profile, tmp_path):
        from repro.vehicle import simulate_trip

        rng = np.random.default_rng(5)
        bare = Smartphone().record(simulate_trip(profile, seed=3), rng, keep_truth=False)
        full = Smartphone().record(simulate_trip(profile, seed=4), rng)
        store = TripStore.write(tmp_path / "mixed", [bare, full])
        assert store.recording(0).truth is None
        clone = store.recording(1)
        assert clone.truth is not None
        assert np.array_equal(clone.truth.grade, full.truth.grade)
        assert clone.truth.driver_name == full.truth.driver_name

    def test_empty_fleet_rejected(self, tmp_path):
        with pytest.raises(SensorError, match="at least one"):
            TripStore.write(tmp_path / "empty", [])

    def test_index_out_of_range(self, store_root):
        store = TripStore.open(store_root)
        with pytest.raises(SensorError, match="out of range"):
            store.recording(len(store))


class TestZeroCopy:
    def test_recordings_are_readonly_views(self, store_root):
        store = TripStore.open(store_root)
        rec = store.recording(0)
        assert not rec.t.flags.writeable
        assert not rec.accel_long.values.flags.writeable
        assert not rec.gps.x.flags.writeable

    def test_batch_wraps_mapped_matrices(self, fleet, store_root):
        store = TripStore.open(store_root)
        batch = store.batch()
        assert not batch.t2d.flags.writeable
        # Columns match a from-scratch TripBatch over the same fleet.
        reference = TripBatch(fleet)
        assert np.array_equal(batch.t2d, reference.t2d)
        for name in BATCH_CHANNELS:
            values, valid = batch.column(name)
            ref_values, ref_valid = reference.column(name)
            assert np.array_equal(values, ref_values, equal_nan=True)
            assert np.array_equal(valid, ref_valid)

    def test_batched_estimate_identical_to_serial(self, profile, fleet, store_root):
        from repro.eval.runner import make_system

        cfg = RunnerConfig(n_trips=3, seed=13)
        system = make_system(profile, cfg)
        serial = [system.estimate(r) for r in fleet]
        batched = system.estimate_batch(TripStore.open(store_root).batch())
        assert batched.errors == {}
        for s, b in zip(serial, batched.results):
            assert np.array_equal(s.fused.theta, b.fused.theta)
            assert np.array_equal(s.fused.variance, b.fused.variance)


class TestCorruption:
    def test_missing_manifest(self, tmp_path):
        (tmp_path / "not_a_store").mkdir()
        with pytest.raises(SensorError, match="not a trip store"):
            TripStore.open(tmp_path / "not_a_store")

    def test_invalid_json(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        (root / "manifest.json").write_text("{broken")
        with pytest.raises(SensorError, match="not valid JSON"):
            TripStore.open(root)

    def test_wrong_schema(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        manifest = json.loads((root / "manifest.json").read_text())
        manifest["schema"] = "repro.trip_store/v999"
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SensorError, match="schema"):
            TripStore.open(root)

    def test_missing_manifest_field(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        manifest = json.loads((root / "manifest.json").read_text())
        del manifest["channels"]
        (root / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(SensorError, match="missing field"):
            TripStore.open(root)

    def test_promised_array_missing(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        (root / "gyro.values.npy").unlink()
        with pytest.raises(SensorError, match="gyro.values.*missing"):
            TripStore.open(root)

    def test_truncated_array_file(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        path = root / "t2d.npy"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        with pytest.raises(SensorError, match="corrupt"):
            TripStore.open(root)

    def test_shape_mismatch(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        np.save(root / "lengths.npy", np.zeros((7,), dtype=np.int64))
        with pytest.raises(SensorError, match="shape"):
            TripStore.open(root)

    def test_nonfinite_recording_timebase_rejected(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        t2d = np.load(root / "t2d.npy")
        t2d[0, 100] = np.nan
        np.save(root / "t2d.npy", t2d)
        with pytest.raises(SensorError, match="'t2d'.*non-finite.*trip 0"):
            TripStore.open(root).batch()

    def test_nonfinite_channel_timebase_named(self, fleet, tmp_path):
        root = tmp_path / "s"
        TripStore.write(root, fleet[:1])
        t2d = np.load(root / "canbus.t2d.npy")
        t2d[0, 10] = np.inf
        np.save(root / "canbus.t2d.npy", t2d)
        with pytest.raises(SensorError, match="canbus.t2d"):
            TripStore.open(root).recording(0)
