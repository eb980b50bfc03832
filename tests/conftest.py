"""Shared fixtures: small deterministic roads, trips and recordings.

Session-scoped where construction is expensive; tests must not mutate the
shared objects (copy first when needed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.roads import SectionSpec, build_profile
from repro.sensors import Smartphone
from repro.vehicle import DriverProfile, SimulationConfig, simulate_trip


@pytest.fixture(scope="session")
def hill_profile():
    """A 1.2 km three-section route: up, down, steeper up; 2 lanes middle."""
    specs = [
        SectionSpec.from_degrees(400.0, 2.0, 1, 5.0, name="up"),
        SectionSpec.from_degrees(400.0, -1.5, 2, -8.0, name="down"),
        SectionSpec.from_degrees(400.0, 3.0, 2, 4.0, name="steep"),
    ]
    return build_profile(specs, name="hill")


@pytest.fixture(scope="session")
def flat_profile():
    """A dead-flat, dead-straight 800 m single-lane road."""
    return build_profile([SectionSpec(800.0, 0.0, 1, 0.0, name="flat")], name="flat")


@pytest.fixture(scope="session")
def hill_trace(hill_profile):
    """One deterministic trip over the hill profile (lane changes enabled)."""
    return simulate_trip(
        hill_profile,
        driver=DriverProfile(lane_changes_per_km=2.5),
        config=SimulationConfig(sample_rate=50.0),
        seed=7,
    )


@pytest.fixture(scope="session")
def hill_recording(hill_trace):
    """The hill trip recorded by a default phone."""
    return Smartphone().record(hill_trace, np.random.default_rng(17))


#: ``BATCH_MIN_TRACKS`` values that pin every ``estimate_tracks_batch`` call
#: to one EKF kernel, whatever its track count.
KERNEL_MIN_TRACKS = {"batch": 1, "scalar": 10**9}


@pytest.fixture()
def force_kernel(monkeypatch):
    """Route every EKF call to one kernel: ``force_kernel("batch")`` for the
    vectorized tick loop, ``force_kernel("scalar")`` for the scalar core."""
    import repro.core.batch as batch_mod

    def force(kernel: str) -> None:
        monkeypatch.setattr(batch_mod, "BATCH_MIN_TRACKS", KERNEL_MIN_TRACKS[kernel])

    return force


@pytest.fixture()
def small_blocks(monkeypatch):
    """Run the vectorized tick loop over 7-tick blocks, so tracks of a few
    dozen ticks cross many block boundaries; returns the block size."""
    import repro.core.batch as batch_mod

    monkeypatch.setattr(batch_mod, "BLOCK_TICKS", 7)
    return batch_mod.BLOCK_TICKS


@pytest.fixture(autouse=True)
def _no_leaked_process_state():
    """Fail a test that leaves ``tracemalloc`` tracing or changes
    ``STAGE_REGISTRY``; both are process-wide, so a leak slows down or
    reroutes every later test. The state is restored before failing."""
    import tracemalloc

    from repro.core.stages import STAGE_REGISTRY

    tracing = tracemalloc.is_tracing()
    registry = dict(STAGE_REGISTRY)
    yield
    leaks = []
    if tracemalloc.is_tracing() and not tracing:
        tracemalloc.stop()
        leaks.append("left tracemalloc tracing")
    if STAGE_REGISTRY != registry:
        STAGE_REGISTRY.clear()
        STAGE_REGISTRY.update(registry)
        leaks.append("changed STAGE_REGISTRY")
    if leaks:
        pytest.fail("test " + " and ".join(leaks), pytrace=False)


@pytest.fixture()
def rng():
    """A fresh seeded generator per test."""
    return np.random.default_rng(1234)
