"""Fault scenarios as data: specs, suites, and seeded application.

A fault *scenario* is plain data — a :class:`FaultSuiteConfig` holding an
ordered tuple of :class:`FaultSpec` entries — built on the same
:class:`~repro.config.SerializableConfig` mixin as every other config in
the library. Scenarios therefore travel through JSON, ship to evaluation
workers inside a :class:`~repro.eval.runner.RunnerConfig`, and round-trip
exactly, which is what lets the accuracy grid
(:mod:`repro.eval.grid`) define its whole sweep as configuration.

``kind`` selects the injector; the remaining spec fields are interpreted
per kind:

================  ==========================================================
``gps_dropout``   total GPS outage for ``[start_s, start_s + duration_s)``
``gps_multipath``  AR(1) GPS speed bias of std ``severity`` [m/s] over the window
``nan_burst``     NaN burst on ``channel`` over the window
``inf_burst``     +Inf burst on ``channel`` over the window
``stuck``         ``channel`` frozen at its last pre-window sample
``clip``          ``channel`` clipped to ``±severity`` (full-scale range)
``jitter``        every timebase jittered by ``±severity·dt/2`` (0 < s < 1)
``baro_drift``    barometer steps by ``severity`` [m] from ``start_s`` on
================  ==========================================================

Application is deterministic: :func:`apply_fault_suite` derives one
generator from ``(suite.seed, trip_index)``, so the same scenario applied
to the same trip always corrupts the same samples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import SerializableConfig
from ..errors import FaultInjectionError
from ..sensors.phone import PhoneRecording
from .models import (
    BarometerDriftStep,
    FaultModel,
    GPSDropout,
    GPSMultipathBias,
    NonFiniteBurst,
    SaturationClip,
    StuckSensor,
    TimestampJitter,
)

__all__ = ["FAULT_KINDS", "FaultSpec", "FaultSuiteConfig", "apply_fault_suite"]


@dataclass(frozen=True)
class FaultSpec(SerializableConfig):
    """One fault in a scenario, as pure data.

    ``severity`` carries the kind-specific magnitude (clip limit, jitter
    fraction, drift step); window faults use ``start_s``/``duration_s``.
    Validation happens both here (shared window/severity sanity) and in the
    injector constructors (kind-specific ranges), so a bad spec fails at
    build time with the offending field named.
    """

    kind: str
    channel: str = "accel_long"
    start_s: float = 0.0
    duration_s: float = 1.0
    severity: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultInjectionError(
                f"unknown fault kind {self.kind!r}; valid kinds are "
                f"{sorted(FAULT_KINDS)}"
            )

    def build(self) -> FaultModel:
        """The injector this spec describes."""
        return FAULT_KINDS[self.kind](self)


#: kind -> injector factory over the spec.
FAULT_KINDS: dict[str, Callable[[FaultSpec], FaultModel]] = {
    "gps_dropout": lambda sp: GPSDropout(start_s=sp.start_s, duration_s=sp.duration_s),
    "gps_multipath": lambda sp: GPSMultipathBias(
        start_s=sp.start_s, duration_s=sp.duration_s, bias_std=sp.severity
    ),
    "nan_burst": lambda sp: NonFiniteBurst(
        channel=sp.channel, start_s=sp.start_s, duration_s=sp.duration_s
    ),
    "inf_burst": lambda sp: NonFiniteBurst(
        channel=sp.channel,
        start_s=sp.start_s,
        duration_s=sp.duration_s,
        fill=float("inf"),
    ),
    "stuck": lambda sp: StuckSensor(
        channel=sp.channel, start_s=sp.start_s, duration_s=sp.duration_s
    ),
    "clip": lambda sp: SaturationClip(channel=sp.channel, limit=sp.severity),
    "jitter": lambda sp: TimestampJitter(severity=sp.severity),
    "baro_drift": lambda sp: BarometerDriftStep(start_s=sp.start_s, step=sp.severity),
}


@dataclass(frozen=True)
class FaultSuiteConfig(SerializableConfig):
    """An ordered, seeded set of faults — one degraded-sensor scenario."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def build(self) -> list[FaultModel]:
        """Instantiate every injector (validating the whole suite)."""
        return [spec.build() for spec in self.faults]


def apply_fault_suite(
    recording: PhoneRecording,
    suite: FaultSuiteConfig,
    trip_index: int = 0,
) -> PhoneRecording:
    """Apply a scenario's faults to one recording, in spec order.

    The input recording is never mutated. Randomness (only the jitter
    injector uses any) is seeded by ``(suite.seed, trip_index)``, matching
    the per-trip determinism contract of the evaluation runners.
    """
    rng = np.random.default_rng([abs(int(suite.seed)), abs(int(trip_index))])
    for fault in suite.build():
        recording = fault.apply(recording, rng)
    return recording
