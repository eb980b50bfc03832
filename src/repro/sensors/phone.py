"""The smartphone: full sensor bundle producing one trip recording.

A :class:`Smartphone` owns one instance of every sensor the paper uses
(accelerometer, gyroscope, speedometer, barometer, GPS) plus the CAN-bus
link, applies the phone's mounting geometry, and emits a
:class:`PhoneRecording` — the only object estimators are allowed to see.

The recording also exposes the paper's **four velocity sources**
(Sec III-C3): GPS, speedometer, accelerometer integration, and CAN-bus.
The accelerometer-derived velocity integrates the raw longitudinal channel
and is re-anchored at every GPS fix, so it drifts exactly where GPS is out —
one more reason track fusion earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import SensorError
from ..vehicle.trip import TruthTrace
from .alignment import estimate_mounting_yaw
from .barometer import Barometer
from .base import SampledSignal
from .canbus import CanBusSpeed
from .gps import GPSFixes, GPSReceiver
from .imu import Accelerometer, Gyroscope
from .noise import NoiseModel
from .speedometer import Speedometer

__all__ = ["Smartphone", "PhoneRecording", "VELOCITY_SOURCES"]

#: Names of the four velocity sources, in the paper's order.
VELOCITY_SOURCES = ("gps", "speedometer", "accelerometer", "canbus")

_LAT_ACCEL_NOISE = NoiseModel(white_std=0.07, bias_std=0.05, drift_std=0.003)


@dataclass
class PhoneRecording:
    """Everything one trip's smartphone session captured."""

    t: np.ndarray
    dt: float
    accel_long: SampledSignal
    accel_lat: SampledSignal
    gyro: SampledSignal
    speedometer: SampledSignal
    barometer: SampledSignal
    canbus: SampledSignal
    gps: GPSFixes
    mounting_yaw_true: float = 0.0
    mounting_yaw_estimate: float = 0.0
    truth: TruthTrace | None = None  # evaluation only; estimators must not read it

    def __len__(self) -> int:
        return len(self.t)

    @property
    def duration(self) -> float:
        """Recording length [s]."""
        return float(self.t[-1] - self.t[0]) if len(self.t) > 1 else 0.0

    def velocity_source(self, name: str) -> SampledSignal:
        """One of the paper's four velocity sources by name."""
        if name == "gps":
            return self.gps.speed_signal()
        if name == "speedometer":
            return self.speedometer
        if name == "canbus":
            return self.canbus
        if name == "accelerometer":
            return self.accelerometer_velocity()
        raise SensorError(f"unknown velocity source {name!r}; choose from {VELOCITY_SOURCES}")

    def velocity_sources(self) -> dict[str, SampledSignal]:
        """All four velocity sources keyed by name."""
        return {name: self.velocity_source(name) for name in VELOCITY_SOURCES}

    def accelerometer_velocity(self) -> SampledSignal:
        """Velocity from integrating the longitudinal accelerometer.

        The integration is anchored at every valid GPS fix and drifts in
        between (and through outages) because the raw channel contains both
        the gravity component of the gradient and the sensor bias. An
        accelerometer that overflows the integral to ``inf`` yields NaN
        velocity samples (``inf - inf`` at the anchoring), which the EKF
        skips as missing measurements.
        """
        a = self.accel_long.values
        v_int = np.cumsum(a * self.dt)
        gps_ok = self.gps.available & np.isfinite(self.gps.speed)
        if np.any(gps_ok):
            t_fix = self.gps.t[gps_ok]
            v_fix = self.gps.speed[gps_ok]
            v_int_at_fix = np.interp(t_fix, self.t, v_int)
            offsets = v_fix - v_int_at_fix
            idx = np.clip(np.searchsorted(t_fix, self.t, side="right") - 1, 0, len(t_fix) - 1)
            with np.errstate(invalid="ignore"):  # inf + -inf -> NaN, see above
                values = v_int + offsets[idx]
        else:
            v0 = float(self.speedometer.values[0])
            values = v_int - v_int[0] + v0
        values = np.maximum(values, 0.0)
        return SampledSignal(t=self.t, values=values, name="accelerometer-velocity", unit="m/s")


@dataclass
class Smartphone:
    """A configured phone: sensors + mounting geometry.

    Attributes
    ----------
    mounting_yaw:
        Constant yaw offset [rad] of the phone in its mount (Sec III-A
        warns about imperfect alignment); 0 means perfectly aligned.
    correct_mounting:
        Whether to run the [14]-style yaw estimation and de-rotate the
        accelerometer channels before exposing them.
    """

    accelerometer: Accelerometer = field(default_factory=Accelerometer)
    gyroscope: Gyroscope = field(default_factory=Gyroscope)
    speedometer: Speedometer = field(default_factory=Speedometer)
    barometer: Barometer = field(default_factory=Barometer)
    gps: GPSReceiver = field(default_factory=GPSReceiver)
    canbus: CanBusSpeed = field(default_factory=CanBusSpeed)
    lateral_noise: NoiseModel = field(default_factory=lambda: _LAT_ACCEL_NOISE)
    mounting_yaw: float = 0.0
    correct_mounting: bool = True

    def record(
        self,
        trace: TruthTrace,
        rng: np.random.Generator | None = None,
        keep_truth: bool = True,
    ) -> PhoneRecording:
        """Run every sensor over the trace and assemble the recording."""
        rng = rng or np.random.default_rng(0)
        if len(trace) < 2:
            raise SensorError("cannot record a trace with fewer than two samples")

        long_signal = self.accelerometer.measure(trace, rng)
        lat_truth = trace.v * trace.yaw_rate  # centripetal acceleration
        lat_values = self.lateral_noise.apply(lat_truth, trace.dt, rng)

        phi = self.mounting_yaw
        # reprolint: disable=RL005 -- exact sentinel: phi is assigned, never computed; the
        # zero-yaw path must skip the rotation entirely to keep bit-identity pins.
        if phi != 0.0:
            ay = np.cos(phi) * long_signal.values + np.sin(phi) * lat_values
            ax = -np.sin(phi) * long_signal.values + np.cos(phi) * lat_values
        else:
            ay = long_signal.values
            ax = lat_values

        accel_lat = SampledSignal(t=trace.t, values=ax, name="accelerometer-lat", unit="m/s^2")
        accel_long = SampledSignal(
            t=trace.t, values=ay, name="accelerometer", unit="m/s^2", meta=dict(long_signal.meta)
        )

        speed = self.speedometer.measure(trace, rng)
        gyro = self.gyroscope.measure(trace, rng)
        yaw_est = 0.0
        # reprolint: disable=RL005 -- exact sentinel: same zero-yaw bit-identity skip as above
        if self.correct_mounting and phi != 0.0:
            yaw_est = estimate_mounting_yaw(accel_long, accel_lat, speed, gyro=gyro)
            recovered = np.cos(yaw_est) * accel_long.values - np.sin(yaw_est) * accel_lat.values
            accel_long = SampledSignal(
                t=trace.t,
                values=recovered,
                name="accelerometer",
                unit="m/s^2",
                meta=dict(long_signal.meta),
            )

        return PhoneRecording(
            t=trace.t,
            dt=trace.dt,
            accel_long=accel_long,
            accel_lat=accel_lat,
            gyro=gyro,
            speedometer=speed,
            barometer=self.barometer.measure(trace, rng),
            canbus=self.canbus.measure(trace, rng),
            gps=self.gps.measure_fixes(trace, rng),
            mounting_yaw_true=phi,
            mounting_yaw_estimate=yaw_est,
            truth=trace if keep_truth else None,
        )

    def with_noise_scale(self, factor: float) -> "Smartphone":
        """A phone whose stochastic sensor errors are scaled by ``factor``."""
        return Smartphone(
            accelerometer=Accelerometer(
                noise=self.accelerometer.noise.scaled(factor),
                include_gravity=self.accelerometer.include_gravity,
            ),
            gyroscope=Gyroscope(noise=self.gyroscope.noise.scaled(factor)),
            speedometer=Speedometer(noise=self.speedometer.noise.scaled(factor)),
            barometer=Barometer(noise=self.barometer.noise.scaled(factor)),
            gps=GPSReceiver(
                position_noise=self.gps.position_noise.scaled(factor),
                speed_noise=self.gps.speed_noise.scaled(factor),
                period=self.gps.period,
            ),
            canbus=CanBusSpeed(
                noise=self.canbus.noise.scaled(factor),
                rate=self.canbus.rate,
                latency=self.canbus.latency,
            ),
            lateral_noise=self.lateral_noise.scaled(factor),
            mounting_yaw=self.mounting_yaw,
            correct_mounting=self.correct_mounting,
        )
