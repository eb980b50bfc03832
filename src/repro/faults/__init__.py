"""Fault injection: seeded, composable sensor-failure models.

The estimation pipeline is evaluated on clean simulated drives; this
package supplies the *dirty* ones — GPS dropouts, multipath speed bias,
NaN/Inf bursts, stuck sensors, saturation clipping, timestamp jitter,
barometer drift — as
config-as-data scenarios applied to :class:`~repro.sensors.phone.PhoneRecording`
objects. The resilience matrix (:mod:`repro.eval.resilience`) sweeps these
scenarios against the degradation machinery in the core pipeline.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "SIGNAL_CHANNELS": ".models",
        "BarometerDriftStep": ".models",
        "FaultModel": ".models",
        "GPSDropout": ".models",
        "GPSMultipathBias": ".models",
        "NonFiniteBurst": ".models",
        "SaturationClip": ".models",
        "StuckSensor": ".models",
        "TimestampJitter": ".models",
        "FAULT_KINDS": ".suite",
        "FaultSpec": ".suite",
        "FaultSuiteConfig": ".suite",
        "apply_fault_suite": ".suite",
    },
)
