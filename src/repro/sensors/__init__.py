"""Smartphone sensor substrate: noise models, sensors, alignment, recordings."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "AlignedSteering": ".alignment",
        "CoordinateAlignment": ".alignment",
        "estimate_mounting_yaw": ".alignment",
        "map_match": ".alignment",
        "Barometer": ".barometer",
        "SampledSignal": ".base",
        "Sensor": ".base",
        "CanBusSpeed": ".canbus",
        "GPSFixes": ".gps",
        "GPSReceiver": ".gps",
        "Accelerometer": ".imu",
        "Gyroscope": ".imu",
        "NoiseModel": ".noise",
        "VELOCITY_SOURCES": ".phone",
        "PhoneRecording": ".phone",
        "Smartphone": ".phone",
        "TripStore": ".recording_io",
        "Speedometer": ".speedometer",
    },
)
