"""Smartphone sensor substrate: noise models, sensors, alignment, recordings."""

from .alignment import AlignedSteering, CoordinateAlignment, estimate_mounting_yaw, map_match
from .barometer import Barometer
from .base import SampledSignal, Sensor
from .canbus import CanBusSpeed
from .gps import GPSFixes, GPSReceiver
from .imu import Accelerometer, Gyroscope
from .noise import NoiseModel
from .phone import VELOCITY_SOURCES, PhoneRecording, Smartphone
from .recording_io import TripStore
from .speedometer import Speedometer

__all__ = [
    "AlignedSteering",
    "CoordinateAlignment",
    "estimate_mounting_yaw",
    "map_match",
    "Barometer",
    "SampledSignal",
    "Sensor",
    "CanBusSpeed",
    "GPSFixes",
    "GPSReceiver",
    "Accelerometer",
    "Gyroscope",
    "NoiseModel",
    "VELOCITY_SOURCES",
    "PhoneRecording",
    "Smartphone",
    "Speedometer",
    "TripStore",
]
