"""Compared road-gradient estimation methods (paper Sec IV)."""

from .ann import ANNBaselineConfig, ANNGradientEstimator, MLP, training_samples_from_recording
from .ekf_altitude import AltitudeEKFConfig, estimate_gradient_ekf_baseline

__all__ = [
    "ANNBaselineConfig",
    "ANNGradientEstimator",
    "MLP",
    "training_samples_from_recording",
    "AltitudeEKFConfig",
    "estimate_gradient_ekf_baseline",
]
