"""Compared road-gradient estimation methods (paper Sec IV)."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "ANNBaselineConfig": ".ann",
        "ANNGradientEstimator": ".ann",
        "MLP": ".ann",
        "training_samples_from_recording": ".ann",
        "AltitudeEKFConfig": ".ekf_altitude",
        "estimate_gradient_ekf_baseline": ".ekf_altitude",
    },
)
