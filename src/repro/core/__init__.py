"""Core contribution: EKF gradient estimation, lane-change handling, fusion."""

from .batch import estimate_tracks_batch
from .trip_batch import BATCH_CHANNELS, BatchPipelineContext, TripBatch
from .bias_ekf import BiasEKFConfig, estimate_track_bias_augmented
from .dead_reckoning import DeadReckoner, DeadReckoningConfig, GPSDeniedConfig
from .ekf import EKFModel, ExtendedKalmanFilter
from .online import MODE_NAMES, StreamingGradientEstimator, StreamState
from .gradient_ekf import (
    GradientEKFConfig,
    GradientFilterCore,
    estimate_track,
    measurements_on_timebase,
)
from .sanitize import SanitizeConfig, SanitizeStage, sanitize_recording, sanitize_signal
from .stages import (
    DEFAULT_STAGES,
    ROBUST_STAGES,
    STAGE_REGISTRY,
    AlignmentStage,
    FusionStage,
    LaneChangeStage,
    PipelineContext,
    Stage,
    TrackEstimationStage,
    build_stages,
    register_stage,
)
from .lane_change import (
    PAPER_THRESHOLDS,
    LaneChangeDetector,
    LaneChangeDetectorConfig,
    LaneChangeEvent,
    LaneChangeThresholds,
    calibrate_thresholds,
    loess_smooth,
    loess_smooth_batch,
)
from .pipeline import (
    BatchEstimate,
    EstimationResult,
    GradientEstimationSystem,
    GradientSystemConfig,
    fuse_estimates,
)
from .state_space import PROCESS_MODELS, GradientStateSpace
from .track import GradientTrack
from .track_fusion import convex_combination, fuse_tracks

__all__ = [
    "BiasEKFConfig",
    "estimate_track_bias_augmented",
    "DeadReckoner",
    "DeadReckoningConfig",
    "GPSDeniedConfig",
    "EKFModel",
    "ExtendedKalmanFilter",
    "MODE_NAMES",
    "StreamingGradientEstimator",
    "StreamState",
    "GradientEKFConfig",
    "GradientFilterCore",
    "estimate_track",
    "estimate_tracks_batch",
    "BATCH_CHANNELS",
    "BatchPipelineContext",
    "TripBatch",
    "measurements_on_timebase",
    "DEFAULT_STAGES",
    "ROBUST_STAGES",
    "STAGE_REGISTRY",
    "SanitizeConfig",
    "SanitizeStage",
    "sanitize_recording",
    "sanitize_signal",
    "AlignmentStage",
    "FusionStage",
    "LaneChangeStage",
    "PipelineContext",
    "Stage",
    "TrackEstimationStage",
    "build_stages",
    "register_stage",
    "PAPER_THRESHOLDS",
    "LaneChangeDetector",
    "LaneChangeDetectorConfig",
    "LaneChangeEvent",
    "LaneChangeThresholds",
    "calibrate_thresholds",
    "loess_smooth",
    "loess_smooth_batch",
    "BatchEstimate",
    "EstimationResult",
    "GradientEstimationSystem",
    "GradientSystemConfig",
    "fuse_estimates",
    "PROCESS_MODELS",
    "GradientStateSpace",
    "GradientTrack",
    "convex_combination",
    "fuse_tracks",
]
