"""Config serialization round-trip contract.

Every tuning dataclass in the library must travel as plain data:
``from_dict(to_dict(cfg)) == cfg``, unknown keys fail loudly naming the
valid ones, and nested configs round-trip as one JSON document. This is
the contract the parallel runner's worker processes (and any file-driven
sweep) rely on.
"""

import json
import math

import pytest
from hypothesis import given, strategies as st

from repro.baselines.ann import ANNBaselineConfig
from repro.baselines.ekf_altitude import AltitudeEKFConfig
from repro.config import config_from_dict, config_to_dict
from repro.core.bias_ekf import BiasEKFConfig
from repro.core.gradient_ekf import GradientEKFConfig
from repro.core.lane_change.detector import LaneChangeDetectorConfig
from repro.core.lane_change.features import LaneChangeThresholds
from repro.core.pipeline import GradientSystemConfig
from repro.errors import ConfigurationError, EstimationError
from repro.eval.parallel import ParallelConfig
from repro.eval.runner import RunnerConfig

TH = LaneChangeThresholds(delta=0.05, duration=0.5)

# One instance per config class with deliberately non-default values so a
# field that silently fails to round-trip breaks the equality check.
CASES = [
    GradientEKFConfig(smooth=True, accel_noise_std=0.3, measurement_std={"gps": 0.4}),
    LaneChangeThresholds(delta=0.07, duration=0.6, table={"delta_L+": 0.1}),
    LaneChangeDetectorConfig(thresholds=TH, smoothing_half_window=20, max_pair_gap_s=2.0),
    GradientSystemConfig(
        ekf=GradientEKFConfig(smooth=True),
        detector=LaneChangeDetectorConfig(thresholds=TH),
        velocity_sources=("gps", "speedometer"),
        apply_lane_change_correction=False,
        fusion_grid_spacing=2.5,
        cache_geometry=False,
        stages=("alignment", "ekf_tracks", "fusion"),
    ),
    RunnerConfig(
        n_trips=3,
        seed=4,
        thresholds=TH,
        velocity_sources=("gps", "canbus"),
        ann=ANNBaselineConfig(hidden=(8,), epochs=10),
    ),
    ParallelConfig(max_workers=2, backend="process"),
    ANNBaselineConfig(hidden=(4, 4), features=("v", "a")),
    AltitudeEKFConfig(stride=2, smooth=False),
    BiasEKFConfig(bias_rate_std=1e-4, initial_altitude_std=2.0),
]
IDS = [type(c).__name__ for c in CASES]


class TestRoundTrip:
    @pytest.mark.parametrize("cfg", CASES, ids=IDS)
    def test_dict_round_trip_is_identity(self, cfg):
        assert type(cfg).from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("cfg", CASES, ids=IDS)
    def test_json_round_trip_is_identity(self, cfg):
        assert type(cfg).from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("cfg", CASES, ids=IDS)
    def test_to_dict_is_json_serializable(self, cfg):
        json.dumps(cfg.to_dict())  # must not raise

    @pytest.mark.parametrize("cfg", CASES, ids=IDS)
    def test_unknown_key_rejected_naming_valid_keys(self, cfg):
        data = cfg.to_dict()
        data["bogus_knob"] = 1
        with pytest.raises(ConfigurationError, match="bogus_knob") as excinfo:
            type(cfg).from_dict(data)
        message = str(excinfo.value)
        assert type(cfg).__name__ in message
        # Message lists the real keys so a spec typo is fixable in place.
        for name in cfg.to_dict():
            assert name in message

    def test_missing_keys_take_defaults(self):
        assert GradientSystemConfig.from_dict({}) == GradientSystemConfig()
        cfg = RunnerConfig.from_dict({"n_trips": 5})
        assert cfg.n_trips == 5
        assert cfg.seed == RunnerConfig().seed


class TestNestedDocument:
    def test_runner_config_nests_as_one_document(self):
        cfg = RunnerConfig(thresholds=TH, ann=ANNBaselineConfig(hidden=(8,)))
        data = json.loads(cfg.to_json())
        # Nested configs appear as plain nested objects, tuples as lists.
        assert data["thresholds"]["delta"] == TH.delta
        assert data["ann"]["hidden"] == [8]
        assert RunnerConfig.from_json(json.dumps(data)) == cfg

    def test_system_config_nests_ekf_detector_and_thresholds(self):
        cfg = GradientSystemConfig(detector=LaneChangeDetectorConfig(thresholds=TH))
        data = cfg.to_dict()
        assert data["detector"]["thresholds"]["duration"] == TH.duration
        assert data["ekf"]["process"] == "specific_force"
        assert data["stages"] == list(cfg.stages)
        rebuilt = GradientSystemConfig.from_dict(data)
        assert rebuilt == cfg
        assert isinstance(rebuilt.stages, tuple)
        assert isinstance(rebuilt.velocity_sources, tuple)

    def test_optional_nested_config_round_trips_none(self):
        cfg = RunnerConfig(thresholds=None)
        data = cfg.to_dict()
        assert data["thresholds"] is None
        assert RunnerConfig.from_dict(data).thresholds is None


class TestDecodeErrors:
    def test_wrong_scalar_type_rejected(self):
        with pytest.raises(ConfigurationError, match="RunnerConfig.n_trips"):
            RunnerConfig.from_dict({"n_trips": "3"})

    def test_float_field_accepts_int_but_not_bool(self):
        assert GradientSystemConfig.from_dict({"fusion_grid_spacing": 5}).fusion_grid_spacing == 5.0
        with pytest.raises(ConfigurationError, match="fusion_grid_spacing"):
            GradientSystemConfig.from_dict({"fusion_grid_spacing": True})

    def test_tuple_field_rejects_scalar(self):
        with pytest.raises(ConfigurationError, match="velocity_sources"):
            GradientSystemConfig.from_dict({"velocity_sources": "gps"})

    def test_non_mapping_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="must be a mapping"):
            GradientSystemConfig.from_dict([1, 2, 3])

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            GradientSystemConfig.from_json("{not json")

    def test_semantic_validation_still_runs(self):
        # __post_init__ runs on reconstruction, so a decodable-but-invalid
        # spec still fails with the domain error.
        with pytest.raises(EstimationError, match="grid spacing"):
            GradientSystemConfig.from_dict({"fusion_grid_spacing": -1.0})
        with pytest.raises(EstimationError, match="stage"):
            GradientSystemConfig.from_dict({"stages": ["warp_drive"]})

    def test_helpers_reject_non_dataclass(self):
        with pytest.raises(ConfigurationError, match="dataclass instance"):
            config_to_dict({"not": "a dataclass"})
        with pytest.raises(ConfigurationError, match="dataclass type"):
            config_from_dict(dict, {})


class TestPropertyRoundTrip:
    @given(
        accel=st.floats(min_value=1e-4, max_value=5.0, allow_nan=False),
        grade=st.floats(min_value=1e-5, max_value=0.5, allow_nan=False),
        smooth=st.booleans(),
        std=st.dictionaries(
            st.sampled_from(["gps", "speedometer", "accelerometer", "canbus"]),
            st.floats(min_value=1e-3, max_value=3.0, allow_nan=False),
            max_size=4,
        ),
    )
    def test_gradient_ekf_config_round_trips(self, accel, grade, smooth, std):
        cfg = GradientEKFConfig(
            accel_noise_std=accel,
            grade_rate_std=grade,
            smooth=smooth,
            measurement_std=std,
        )
        via_dict = GradientEKFConfig.from_dict(cfg.to_dict())
        via_json = GradientEKFConfig.from_json(cfg.to_json())
        assert via_dict == cfg
        assert via_json == cfg
        assert math.isclose(via_json.accel_noise_std, accel, rel_tol=0, abs_tol=0)
