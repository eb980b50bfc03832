"""Profiler tests: sections, stage wrapping, throughput, eval integration."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.core import stages as stages_mod
from repro.errors import ConfigurationError
from repro.eval.parallel import ParallelConfig, evaluate_trips
from repro.eval.runner import RunnerConfig
from repro.obs.profile import SCHEMA, Profiler


class TestSections:
    def test_section_accumulates_calls_and_wall_time(self):
        prof = Profiler()
        for _ in range(3):
            with prof.section("work"):
                time.sleep(0.001)
        stats = prof.sections["work"]
        assert stats.calls == 3
        assert stats.wall_s > 0.0
        assert stats.max_wall_s <= stats.wall_s
        assert prof.wall("work") == stats.wall_s
        assert prof.wall("never-entered") == 0.0

    def test_section_records_time_on_exception(self):
        prof = Profiler()
        with pytest.raises(ValueError):
            with prof.section("boom"):
                raise ValueError("x")
        assert prof.sections["boom"].calls == 1

    def test_trace_malloc_records_allocations(self):
        prof = Profiler(trace_malloc=True)
        with prof.section("alloc"):
            _ = [bytearray(1024) for _ in range(64)]
        assert prof.sections["alloc"].alloc_kb > 0.0

    def test_trace_malloc_stops_when_the_outermost_section_ends(self):
        prof = Profiler(trace_malloc=True)
        with prof.section("outer"):
            with prof.section("inner"):
                assert tracemalloc.is_tracing()
            assert tracemalloc.is_tracing()
        assert not tracemalloc.is_tracing()

    def test_trace_malloc_leaves_tracing_it_did_not_start(self):
        tracemalloc.start()
        try:
            prof = Profiler(trace_malloc=True)
            with prof.section("alloc"):
                _ = [bytearray(1024) for _ in range(64)]
            assert tracemalloc.is_tracing()
            assert prof.sections["alloc"].alloc_kb > 0.0
        finally:
            tracemalloc.stop()

    def test_to_dict_schema_and_table(self):
        prof = Profiler()
        with prof.section("a"):
            pass
        prof.set_throughput(n_trips=2, ticks=1000, wall_s=0.5)
        d = json.loads(json.dumps(prof.to_dict()))
        assert d["schema"] == SCHEMA
        assert d["sections"]["a"]["calls"] == 1
        assert d["throughput"]["ticks_per_s"] == 2000.0
        table = prof.table()
        assert "a" in table
        assert "2,000 ticks/s" in table


class TestInstall:
    def test_registry_swapped_and_restored(self):
        before = dict(stages_mod.STAGE_REGISTRY)
        prof = Profiler()
        with prof.install():
            assert set(stages_mod.STAGE_REGISTRY) == set(before)
            assert all(
                stages_mod.STAGE_REGISTRY[k] is not before[k] for k in before
            )
        assert stages_mod.STAGE_REGISTRY == before

    def test_registry_restored_on_error(self):
        before = dict(stages_mod.STAGE_REGISTRY)
        with pytest.raises(RuntimeError):
            with Profiler().install():
                raise RuntimeError("x")
        assert stages_mod.STAGE_REGISTRY == before

    def test_pipeline_built_inside_install_is_profiled(
        self, hill_profile, hill_recording
    ):
        from repro.core.lane_change.detector import LaneChangeDetectorConfig
        from repro.core.lane_change.features import LaneChangeThresholds
        from repro.core.pipeline import (
            GradientEstimationSystem,
            GradientSystemConfig,
        )

        prof = Profiler()
        cfg = GradientSystemConfig(
            detector=LaneChangeDetectorConfig(
                thresholds=LaneChangeThresholds(delta=0.05, duration=0.5)
            )
        )
        with prof.install():
            system = GradientEstimationSystem(hill_profile, config=cfg)
            system.estimate(hill_recording)
        assert {
            "stage.alignment",
            "stage.lane_change",
            "stage.ekf_tracks",
            "stage.fusion",
        } <= set(prof.sections)
        assert all(s.calls == 1 for s in prof.sections.values())

    def test_batched_stages_are_profiled(self, hill_profile, hill_recording):
        from repro.core.pipeline import GradientEstimationSystem

        prof = Profiler()
        with prof.install():
            system = GradientEstimationSystem(hill_profile)
            batched = system.estimate_batch([hill_recording, hill_recording])
        assert batched.errors == {}
        # One section per stage and batch, however many trips it holds.
        assert sorted(prof.sections) == [
            "stage.alignment",
            "stage.ekf_tracks",
            "stage.fusion",
            "stage.lane_change",
        ]
        assert all(s.calls == 1 for s in prof.sections.values())


class TestEvalIntegration:
    def test_evaluate_trips_profiles_stages_and_throughput(self, hill_profile):
        prof = Profiler()
        report = evaluate_trips(
            hill_profile,
            RunnerConfig(n_trips=1, seed=3),
            parallel=ParallelConfig(backend="serial"),
            profiler=prof,
        )
        assert report.n_failed == 0
        # All phases plus every pipeline stage must appear.
        assert {"reference", "trips", "fusion"} <= set(prof.sections)
        assert {
            "stage.alignment",
            "stage.lane_change",
            "stage.ekf_tracks",
            "stage.fusion",
        } <= set(prof.sections)
        assert prof.throughput.ticks > 0
        assert prof.throughput.ticks_per_s > 0.0

    def test_chunked_run_profiles_one_call_per_chunk(self, hill_profile, tmp_path):
        prof = Profiler()
        path = tmp_path / "manifest.json"
        report = evaluate_trips(
            hill_profile,
            RunnerConfig(n_trips=2, seed=3),
            parallel=ParallelConfig(backend="serial", chunk_size=2),
            profiler=prof,
            manifest_path=path,
        )
        assert report.n_failed == 0
        stages = {n: s for n, s in prof.sections.items() if n.startswith("stage.")}
        assert set(stages) == {
            "stage.alignment",
            "stage.lane_change",
            "stage.ekf_tracks",
            "stage.fusion",
        }
        assert all(s.calls == 1 for s in stages.values())
        assert prof.throughput.n_trips == 2
        assert prof.throughput.ticks > 0
        manifest = json.loads(path.read_text())
        assert manifest["chunk_size"] == 2
        assert set(manifest["profile"]["sections"]) >= set(stages)

    def test_profiler_output_bit_identical(self, hill_profile):
        cfg = RunnerConfig(n_trips=1, seed=3)
        par = ParallelConfig(backend="serial")
        plain = evaluate_trips(hill_profile, cfg, parallel=par)
        profiled = evaluate_trips(
            hill_profile, cfg, parallel=par, profiler=Profiler()
        )
        assert np.array_equal(plain.fused_theta, profiled.fused_theta)
        assert np.array_equal(plain.truth, profiled.truth)

    def test_process_backend_rejected(self, hill_profile):
        with pytest.raises(ConfigurationError, match="process"):
            evaluate_trips(
                hill_profile,
                RunnerConfig(n_trips=1),
                parallel=ParallelConfig(backend="process"),
                profiler=Profiler(),
            )

    def test_manifest_written_with_profile(self, hill_profile, tmp_path):
        path = tmp_path / "manifest.json"
        evaluate_trips(
            hill_profile,
            RunnerConfig(n_trips=1, seed=3),
            parallel=ParallelConfig(backend="serial"),
            profiler=Profiler(),
            manifest_path=path,
        )
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == "repro.run_manifest/v1"
        assert manifest["seed"] == 3
        assert manifest["profile"]["schema"] == SCHEMA
        assert manifest["health"]["worst_verdict"] == "ok"
        assert manifest["kind"] == "evaluate_trips"
        assert manifest["config"]["n_trips"] == 1


class TestModuleEntryPoint:
    def test_runs_without_runtime_warning(self):
        # A package ``__init__`` must not import a module that ``python -m``
        # runs, or runpy's RuntimeWarning trips: check each entry point that
        # parses its arguments.
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        for module in ("repro.obs.profile", "repro.lint", "repro.eval.report"):
            proc = subprocess.run(
                [sys.executable, "-W", "error::RuntimeWarning", "-m", module, "--help"],
                capture_output=True,
                text=True,
                env=env,
                timeout=120,
            )
            assert proc.returncode == 0, (module, proc.stderr)
            assert "RuntimeWarning" not in proc.stderr, module
            assert "usage:" in proc.stdout, module

    def test_profiler_still_exported_lazily(self):
        import repro.obs

        assert repro.obs.Profiler is Profiler
        assert "Profiler" in repro.obs.__all__
        with pytest.raises(AttributeError):
            repro.obs.NoSuchThing  # noqa: B018
