"""Profiler tests: sections read off span trees, throughput, eval integration."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.eval.parallel import ParallelConfig, evaluate_trips
from repro.eval.runner import RunnerConfig
from repro.obs import Telemetry
from repro.obs.profile import SCHEMA, Profiler
from repro.obs.trace import Span

STAGE_SECTIONS = {
    "stage.alignment",
    "stage.lane_change",
    "stage.ekf_tracks",
    "stage.fusion",
}


class TestSections:
    def test_section_accumulates_calls_and_wall_time(self):
        tel = Telemetry("sections")
        for _ in range(3):
            with tel.span("estimate"):
                with tel.span("work"):
                    time.sleep(0.001)
        with tel.span("work"):  # outside an estimate span: not a stage
            pass
        prof = Profiler.from_telemetry(tel)
        assert list(prof.sections) == ["stage.work"]
        stats = prof.sections["stage.work"]
        works = [root.children[0] for root in tel.tracer.roots[:3]]
        assert stats.calls == 3
        assert stats.wall_s == sum(span.duration for span in works)
        assert stats.cpu_s == sum(span.cpu_s for span in works)
        assert 0.0 < stats.max_wall_s <= stats.wall_s
        assert 0.0 <= stats.cpu_s

    def test_section_records_time_on_exception(self):
        tel = Telemetry("boom")
        with pytest.raises(ValueError):
            with tel.span("estimate"):
                with tel.span("boom"):
                    raise ValueError("x")
        prof = Profiler.from_telemetry(tel)
        assert prof.sections["stage.boom"].calls == 1
        assert tel.tracer.find("boom").attributes["error"] == "ValueError"

    def test_to_dict_schema_and_table(self):
        run = Span.from_dict(
            {
                "name": "evaluate_trips",
                "duration_s": 1.0,
                "children": [
                    {"name": "reference", "duration_s": 0.25, "cpu_s": 0.25},
                    {
                        "name": "trips",
                        "duration_s": 0.5,
                        "cpu_s": 0.4,
                        "attributes": {"n_ok": 2},
                        "children": [
                            {
                                "name": "estimate",
                                "duration_s": 0.5,
                                "children": [{"name": "fusion", "duration_s": 0.1}],
                            }
                        ],
                    },
                    {"name": "fusion", "duration_s": 0.125},
                ],
            }
        )
        prof = Profiler.from_spans([run], ekf_ticks=1000)
        d = json.loads(json.dumps(prof.to_dict()))
        assert d["schema"] == SCHEMA == "repro.profile/v2"
        assert sorted(d["sections"]) == ["fusion", "reference", "stage.fusion", "trips"]
        assert d["sections"]["trips"] == {
            "calls": 1, "wall_s": 0.5, "cpu_s": 0.4, "max_wall_s": 0.5
        }
        assert d["sections"]["fusion"]["wall_s"] == 0.125
        assert d["sections"]["stage.fusion"]["wall_s"] == 0.1
        assert d["throughput"]["n_trips"] == 2
        assert d["throughput"]["ticks_per_s"] == 2000.0
        assert "trace_malloc" not in d
        table = prof.table()
        assert "stage.fusion" in table
        assert "2,000 ticks/s" in table


class TestInstall:
    """A system built with live telemetry is profiled from its spans alone
    (the stage registry is never touched)."""

    def test_pipeline_built_inside_install_is_profiled(
        self, hill_profile, hill_recording
    ):
        from repro.core.lane_change.detector import LaneChangeDetectorConfig
        from repro.core.lane_change.features import LaneChangeThresholds
        from repro.core.pipeline import (
            GradientEstimationSystem,
            GradientSystemConfig,
        )

        cfg = GradientSystemConfig(
            detector=LaneChangeDetectorConfig(
                thresholds=LaneChangeThresholds(delta=0.05, duration=0.5)
            )
        )
        tel = Telemetry("profiled")
        system = GradientEstimationSystem(hill_profile, config=cfg, telemetry=tel)
        system.estimate(hill_recording)
        prof = Profiler.from_telemetry(tel)
        assert set(prof.sections) == STAGE_SECTIONS
        assert all(s.calls == 1 for s in prof.sections.values())
        assert all(s.cpu_s > 0.0 for s in prof.sections.values())

    def test_batched_stages_are_profiled(self, hill_profile, hill_recording):
        from repro.core.pipeline import GradientEstimationSystem

        tel = Telemetry("batched")
        system = GradientEstimationSystem(hill_profile, telemetry=tel)
        batched = system.estimate_batch([hill_recording, hill_recording])
        assert batched.errors == {}
        # One section per stage and batch, however many trips it holds.
        prof = Profiler.from_telemetry(tel)
        assert set(prof.sections) == STAGE_SECTIONS
        assert all(s.calls == 1 for s in prof.sections.values())


def _profile_run(hill_profile, parallel, n_trips=1, manifest_path=None):
    tel = Telemetry("eval")
    report = evaluate_trips(
        hill_profile,
        RunnerConfig(n_trips=n_trips, seed=3),
        parallel=parallel,
        telemetry=tel,
        manifest_path=manifest_path,
    )
    return report, Profiler.from_telemetry(tel)


class TestEvalIntegration:
    def test_evaluate_trips_profiles_stages_and_throughput(self, hill_profile):
        report, prof = _profile_run(hill_profile, ParallelConfig(backend="serial"))
        assert report.n_failed == 0
        # All phases plus every pipeline stage must appear.
        assert set(prof.sections) == {"reference", "trips", "fusion"} | STAGE_SECTIONS
        assert prof.throughput.n_trips == 1
        assert prof.throughput.ticks > 0
        assert prof.throughput.ticks_per_s > 0.0

    def test_chunked_run_profiles_one_call_per_chunk(self, hill_profile, tmp_path):
        path = tmp_path / "manifest.json"
        report, prof = _profile_run(
            hill_profile,
            ParallelConfig(backend="serial", chunk_size=2),
            n_trips=2,
            manifest_path=path,
        )
        assert report.n_failed == 0
        stages = {n: s for n, s in prof.sections.items() if n.startswith("stage.")}
        assert set(stages) == STAGE_SECTIONS
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
        profiled = evaluate_trips(hill_profile, cfg, parallel=par, telemetry=Telemetry())
        assert np.array_equal(plain.fused_theta, profiled.fused_theta)
        assert np.array_equal(plain.truth, profiled.truth)
        assert plain.summary() == profiled.summary()

    def test_backends_give_equal_sections(self, hill_profile):
        # Worker span trees ship home as data on every backend, the process
        # pool included: section names and call counts do not depend on
        # where the chunks ran.
        shapes = {}
        for backend in ("serial", "thread", "process"):
            report, prof = _profile_run(
                hill_profile, ParallelConfig(backend=backend, max_workers=2), n_trips=2
            )
            assert report.n_failed == 0
            shapes[backend] = {n: s.calls for n, s in prof.sections.items()}
            assert prof.throughput.n_trips == 2
        assert shapes["serial"] == shapes["thread"] == shapes["process"]
        assert {shapes["serial"][name] for name in STAGE_SECTIONS} == {2}

    def test_retried_chunks_are_grafted(self, hill_profile, tmp_path):
        # Trip 0 crashes in its chunk, which estimates trip 1 alone; the
        # inline retry (a chunk of one) grafts its trees after the chunk's.
        marker = tmp_path / "crashed"
        tel = Telemetry("retry")
        report = evaluate_trips(
            hill_profile,
            RunnerConfig(n_trips=2, seed=3),
            parallel=ParallelConfig(backend="serial", chunk_size=2),
            telemetry=tel,
            fault_hook=_CrashOnce(marker),
        )
        assert report.n_failed == 0
        prof = Profiler.from_telemetry(tel)
        assert {prof.sections[name].calls for name in STAGE_SECTIONS} == {2}
        trips = tel.tracer.find("trips")
        assert [(c.name, c.attributes["n_trips"]) for c in trips.children] == [
            ("estimate", 1),
            ("estimate", 1),
        ]
        assert prof.throughput.n_trips == 2

    def test_manifest_written_with_profile(self, hill_profile, tmp_path):
        path = tmp_path / "manifest.json"
        _profile_run(hill_profile, ParallelConfig(backend="serial"), manifest_path=path)
        manifest = json.loads(path.read_text())
        assert manifest["schema"] == "repro.run_manifest/v1"
        assert manifest["seed"] == 3
        assert manifest["profile"]["schema"] == SCHEMA
        assert set(manifest["profile"]["sections"]) >= STAGE_SECTIONS
        assert manifest["health"]["worst_verdict"] == "ok"
        assert manifest["kind"] == "evaluate_trips"
        assert manifest["config"]["n_trips"] == 1

    def test_manifest_without_telemetry_has_no_profile(self, hill_profile, tmp_path):
        path = tmp_path / "manifest.json"
        evaluate_trips(
            hill_profile,
            RunnerConfig(n_trips=1, seed=3),
            parallel=ParallelConfig(backend="serial"),
            manifest_path=path,
        )
        assert json.loads(path.read_text())["profile"] is None


class _CrashOnce:
    """A fault hook that fails trip 0 the first time it runs, then never."""

    def __init__(self, marker: Path) -> None:
        self.marker = marker

    def __call__(self, index: int) -> None:
        if index == 0 and not self.marker.exists():
            self.marker.write_text("1")
            raise RuntimeError("first attempt crashes")


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
