"""Run-manifest tests: schema, provenance, and strict JSON."""

import json
from pathlib import Path

import pytest

from repro.obs.manifest import build_manifest, git_revision, write_manifest


class TestManifest:
    def test_git_revision_in_checkout(self):
        sha = git_revision(Path(__file__).resolve().parents[2])
        assert sha is None or (len(sha) == 40 and all(c in "0123456789abcdef" for c in sha))

    def test_build_manifest_schema(self):
        from repro.eval.runner import RunnerConfig

        manifest = build_manifest(
            config=RunnerConfig(n_trips=1),
            seed=7,
            metrics={"counters": {"ekf_ticks": 10}},
            health={"worst_verdict": "ok"},
            extra={"kind": "test"},
        )
        decoded = json.loads(json.dumps(manifest))
        assert decoded["schema"] == "repro.run_manifest/v1"
        assert decoded["seed"] == 7
        assert decoded["config"]["n_trips"] == 1
        assert decoded["kind"] == "test"

    def test_extra_collision_rejected(self):
        with pytest.raises(ValueError, match="collide"):
            build_manifest(extra={"seed": 9})

    def test_bad_config_type_rejected(self):
        with pytest.raises(TypeError):
            build_manifest(config=object())

    def test_write_manifest_creates_parents(self, tmp_path):
        path = write_manifest(tmp_path / "a" / "b" / "m.json", seed=1)
        assert json.loads(path.read_text())["seed"] == 1
