"""Self-describing run manifests: what ran, on what code, with what result.

A benchmark or evaluation number is only evidence if it can be traced back
to the exact configuration and revision that produced it. A *run manifest*
bundles that provenance into one JSON document:

* the full configuration (any :class:`~repro.config.SerializableConfig`
  round-trips through ``to_dict``), plus the seed;
* the git revision of the working tree (best-effort — absent outside a
  checkout);
* the run's metrics snapshot, health summary, and profile, when collected.

``evaluate_trips(..., manifest_path=...)`` writes one per evaluation run;
the nightly CI sweep jobs upload them beside their ``BENCH_*.json``
artifacts, so every sweep has a manifest to answer "what exactly was
this number?".
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

__all__ = ["SCHEMA", "build_manifest", "git_revision", "write_manifest"]

SCHEMA = "repro.run_manifest/v1"


def git_revision(cwd: str | Path | None = None) -> str | None:
    """The current git commit SHA, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10.0,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def _config_dict(config: object) -> dict | None:
    """Serialize a config via ``to_dict`` (tolerating plain dicts/None)."""
    if config is None:
        return None
    if isinstance(config, dict):
        return config
    to_dict = getattr(config, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(
        f"manifest config must be a SerializableConfig or dict, "
        f"got {type(config).__name__}"
    )


def build_manifest(
    config: object = None,
    seed: int | None = None,
    metrics: dict | None = None,
    health: dict | None = None,
    profile: dict | None = None,
    extra: dict | None = None,
) -> dict:
    """Assemble one run's manifest dict (strict JSON, schema-tagged)."""
    manifest: dict = {
        "schema": SCHEMA,
        "git_sha": git_revision(),
        "seed": seed,
        "config": _config_dict(config),
        "metrics": metrics or {},
        "health": health or {},
        "profile": profile,
    }
    if extra:
        overlap = set(extra) & set(manifest)
        if overlap:
            raise ValueError(
                f"extra manifest fields collide with the schema: {sorted(overlap)}"
            )
        manifest.update(extra)
    return manifest


def write_manifest(path: "str | Path", **kwargs: object) -> Path:
    """Build and persist a manifest as pretty-printed JSON; returns the path."""
    manifest = build_manifest(**kwargs)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path
