"""Generator for the ``repro.obs.metric_names`` registry module.

The registry is the single source of truth for the telemetry vocabulary:
every counter/gauge/histogram name literal emitted anywhere in the library
tree, collected statically and written out as a frozen set. Exporters,
dashboards and tests can import it; rule RL004 fails the build
when an emission site and the registry drift apart.

Regenerate with::

    python -m repro.lint --write-metric-names src/repro

The output is deterministic (sorted, stable header), so regeneration on an
unchanged tree is a no-op and the file can live in version control.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from .framework import FileContext, iter_source_files, parse_file
from .rules import METRIC_NAME_RE, collect_metric_emissions

__all__ = [
    "collect_metric_names",
    "render_metric_names_module",
    "write_metric_names",
    "registry_path_for",
]

_HEADER = '''"""Telemetry metric-name registry (generated — do not edit).

Every counter/gauge/histogram name the library emits, collected statically
from the metric call sites. Regenerate after adding or renaming a metric::

    python -m repro.lint --write-metric-names src/repro

Rule RL004 (see :mod:`repro.lint.rules`) keeps this file honest: an emission
site using a name missing here — or a stale entry left behind by a rename —
fails the lint gate, so exporters and dashboards can key on these names
without drift.
"""

from __future__ import annotations

__all__ = ["METRIC_NAMES"]

#: Bare metric names (labels are appended at runtime by ``metric_key``).
'''


def collect_metric_names(paths: Iterable[str | Path]) -> set[str]:
    """Statically collect every literal metric name emitted under ``paths``.

    Only grammar-conforming names are collected; malformed literals are
    RL004 findings, not registry entries.
    """
    ctxs: list[FileContext] = []
    for file in iter_source_files(paths):
        if file.name == "metric_names.py":
            continue  # never self-feed from a previous generation
        ctxs.append(parse_file(file))
    return {
        name
        for _ctx, _node, name in collect_metric_emissions(ctxs)
        if METRIC_NAME_RE.match(name)
    }


def render_metric_names_module(names: Iterable[str]) -> str:
    """The full, deterministic source text of ``metric_names.py``."""
    lines = [_HEADER, "METRIC_NAMES = frozenset(", "    {"]
    for name in sorted(set(names)):
        lines.append(f'        "{name}",')
    lines.append("    }")
    lines.append(")")
    return "\n".join(lines) + "\n"


def registry_path_for(paths: Iterable[str | Path]) -> Path:
    """Where the registry module lives for the given scan roots.

    Finds the ``repro`` package root among the scanned paths and returns
    ``<root>/obs/metric_names.py``; falls back to the installed package
    location when scanning the live tree from elsewhere.
    """
    for raw in paths:
        path = Path(raw).resolve()
        candidates = [path, *path.parents]
        for cand in candidates:
            if cand.name == "repro" and (cand / "obs").is_dir():
                return cand / "obs" / "metric_names.py"
            if (cand / "repro" / "obs").is_dir():
                return cand / "repro" / "obs" / "metric_names.py"
    return Path(__file__).resolve().parent.parent / "obs" / "metric_names.py"


def write_metric_names(
    paths: Iterable[str | Path], registry_path: str | Path | None = None
) -> tuple[Path, bool]:
    """Regenerate the registry; returns ``(path, changed)``."""
    paths = list(paths)
    target = Path(registry_path) if registry_path else registry_path_for(paths)
    text = render_metric_names_module(collect_metric_names(paths))
    old = target.read_text(encoding="utf-8") if target.exists() else None
    if old == text:
        return target, False
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(text, encoding="utf-8")
    return target, True
