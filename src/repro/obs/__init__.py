"""Observability for the estimation stack: tracing, metrics, health, export.

The subsystem is deliberately dependency-free (stdlib + numpy + scipy for
chi-square bounds) and splits into seven layers:

* :mod:`~repro.obs.trace` — nested span timers (``with tel.span("stage")``);
* :mod:`~repro.obs.metrics` — process-local counters/gauges/histograms,
  with label support and exactly-mergeable p50/p95/p99 percentiles;
* :mod:`~repro.obs.logging` — structured ``key=value`` / JSON-lines logs,
  switched by the ``REPRO_TELEMETRY`` environment variable;
* :mod:`~repro.obs.health` — estimator health monitors: NIS consistency
  bounds, covariance watchdogs, raw-input screens, and per-trip
  ``ok``/``suspect``/``diverged`` verdicts;
* :mod:`~repro.obs.profile` — deterministic per-stage wall/CPU profiler
  with per-trip throughput;
* :mod:`~repro.obs.export` — dump a run's spans + metrics to
  dict/JSON/JSONL/Prometheus text;
* :mod:`~repro.obs.manifest` / :mod:`~repro.obs.benchtrack` — run
  provenance manifests, and benchmark history with regression gating
  (``python -m repro.obs.benchtrack``).

:class:`Telemetry` bundles the tracing/metrics/logging primitives and is
what the pipeline threads through its stages; :class:`NullTelemetry`
(shared instance :data:`NULL_TELEMETRY`) is the no-op default that keeps
the hot paths free when observability is off.
"""

from typing import TYPE_CHECKING, Any

from .export import (
    export_run,
    format_span_tree,
    prometheus_text,
    write_json,
    write_jsonl,
    write_prometheus,
)
from .health import (
    HealthConfig,
    HealthFlag,
    HealthMonitor,
    HealthReport,
    StreamingHealthMonitor,
    TrackHealth,
    nis_bound,
)
from .logging import (
    ENV_SWITCH,
    JsonLinesFormatter,
    KeyValueFormatter,
    get_logger,
    log_format,
    telemetry_enabled,
)
from .manifest import build_manifest, git_revision, write_manifest
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metric_key,
    parse_metric_key,
)
from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry, from_env
from .trace import Span, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only; imported lazily below
    from .profile import Profiler


def __getattr__(name: str) -> Any:
    # Profiler is imported on first use: an eager import would put
    # repro.obs.profile in sys.modules before ``python -m repro.obs.profile``
    # runs it, and runpy warns about that.
    if name == "Profiler":
        from .profile import Profiler

        return Profiler
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ENV_SWITCH",
    "Counter",
    "Gauge",
    "HealthConfig",
    "HealthFlag",
    "HealthMonitor",
    "HealthReport",
    "Histogram",
    "JsonLinesFormatter",
    "KeyValueFormatter",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "Profiler",
    "Span",
    "StreamingHealthMonitor",
    "Telemetry",
    "TrackHealth",
    "Tracer",
    "build_manifest",
    "export_run",
    "format_span_tree",
    "from_env",
    "get_logger",
    "git_revision",
    "log_format",
    "metric_key",
    "nis_bound",
    "parse_metric_key",
    "prometheus_text",
    "telemetry_enabled",
    "write_json",
    "write_jsonl",
    "write_manifest",
    "write_prometheus",
]
