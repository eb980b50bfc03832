"""Observability for the estimation stack: tracing, metrics, health, export.

The subsystem is deliberately dependency-free (stdlib + numpy +
``scipy.special`` for chi-square bounds) and splits into seven layers:

* :mod:`~repro.obs.trace` — nested span timers (``with tel.span("stage")``);
* :mod:`~repro.obs.metrics` — process-local counters/gauges/histograms,
  with label support and exactly-mergeable p50/p95/p99 percentiles;
* :mod:`~repro.obs.logging` — structured ``key=value`` / JSON-lines logs,
  switched by the ``REPRO_TELEMETRY`` environment variable;
* :mod:`~repro.obs.health` — estimator health monitors: NIS consistency
  bounds, covariance watchdogs, raw-input screens, and per-trip
  ``ok``/``suspect``/``diverged`` verdicts;
* :mod:`~repro.obs.profile` — per-stage wall/CPU profile and per-trip
  throughput, read off the span tree;
* :mod:`~repro.obs.export` — a run's spans + metrics as one JSON-able dict;
* :mod:`~repro.obs.manifest` — run provenance manifests.

:class:`Telemetry` bundles the tracing/metrics/logging primitives and is
what the pipeline threads through its stages; :class:`NullTelemetry`
(shared instance :data:`NULL_TELEMETRY`) is the no-op default that keeps
the hot paths free when observability is off.
"""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(
    globals(),
    {
        "export_run": ".export",
        "HealthConfig": ".health",
        "HealthFlag": ".health",
        "HealthMonitor": ".health",
        "HealthReport": ".health",
        "StreamingHealthMonitor": ".health",
        "TrackHealth": ".health",
        "nis_bound": ".health",
        "ENV_SWITCH": ".logging",
        "JsonLinesFormatter": ".logging",
        "KeyValueFormatter": ".logging",
        "get_logger": ".logging",
        "log_format": ".logging",
        "telemetry_enabled": ".logging",
        "build_manifest": ".manifest",
        "git_revision": ".manifest",
        "write_manifest": ".manifest",
        "Counter": ".metrics",
        "Gauge": ".metrics",
        "Histogram": ".metrics",
        "MetricsRegistry": ".metrics",
        "metric_key": ".metrics",
        "parse_metric_key": ".metrics",
        "NULL_TELEMETRY": ".telemetry",
        "NullTelemetry": ".telemetry",
        "Telemetry": ".telemetry",
        "from_env": ".telemetry",
        "Span": ".trace",
        "Tracer": ".trace",
        "Profiler": ".profile",
    },
)
