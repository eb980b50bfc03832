"""Export a run's telemetry — span tree plus metrics — as one JSON-able dict.

:func:`export_run` returns a plain dict (always ``json.dumps``-able): the
span trees as :meth:`~repro.obs.trace.Span.to_dict` data (rebuild one with
:meth:`~repro.obs.trace.Span.from_dict`) and the metrics snapshot.
:class:`NullTelemetry` is re-exported here so callers that only need
"telemetry off" can import everything from one module.
"""

from __future__ import annotations

from .telemetry import NULL_TELEMETRY, NullTelemetry, Telemetry

__all__ = ["export_run", "NullTelemetry", "NULL_TELEMETRY"]


def export_run(telemetry: Telemetry) -> dict:
    """Everything one run recorded, as a JSON-serialisable dict."""
    return {
        "name": telemetry.name,
        "active": telemetry.active,
        "spans": telemetry.tracer.to_list(),
        "metrics": telemetry.metrics.snapshot(),
    }
