"""Exporter tests: what a run's :func:`export_run` dict keeps.

Pins the context contract: span trees keep their ``attributes`` (and
rebuild with :meth:`Span.from_dict`, the way worker spans travel home
from an ``evaluate_trips`` pool) and metric keys their ``labels`` —
per-trip / per-source context must survive the JSON export.
"""

import json

from repro.obs import Telemetry, export_run, parse_metric_key
from repro.obs.profile import Profiler
from repro.obs.trace import Span


def _loaded_telemetry():
    tel = Telemetry("export-test")
    with tel.span("estimate", trip=3):
        with tel.span("ekf_tracks"):
            with tel.span("track", source="gps"):
                pass
    tel.count("ekf_ticks", 100)
    tel.count("health.flag", labels={"kind": "nis", "severity": "suspect"})
    tel.gauge("bench.ratio", 1.5)
    tel.observe_many("inno", [0.1, 0.2, 0.4])
    return tel


def _exported(tel):
    return json.loads(json.dumps(export_run(tel)))


class TestJsonl:
    def test_span_attributes_survive_flattening(self):
        (root,) = _exported(_loaded_telemetry())["spans"]
        rebuilt = Span.from_dict(root)
        assert rebuilt.attributes == {"trip": 3}
        assert rebuilt.find("track").attributes == {"source": "gps"}
        assert rebuilt.find("ekf_tracks").attributes == {}
        assert "attributes" not in root["children"][0]

    def test_metric_records_split_name_and_labels(self):
        counters = _exported(_loaded_telemetry())["metrics"]["counters"]
        by_name = {}
        for key, value in counters.items():
            name, labels = parse_metric_key(key)
            by_name[name] = (labels, value)
        assert by_name["ekf_ticks"] == ({}, 100)
        assert by_name["health.flag"] == ({"kind": "nis", "severity": "suspect"}, 1)

    def test_histogram_records_include_percentiles(self):
        histograms = _exported(_loaded_telemetry())["metrics"]["histograms"]
        assert list(histograms) == ["inno"]
        assert {"count", "p50", "p95", "p99"} <= set(histograms["inno"])
        assert histograms["inno"]["count"] == 3


class TestSpanTree:
    def test_renders_nested_tree_with_attributes(self):
        tel = _loaded_telemetry()
        (live,) = tel.tracer.roots
        rebuilt = Span.from_dict(_exported(tel)["spans"][0])
        pairs = list(zip(live.walk(), rebuilt.walk()))
        assert len(pairs) == 3 == len(list(rebuilt.walk()))
        for a, b in pairs:
            assert (b.name, b.attributes) == (a.name, a.attributes)
            assert b.duration == a.duration
            assert b.cpu_s == a.cpu_s
            assert b.t_end is not None and b.cpu_end is not None  # closed

    def test_accepts_exported_dict_and_span_list(self):
        tel = Telemetry("profiled")
        for _ in range(2):
            with tel.span("estimate", n_trips=1):
                with tel.span("alignment"):
                    pass
                with tel.span("fusion"):
                    pass
        spans = _exported(tel)["spans"]
        rebuilt = [Span.from_dict(d) for d in spans]
        assert [span.to_dict() for span in rebuilt] == spans
        live = Profiler.from_spans(tel.tracer.roots).to_dict()
        assert Profiler.from_spans(rebuilt).to_dict() == live
        assert live["sections"]["stage.alignment"]["calls"] == 2
