"""The benchmark's own arithmetic: tail selector, spread, self time, names."""

import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from perfbench.measure import (
    coverage,
    layer_self_times,
    self_time,
    spread,
    tail,
    valid_name,
    valid_unit,
)

ROOT = Path(__file__).resolve().parents[2]


@dataclass
class S:
    name: str
    t_start: float
    t_end: float
    children: list = field(default_factory=list)
    attributes: dict = field(default_factory=dict)


class TestTail:
    def test_hundred_calls_give_p90(self):
        value, pct, n = tail(list(range(100, 0, -1)))
        assert (value, pct, n) == (90, 90.0, 100)

    def test_many_calls_stop_at_p95(self):
        value, pct, n = tail([float(v) for v in range(1, 1001)])
        assert (value, pct, n) == (950.0, 95.0, 1000)

    def test_exactly_ten_beyond(self):
        values = [float(v) for v in range(37)]
        value, pct, _ = tail(values)
        assert sum(v > value for v in values) == 10
        assert pct == pytest.approx(100 * 27 / 37)

    def test_eleven_calls_pick_the_smallest(self):
        assert tail([5.0] + [9.0] * 10)[:2] == (5.0, pytest.approx(100 / 11))

    def test_too_few_calls_fall_back_to_max(self):
        assert tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / med)


class TestSelfTime:
    LAYERS = {"call", "a", "b"}

    def test_coverage_merges_overlaps_and_clips(self):
        assert coverage([(1, 3), (2, 5), (4, 6)], 0, 10) == pytest.approx(5)
        assert coverage([(-5, 2), (8, 20)], 0, 10) == pytest.approx(4)
        assert coverage([], 0, 10) == 0.0

    def test_overlapping_layer_children_count_once(self):
        root = S("call", 0, 10, [S("a", 1, 3), S("b", 2, 5)])
        assert self_time(root, self.LAYERS) == pytest.approx(6)

    def test_non_layer_spans_fold_into_their_layer(self):
        # "track" is not a layer: its time stays with "a", except the part
        # its own layer descendant "b" covers.
        track = S("track", 2, 6, [S("b", 3, 4)])
        a = S("a", 1, 7, [track])
        root = S("call", 0, 10, [S("estimate", 0.5, 9, [a])])
        assert self_time(root, self.LAYERS) == pytest.approx(10 - 6)
        assert self_time(a, self.LAYERS) == pytest.approx(6 - 1)
        totals = layer_self_times([root], self.LAYERS)
        assert totals == pytest.approx({"call": 4, "a": 5, "b": 1})
        # Self times partition the root call exactly.
        assert sum(totals.values()) == pytest.approx(10)

    def test_totals_add_over_roots(self):
        roots = [S("call", 0, 2, [S("a", 0, 1)]), S("call", 5, 9, [S("a", 6, 7)])]
        assert layer_self_times(roots, self.LAYERS) == pytest.approx(
            {"call": 4, "a": 2, "b": 0}
        )


class TestNames:
    def test_grammar(self):
        assert valid_name("latency_p50_ms")
        assert valid_name("online.mode_share.dead_reckoning")
        assert not valid_name("_hidden")
        assert not valid_name("has space")
        assert not valid_name("x" * 65)
        assert valid_unit("1/s") and valid_unit("count") and valid_unit("%")
        assert not valid_unit("m s") and not valid_unit("")

    def test_benchmark_json_matches_the_harness(self):
        from perfbench.harness import END_TO_END_UNITS, PER_LAYER_UNITS

        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        assert len(names) == len(set(names))
        assert all(valid_name(n) for n in names)
        for key, units in (("end_to_end", END_TO_END_UNITS), ("per_layer", PER_LAYER_UNITS)):
            declared = {m["name"]: m["unit"] for m in spec[key]}
            assert declared == units
            assert all(valid_unit(u) for u in declared.values())
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]}["setup_s"] == "s"
        assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


class TestHostSpeed:
    @staticmethod
    def record(*bursts):
        """A HostSpeed holding the given (start, duration) bursts."""
        from perfbench.hostspeed import HostSpeed

        host = HostSpeed()
        for start, d in bursts:
            host.starts.append(start)
            host.ends.append(start + d)
            host.durations.append(d)
        return host

    def test_slow_bursts_scale_time_down(self):
        from perfbench.hostspeed import QUIET_BURST_S

        slow = 2 * QUIET_BURST_S
        host = self.record((0.0, slow), (1.0, slow), (2.0, slow))
        assert host.scaled(0.5, 0.9) == pytest.approx(0.2)
        # The bursts themselves are not work: only the two stretches count.
        work = (1.0 - slow) + (2.0 - (1.0 + slow))
        assert host.scaled_span(0.0, 2.0 + slow) == pytest.approx(work / 2)

    def test_scale_is_the_median_of_the_nearest_bursts(self):
        from perfbench.hostspeed import NEIGHBOURS, QUIET_BURST_S

        q = QUIET_BURST_S
        # One stray slow burst among quiet ones does not move the scale.
        host = self.record(*[(float(k), q * (9 if k == 2 else 1)) for k in range(8)])
        assert host.factor(3.5, 3.6) == pytest.approx(1.0)
        assert NEIGHBOURS >= 2

    def test_no_burst_is_an_error(self):
        with pytest.raises(ValueError):
            self.record().factor(0.0, 1.0)
