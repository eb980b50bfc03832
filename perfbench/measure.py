"""Pure measurement arithmetic: tail percentiles, spreads, span self time.

Nothing here imports the library or touches the clock, so the benchmark's
tests can pin every formula on hand-built inputs.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Iterable, Iterator, Protocol, Sequence

#: Metric names: a letter or digit, then letters, digits, ``_``, ``.``, ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: letters, digits, ``_``, ``/``, ``%``, ``.``, ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

#: A tail percentile must leave at least this many calls beyond it...
TAIL_BEYOND = 10
#: ...and is at most this percentile. Beyond p95 the tail of a 15 ms call
#: on a shared host is set by scheduler hiccups, not by the program: over
#: ten runs of ``stream_outage`` its p99 spread by 18 % of its median.
TAIL_MAX_PERCENTILE = 95.0


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def tail(
    values: Sequence[float],
    beyond: int = TAIL_BEYOND,
    max_percentile: float = TAIL_MAX_PERCENTILE,
) -> tuple[float, float, int]:
    """The highest percentile of ``values``, up to ``max_percentile``, with
    at least ``beyond`` values above it.

    Returns ``(value, percentile, n)``. With ``n`` values sorted ascending
    that is the ``rank``-th smallest (nearest rank), ``rank = min(n -
    beyond, floor(n * max_percentile / 100))``, at percentile ``100 * rank
    / n``. With ``n <= beyond`` no such percentile exists and the maximum
    is returned at percentile 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail() needs at least one value")
    if n <= beyond:
        return ordered[-1], 100.0, n
    rank = min(n - beyond, math.floor(n * max_percentile / 100.0))
    return ordered[rank - 1], 100.0 * rank / n, n


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median
    (``statistics.quantiles(values, n=4)``, exclusive method)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf


class SpanLike(Protocol):
    name: str
    t_start: float
    t_end: float | None
    children: list


def coverage(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def layer_children(span: SpanLike, layers: set[str]) -> Iterator[SpanLike]:
    """The nearest descendants of ``span`` whose name is a layer."""
    for child in span.children:
        if child.name in layers:
            yield child
        else:
            yield from layer_children(child, layers)


def self_time(span: SpanLike, layers: set[str]) -> float:
    """Span duration minus the part its nearest layer descendants cover.

    Spans that are not layers (per-source ``track`` spans, the library's
    own ``estimate`` span) are folded into the nearest layer above them.
    """
    end = span.t_end if span.t_end is not None else span.t_start
    inner = [(c.t_start, c.t_end if c.t_end is not None else c.t_start)
             for c in layer_children(span, layers)]
    return (end - span.t_start) - coverage(inner, span.t_start, end)


def layer_self_times(roots: Iterable[SpanLike], layers: set[str]) -> dict[str, float]:
    """Total self time per layer name over every span in ``roots``."""
    totals = dict.fromkeys(layers, 0.0)
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name in layers:
            totals[span.name] += self_time(span, layers)
        stack.extend(span.children)
    return totals


def spans_named(roots: Iterable[SpanLike], name: str) -> list[SpanLike]:
    """Every span called ``name`` in ``roots``, depth-first."""
    out = []
    stack = list(roots)
    while stack:
        span = stack.pop()
        if span.name == name:
            out.append(span)
        stack.extend(reversed(span.children))
    return out


def duration(span: SpanLike) -> float:
    return (span.t_end if span.t_end is not None else span.t_start) - span.t_start
