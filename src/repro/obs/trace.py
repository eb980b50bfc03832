"""Lightweight span/timer tracing for the estimation pipeline.

A :class:`Tracer` records a tree of named :class:`Span` objects. Spans are
context managers::

    tracer = Tracer()
    with tracer.span("estimate"):
        with tracer.span("alignment"):
            ...

Wall time uses ``time.perf_counter`` and CPU time ``time.thread_time``
(the CPU the entering thread spent while the span was open); the
implementation is pure stdlib — no third-party dependency and no I/O.
Nesting is tracked with an explicit stack, so the tracer is process-local
and not thread-safe (one tracer per pipeline instance, matching how
telemetry is threaded through the code).

A finished subtree travels as data: :meth:`Span.to_dict` keeps its
durations, and :meth:`Span.from_dict` rebuilds it in another process, where
the original ``perf_counter`` readings would mean nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import TracebackType
from typing import Iterator

__all__ = ["Span", "Tracer"]


@dataclass
class Span:
    """One timed stage of a run.

    ``t_start``/``t_end`` are ``perf_counter`` readings and
    ``cpu_start``/``cpu_end`` ``thread_time`` readings (a rebuilt span
    starts both clocks at 0.0); ``attributes`` carries small key/value
    annotations (velocity source, trip index, ...).
    """

    name: str
    attributes: dict = field(default_factory=dict)
    t_start: float = 0.0
    t_end: float | None = None
    cpu_start: float = 0.0
    cpu_end: float | None = None
    children: list["Span"] = field(default_factory=list)
    _tracer: "Tracer | None" = field(default=None, repr=False, compare=False)

    @property
    def duration(self) -> float:
        """Wall-clock seconds; reads the clock while the span is open."""
        end = time.perf_counter() if self.t_end is None else self.t_end
        return end - self.t_start

    @property
    def cpu_s(self) -> float:
        """Thread CPU seconds; reads the clock while the span is open."""
        end = time.thread_time() if self.cpu_end is None else self.cpu_end
        return end - self.cpu_start

    def set(self, **attributes: object) -> "Span":
        """Attach attributes to the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def walk(self) -> Iterator["Span"]:
        """This span and every descendant, depth-first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def find(self, name: str) -> "Span | None":
        """First span named ``name`` in this subtree (depth-first)."""
        for span in self.walk():
            if span.name == name:
                return span
        return None

    def to_dict(self) -> dict:
        """JSON-serialisable representation of the subtree."""
        out: dict = {
            "name": self.name,
            "duration_s": self.duration,
            "cpu_s": self.cpu_s,
        }
        if self.attributes:
            out["attributes"] = dict(self.attributes)
        if self.children:
            out["children"] = [child.to_dict() for child in self.children]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        """Rebuild a closed subtree from :meth:`to_dict` output."""
        return cls(
            name=data["name"],
            attributes=dict(data.get("attributes", {})),
            t_end=data["duration_s"],
            cpu_end=data.get("cpu_s", 0.0),
            children=[cls.from_dict(child) for child in data.get("children", ())],
        )

    def __enter__(self) -> "Span":
        self.t_start = time.perf_counter()
        self.cpu_start = time.thread_time()
        if self._tracer is not None:
            self._tracer._open(self)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> bool:
        self.t_end = time.perf_counter()
        self.cpu_end = time.thread_time()
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._close(self)
        return False


class Tracer:
    """Records a forest of spans for one run."""

    def __init__(self) -> None:
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def span(self, name: str, **attributes: object) -> Span:
        """A new span that attaches itself to the tree when entered."""
        return Span(name=name, attributes=attributes, _tracer=self)

    @property
    def current(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def reset(self) -> None:
        """Drop all recorded spans (e.g. between runs)."""
        self.roots = []
        self._stack = []

    def find(self, name: str) -> Span | None:
        """First recorded span with the given name, depth-first."""
        for root in self.roots:
            hit = root.find(name)
            if hit is not None:
                return hit
        return None

    def to_list(self) -> list[dict]:
        """JSON-serialisable list of root span trees."""
        return [root.to_dict() for root in self.roots]

    # -- bookkeeping used by Span.__enter__/__exit__ -------------------------

    def _open(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _close(self, span: Span) -> None:
        # Tolerate out-of-order exits: pop until the span is gone.
        while self._stack:
            if self._stack.pop() is span:
                break
