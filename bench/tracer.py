"""In-memory span tracer that times library functions from the outside.

A :class:`Tracer` replaces a function in the module where its caller
looks the name up (``setattr(module, name, wrapper)``), records one span
per call (name, parent, start, end, and the exception type if the call
raised), and puts every original back on :meth:`Tracer.restore`.  Spans
stay in memory until the caller asks for them; no library file is edited.

Self time of a span is its duration minus the durations of its direct
children.  Calls are strictly nested on one thread, so children never
overlap each other and never leave their parent's interval.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    error: str = ""

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped functions until :meth:`restore`."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._clock = clock

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(id=len(self.spans), name=name, parent=parent, start=self._clock())
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = self._clock()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> None:
        """Time every call that ``module`` makes through its global ``attr``."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self._patches.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def records(self) -> list[dict]:
        return [asdict(sp) for sp in self.spans]


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    own = {sp.id: sp.duration for sp in spans}
    for sp in spans:
        if sp.parent is not None:
            own[sp.parent] -= sp.duration
    return own


def descendants(spans: list[Span], root_id: int) -> list[Span]:
    """Spans below ``root_id``.  Span ids grow in start order, so one pass suffices."""
    inside = {root_id}
    out = []
    for sp in spans:
        if sp.parent in inside:
            inside.add(sp.id)
            out.append(sp)
    return out
