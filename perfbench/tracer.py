"""In-memory span tracer that instruments a program from the outside.

A probe replaces a function by name in the module that looks it up (for
example ``local_sfm.ransac``, not ``geometry.ransac``), records a span or a
counter around each call, and is taken out again by ``restore``. Spans
carry name, start, end and parent; the parent follows work into pool
threads when the mapped function is passed through ``bind``.
"""

import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


class Tracer:
    """Collects spans and counters; use as a context manager so every probe
    is restored even when the traced code raises."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording ---------------------------------------------------------

    def current(self) -> int | None:
        return getattr(self._local, "span", None)

    @contextmanager
    def span(self, name: str):
        s = Span(next(self._ids), name, self.current(), self.clock())
        self._local.span = s.id
        try:
            yield s
        finally:
            s.end = self.clock()
            self._local.span = s.parent
            self.spans.append(s)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of name (the last write wins)."""
        self.gauges[name] = value

    def bind(self, fn):
        """fn made to run under the current span in whichever thread calls it."""
        parent = self.current()

        def bound(*args, **kwargs):
            previous = self.current()
            self._local.span = parent
            try:
                return fn(*args, **kwargs)
            finally:
                self._local.span = previous

        return bound

    # -- probes ------------------------------------------------------------

    def wrap(self, module, attr: str, name: str, *, span: bool = True, hook=None) -> None:
        """Replace module.attr by a probe.

        With span=False the probe only counts calls under ``name`` (for hot
        scalar functions). hook(tracer, original, args, kwargs), if given,
        makes the call itself and may inspect or adapt arguments and result.
        """
        original = getattr(module, attr)

        def call(args, kwargs):
            if hook is None:
                return original(*args, **kwargs)
            return hook(self, original, args, kwargs)

        if span:
            def probe(*args, **kwargs):
                with self.span(name):
                    return call(args, kwargs)
        else:
            def probe(*args, **kwargs):
                self.count(name)
                return call(args, kwargs)

        probe.__wrapped__ = original
        setattr(module, attr, probe)
        self._patches.append((module, attr, original))

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- summaries ---------------------------------------------------------

    def named(self, *names: str) -> list[Span]:
        return [s for s in self.spans if s.name in names]

    def busy(self, *names: str) -> float:
        """Summed duration of the named spans, nested ones counted once."""
        by_id = {s.id: s for s in self.spans}
        return sum(
            s.duration
            for s in self.named(*names)
            if s.parent not in by_id or by_id[s.parent].name not in names
        )

    def self_time(self, *names: str) -> float:
        """Summed self time of the named spans: each span's duration minus
        the part of its interval that its child spans cover, in any thread."""
        children = defaultdict(list)
        for s in self.spans:
            children[s.parent].append((s.start, s.end))
        return sum(
            s.duration - covered(s.start, s.end, children[s.id]) for s in self.named(*names)
        )
