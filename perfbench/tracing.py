"""In-memory span tracing around library calls, installed by patching module
and class attributes from the benchmark's own files.

A span records its name, start and end (``perf_counter`` seconds), the span
that was open when it began, the run it belongs to, and how many autodiff
nodes were constructed while it was open. Spans are kept in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    nodes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for the run set by ``begin_run``; records nothing between runs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run: str | None = None
        self.counts: dict[str, dict[str, int]] = {}
        self.nodes = 0
        self._next_id = 0
        self._stack: list[tuple[int, str, float, int]] = []

    def begin_run(self, run: str) -> None:
        self.run = run
        self.counts[run] = {}

    def end_run(self) -> None:
        if self._stack:
            raise RuntimeError(f"run {self.run} ended with open spans")
        self.run = None

    def count(self, name: str) -> None:
        if self.run is not None:
            counts = self.counts[self.run]
            counts[name] = counts.get(name, 0) + 1

    def wrap(self, fn, name):
        """Span-recording wrapper; ``name`` is a string or a function of the call's arguments."""
        name_of = name if callable(name) else (lambda *a, **k: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.run is None:
                return fn(*args, **kwargs)
            self._next_id += 1
            span_name = name_of(*args, **kwargs)
            self._stack.append((self._next_id, span_name, perf_counter(), self.nodes))
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                span_id, span_name, start, nodes = self._stack.pop()
                parent = self._stack[-1][0] if self._stack else None
                self.spans.append(Span(span_id, span_name, start, end, parent,
                                       self.run, self.nodes - nodes))

        return traced

    def counting(self, fn, name):
        """Wrapper that counts calls in the current run and records no span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return counted

    def node_counter(self, init):
        """Wrapper for ``Node.__init__`` that counts constructions."""

        @functools.wraps(init)
        def counted_init(*args, **kwargs):
            self.nodes += 1
            return init(*args, **kwargs)

        return counted_init

    def records(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


class Patches:
    """Replace attributes for the duration of a ``with`` block, then restore them.

    ``targets`` is a list of ``(owner, attribute, make_wrapper)``, where owner is
    a module or class and ``make_wrapper`` maps the original to its replacement.
    Originals are read from ``owner.__dict__`` so methods stay plain functions.
    An attribute the owner does not have is skipped and listed in ``missing``,
    so a benchmark keeps running after the code it traces is removed.
    """

    def __init__(self, targets):
        self.targets = targets
        self.saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def __enter__(self):
        try:
            for owner, attr, make_wrapper in self.targets:
                if attr not in vars(owner):
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                original = vars(owner)[attr]
                self.saved.append((owner, attr, original))
                setattr(owner, attr, make_wrapper(original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out
