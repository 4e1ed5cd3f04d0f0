"""Operation timing and, in traced runs, spans around each call into a layer.

The benchmark never instruments the package itself: every span is taken
here, around a call the benchmark makes into a public function of
``families``, ``coloring``, ``graphcore``, ``permgroup`` or ``motion``.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import traceback
from collections import namedtuple
from time import perf_counter

# name: layer function or "op:<kind>"; parent: index of the enclosing span or
# None; op: operation id, None during set-up; attr: a number read from the
# call's result (verdict, generator count, element count) or None.
Span = namedtuple("Span", "name start end parent op attr")

IS_DIST = "coloring.is_distinguishing"
SAMPLE = "coloring.random_proper_coloring"
ENUM = "coloring.enumerate_proper_colorings"
AUT = "graphcore.automorphism_group"
CLOSURE = "permgroup.closure"
FIXERS = "motion.exact_expected_fixers"

# What each traced span keeps of its call's result.
_ATTR = {
    IS_DIST: lambda res: bool(res[0]),
    AUT: lambda res: len(res.generators),
    CLOSURE: len,
    FIXERS: lambda res: res.group_order,
}


class _Op:
    """Context manager around one operation: one user-visible verdict."""

    __slots__ = ("rec", "t0", "span", "void")

    def __init__(self, rec: "Recorder", kind: str):
        self.rec = rec
        self.span = rec._open("op:" + kind, new_op=True) if rec.traced else None
        self.void = False
        self.t0 = perf_counter()

    def __enter__(self):
        return self

    def discard(self) -> None:
        """Not an operation after all (a stream ended): count nothing."""
        self.void = True

    def __exit__(self, exc_type, exc, tb):
        end = perf_counter()
        rec = self.rec
        if self.span is not None:
            rec._close(self.span, end, None)
        if self.void and exc_type is None:
            return False
        rec.attempted += 1
        if exc_type is None:
            rec.op_ms.append((end - self.t0) * 1000.0)
            return False
        if issubclass(exc_type, Exception):
            # An operation that raises is counted as failed; the run goes on.
            rec.failed += 1
            if rec.failed == 1:
                traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
            return True
        return False


class Recorder:
    """Counts and times operations; when ``traced``, also records spans."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.attempted = 0
        self.failed = 0
        self.op_ms: list[float] = []
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._next_op = 0

    def _open(self, name: str, new_op: bool = False) -> int:
        if new_op:
            self._op = self._next_op
            self._next_op += 1
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), None, parent, self._op, None))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, end: float, attr) -> None:
        self._stack.pop()
        self.spans[idx] = self.spans[idx]._replace(end=end, attr=attr)
        if not self._stack:
            self._op = None

    def op(self, kind: str) -> _Op:
        return _Op(self, kind)

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn``; in a traced run, inside a span named ``name``."""
        if not self.traced:
            return fn(*args, **kwargs)
        idx = self._open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            attr = _ATTR[name](result) if name in _ATTR and result is not None else None
            self._close(idx, perf_counter(), attr)

    def each(self, name: str, iterable):
        """Iterate ``iterable``; in a traced run, one span per ``next``."""
        it = iter(iterable)
        if not self.traced:
            return it
        return self._traced_iter(name, it)

    def _traced_iter(self, name, it):
        while True:
            idx = self._open(name)
            try:
                item = next(it)
            except StopIteration:
                self._close(idx, perf_counter(), 0)
                return
            self._close(idx, perf_counter(), 1)
            yield item

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def _busy(spans, name):
    return sum(s.end - s.start for s in spans if s.name == name)


def _p50_ms(spans, name):
    times = [(s.end - s.start) * 1000.0 for s in spans if s.name == name]
    return statistics.median(times) if times else 0.0


def layer_metrics(round_spans, rounds, round_wall, setup_spans, alloc_peak_mb, overhead_s):
    """Per-layer metrics from the spans of the traced rounds and set-ups.

    Counts and times are per round (totals over ``rounds`` traced rounds
    divided by ``rounds``); ``setup_spans`` holds one span list per set-up.
    """
    per = 1.0 / rounds
    sp = round_spans
    dist = [s for s in sp if s.name == IS_DIST]
    refuted = sum(s.end - s.start for s in dist if s.attr is False)
    proved = sum(s.end - s.start for s in dist if s.attr is True)
    enum_next = [s for s in sp if s.name == ENUM]
    fixers = [s for s in sp if s.name == FIXERS]
    fixer_busy = _busy(sp, FIXERS)
    layer_busy = sum(s.end - s.start for s in sp if not s.name.startswith("op:"))
    # Set-up calls into the package only to build graphs and groups.
    builds = [sum(s.end - s.start for s in spans) for spans in setup_spans]
    out = {
        IS_DIST + ".calls": (len(dist) * per, "count"),
        IS_DIST + ".refuted_s": (refuted * per, "s"),
        IS_DIST + ".proved_s": (proved * per, "s"),
        IS_DIST + ".p50_ms": (_p50_ms(sp, IS_DIST), "ms"),
        SAMPLE + ".calls": (sum(1 for s in sp if s.name == SAMPLE) * per, "count"),
        SAMPLE + ".busy_s": (_busy(sp, SAMPLE) * per, "s"),
        SAMPLE + ".p50_ms": (_p50_ms(sp, SAMPLE), "ms"),
        ENUM + ".yielded": (sum(s.attr for s in enum_next) * per, "count"),
        ENUM + ".busy_s": (_busy(sp, ENUM) * per, "s"),
        AUT + ".calls": (sum(1 for s in sp if s.name == AUT) * per, "count"),
        AUT + ".busy_s": (_busy(sp, AUT) * per, "s"),
        AUT + ".generators": (sum(s.attr or 0 for s in sp if s.name == AUT) * per, "count"),
        CLOSURE + ".busy_s": (_busy(sp, CLOSURE) * per, "s"),
        CLOSURE + ".elements": (sum(s.attr or 0 for s in sp if s.name == CLOSURE) * per, "count"),
        CLOSURE + ".alloc_peak_mb": (alloc_peak_mb, "MB"),
        FIXERS + ".busy_s": (fixer_busy * per, "s"),
        FIXERS + ".elements_per_s": (
            sum(s.attr or 0 for s in fixers) / fixer_busy if fixer_busy > 0 else 0.0,
            "1/s",
        ),
        "families.build_s": (statistics.median(builds), "s"),
        "unattributed_s": ((sum(round_wall) - layer_busy) * per, "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
