"""Per-layer tracing of bellband from outside the package.

The tracer replaces public names of the package with timing wrappers
where callers look them up (a module global such as
``bellband.band.feasible_band``, or a class attribute such as
``F4Candidate.evaluate``) and puts every original back on ``uninstall``.
Nothing inside ``src/`` is edited.

Three kinds of wrapper exist:

* ``span``: one span per call (name, label, start, end, parent, self time);
* ``agg``: per-point functions, called up to 10^5 times per operation,
  keep a call count and summed time but no span;
* ``count``: a bare call counter with no clock reads.

A call is traced only while the benchmark holds a root span open around
one operation (``Tracer.root``); calls made by the benchmark's own output
checks fall outside every root and pass straight through.  Self time is a
frame's duration minus the durations of the traced calls directly under
it, so for every root the self times of its whole subtree add up to the
root's duration; ``root_gap`` records the largest departure seen.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter

# frame fields: start, time covered by direct children, self time of all
# descendants (used on roots only), id of the nearest enclosing span
_START, _CHILD, _DESC, _SPAN = range(4)


class Tracer:
    """Wrapper registry plus the in-memory spans, totals and counters of
    one traced run."""

    def __init__(self):
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []
        self._next_id = 0
        #: span id -> (name, label, start, end, self time, parent id, root id)
        self.spans: dict[int, tuple] = {}
        #: aggregate name -> [calls, busy seconds, self seconds]
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)
        #: largest |root duration - sum of self times in its tree|, seconds
        self.root_gap = 0.0

    # -- installation ------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, kind: str = "span", label=None, after=None):
        """Replace ``owner.attr`` by a traced wrapper.

        ``label(args)`` gives a span label; ``after(result, args)`` returns
        a dict of counter increments taken from the call's result.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if kind == "count":
            wrapper = self._counting(original, name)
        else:
            wrapper = self._timing(original, name, kind == "span", label, after)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped name back, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> list[tuple[object, str, object]]:
        return list(self._saved)

    def _counting(self, fn, name):
        counters = self.counters
        stack = self._stack

        def counted(*args, **kwargs):
            if stack:
                counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timing(self, fn, name, is_span, label, after):
        stack = self._stack
        tracer = self

        def timed(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span_id = parent[_SPAN]
            if is_span:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, 0.0, 0.0, span_id]
            stack.append(frame)
            result = None
            frame[_START] = t0 = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _clock()
                stack.pop()
                duration = t1 - t0
                self_time = duration - frame[_CHILD]
                parent[_CHILD] += duration
                stack[0][_DESC] += self_time
                if is_span:
                    tag = label(args) if label else ""
                    tracer.spans[span_id] = (
                        name, tag, t0, t1, self_time, parent[_SPAN], stack[0][_SPAN]
                    )
                else:
                    total = tracer.totals[name]
                    total[0] += 1
                    total[1] += duration
                    total[2] += self_time
                if after is not None and result is not None:
                    for key, value in after(result, args).items():
                        tracer.counters[key] += value

        return timed

    # -- roots -------------------------------------------------------------

    @contextmanager
    def root(self, name: str):
        """Open the root span of one benchmark operation."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        span_id = self._next_id
        self._next_id += 1
        frame = [0.0, 0.0, 0.0, span_id]
        self._stack.append(frame)
        frame[_START] = t0 = _clock()
        try:
            yield
        finally:
            t1 = _clock()
            self._stack.pop()
            duration = t1 - t0
            self_time = duration - frame[_CHILD]
            self.spans[span_id] = (name, "", t0, t1, self_time, None, span_id)
            gap = abs(duration - (self_time + frame[_DESC]))
            self.root_gap = max(self.root_gap, gap)

    # -- queries -----------------------------------------------------------

    def span_sum(self, name: str, label=None, field: str = "duration") -> tuple[int, float]:
        """(count, summed duration or self time) of spans called ``name``,
        restricted to labels in ``label`` when given."""
        count, total = 0, 0.0
        for span_name, tag, t0, t1, self_time, _, _ in self.spans.values():
            if span_name != name or (label is not None and tag not in label):
                continue
            count += 1
            total += self_time if field == "self" else t1 - t0
        return count, total

    def dump(self, path) -> None:
        """Write spans, aggregate totals and counters as one JSON document."""
        spans = sorted(
            (
                {
                    "id": span_id, "name": name, "label": tag, "start": t0, "end": t1,
                    "self": self_time, "parent": parent, "root": root,
                }
                for span_id, (name, tag, t0, t1, self_time, parent, root) in self.spans.items()
            ),
            key=lambda s: s["start"],
        )
        doc = {
            "spans": spans,
            "aggregates": {
                name: {"calls": c, "busy_s": busy, "self_s": own}
                for name, (c, busy, own) in sorted(self.totals.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "root_gap_s": self.root_gap,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
