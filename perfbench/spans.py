"""In-memory span tracing around calls into serkit's modules.

A span records a name, start and end times, the span that was open when it
began (its parent), the unit of work it belongs to (one training step or one
scored utterance) and the trial it ran in. Spans come from wrappers that
replace a function under the name its caller looks it up by, so the program
itself is unchanged; every wrapper is removed again when tracing ends.
"""

from __future__ import annotations

import gzip
import json
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1          # index into Tracer.spans, -1 for a root span
    unit: int = 0
    trial: int = 0
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counts in memory; nothing is written until `write`."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.unit = 0
        self.trial = 0
        self.counts: dict[str, int] = {}
        self._open: list[int] = []
        self._patches: list[tuple] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, self.clock(), parent=parent,
                               unit=self.unit, trial=self.trial))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> Span:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        return span

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr with a span-recording wrapper until `restore`.

        `before(span, args, kwargs)` runs just after the span opens and
        `after(span, args, kwargs, result)` just after it closes; both may
        store values in `span.data`.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.begin(name)
            span = tracer.spans[index]
            if before is not None:
                before(span, args, kwargs)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str) -> None:
        """Replace owner.attr with a wrapper that only bumps counts[name]."""
        original = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original))
        setattr(owner, attr, counted)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str, header: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                handle.write(json.dumps(
                    [span.name, span.start, span.end, span.parent, span.unit,
                     span.trial, span.data], separators=(",", ":")) + "\n")


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it its direct children cover."""
    children: list[list] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        inside = [(max(k.start, span.start), min(k.end, span.end)) for k in kids]
        out.append(span.duration - covered([iv for iv in inside if iv[1] > iv[0]]))
    return out


def has_ancestor(spans: list, index: int, name: str) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
