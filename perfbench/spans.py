"""In-memory span recorder and the wrappers that feed it.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the span that was open when it started,
the operation it belongs to (``workload/rep/command``) and a few counts
taken from its arguments or result.  Spans stay in memory until the run
ends; :func:`self_times` derives each span's self time from the tree.

The wrappers are installed from the benchmark's own code, around the
public functions of each ``arflow`` module, and :func:`installed` puts
every original object back when it exits.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; the open-span stack gives each new span its parent."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = ""
        self._open: list[int] = []

    def begin(self, name: str, **attrs) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op, attrs))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def finish(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        if self._open and self._open[-1] == index:
            self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        index = self.begin(name, **attrs)
        try:
            yield self.spans[index]
        finally:
            self.finish(index)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach, span.start), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(span.seconds - covered)
    return result


def ancestors(spans: list[Span], index: int):
    """Names of the spans enclosing ``spans[index]``, innermost first."""
    parent = spans[index].parent
    while parent is not None:
        yield spans[parent].name
        parent = spans[parent].parent


@dataclass(frozen=True)
class Hook:
    """One wrapped attribute: ``owner.attr`` records spans named ``name``.

    ``describe(args, kwargs, result)`` returns counts to store on the span.
    """

    owner: object
    attr: str
    name: str
    describe: object = None


def _traced(tracer: Tracer, hook: Hook, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(hook.name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(index)
        if hook.describe is not None:
            tracer.spans[index].attrs.update(hook.describe(args, kwargs, result))
        return result
    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, hooks: list[Hook]):
    """Wrap every hooked attribute for the duration of the block."""
    saved = []
    try:
        for hook in hooks:
            original = hook.owner.__dict__[hook.attr]
            if isinstance(original, classmethod):
                wrapped = classmethod(_traced(tracer, hook, original.__func__))
            else:
                wrapped = _traced(tracer, hook, original)
            setattr(hook.owner, hook.attr, wrapped)
            saved.append((hook.owner, hook.attr, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
