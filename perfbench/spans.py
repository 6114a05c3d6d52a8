"""In-memory span recording around calls into the program's layers.

The benchmark measures each layer from outside: it wraps public
functions and methods of ``repro`` with thin timing shims, records one
span per call (name, start, end, parent) in a list, and folds the list
into per-layer busy and self times after the run.  Nothing is written
while the workload runs.

A layer's *self time* is its span's duration minus the time its child
spans cover.  Calls are single-threaded and properly nested, so the
children of one span never overlap and "covered" is their summed
duration.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    #: value the wrapper's ``count`` hook extracted from the call
    count: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; one per process, created by the worker."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        count: Callable[[tuple, dict, Any], float] | None = None,
        on_result: Callable[[tuple, dict, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """``fn`` with a span around every call.

        ``count(args, kwargs, result)`` stores a work count on the span
        (samples synthesised, episodes found, ...); ``on_result`` sees
        every result, for correctness checks that run after timing.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if count is not None:
                span.count = float(count(args, kwargs, result))
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # -- folding ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span, indexed like :attr:`spans`."""
        own = [s.duration for s in self.spans]
        for span in self.spans:
            if span.parent_id is not None:
                own[span.parent_id] -= span.duration
        return own

    def fold(self, *, within: Span | None = None) -> dict[str, dict[str, float]]:
        """Per-name ``calls``/``busy_s``/``self_s``/``count`` totals.

        ``within`` restricts the fold to the subtree under one span.
        """
        keep = self._subtree(within) if within is not None else None
        own = self.self_times()
        out: dict[str, dict[str, float]] = {}
        for span, self_s in zip(self.spans, own):
            if keep is not None and span.span_id not in keep:
                continue
            row = out.setdefault(
                span.name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "count": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += self_s
            row["count"] += span.count
        # busy time counts only the outermost span of each name, so a
        # recursive call (max_throughput inside the two-phase program)
        # is not counted twice
        for span in self.spans:
            if keep is not None and span.span_id not in keep:
                continue
            if not self._has_ancestor_named(span, span.name):
                out[span.name]["busy_s"] += span.duration
        return out

    def _subtree(self, root: Span) -> set[int]:
        keep = {root.span_id}
        for span in self.spans[root.span_id + 1 :]:
            if span.parent_id in keep:
                keep.add(span.span_id)
        return keep

    def _has_ancestor_named(self, span: Span, name: str) -> bool:
        parent = span.parent_id
        while parent is not None:
            ancestor = self.spans[parent]
            if ancestor.name == name:
                return True
            parent = ancestor.parent_id
        return False

    def durations(self, name: str) -> list[float]:
        """Durations of the outermost spans called ``name``, in call order."""
        return [
            s.duration
            for s in self.spans
            if s.name == name and not self._has_ancestor_named(s, name)
        ]


def patch_function(
    recorder: Recorder,
    module: Any,
    attr: str,
    name: str,
    **hooks: Any,
) -> None:
    """Wrap ``module.attr`` and every loaded ``repro`` alias of it.

    Callers that did ``from module import attr`` hold their own
    reference, so each loaded ``repro.*`` module whose global is the
    same object is repointed at the wrapper too.
    """
    original = getattr(module, attr)
    wrapper = recorder.wrap(name, original, **hooks)
    for mod in _repro_modules(extra=(module,)):
        if mod.__dict__.get(attr) is original:
            setattr(mod, attr, wrapper)


def patch_method(
    recorder: Recorder, cls: type, attr: str, name: str, **hooks: Any
) -> None:
    """Wrap one method on its class (every instance and caller sees it)."""
    setattr(cls, attr, recorder.wrap(name, cls.__dict__[attr], **hooks))


def _repro_modules(extra: Iterable[Any] = ()) -> list[Any]:
    mods = [
        m
        for key, m in sorted(sys.modules.items())
        if m is not None and (key == "repro" or key.startswith("repro."))
    ]
    return mods + [m for m in extra if m not in mods]
