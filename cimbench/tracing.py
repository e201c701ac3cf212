"""In-memory spans recorded around calls into cimsim's layers.

The wrappers live here, in the benchmark, and are installed on the module
attributes the program calls through (``cimsim.harness.sample_realization``
and friends), so the program itself runs unchanged.  A span is the tuple
(name, start, end, parent, run_id); ``parent`` is the index of the
enclosing span or -1, ``run_id`` the index of the unit of work.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    run_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; write them out once, at the end."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.run_id = 0
        self._stack: list[int] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.run_id)

    def wrap(self, name: "str | Callable[..., str]", fn: Callable) -> Callable:
        """``fn`` recording a span per call; ``name`` may depend on the args."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            return self.call(label, fn, *args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self, targets: list[tuple[object, str, "str | Callable"]]):
        """Replace ``module.attr`` by a recording wrapper for the block."""
        originals = [(module, attr, getattr(module, attr))
                     for module, attr, _ in targets]
        try:
            for (module, attr, name), (_, _, fn) in zip(targets, originals):
                setattr(module, attr, self.wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        spans = self.finished()
        child_time = [0.0] * len(self.spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.duration
        return [s.duration - child_time[i] for i, s in enumerate(self.spans)
                if s is not None]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for s in self.finished():
                f.write(json.dumps(s._asdict()) + "\n")


def timed_call(tracer: Tracer | None, name: str, fn: Callable, *args,
               **kwargs):
    """Call ``fn`` directly when untraced, inside a span when traced."""
    if tracer is None:
        return fn(*args, **kwargs)
    return tracer.call(name, fn, *args, **kwargs)
