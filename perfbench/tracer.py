"""Per-layer timing for the traced run, installed from outside ``src/``.

A :class:`Tracer` replaces public functions and methods of the layers
with timing wrappers (:meth:`Tracer.wrap`).  Each call records its
inclusive seconds under a span name.  Calls nested inside another timed
call on the same thread are still counted under their own name, but
only outermost calls add to :attr:`Tracer.top_level_seconds`, so
"workload time minus top-level time" is the time no layer claims.

Wrappers stay installed for the life of the process, which is why a
traced run measures its untraced reference pass first.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Iterator


class Tracer:
    """Inclusive seconds and call counts per span name, across threads."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, float] = defaultdict(float)
        self.top_level_seconds = 0.0
        self._depth = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        depth = getattr(self._depth, "value", 0)
        self._depth.value = depth + 1
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._depth.value = depth
            with self._lock:
                self.seconds[name] += elapsed
                self.calls[name] += 1
                if depth == 0:
                    self.top_level_seconds += elapsed

    def note_max(self, name: str, value: float) -> None:
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Time every call of ``owner.attribute`` under ``name``.

        ``owner`` is a module, a class (its methods, and classmethods
        called through the class) or a single instance.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attribute, timed)

    def dump(self) -> dict[str, Any]:
        return {
            "seconds": dict(self.seconds),
            "calls": dict(self.calls),
            "maxima": dict(self.maxima),
            "top_level_seconds": self.top_level_seconds,
        }
