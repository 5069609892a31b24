"""Spans and counters recorded from outside the library.

A traced pass replaces selected public names of the `affsob` modules with
wrappers that time each call, in every module where a caller looks the
name up (a name imported with `from .seminorms import directional_profile`
is rebound in the importing module too).  Spans stay in memory as
(name, start, end, parent, operation, thread) and every wrapped name is
restored when the pass ends.

Work the suites hand to their thread pool has no open span in its own
thread; such spans take the main thread's innermost open span as parent,
so a parent's self time subtracts the union of its children's intervals
whichever thread ran them.
"""
from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, op, thread]
        self.counters: dict[str, float] = defaultdict(float)
        self.op = None
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> str | None:
        """Name of the innermost open span seen from this thread."""
        stack = self._stack() or self._main_stack
        return self.spans[stack[-1]][0] if stack else None

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent_stack = stack or self._main_stack
        parent = parent_stack[-1] if parent_stack else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.op, threading.get_ident()])
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    def wrap(self, func, name: str, count=None):
        """Wrapper that records a span and, if given, calls
        count(tracer, parent_name, args, kwargs, result) afterwards."""
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            parent_name = self.current()
            with self.span(name):
                result = func(*args, **kwargs)
            self.count(name + ".calls")
            if count is not None:
                count(self, parent_name, args, kwargs, result)
            return result
        return wrapper

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Rebind owner.attr to a traced wrapper; classmethods stay
        classmethods so the class keeps binding them."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(original.__func__, name, count))
        else:
            replacement = self.wrap(original, name, count)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_everywhere(self, modules, home, attr: str, name: str,
                         count=None) -> None:
        """Patch `home.attr` and every module that imported the same object."""
        target = getattr(home, attr)
        for module in modules:
            if getattr(module, attr, None) is target:
                self.patch(module, attr, name, count)

    def restore(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @property
    def patched(self) -> int:
        return len(self._restore)


def self_times(spans) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    of its interval covered by the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[name] += (end - start) - covered
    return dict(out)
