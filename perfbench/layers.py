"""Per-layer host self time, timed from outside the program.

The tracer wraps each layer's public entry points on one device's
objects (instance attributes shadow the class methods, so every caller
that looks the method up at call time goes through the wrapper) and
keeps, per layer, the wall time spent inside its spans minus the time
spent in spans nested inside them.  Nothing in the program changes:
the wrappers are removed with :meth:`LayerTracer.restore`.
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, Iterator, List, Tuple

import repro.ftl.gcontrol as gcontrol

LAYERS = ("traces", "controller", "ftl.write", "ftl.read", "cmt", "gc", "flash", "metrics", "obs")

_CMT_OPS = ("touch", "insert", "evict", "mark_dirty", "mark_clean", "is_dirty", "drop")
_TIMEKEEPER_OPS = (
    "read_page", "program_page", "erase_block", "copy_back", "inter_plane_copy",
    "read_pages", "program_pages",
)
_ARRAY_OPS = (
    "allocate_block", "release_block", "program", "invalidate", "skip_page", "erase",
    "stage_copy_gen",
)
#: GC entry points: the shared victim picker is patched on its module;
#: these are each FTL's collect (page-mapped) or merge (FAST) entries.
_GC_ENTRIES = ("_collect", "_collect_emergency", "_close_sw", "_full_merge")

_UNSET = object()


class LayerTracer:
    """Accumulates self time and call counts per layer."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        # One child-time accumulator per open span.
        self._stack: List[float] = []
        self._undo: List[Tuple[object, str, object]] = []

    def timed(self, layer: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``."""
        clock = time.perf_counter
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed

        return span

    def iterate(self, requests: Iterable) -> Iterator:
        """``requests`` with every ``__next__`` in a ``traces`` span."""
        return _TimedIterator(self.timed("traces", iter(requests).__next__))

    def patch(self, obj: object, layer: str, names: Iterable[str]) -> None:
        for name in names:
            original = getattr(obj, name, None)
            if original is None:
                continue
            # Modules keep the original to put back; instances drop the
            # shadowing attribute so the class method shows through again.
            saved = original if isinstance(obj, type(gcontrol)) else vars(obj).get(name, _UNSET)
            setattr(obj, name, self.timed(layer, original))
            self._undo.append((obj, name, saved))

    def instrument(self, ssd) -> None:
        """Wrap every layer boundary of ``ssd`` (after set-up)."""
        ftl = ssd.ftl
        controller = ssd.controller
        self.patch(ssd.engine, "controller", ("run",))
        self.patch(controller.backend, "ftl.write", ("write_pages",))
        self.patch(controller.backend, "ftl.read", ("read_pages",))
        self.patch(ftl, "ftl.write", ("trim_pages",))
        if hasattr(ftl, "cmt"):
            self.patch(ftl.cmt, "cmt", _CMT_OPS)
        self.patch(gcontrol, "gc", ("select_victim",))
        self.patch(ftl, "gc", _GC_ENTRIES)
        self.patch(ftl.clock, "flash", _TIMEKEEPER_OPS)
        self.patch(ftl.array, "flash", _ARRAY_OPS)
        self.patch(controller.stats, "metrics", ("observe", "observe_error"))

    def restore(self) -> None:
        while self._undo:
            obj, name, saved = self._undo.pop()
            if saved is _UNSET:
                delattr(obj, name)
            else:
                setattr(obj, name, saved)


class _TimedIterator:
    def __init__(self, timed_next: Callable) -> None:
        self._next = timed_next

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        return self._next()
