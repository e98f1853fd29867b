"""In-memory span and counter recorder for the traced benchmark run.

A :class:`Tracer` wraps functions where their callers look them up: every
attribute of the named modules that is bound to the original function object
is replaced by a wrapper, and put back afterwards.  Two kinds of wrapper exist:

* a *span* records name, parent span, start, end, thread and a few
  measured attributes per call;
* a *counted* function, for the hot scalar paths called ~10^4 times per pass,
  only bumps a per-thread call count.  When it belongs to a timing group,
  the outermost call of that group on a thread also adds its thread CPU time
  to the group's total and to the enclosing span's covered time.  CPU time,
  not wall time, so that calls made from a thread pool are not charged for
  waiting on the interpreter lock while another thread runs.

Self time of a span is its duration minus the part of its interval that its
child spans cover, minus the counted time recorded directly inside it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import threading
import time
from collections import Counter, defaultdict

_MARK = "__perfbench_original__"


class Span:
    """One recorded call.  ``parent`` is the enclosing span on its thread."""

    __slots__ = ("name", "parent", "start", "end", "thread", "attrs",
                 "counted_s")

    def __init__(self, name, parent, start, end=None, thread=0, attrs=None):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = end
        self.thread = thread
        self.attrs = attrs if attrs is not None else {}
        self.counted_s = 0.0

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


def self_times(spans) -> dict:
    """Map each span to its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never double-counts covered time.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = {}
    for span in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            lo, hi = max(child.start, span.start), min(child.end, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[span] = (span.end - span.start) - covered - span.counted_s
    return out


class _ThreadState:
    __slots__ = ("stack", "depth", "active", "counts", "cpu")

    def __init__(self):
        self.stack = []          # open spans, innermost last
        self.depth = 0           # nesting depth of timed counted calls
        self.active = set()      # outermost-only spans in progress
        self.counts = Counter()  # counted function name -> calls
        self.cpu = defaultdict(float)  # timing group -> CPU seconds


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[Span] = []
        self._local = threading.local()
        self._per_thread: list[tuple] = []  # (counts, cpu) of each thread
        self._lock = threading.Lock()

    # -- per-thread state -------------------------------------------------
    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            pass
        state = self._local.state = _ThreadState()
        with self._lock:
            self._per_thread.append((state.counts, state.cpu))
        return state

    @property
    def counts(self) -> Counter:
        """Calls of each counted function, summed over threads."""
        total = Counter()
        with self._lock:
            for counts, _ in self._per_thread:
                total.update(counts)
        return total

    @property
    def counted_s(self) -> dict:
        """CPU seconds of outermost counted calls per group, over threads.

        The key ``None`` holds the part spent outside any span, such as
        calls made from a thread pool's workers.
        """
        total = defaultdict(float)
        with self._lock:
            for _, cpu in self._per_thread:
                for key, value in cpu.items():
                    total[key] += value
        return total

    # -- wrappers ---------------------------------------------------------
    def span_wrapper(self, name, fn, measure=None, outermost_only=False):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``measure(args, kwargs, result)`` returns attributes to attach.
        With ``outermost_only`` a recursive call inside an open span of the
        same name runs unrecorded.
        """
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            if outermost_only:
                if name in state.active:
                    return fn(*args, **kwargs)
                state.active.add(name)
            stack = state.stack
            span = Span(name, stack[-1] if stack else None, clock(),
                        thread=threading.get_ident())
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if outermost_only:
                    state.active.discard(name)
                self.spans.append(span)
            if measure is not None:
                span.attrs.update(measure(args, kwargs, result))
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def counted_wrapper(self, name, fn, group=None):
        """Wrap ``fn`` to count calls; time outermost calls into ``group``."""
        cpu = self.cpu_clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            state.counts[name] += 1
            if group is None:
                return fn(*args, **kwargs)
            if state.depth:
                state.depth += 1
                try:
                    return fn(*args, **kwargs)
                finally:
                    state.depth -= 1
            state.depth = 1
            start = cpu()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = cpu() - start
                state.depth = 0
                state.cpu[group] += spent
                if state.stack:
                    state.stack[-1].counted_s += spent
                else:
                    state.cpu[None] += spent

        setattr(wrapper, _MARK, fn)
        return wrapper

    @contextlib.contextmanager
    def installed(self, targets, package: str):
        """Within the block, each target replaces the original wherever a
        ``package`` module binds it; the originals come back on exit.

        ``targets`` maps ``id(original)`` to the wrapper made for it.
        """
        patched = []
        try:
            for key, mod in list(sys.modules.items()):
                if mod is None or not (key == package
                                       or key.startswith(package + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    wrapper = targets.get(id(value))
                    if wrapper is not None and getattr(wrapper, _MARK) is value:
                        patched.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
            yield self
        finally:
            for mod, attr, value in reversed(patched):
                setattr(mod, attr, value)


def is_wrapper(obj) -> bool:
    """True when ``obj`` is a wrapper made by a Tracer."""
    return hasattr(obj, _MARK) and callable(obj)
