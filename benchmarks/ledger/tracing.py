"""Tracing for the ledger's traced passes; nothing under ``src/`` changes.

Three instruments, each used on its own pass of a workload's body so the
timed repeats run with tracing off:

* :class:`Sampler` — an ``ITIMER_PROF`` handler that walks ``f_back`` to the
  innermost ``repro/<layer>/`` frame and charges the time since the last
  sample to that layer (``self_s`` / ``self_share`` at a few-percent cost);
* :func:`profile_calls` — a ``cProfile`` pass for exact, repeatable call
  counts per layer and the inclusive time of entry points that callers
  import by name (which a wrapper on the defining module cannot reach);
* :class:`Spans` — boundary spans around the calls into each layer's public
  methods, installed by wrappers for the traced passes and restored after.
"""

from __future__ import annotations

import cProfile
import functools
import signal
import time
from collections import Counter
from typing import Callable, Optional

from metrics import layer_of


class Sampler:
    """Bucket host time by layer while the ``with`` block runs."""

    def __init__(self, interval_s: float = 0.002):
        self.interval_s = interval_s
        self.self_s: Counter = Counter()
        self.samples = 0
        self._layer_of_file: dict = {}

    def _on_sample(self, _signum, frame) -> None:
        now = time.perf_counter()
        layer = "other"
        cache = self._layer_of_file
        while frame is not None:
            filename = frame.f_code.co_filename
            found = cache.get(filename, cache)
            if found is cache:
                found = cache[filename] = layer_of(filename)
            if found is not None:
                layer = found
                break
            frame = frame.f_back
        self.self_s[layer] += now - self._last
        self._last = now
        self.samples += 1

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_sample)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def profile_calls(body: Callable[[], object], entry_points: dict) -> tuple:
    """Run ``body`` under cProfile.

    Returns ``(body's value, calls per layer, entry points)``.
    ``entry_points`` maps a metric name to a function; each comes back as
    its exact call count and inclusive seconds.  Builtins are left out:
    they belong to no layer and profiling them doubles the cost of the pass.
    """
    profiler = cProfile.Profile(builtins=False, subcalls=False)
    profiler.enable()
    try:
        value = body()
    finally:
        profiler.disable()
    by_code = {fn.__code__: name for name, fn in entry_points.items()}
    calls: Counter = Counter()
    entries = {name: {"calls": 0, "s": 0.0} for name in entry_points}
    for entry in profiler.getstats():
        code = entry.code
        if isinstance(code, str):
            continue
        layer = layer_of(code.co_filename)
        if layer is not None:
            calls[layer] += entry.callcount
        if code in by_code:
            entries[by_code[code]] = {"calls": entry.callcount, "s": entry.totaltime}
    return value, dict(calls), entries


class Spans:
    """Boundary spans: name, start, end, parent span, and the cell's id.

    Spans stay in memory and are written out when the run ends.
    """

    def __init__(self):
        self.spans: list[dict] = []
        self.cell: Optional[str] = None
        self.phase: Optional[str] = None
        self._open: list[int] = []
        self._originals: list[tuple] = []

    def wrap(self, owner, attr: str, name: str,
             counts: Optional[Callable[[tuple, object], dict]] = None) -> None:
        """Record a span named ``name`` around every ``owner.attr`` call.

        ``owner`` is a module or a class; on a class the wrapper goes on
        the class in the MRO that defines ``attr``, once.  ``counts`` reads
        exact counters off the call's arguments and result once it returns.
        """
        if isinstance(owner, type):
            owner = next(k for k in owner.__mro__ if attr in vars(k))
        if any(o is owner and a == attr for o, a, _f in self._originals):
            return
        original = vars(owner)[attr]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = {
                "id": len(self.spans), "name": name, "cell": self.cell,
                "phase": self.phase,
                "parent": self._open[-1] if self._open else None,
                "start": time.perf_counter(), "end": None,
            }
            self.spans.append(span)
            self._open.append(span["id"])
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span.update(counts(args, result))
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back; the originals are untouched."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def wrapped(self) -> list[tuple]:
        """``(owner, attr, original)`` for every wrapper still installed."""
        return list(self._originals)
