"""Host-speed calibration for the gated timings.

On a shared host the CPU itself can run the same Python code up to
about twice as slowly for seconds at a time; thread CPU time slows down
as much as elapsed time does, so neither can tell a slower program from
a slower host.  The benchmark therefore samples a fixed kernel of its
own (dict, tuple, string and attribute work, never the program's code)
every :data:`INTERVAL_S` while it measures, and scales each measured
time by ``REFERENCE_S`` over the kernel's mean time in the samples
taken within :data:`WINDOW_S` of it.  A gated time therefore reads as
the time the operation would take on a host where the kernel takes
``REFERENCE_S``: a slower program moves it, a slower host does not.

Each sample is the kernel's thread CPU time with the garbage collector
off, so neither a collection of the program's heap nor waiting for the
interpreter lock while another thread runs is counted in it.
"""

from __future__ import annotations

import gc
from bisect import bisect_left, bisect_right
from time import perf_counter, thread_time

#: The kernel's thread CPU time at the reference speed (close to its
#: time on an unloaded 2-CPU Xeon host).
REFERENCE_S = 125e-6
#: Least elapsed time between two samples.
INTERVAL_S = 0.01
#: Samples within this distance of a measured interval scale it.
WINDOW_S = 0.5


class _Item:
    __slots__ = ("key", "name")

    def __init__(self, key: int, name: str) -> None:
        self.key = key
        self.name = name


_ITEMS = [_Item((i * 7919) % 1009, f"item{i % 37}") for i in range(300)]


def kernel() -> int:
    """A fixed amount of interpreter work, independent of the program."""
    table: dict[tuple[int, str], int] = {}
    for item in _ITEMS:
        key = (item.key % 53, item.name)
        table[key] = table.get(key, 0) + item.key
    ordered = sorted(_ITEMS, key=lambda item: (item.name, item.key))
    text = ",".join(item.name for item in ordered[:100])
    return len(table) + len(text)


def sample() -> float:
    """Thread CPU time of one kernel run, with collection off, after an
    untimed run that brings the kernel's data back into the caches (so
    the program's own memory traffic does not count in the sample)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        kernel()
        began = thread_time()
        kernel()
        return thread_time() - began
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Kernel samples over a run, and the scale they give each interval.

    A disabled calibrator takes no samples and scales by 1, so traced
    runs (which report no gated timing) are not perturbed by it.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.at: list[float] = []
        self.costs: list[float] = []
        #: Elapsed time spent sampling, so callers can leave it out.
        self.spent_s = 0.0
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Take a sample if :data:`INTERVAL_S` has passed since the last
        one (or ``force``)."""
        if not self.enabled:
            return
        now = perf_counter()
        if not force and now - self._last < INTERVAL_S:
            return
        self.costs.append(sample())
        done = perf_counter()
        self.at.append((now + done) / 2)
        self.spent_s += done - now
        self._last = done

    def scale(self, start: float, end: float | None = None) -> float:
        """``REFERENCE_S`` over the mean sample within ``WINDOW_S`` of
        the interval ``[start, end]`` (or of the nearest sample)."""
        if not self.enabled:
            return 1.0
        if not self.costs:
            raise ValueError("no calibration samples were taken")
        end = start if end is None else end
        lo = bisect_left(self.at, start - WINDOW_S)
        hi = bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            nearest = min(
                (i for i in (lo - 1, lo) if 0 <= i < len(self.at)),
                key=lambda i: abs(self.at[i] - start),
            )
            lo, hi = nearest, nearest + 1
        window = self.costs[lo:hi]
        return REFERENCE_S * len(window) / sum(window)
