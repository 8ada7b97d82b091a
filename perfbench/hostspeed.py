"""How fast the host was while an op ran, measured beside the op.

The reference box is a two-vCPU slice of a shared host.  Its speed is
not a constant: the same pure-Python loop takes 1.0x, ~1.5x or 2x its
best time depending on what the neighbours do, in phases that last from
tens of milliseconds to tens of minutes, with no steal time to be seen
and CPU time equal to wall time throughout.  Wall times taken there
compare two runs of one program only when both happened to meet the
same phases; ten runs of the same code spread by 30-50 %.

So the timed loops interleave a fixed *calibration slice* with the ops:
about a millisecond of the kind of work the searchers do, none of it
from ``src/``, so no change to the program can move it.  A slice has
two timed parts, because the host's phases slow two things by
different amounts:

- *compute*: a heap-and-dict Dijkstra over a pinned 150-vertex graph
  and numpy kernels over a 10 000-element column, all of it resident
  in the nearest caches;
- *memory*: a walk of dependent loads through small objects scattered
  over about 50 MB, each visited once in 670 slices, so that nearly every
  step misses the nearer caches.

Each part, over its pinned reference time, is a sample of the host's
time dilation for that kind of work.  An op's latency is divided by

    (mean compute dilation) ** 0.7  *  (mean memory dilation) ** 0.4

over the slices within ``WINDOW_S`` of it, which states it in
*reference-speed* seconds: what the op would have taken with the host
at the reference level.  All end-to-end timings are reported that way;
``host.dilation`` (a layer metric) is the run's mean factor, so the
clock time was the reported time multiplied by it.

The exponents are a fit and a compromise, not a theory.  Over a
quarter-hour log of host phases (856 one-second rounds of fixed sfa /
spa / tsa searches with slices between them, compute dilation 1.0-1.5,
memory dilation 1.0-1.7) the compute part alone under-read the
searchers' slowdown by 5-7 % above 1.15x (in another log, with phases
up to 2x: by 8 % at 1.3-1.6x and 15 % beyond) and left an
inter-quartile range of 8 % per round (5th to 95th percentile: 22 %);
the clock read 20 % per round and 83 %.  ``compute ** 0.5 * memory **
0.6`` fitted best (no trend across either dilation, 4.4 % per round,
16 %), and everything from there to ``0.7, 0.4`` nearly as well (trend
within 4 %, 4.9 %, 17 %).  The memory part has a price, though: what a
walk through memory takes depends on what the op before it left in the
caches (1.6x after a cold search against back to back, where the
compute part reads 1.04x), so a change to the program that pollutes
the caches less would shorten the slices after its ops and be
under-credited.  ``0.7, 0.4`` keeps that to 1.6 ** 0.4 = 1.21 at the
very most.  The result-cache hit path is lighter on memory than the
searches and is over-corrected by about 5 % at 1.3x.

What this removes is the host's phase, which is common to the slice and
the op.  What it leaves is noise shorter than an op, and whatever the
host slows that neither part samples.
"""

from __future__ import annotations

import heapq
import random
import time
from bisect import bisect_left, bisect_right

import numpy as np

_clock = time.perf_counter

#: seconds the two timed parts of a slice take at the reference level
#: (between ops, on the 2-vCPU reference box in its fastest phase;
#: pinned: only ratios to other runs matter, so a wrong pin rescales
#: every timing alike)
REFERENCE_COMPUTE_S = 0.00067
REFERENCE_MEMORY_S = 0.00040
COMPUTE_EXPONENT = 0.7
MEMORY_EXPONENT = 0.4
#: run a slice once this much time has passed since the last one
EVERY_S = 0.012
#: an op is normalised by the slices within this many seconds of it
WINDOW_S = 0.5
#: a part longer than this multiple of the run's median met a rare long
#: stall; it counts as this multiple, so that one stall does not rescale
#: every op within the window.  (Set high on purpose: a vCPU that is
#: time-shared stalls slices and ops alike, and clipping near the median
#: would under-read exactly that.)
STALL_CLIP = 20.0

_NODES = 150
_rng = random.Random("perfbench:hostspeed")
_GRAPH = [[(_rng.randrange(_NODES), _rng.random()) for _ in range(6)] for _ in range(_NODES)]
_XS = np.arange(10_000, dtype=np.float64)
_YS = _XS[::-1].copy()

_CELLS = 400_000
_STEPS = 600


def _traverse() -> None:
    dist: dict = {}
    heap = [(0.0, 0)]
    push, pop = heapq.heappush, heapq.heappop
    while heap:
        d, u = pop(heap)
        if u in dist:
            continue
        dist[u] = d
        for v, w in _GRAPH[u]:
            if v not in dist:
                push(heap, (d + w, v))


def _kernels() -> None:
    social = np.sqrt((_XS - 3.0) ** 2 + (_YS - 5.0) ** 2)
    score = 0.3 * social + 0.7 * _XS
    np.argpartition(score, 30)[:30]


def _resident_mb() -> float:
    try:
        with open("/proc/self/statm") as statm:
            return int(statm.read().split()[1]) * 4096 / 2**20
    except (OSError, ValueError, IndexError):
        return 0.0


class _Walk:
    """The memory part: ``_CELLS`` ``(successor, value)`` tuples linked
    into one pinned random cycle through all of them.  Every slice
    follows it for ``_STEPS`` steps from where the last one stopped, so
    a cell is read again only ``_CELLS / _STEPS`` slices (several
    seconds) later, after it left the nearer caches: each step is a
    load that depends on the one before and misses them.  (A walk that
    kept to a few hundred cells was tried first and tracked the
    searchers as well, but took 2.2x as long after a cold search as
    back to back: it read the program's cache footprint more than the
    host.  This one reads 1.6x.)"""

    def __init__(self) -> None:
        before = _resident_mb()
        self.cells = self._cycle()
        self.at = 0
        #: what this object added to the process's resident set
        self.resident_mb = max(0.0, _resident_mb() - before)

    @staticmethod
    def _cycle() -> list:
        order = np.random.RandomState(3).permutation(_CELLS)
        successor = np.empty(_CELLS, dtype=np.int64)
        successor[order] = np.roll(order, -1)
        return list(zip(successor.tolist(), map(float, range(_CELLS))))

    def steps(self) -> None:
        cells, at, total = self.cells, self.at, 0.0
        for _ in range(_STEPS):
            at, value = cells[at]
            total += value
        self.at = at


_walk: list = []        # built by the first HostSpeed, not by the import


def ballast_mb() -> float:
    """Resident memory the calibration data added to this process
    (``peak_rss_mb`` is reported without it)."""
    return _walk[0].resident_mb if _walk else 0.0


def _slice() -> "tuple[float, float, float]":
    """One calibration slice: ``(clock at its start, compute seconds,
    memory seconds)``.

    The op before a slice leaves the caches in a state that depends on
    the program (straight after a cold search the compute part took
    1.4-2x what it takes back to back), and a slice that read that
    state would let a change to the program move the yardstick.  So an
    untimed pass first brings the interpreter's own code and the
    compute part's data back into the caches, and the pass after it is
    the one that is timed (1.04x after a cold search)."""
    begin = _clock()
    _traverse()
    _kernels()
    start = _clock()
    _traverse()
    _kernels()
    _traverse()
    _kernels()
    middle = _clock()
    _walk[0].steps()
    return begin, middle - start, _clock() - middle


def _clipped_prefix(values: list) -> list:
    ordered = sorted(values)
    cap = STALL_CLIP * ordered[len(ordered) // 2]
    prefix = [0.0]
    for value in values:
        prefix.append(prefix[-1] + min(value, cap))
    return prefix


class HostSpeed:
    """Calibration slices taken during one timed phase."""

    def __init__(self) -> None:
        self.starts: list = []
        self.compute: list = []
        self.memory: list = []
        self._next = 0.0
        if not _walk:
            _walk.append(_Walk())
        _slice()                    # first-call costs

    def sample(self) -> None:
        """Run one slice now."""
        start, compute, memory = _slice()
        self.starts.append(start)
        self.compute.append(compute)
        self.memory.append(memory)
        self._next = _clock() + EVERY_S

    def burst(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def due(self, now: float) -> bool:
        return now >= self._next

    # -- reading -------------------------------------------------------

    def _prefixes(self) -> tuple:
        return _clipped_prefix(self.compute), _clipped_prefix(self.memory)

    @staticmethod
    def _dilation(prefixes: tuple, lo: int, hi: int) -> float:
        compute, memory = ((p[hi] - p[lo]) / (hi - lo) for p in prefixes)
        return (
            (compute / REFERENCE_COMPUTE_S) ** COMPUTE_EXPONENT
            * (memory / REFERENCE_MEMORY_S) ** MEMORY_EXPONENT
        )

    def dilations(self, times: list) -> list:
        """The host's time dilation around each of ``times`` (clock
        values), from the slices within ``WINDOW_S`` of it."""
        if not self.starts:
            return [1.0] * len(times)
        prefixes = self._prefixes()
        starts = self.starts
        out = []
        for t in times:
            lo = bisect_left(starts, t - WINDOW_S)
            hi = bisect_right(starts, t + WINDOW_S)
            if hi - lo < 3:         # sparse: widen to the nearest slices
                lo, hi = max(0, lo - 2), min(len(starts), hi + 2)
            out.append(self._dilation(prefixes, lo, hi))
        return out

    def mean_dilation(self) -> float:
        if not self.starts:
            return 1.0
        return self._dilation(self._prefixes(), 0, len(self.starts))


class Bracket:
    """Reference-speed seconds of a step that cannot be interleaved (an
    import, a build, one probe call): a burst of slices before and one
    after estimate the phase the step ran in.

        with Bracket() as step:
            build()
        step.seconds, step.raw_seconds
    """

    def __init__(self, slices: int = 10) -> None:
        self.slices = slices
        self.speed = HostSpeed()
        self.seconds = self.raw_seconds = 0.0

    def __enter__(self) -> "Bracket":
        self.speed.burst(self.slices)
        self._start = _clock()
        return self

    def __exit__(self, *exc) -> None:
        self.raw_seconds = _clock() - self._start
        self.speed.burst(self.slices)
        self.seconds = self.raw_seconds / self.speed.mean_dilation()


def bracketed(fn, slices: int = 10):
    """``(fn(), reference-speed seconds it took)``."""
    with Bracket(slices) as step:
        result = fn()
    return result, step.seconds
