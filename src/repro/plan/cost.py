"""Online per-(feature-bucket, method) cost estimates.

The model keeps exponentially-weighted running means of observed query
cost at three resolutions, coarse to fine:

1. **global** per ``(regime, method)`` — seeded by the calibration
   pass, always available after it;
2. **alpha-marginal** per ``(alpha_bucket, regime, method)`` — the dominant
   crossover axis of the paper's evaluation (Figures 7 and 9), so a
   handful of observations already separate social-heavy from
   spatial-heavy regimes;
3. **full bucket** per ``(bucket, method)`` — specializes as real
   traffic repeats a regime (Zipf workloads concentrate mass on few
   buckets, so the fine level converges quickly exactly where it
   matters).

The *regime* is the part of the bucket that changes what a method
**is**, not how long it takes: ``social_hit`` (a cached column turns
every forward method into one dense scan) and the budget bucket (only
budgeted traffic may run the sketch).  Both fallback levels are keyed
on it, so an estimate never crosses regimes — a warm 0.6 ms
observation cannot price a method for a never-seen *cold* bucket.
In the warm regime every forward method *is* the same dense scan of
the cached column, so they share one cell there (:data:`COLUMN_SCAN`):
their estimates tie exactly and the planner's pick is the first
candidate, every time — pricing them apart only measured noise, and
each noise-driven switch of method turned a result-cache repeat into a
miss.

:meth:`CostModel.estimate` answers from the finest level that has data;
:meth:`CostModel.observe` updates all three.  All operations take the
model's lock, so engine worker pools can feed observations
concurrently.
"""

from __future__ import annotations

import threading

from repro.plan.features import FeatureBucket
from repro.plan.rules import METHOD_TABLE

#: floor applied to every observed cost.  Coarse clocks (Windows'
#: ~15 ms ``perf_counter`` granularity, patched timers in tests) can
#: report an elapsed time of exactly 0.0; folding that in verbatim
#: would drive a method's EWMA to a value no real observation can ever
#: beat, freezing ``min()`` on it forever.  One nanosecond is far below
#: any real query cost, so flooring never changes a meaningful ranking.
_MIN_COST = 1e-9


#: the arm every forward method is priced as while the query user's
#: column is cached (``social_hit``)
COLUMN_SCAN = "column-scan"


class _Ewma:
    """Exponentially-weighted mean with an observation count."""

    __slots__ = ("value", "count")

    def __init__(self) -> None:
        self.value = 0.0
        self.count = 0

    def update(self, x: float, decay: float) -> None:
        self.count += 1
        if self.count == 1:
            self.value = x
        else:
            self.value += decay * (x - self.value)


class CostModel:
    """Running cost estimates feeding the adaptive planner.

        >>> from repro.plan import CostModel
        >>> model = CostModel()
        >>> bucket = (1, 2, 3, 0)
        >>> model.observe(bucket, "sfa", 0.5)
        >>> model.observe(bucket, "spa", 0.1)
        >>> model.estimate(bucket, "spa") < model.estimate(bucket, "sfa")
        True
        >>> model.estimate((0, 0, 0, 0), "spa")  # falls back to coarser levels
        0.1
        >>> warm = (1, 2, 3, 0, 0, 0, 1)         # another regime: no estimate crosses
        >>> model.estimate(warm, "spa") is None
        True
        >>> model.estimate(bucket, "tsa") is None
        True

    Parameters
    ----------
    decay:
        EWMA step toward each new observation (``0 < decay <= 1``);
        higher values adapt faster to drifting workloads.
    """

    def __init__(self, decay: float = 0.25) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {decay}")
        self.decay = decay
        self._lock = threading.Lock()
        self._bucket: dict[tuple, _Ewma] = {}
        self._alpha: dict[tuple, _Ewma] = {}
        self._global: dict[tuple, _Ewma] = {}
        self._bucket_counts: dict[FeatureBucket, int] = {}

    @staticmethod
    def _keys(bucket: FeatureBucket, method: str) -> tuple[tuple, tuple, tuple]:
        """The ``(bucket, alpha-marginal, global)`` keys of one arm:
        the fallback levels carry the bucket's regime dimensions
        (budget bucket, ``social_hit``), and on a cached column the
        forward methods are one arm."""
        regime = tuple(bucket[5:7])
        spec = METHOD_TABLE.get(method)
        if regime[1:] == (1,) and spec is not None and spec.forward:
            method = COLUMN_SCAN
        return (bucket, method), (bucket[1], regime, method), (regime, method)

    def observe(self, bucket: FeatureBucket, method: str, cost: float) -> None:
        """Fold one measured query cost into all three levels.

        Costs are floored to :data:`_MIN_COST` so a zero-elapsed
        measurement cannot produce an unbeatable 0.0 estimate.
        """
        cost = max(float(cost), _MIN_COST)
        decay = self.decay
        keys = self._keys(bucket, method)
        with self._lock:
            for table, key in zip((self._bucket, self._alpha, self._global), keys):
                cell = table.get(key)
                if cell is None:
                    cell = table[key] = _Ewma()
                cell.update(cost, decay)
            self._bucket_counts[bucket] = self._bucket_counts.get(bucket, 0) + 1

    def estimate(self, bucket: FeatureBucket, method: str) -> float | None:
        """Best-resolution cost estimate, or ``None`` while the method
        is entirely unobserved (the planner then explores it first)."""
        bucket_key, alpha_key, global_key = self._keys(bucket, method)
        with self._lock:
            cell = (
                self._bucket.get(bucket_key)
                or self._alpha.get(alpha_key)
                or self._global.get(global_key)
            )
            return cell.value if cell is not None else None

    def observations(self, bucket: FeatureBucket) -> int:
        """Total observations recorded against ``bucket`` across all
        methods (drives the planner's decaying exploration rate)."""
        with self._lock:
            return self._bucket_counts.get(bucket, 0)

    def snapshot(self) -> dict:
        """A plain-dict view of every level (for logs and benchmarks).
        Fallback rows of the cold exact regime read ``method`` /
        ``a<alpha>:method``; any other regime is suffixed
        ``@<budget bucket>,<social_hit>``."""

        def label(regime: tuple, method: str) -> str:
            return method if not any(regime) else f"{method}@{','.join(map(str, regime))}"

        with self._lock:
            return {
                "global": {
                    label(r, m): (c.value, c.count)
                    for (r, m), c in sorted(self._global.items())
                },
                "alpha": {
                    f"a{a}:{label(r, m)}": (c.value, c.count)
                    for (a, r, m), c in sorted(self._alpha.items())
                },
                "buckets": {
                    f"{b}:{m}": (c.value, c.count)
                    for (b, m), c in sorted(self._bucket.items())
                },
            }
