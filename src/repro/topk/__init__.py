"""Top-k stream combination.

- :class:`~repro.topk.quick_combine.QuickCombinePolicy` — the
  probe-scheduling heuristic (Section 2.4's Quick Combine) that
  ``tsa-qc`` plugs into the twofold search, with its
  :class:`~repro.topk.quick_combine.RoundRobinPolicy` baseline;
- :func:`~repro.topk.merge.merge_topk` — exact-score stream
  combination (the scatter-gather combiner of the sharded engine);
- :class:`~repro.topk.merge.StreamingCombine` — its incremental form
  (fold streams as they complete, NRA-style strict-``>`` admission),
  driving the overlapped scatter-merge of the process pool.

TSA (Section 4.2) is itself a TA/NRA hybrid: sorted+random access in
the spatial domain, sorted-only in the social domain.
"""

from repro.topk.merge import StreamingCombine, merge_topk
from repro.topk.quick_combine import QuickCombinePolicy

__all__ = [
    "QuickCombinePolicy",
    "StreamingCombine",
    "merge_topk",
]
