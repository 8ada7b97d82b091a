"""Top-k stream combination: the probe-scheduling heuristic
(:class:`~repro.topk.quick_combine.QuickCombinePolicy`, Section 2.4's
Quick Combine) that ``tsa-qc`` plugs into the twofold search, with its
:class:`~repro.topk.quick_combine.RoundRobinPolicy` baseline.

TSA (Section 4.2) is itself a TA/NRA hybrid: sorted+random access in
the spatial domain, sorted-only in the social domain.
"""

from repro.topk.quick_combine import QuickCombinePolicy

__all__ = [
    "QuickCombinePolicy",
]
