"""Edge weighting: the paper's degree-product scheme (Section 6).

Real SN datasets carry no explicit tie strengths, so the paper derives
them from vertex degrees: *the more the friends of a user, the looser
the connection to them*, i.e. ::

    w(v_i, v_j) = deg(v_i) · deg(v_j) / max_degree²

Weights land in ``(0, 1]`` and strongly-connected low-degree pairs get
the smallest (strongest) weights.
"""

from __future__ import annotations

import numpy as np


def degree_product_column(n: int, us, vs) -> np.ndarray:
    """The weight of every edge ``(us[i], vs[i])``, as one float64
    column (degrees by one ``bincount``).

        >>> from repro.datasets.weights import degree_product_column
        >>> degree_product_column(4, [0, 0, 0], [1, 2, 3]).tolist()
        [0.3333333333333333, 0.3333333333333333, 0.3333333333333333]
    """
    us = np.asarray(us, dtype=np.int64)
    vs = np.asarray(vs, dtype=np.int64)
    if not len(us):
        return np.empty(0)
    degree = np.bincount(us, minlength=n) + np.bincount(vs, minlength=n)
    max_degree = int(degree.max())
    return (degree[us] * degree[vs]) / float(max_degree * max_degree)

