"""The SSRQ ranking function (paper Section 3.1).

Given a query user ``u_q`` and preference ``α ∈ [0, 1]``::

    f(u_q, u_i) = α · p(v_q, v_i)/P_max + (1 − α) · d(u_q, u_i)/D_max

Smaller is better.  ``p`` is weighted shortest-path distance in the
social graph, ``d`` Euclidean distance; both are normalised by the
maximum pairwise distance in their domain (the paper omits the
denominators "for simplicity" but uses them in the implementation, as
do we).  A normaliser of 0 (an edgeless graph's ``P_max``, ``D_max``
over fewer than two distinct located users) leaves its term unscaled,
so every score stays finite (:mod:`repro.utils.validation`).

Infinite distances — unreachable vertices, users without a known
location — are first-class citizens: a term with zero weight contributes
0 even when the distance is infinite, so ``α = 1`` ranks purely
socially and ``α = 0`` purely spatially without NaN surprises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.utils.validation import NORMALISER_MIN, check_alpha, check_normaliser

if TYPE_CHECKING:  # pragma: no cover
    from repro.graph.socialgraph import SocialGraph
    from repro.spatial.point import LocationTable


@dataclass(frozen=True)
class Normalization:
    """Per-dataset normalising constants ``P_max`` (social) and
    ``D_max`` (spatial), each 0 or in the input domain's normaliser
    range ``[2**-480, 2**520]`` (:mod:`repro.utils.validation`).

        >>> from repro import Normalization
        >>> norm = Normalization(p_max=4.0, d_max=1.5)
        >>> norm.p_max, norm.d_max
        (4.0, 1.5)
    """

    p_max: float
    d_max: float

    def __post_init__(self) -> None:
        check_normaliser("p_max", self.p_max)
        check_normaliser("d_max", self.d_max)

    @classmethod
    def estimate(
        cls, graph: "SocialGraph", locations: "LocationTable", seed: int = 0
    ) -> "Normalization":
        """Estimate both constants from the data.

        ``D_max`` is the diagonal of the location bounding box — an
        exact upper bound on any pairwise Euclidean distance, raised to
        ``NORMALISER_MIN`` if smaller but nonzero.  ``P_max`` is the
        double-sweep diameter estimate (see
        :mod:`repro.graph.diameter`); being a shared constant, a
        consistent estimate preserves all rankings.
        """
        from repro.graph.diameter import double_sweep_diameter

        d_max = 0.0
        if locations.n_located >= 2:
            box = locations.bbox()
            if box.width or box.height:
                d_max = max(box.diagonal, NORMALISER_MIN)
        p_max = double_sweep_diameter(graph, sweeps=2, seed=seed)
        return cls(p_max=p_max, d_max=d_max)


class RankingFunction:
    """``f`` for a fixed ``α`` and normalisation.

    The two weights are pre-divided by the normalisers (a normaliser of
    0 divides by 1), so scoring is a two-multiply operation in the hot
    loops.

        >>> from repro import Normalization, RankingFunction
        >>> rank = RankingFunction(0.5, Normalization(p_max=4.0, d_max=1.5))
        >>> rank.score(2.0, 0.75)      # 0.5*(2/4) + 0.5*(0.75/1.5)
        0.5
    """

    __slots__ = ("alpha", "normalization", "w_social", "w_spatial")

    def __init__(self, alpha: float, normalization: Normalization) -> None:
        self.alpha = check_alpha(alpha)
        self.normalization = normalization
        self.w_social = alpha / (normalization.p_max or 1.0)
        self.w_spatial = (1.0 - alpha) / (normalization.d_max or 1.0)

    def social_part(self, p: float) -> float:
        """Weighted, normalised social term (0 when ``α == 0``)."""
        w = self.w_social
        return w * p if w != 0.0 else 0.0

    def spatial_part(self, d: float) -> float:
        """Weighted, normalised spatial term (0 when ``α == 1``)."""
        w = self.w_spatial
        return w * d if w != 0.0 else 0.0

    def score(self, p: float, d: float) -> float:
        """``f`` value for raw distances ``p`` (social) and ``d``
        (spatial)."""
        ws = self.w_social
        wd = self.w_spatial
        s = ws * p if ws != 0.0 else 0.0
        t = wd * d if wd != 0.0 else 0.0
        return s + t

    @property
    def needs_social(self) -> bool:
        """Whether social distances influence the score at this ``α``."""
        return self.w_social != 0.0

    @property
    def needs_spatial(self) -> bool:
        return self.w_spatial != 0.0

    def __repr__(self) -> str:
        return f"RankingFunction(alpha={self.alpha}, norm={self.normalization})"
