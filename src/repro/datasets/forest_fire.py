"""Forest-Fire graph sampling (Leskovec & Faloutsos; paper ref [45]).

Figure 14(b) extracts structure-preserving subnetworks of different
sizes from Foursquare with Forest-Fire sampling.  The sampler "burns"
through the graph: from a random ambassador it recursively spreads to a
geometrically-distributed number of unburned neighbours, restarting from
fresh ambassadors until the target vertex count is reached.  The burned
vertex set induces the sample.
"""

from __future__ import annotations

from collections import deque

from repro.graph.socialgraph import SocialGraph
from repro.utils.rng import make_rng
from repro.utils.validation import check_probability


def forest_fire_sample(
    graph: SocialGraph,
    target_n: int,
    p_forward: float = 0.7,
    seed: int = 0,
) -> tuple[SocialGraph, dict[int, int]]:
    """Sample ``target_n`` vertices by forest fire; returns the induced
    subgraph (relabelled ``0..target_n-1``) and the old->new id map.

    ``p_forward`` is the forward-burning probability: at each burned
    vertex, ``Geometric(1 - p_forward) - 1`` unburned neighbours catch
    fire (mean ``p_forward / (1 - p_forward)``).
    """
    check_probability("p_forward", p_forward)
    if p_forward >= 1.0:
        raise ValueError("p_forward must be < 1 (burning must stop)")
    if not 1 <= target_n <= graph.n:
        raise ValueError(f"target_n must be in [1, {graph.n}], got {target_n}")
    rng = make_rng(seed)
    burned: set[int] = set()
    burned_order: list[int] = []
    indptr, nbrs = graph.indptr, graph.nbrs

    def burn(v: int) -> None:
        burned.add(v)
        burned_order.append(v)
        queue = deque([v])
        while queue and len(burned) < target_n:
            x = queue.popleft()
            # Geometric number of spreads with mean p/(1-p).
            spreads = 0
            while rng.random() < p_forward:
                spreads += 1
            if spreads == 0:
                continue
            unburned = [y for y in nbrs[indptr[x]:indptr[x + 1]].tolist() if y not in burned]
            if not unburned:
                continue
            rng.shuffle(unburned)
            for y in unburned[:spreads]:
                if len(burned) >= target_n:
                    break
                if y not in burned:
                    burned.add(y)
                    burned_order.append(y)
                    queue.append(y)

    while len(burned) < target_n:
        candidates = [v for v in range(graph.n) if v not in burned]
        ambassador = rng.choice(candidates)
        burn(ambassador)

    vertices = sorted(burned_order[:target_n])
    return graph.subgraph(vertices)
