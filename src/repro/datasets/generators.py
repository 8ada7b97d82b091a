"""Random social-graph generators (unweighted edge lists).

Real social networks are heavy-tailed; Barabási–Albert preferential
attachment is the standard generator matching that property and is the
default for the calibrated dataset stand-ins.  Watts–Strogatz and
Erdős–Rényi are provided for controlled experiments on degree
distribution effects (e.g. reproducing Figure 13's observation that
higher average degree shrinks hop radii).

All generators return deduplicated undirected edge tuples ``(u, v)``
with ``u < v`` and produce connected-ish graphs of the expected average
degree; determinism follows from the explicit seed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng


def barabasi_albert_edges(n: int, m_attach: int, seed: int = 0) -> list[tuple[int, int]]:
    """Preferential attachment: each new vertex attaches to ``m_attach``
    existing vertices chosen proportionally to degree (average degree
    approaches ``2·m_attach``).

    Uses the repeated-endpoints trick: sampling uniformly from the list
    of all edge endpoints *is* degree-proportional sampling.
    """
    return list(map(tuple, barabasi_albert_array(n, m_attach, seed).tolist()))


def barabasi_albert_array(n: int, m_attach: int, seed: int = 0) -> np.ndarray:
    """:func:`barabasi_albert_edges` as one ``(m, 2)`` int64 array (rows
    ``(u, v)``, ``u < v``, ascending) — the dataset builders' form.

        >>> from repro.datasets.generators import barabasi_albert_array
        >>> barabasi_albert_array(5, 1, seed=3).tolist()
        [[0, 1], [0, 2], [0, 3], [1, 4]]
    """
    if m_attach < 1:
        raise ValueError(f"m_attach must be >= 1, got {m_attach}")
    if n <= m_attach:
        raise ValueError(f"need n > m_attach, got n={n}, m_attach={m_attach}")
    rng = make_rng(seed)
    random, choice, randrange = rng.random, rng.choice, rng.randrange
    # Seed clique-ish core: connect the first m_attach+1 vertices in a ring.
    core = m_attach + 1
    # every edge as its two endpoints (smaller first), in creation order
    endpoints: list[int] = []
    ring: set[tuple[int, int]] = set()
    for v in range(core):
        u = (v + 1) % core
        a, b = (v, u) if v < u else (u, v)
        if (a, b) not in ring:
            ring.add((a, b))
            endpoints.append(a)
            endpoints.append(b)
    for v in range(core, n):
        # a new vertex's edges are new: no duplicate check needed
        targets: set[int] = set()
        while len(targets) < m_attach:
            # Mix uniform picks in occasionally so early hubs do not
            # absorb everything (standard BA still dominates).
            if endpoints and random() < 0.9:
                candidate = choice(endpoints)
            else:
                candidate = randrange(v)
            if candidate != v:
                targets.add(candidate)
        for u in targets:
            endpoints.append(u)  # u < v: only earlier vertices are picked
            endpoints.append(v)
    edges = np.array(endpoints, dtype=np.int64).reshape(-1, 2)
    return edges[np.argsort(edges[:, 0] * n + edges[:, 1])]


def watts_strogatz_edges(n: int, k: int, beta: float, seed: int = 0) -> list[tuple[int, int]]:
    """Small-world ring lattice with rewiring probability ``beta``.

    ``k`` (even) is the lattice degree; average degree stays ``k``.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be a positive even integer, got {k}")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must be in [0, 1], got {beta}")
    rng = make_rng(seed)
    edges: set[tuple[int, int]] = set()
    for v in range(n):
        for offset in range(1, k // 2 + 1):
            u = (v + offset) % n
            a, b = (v, u) if v < u else (u, v)
            edges.add((a, b))
    rewired: set[tuple[int, int]] = set()
    for a, b in sorted(edges):
        if rng.random() < beta:
            for _ in range(8):  # bounded retry against duplicates
                c = rng.randrange(n)
                if c == a:
                    continue
                x, y = (a, c) if a < c else (c, a)
                if (x, y) not in edges and (x, y) not in rewired:
                    rewired.add((x, y))
                    break
            else:
                rewired.add((a, b))
        else:
            rewired.add((a, b))
    return sorted(rewired)


def erdos_renyi_edges(n: int, avg_degree: float, seed: int = 0) -> list[tuple[int, int]]:
    """G(n, m) with ``m = n·avg_degree/2`` uniformly random edges."""
    if avg_degree <= 0:
        raise ValueError(f"avg_degree must be positive, got {avg_degree}")
    target = int(n * avg_degree / 2)
    max_edges = n * (n - 1) // 2
    if target > max_edges:
        raise ValueError(f"avg_degree {avg_degree} infeasible for n={n}")
    rng = make_rng(seed)
    edges: set[tuple[int, int]] = set()
    while len(edges) < target:
        a = rng.randrange(n)
        b = rng.randrange(n)
        if a == b:
            continue
        if a > b:
            a, b = b, a
        edges.add((a, b))
    return sorted(edges)
