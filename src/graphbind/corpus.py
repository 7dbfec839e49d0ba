"""Graph families used by the tests, the validation suite, and the benchmarks."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .core import LabeledGraph, is_connected
from .oracle import is_isomorphic_bruteforce


def from_edges(n: int, edges) -> LabeledGraph:
    out = np.zeros((n, n), dtype=np.int64)
    for u, v in edges:
        out[u, v] = out[v, u] = 1
    return LabeledGraph(out)


def complete_graph(n: int) -> LabeledGraph:
    return from_edges(n, combinations(range(n), 2))


def path_graph(n: int) -> LabeledGraph:
    return from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> LabeledGraph:
    return from_edges(n, ((i, (i + 1) % n) for i in range(n)))


def petersen_graph() -> LabeledGraph:
    """Kneser graph on the 2-subsets of a 5-set; adjacency is disjointness."""
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, a in enumerate(pairs)
        for j, b in enumerate(pairs)
        if i < j and not set(a) & set(b)
    ]
    return from_edges(10, edges)


def rook_graph_4x4() -> LabeledGraph:
    """Vertices are the cells of a 4x4 board; adjacency is same row or column."""
    edges = []
    cells = [(r, c) for r in range(4) for c in range(4)]
    for i, (r1, c1) in enumerate(cells):
        for j, (r2, c2) in enumerate(cells):
            if i < j and (r1 == r2) != (c1 == c2):
                edges.append((i, j))
    return from_edges(16, edges)


def shrikhande_graph() -> LabeledGraph:
    """Cayley graph on Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}."""
    diffs = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    edges = []
    for i in range(16):
        for j in range(i + 1, 16):
            d = ((i // 4 - j // 4) % 4, (i % 4 - j % 4) % 4)
            if d in diffs:
                edges.append((i, j))
    return from_edges(16, edges)


def heawood_graph() -> LabeledGraph:
    """The (3,6)-cage: a 14-cycle with the chords of LCF notation [5, -5]^7."""
    edges = [(i, (i + 1) % 14) for i in range(14)]
    edges += [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return from_edges(14, edges)


def cfi_graph(base_edges, twisted: bool) -> LabeledGraph:
    """Compact Cai-Fürer-Immerman graph over the base graph with `base_edges`.

    Vertices are the pairs (v, S), S a set of edges at v with |S| even, or
    odd at vertex 0 when `twisted`, listed by v and then by S in order of
    size; (u, S) ~ (v, T) iff uv is an edge lying in both S and T or in
    neither.  Over a connected base graph the twisted and untwisted graphs
    are not isomorphic.
    """
    edges = [tuple(sorted(e)) for e in base_edges]
    edge_set = set(edges)
    n = 1 + max(v for e in edges for v in e)
    at = [[e for e in edges if v in e] for v in range(n)]
    vertices = [
        (v, frozenset(s))
        for v in range(n)
        for size in range(len(at[v]) + 1)
        if size % 2 == (twisted and v == 0)
        for s in combinations(at[v], size)
    ]
    adjacent = []
    for i, (u, s) in enumerate(vertices):
        for j in range(i + 1, len(vertices)):
            v, t = vertices[j]
            e = (min(u, v), max(u, v))
            if e in edge_set and (e in s) == (e in t):
                adjacent.append((i, j))
    return from_edges(len(vertices), adjacent)


NAMED_GRAPHS = {
    "petersen": petersen_graph,
    "shrikhande": shrikhande_graph,
    "rook4x4": rook_graph_4x4,
}

# Demo graphs used by the validation suite and the documentation:
# a 21-vertex graph on which the numeric first-come-first-served procedure
# reaches a faulty fixpoint, a 24-vertex graph whose binding graph refines
# the stable partition down to the automorphism partition, and the 8-vertex
# graph used to illustrate the derived relabelings.
DEMO_GRAPH6 = {
    "pitfall21": "T}qtCQGWYcGgONKXCdXEwF@cZJ?ebO\\oSMcs",
    "demo24": "W?eRBBIpXtEjiOh_ioIqDhYMiSqjUAsmARehcuTbXLKLbJG",
    "demo8": "G{O_ww",
}


def demo_graph(name: str) -> LabeledGraph:
    from .graphio import loads_graph

    return loads_graph(DEMO_GRAPH6[name], "graph6")


def random_graph(n: int, p: float = 0.5, seed: int | None = None) -> LabeledGraph:
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n)) < p
    adj = np.triu(upper, 1)
    return LabeledGraph((adj | adj.T).astype(np.int64))


def random_connected_graph(n: int, p: float = 0.5, seed: int | None = None) -> LabeledGraph:
    rng = np.random.default_rng(seed)
    for _ in range(1000):
        g = random_graph(n, p, int(rng.integers(2**32)))
        if is_connected(g):
            return g
    raise RuntimeError("could not sample a connected graph; raise p")


def random_permutation(n: int, seed: int | None = None) -> list[int]:
    rng = np.random.default_rng(seed)
    return rng.permutation(n).tolist()


def all_graphs(n: int):
    """Every labeled simple graph of order n (2^(n(n-1)/2) of them)."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield from_edges(n, (pairs[k] for k in range(len(pairs)) if mask >> k & 1))


def connected_graphs(n: int):
    for g in all_graphs(n):
        if is_connected(g):
            yield g


def nonisomorphic_connected_graphs(n: int) -> list[LabeledGraph]:
    """One representative per isomorphism class of connected order-n graphs."""
    reps: list[LabeledGraph] = []
    for g in connected_graphs(n):
        if not any(is_isomorphic_bruteforce(g, rep) is not None for rep in reps):
            reps.append(g)
    return reps


def count_4_cliques(g: LabeledGraph) -> int:
    """Independent invariant used to ground-truth strongly regular pairs."""
    adj = (g.labels != 0).astype(np.int64)
    np.fill_diagonal(adj, 0)
    count = 0
    n = g.n
    for quad in combinations(range(n), 4):
        if all(adj[u, v] for u, v in combinations(quad, 2)):
            count += 1
    return count
