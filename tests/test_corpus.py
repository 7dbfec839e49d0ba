"""Graph builders checked against the invariants that define them."""

from __future__ import annotations

from itertools import combinations

import numpy as np

from graphbind.core import adjacency, is_connected
from graphbind.corpus import cfi_graph, heawood_graph, rook_graph_4x4, shrikhande_graph
from graphbind.oracle import is_isomorphic_bruteforce

K4_EDGES = list(combinations(range(4), 2))


def distances(adj: np.ndarray, source: int, skip: tuple[int, int] | None = None) -> dict[int, int]:
    """Breadth-first distances from source, optionally without the edge `skip`."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        following = []
        for x in frontier:
            for y in np.flatnonzero(adj[x]).tolist():
                if y not in dist and {x, y} != set(skip or ()):
                    dist[y] = dist[x] + 1
                    following.append(y)
        frontier = following
    return dist


def girth(adj: np.ndarray) -> int:
    """Shortest cycle: an edge uv plus the shortest u-v path without it."""
    cycles = []
    for u, v in np.argwhere(np.triu(adj)).tolist():
        dist = distances(adj, u, skip=(u, v))
        if v in dist:
            cycles.append(dist[v] + 1)
    return min(cycles)


class TestHeawood:
    def test_cubic_bipartite_girth_six(self):
        g = heawood_graph()
        adj = adjacency(g)
        assert g.n == 14
        assert is_connected(g)
        assert adj.sum(axis=1).tolist() == [3] * 14
        side = {v: d % 2 for v, d in distances(adj, 0).items()}
        assert all(side[u] != side[v] for u, v in np.argwhere(adj).tolist())
        assert girth(adj) == 6


class TestCfi:
    def test_orders_and_degrees(self):
        # A vertex v of a cubic base graph gives 2**(3 - 1) = 4 vertices, each
        # adjacent to 2 of the 4 vertices of every base neighbour of v.
        heawood_edges = np.argwhere(np.triu(heawood_graph().labels)).tolist()
        for edges, order in ((K4_EDGES, 16), (heawood_edges, 56)):
            for twisted in (False, True):
                g = cfi_graph(edges, twisted)
                assert g.n == order
                assert adjacency(g).sum(axis=1).tolist() == [6] * order

    def test_k4_pair_is_rook_and_shrikhande(self):
        untwisted, twisted = cfi_graph(K4_EDGES, False), cfi_graph(K4_EDGES, True)
        assert is_isomorphic_bruteforce(untwisted, rook_graph_4x4()) is not None
        assert is_isomorphic_bruteforce(twisted, shrikhande_graph()) is not None
        assert is_isomorphic_bruteforce(untwisted, twisted) is None
