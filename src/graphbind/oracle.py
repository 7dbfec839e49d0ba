"""Ground-truth isomorphism and automorphism orbits by backtracking search.

These oracles audit the refinement machinery, so they import only `core`.
The search takes its candidate images from the stable colour refinement
(`core.equitable_colours` from the ranks of the diagonal labels), the
classical invariant partition used to prune isomorphism search (McKay &
Piperno, "Practical graph isomorphism, II", 2014).  Every isomorphism maps
a vertex to one of the same colour, so restricting the candidates to equal
colours never drops a witness.
"""

from __future__ import annotations

import numpy as np

from .core import GraphError, LabeledGraph, Partition, distinct_values, equitable_colours

SEARCH_BOUND = 16


class OracleBoundError(GraphError):
    """Instance too large for exhaustive search."""


def _check_bound(n: int, max_n: int | None) -> None:
    bound = max_n if max_n is not None else SEARCH_BOUND
    if n > bound:
        raise OracleBoundError(f"order {n} exceeds the search bound {bound}")


def _colours(labels: np.ndarray) -> list[int]:
    """Stable colour refinement (`equitable_colours`) from the ranks of the diagonal labels."""
    diagonal = labels.diagonal()
    return equitable_colours(labels, np.searchsorted(distinct_values(diagonal), diagonal)).tolist()


def _search(
    a: np.ndarray,
    b: np.ndarray,
    order: list[int],
    candidates: list[list[int]],
) -> tuple[int, ...] | None:
    """First permutation sigma with a[sigma(i)][sigma(j)] == b[i][j].

    Vertices of b are assigned along `order`; candidate images are tried in
    increasing order, so with `order` ascending the first hit is the
    lexicographically least witness.
    """
    n = a.shape[0]
    sigma = [-1] * n
    used = [False] * n
    assigned: list[int] = []

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        i = order[pos]
        for w in candidates[i]:
            if used[w] or a[w, w] != b[i, i]:
                continue
            ok = True
            for j in assigned:
                if a[w, sigma[j]] != b[i, j] or a[sigma[j], w] != b[j, i]:
                    ok = False
                    break
            if not ok:
                continue
            sigma[i] = w
            used[w] = True
            assigned.append(i)
            if extend(pos + 1):
                return True
            assigned.pop()
            used[w] = False
            sigma[i] = -1
        return False

    return tuple(sigma) if extend(0) else None


def _same_colour(colours_a: list[int], colours_b: list[int]) -> list[list[int]]:
    """For each vertex of b, the vertices of a of its colour, in increasing order."""
    return [[w for w, c in enumerate(colours_a) if c == colour] for colour in colours_b]


def is_isomorphic_bruteforce(
    a: LabeledGraph,
    b: LabeledGraph,
    *,
    max_n: int | None = None,
) -> tuple[int, ...] | None:
    """Witness permutation with a[sigma(i)][sigma(j)] == b[i][j], or None.

    The returned witness is the lexicographically least one.  Any witness is
    re-verified against the definition before being returned.
    """
    if a.n != b.n:
        return None
    _check_bound(a.n, max_n)
    n = a.n
    # Refining the disjoint union numbers colours alike in both graphs.  The
    # cross entries get the label -1, which no graph uses.
    union = np.full((2 * n, 2 * n), -1, dtype=np.int64)
    union[:n, :n] = a.labels
    union[n:, n:] = b.labels
    colours = _colours(union)
    colours_a, colours_b = colours[:n], colours[n:]
    if sorted(colours_a) != sorted(colours_b):
        return None
    sigma = _search(a.labels, b.labels, list(range(n)), _same_colour(colours_a, colours_b))
    if sigma is not None:
        idx = np.asarray(sigma)
        if not np.array_equal(a.labels[np.ix_(idx, idx)], b.labels):
            raise AssertionError("search returned an invalid witness")
    return sigma


def _find_automorphism_mapping(g: LabeledGraph, u: int, v: int, candidates: list[list[int]]) -> tuple[int, ...] | None:
    order = [u] + [i for i in range(g.n) if i != u]
    pinned = [list(cand) for cand in candidates]
    pinned[u] = [v]
    return _search(g.labels, g.labels, order, pinned)


def automorphism_orbits(g: LabeledGraph, *, max_n: int | None = None) -> Partition:
    """Exact orbit partition of the automorphism group.

    Vertices u, v share an orbit iff some automorphism maps u to v; the
    search settles each undecided pair of the same colour, and every
    automorphism found merges all pairs it witnesses at once.
    """
    _check_bound(g.n, max_n)
    n = g.n
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    colours = _colours(g.labels)
    candidates = _same_colour(colours, colours)
    for u in range(n):
        for v in candidates[u]:
            if v <= u or find(u) == find(v):
                continue
            sigma = _find_automorphism_mapping(g, u, v, candidates)
            if sigma is not None:
                for i, img in enumerate(sigma):
                    union(i, img)
    return Partition.from_colours([find(v) for v in range(n)])
