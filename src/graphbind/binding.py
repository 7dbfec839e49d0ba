"""Binding graphs, wing graphs, and the derived relabelings of their stable graphs.

A binding graph attaches one degree-2 vertex to every pair of basic
vertices, so any local difference between basic vertices is broadcast
through a dedicated channel during refinement.  The derived graphs keep
decreasing amounts of the stable labeling (vertices and binding edges; then
only binding vertices plus a uniform binding-edge label) while provably
stabilizing back to the same partition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    BLANK,
    GraphError,
    LabeledGraph,
    Partition,
    _single_valued,
    dense_labels,
    is_connected,
    is_simple,
    refine_colours,
)


@dataclass(frozen=True)
class BindingGraph:
    """A binding graph over `basic_n` basic vertices.

    Vertices [0..basic_n) are basic; binding vertex basic_n + k binds the
    k-th unordered basic pair in lexicographic order, k = `pair_rank` of the
    pair, and nothing else.
    """

    graph: LabeledGraph
    basic_n: int

    def __post_init__(self) -> None:
        n = self.basic_n
        n1 = n * (n + 1) // 2
        if n < 1 or self.graph.n != n1:
            raise GraphError(f"binding graph of {n} basic vertices has order {n1}")
        # Row k of `edges` is binding vertex n + k; its pair is (u[k], v[k]).
        edges = self.graph.labels[n:] != BLANK
        u, v = np.triu_indices(n, 1)
        k = np.arange(n1 - n)
        bound = edges[k, u] & edges[k, v]
        edges[k, u] = edges[k, v] = False
        bound &= ~edges.any(axis=1)
        if not bound.all():
            i = int(np.argmin(bound))  # the first failing binding vertex
            raise GraphError(f"binding vertex {n + i} must be adjacent to exactly {{{u[i]},{v[i]}}}")

    @property
    def n1(self) -> int:
        return self.graph.n

    def binding_vertex(self, u: int, v: int) -> int:
        if u == v:
            raise GraphError("a pair consists of two distinct basic vertices")
        return self.basic_n + pair_rank(min(u, v), max(u, v), self.basic_n)

    def lift(self, pi: np.ndarray) -> np.ndarray:
        """The vertex permutation of the binding graph that a permutation `pi`
        of the basic vertices induces: basic v to pi[v], and the binder of
        {u, v} to the binder of {pi[u], pi[v]}, numbered by `pair_rank`.  It
        preserves the binding graph iff `pi` preserves the basic graph."""
        n = self.basic_n
        u, v = np.triu_indices(n, 1)
        u, v = pi[u], pi[v]
        return np.concatenate((pi, n + _pair_ranks(np.minimum(u, v), np.maximum(u, v), n)))


def _pair_ranks(u, v, n: int):
    """`pair_rank` unchecked, elementwise over arrays too."""
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def pair_rank(u: int, v: int, n: int) -> int:
    """Lexicographic rank of the pair (u, v), u < v, among all pairs of [0..n)."""
    if not 0 <= u < v < n:
        raise GraphError("need 0 <= u < v < n")
    return _pair_ranks(u, v, n)


def _normalized_simple(a: LabeledGraph) -> np.ndarray:
    if not is_simple(a):
        raise GraphError("input must be a simple graph (blank diagonal, one edge label)")
    if not is_connected(a):
        raise GraphError("input must be connected")
    return (a.labels != BLANK).astype(np.int64)


def _bind(basic: np.ndarray) -> BindingGraph:
    """Binding graph over the 0/1 adjacency `basic` of the basic vertices."""
    n = basic.shape[0]
    n1 = n * (n + 1) // 2
    out = np.zeros((n1, n1), dtype=np.int64)
    out[:n, :n] = basic
    u, v = np.triu_indices(n, 1)  # row-major, the lexicographic order of `pair_rank`
    p = np.arange(n, n1)
    out[u, p] = out[p, u] = out[v, p] = out[p, v] = 1
    return BindingGraph(graph=LabeledGraph(out), basic_n=n)


def binding_graph(a: LabeledGraph) -> BindingGraph:
    """Attach one degree-2 binding vertex to every pair of basic vertices.

    Binding edges carry the same label as the basic edges, so the result is
    again a simple graph.
    """
    if a.n <= 2:
        raise GraphError("binding graphs need more than two basic vertices")
    return _bind(_normalized_simple(a))


def plain_binding_graph(n: int) -> BindingGraph:
    """Binding graph over an edgeless basic graph of order n."""
    if n < 2:
        raise GraphError("a plain binding graph needs at least two basic vertices")
    return _bind(np.zeros((n, n), dtype=np.int64))


def wing_graph(a1: LabeledGraph, a2: LabeledGraph) -> LabeledGraph:
    """Disjoint copies of two order-n graphs plus an apex adjacent to all."""
    if a1.n != a2.n:
        raise GraphError(f"orders differ: {a1.n} != {a2.n}")
    n = a1.n
    adj1 = _normalized_simple(a1)
    adj2 = _normalized_simple(a2)
    out = np.zeros((2 * n + 1, 2 * n + 1), dtype=np.int64)
    out[:n, :n] = adj1
    out[n : 2 * n, n : 2 * n] = adj2
    out[2 * n, : 2 * n] = 1
    out[: 2 * n, 2 * n] = 1
    return LabeledGraph(out)


def build_psi(b: BindingGraph, bhat: LabeledGraph) -> LabeledGraph:
    """Keep the stable labels on vertices and unblank edges of b, blank the rest."""
    if bhat.n != b.n1:
        raise GraphError("stable graph order does not match the binding graph")
    blank_off_diag = (b.graph.labels == BLANK) & ~np.eye(b.n1, dtype=bool)
    return LabeledGraph(np.where(blank_off_diag, BLANK, bhat.labels))


def build_phi(b: BindingGraph, bhat: LabeledGraph) -> LabeledGraph:
    """Like build_psi, but additionally blank all basic-basic edges."""
    psi = build_psi(b, bhat).labels.copy()
    n = b.basic_n
    basic_off_diag = np.zeros_like(psi, dtype=bool)
    basic_off_diag[:n, :n] = ~np.eye(n, dtype=bool)
    return LabeledGraph(np.where(basic_off_diag, BLANK, psi))


def build_theta(phi: LabeledGraph, b: BindingGraph) -> LabeledGraph:
    """Keep only the binding-vertex labels of phi; all binding edges get one
    fresh common label; everything else (basic vertices included) is blank."""
    if phi.n != b.n1:
        raise GraphError("phi order does not match the binding graph")
    n = b.basic_n
    fresh = int(phi.labels.max()) + 1
    out = np.zeros((b.n1, b.n1), dtype=np.int64)
    bound = np.arange(n, b.n1)
    out[bound, bound] = phi.labels[bound, bound]
    binding_edges = (b.graph.labels != BLANK) & ~np.eye(b.n1, dtype=bool)
    binding_edges[:n, :n] = False
    out[binding_edges] = fresh
    return LabeledGraph(out)


@dataclass(frozen=True)
class BvLabelingReport:
    """Outcome of the regularity check of a binding-vertex labeling."""

    stable: bool
    basic_partition: Partition
    binding_partition: Partition
    degree_table: dict[tuple[int, int], int | None]


def check_stable_bv_labeling(pi: dict[int, int], n: int) -> BvLabelingReport:
    """Check whether a binding-vertex labeling of the plain binding graph is stable.

    The labeling induces a partition of basic vertices by labeling type (the
    multiset of labels on a vertex's binding vertices) and of binding
    vertices by label.  It is stable iff every binding cell has a constant
    number of neighbors in every basic cell.  Labels are int64 and must
    avoid the blank and the binding-edge label (0 and 1).

    One `refine_colours` round from one colour, on the n x n matrix of the
    labels of the basic pairs' binding vertices, gives the types.  A further
    round on the plain binding graph would key a basic vertex by its type
    alone, and a binding vertex by its label and its ends' types, so the
    labeling is stable iff each label binds one unordered pair of types.
    """
    if n < 2:
        raise GraphError("a plain binding graph needs at least two basic vertices")
    n1 = n * (n + 1) // 2
    if set(pi) != set(range(n, n1)):
        raise GraphError("labeling must cover exactly the binding vertices")
    if any(label in (0, 1) or not -(2**63) <= label < 2**63 for label in pi.values()):
        raise GraphError("labels are int64, and 0 and 1 are reserved (blank and binding edges)")

    u, v = np.triu_indices(n, 1)  # the basic pairs in the order of their binding vertices
    labels = dense_labels(np.array([pi[p] for p in range(n, n1)], dtype=np.int64))
    pairs = np.zeros((n, n), dtype=np.int64)
    pairs[u, v] = pairs[v, u] = labels + 1  # above the diagonal's 0
    types = refine_colours(pairs, np.zeros(n, dtype=np.int64))
    basic_partition = Partition.from_colours(types)
    # Binding vertices are re-indexed from 0 (subtract n) so the partition
    # covers a contiguous range.
    binding_partition = Partition.from_colours(labels)
    # degrees[p - n, c]: how many of the two basic vertices bound by p lie in
    # basic cell c.
    ends = basic_partition.cell_of()[np.column_stack((u, v))]
    degrees = (ends[:, :, None] == np.arange(len(basic_partition.cells))).sum(axis=1)
    degree_table: dict[tuple[int, int], int | None] = {}
    for dk, dcell in enumerate(binding_partition.cells):
        block = degrees[list(dcell)]
        for ck, (lo, hi) in enumerate(zip(block.min(axis=0).tolist(), block.max(axis=0).tolist())):
            degree_table[(dk, ck)] = lo if lo == hi else None
    tu, tv = types[u], types[v]
    return BvLabelingReport(
        stable=_single_valued(labels, np.minimum(tu, tv) * n + np.maximum(tu, tv)),
        basic_partition=basic_partition,
        binding_partition=binding_partition,
        degree_table=degree_table,
    )
