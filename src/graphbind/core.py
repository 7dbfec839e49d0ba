"""Labeled complete graphs over integer label identifiers.

A graph of order n is a symmetric n x n matrix of non-negative integer
labels.  Label 0 is the reserved blank: it marks non-edges (and unlabeled
vertices) in user input.  Labels are opaque: the only meaningful operation
on them is equality, so any relabeling that preserves the equality pattern
of the matrix represents the same graph.  Refined graphs produced by the
substitution machinery are complete labeled graphs whose labels start at 1;
the blank survives only in user input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

import numpy as np

#: The reserved blank label; interning never assigns it.
BLANK = 0

Code = Hashable


class GraphError(ValueError):
    """Malformed graph data or an operation precondition violation."""


class SymmetryError(GraphError):
    """Input matrix is not symmetric under code equality."""


class OrderMismatchError(GraphError):
    """Two graphs that must share an order do not."""


def _as_label_matrix(labels: object, *, name: str = "labels") -> np.ndarray:
    arr = np.asarray(labels)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError(f"{name} must be a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise GraphError("a graph has at least one vertex")
    if not np.issubdtype(arr.dtype, np.integer):
        raise GraphError(f"{name} must be integers, got dtype {arr.dtype}")
    arr = arr.astype(np.int64, copy=True)
    if (arr < 0).any():
        raise GraphError("label identifiers are non-negative")
    arr.setflags(write=False)
    return arr


def distinct_values(arr: np.ndarray) -> np.ndarray:
    """The distinct values of `arr`, sorted.

    Counts by sorting: a value-only `np.unique` can take a hash path that is
    an order of magnitude slower on label matrices.
    """
    flat = np.sort(arr, axis=None)
    keep = np.ones(flat.size, dtype=bool)
    np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    return flat[keep]


def _single_valued(keys: np.ndarray, values: np.ndarray) -> bool:
    """True iff equal entries of `keys` always face equal entries of `values`."""
    top = int(values.max())
    if int(keys.max()) * (top + 1) + top > np.iinfo(np.int64).max:
        # Pair codes would overflow int64; renumbering keeps which entries are equal.
        keys, values = dense_labels(keys), dense_labels(values)
    stride = int(values.max()) + 1
    pair_keys = distinct_values(keys.astype(np.int64) * stride + values) // stride
    return not (pair_keys[1:] == pair_keys[:-1]).any()


@dataclass(frozen=True, eq=False)
class LabeledGraph:
    """Symmetric matrix of labels; the undirected labeled complete graph."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_label_matrix(self.labels)
        if not np.array_equal(arr, arr.T):
            raise SymmetryError("labeled graphs are symmetric; use DirectedLabeledGraph")
        object.__setattr__(self, "labels", arr)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LabeledGraph(n={self.n}, dim={dim(self)})"


@dataclass(frozen=True, eq=False)
class DirectedLabeledGraph:
    """Possibly asymmetric label matrix; must respect converse equivalence.

    Converse equivalence: labels[u][v] == labels[r][s] iff
    labels[v][u] == labels[s][r].  This is exactly the class of matrices the
    ordered-pair refinement produces, and it is what makes the diagonal and
    the vertex partition of such a matrix well defined.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        arr = _as_label_matrix(self.labels)
        # One direction suffices: "labels[u][v] == labels[r][s] implies
        # labels[v][u] == labels[s][r]" for all positions, applied to the
        # transposed positions (v,u) and (s,r), is the converse implication.
        if not _single_valued(arr.ravel(), arr.T.ravel()):
            raise GraphError("matrix does not respect converse equivalence")
        object.__setattr__(self, "labels", arr)

    @property
    def n(self) -> int:
        return self.labels.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DirectedLabeledGraph(n={self.n}, dim={dim(self)})"


AnyGraph = LabeledGraph | DirectedLabeledGraph


def dim(g: AnyGraph) -> int:
    """Number of distinct labels in the matrix."""
    return int(distinct_values(g.labels).size)


def is_imbedded(a: AnyGraph, b: AnyGraph) -> bool:
    """True iff equal entries of b force equal entries of a (a is coarser).

    Implemented by checking that every b-label faces a single a-label.
    """
    if a.n != b.n:
        raise OrderMismatchError(f"orders differ: {a.n} != {b.n}")
    return _single_valued(b.labels.ravel(), a.labels.ravel())


def is_equivalent(a: AnyGraph, b: AnyGraph) -> bool:
    """True iff a and b have the same equality pattern (mutual imbedding)."""
    return is_imbedded(a, b) and is_imbedded(b, a)


def same_matrix(a: AnyGraph, b: AnyGraph) -> bool:
    return a.n == b.n and bool(np.array_equal(a.labels, b.labels))


# ---------------------------------------------------------------------------
# Interning.  Both helpers number by first encounter: one for int arrays,
# one dict for opaque codes such as walk polynomials.

def first_encounter_ids(keys: Iterable[Code], ids: dict[Code, int]) -> list[int]:
    """Label each key with its id in `ids`, issuing 1, 2, ... to new keys.

    Ids follow first encounter and never include the blank 0.  Passing the
    same `ids` dict to several calls continues one numbering across them.
    """
    return [ids.setdefault(key, len(ids) + 1) for key in keys]


def first_encounter_relabel(arr: np.ndarray, *tied: np.ndarray) -> np.ndarray:
    """Map distinct keys (arr, *tied) to 1..d by first encounter in row-major order.

    Each array of `tied` has the size of `arr` and is read row-major; entry
    i's key is the tuple of the i-th entries.  One sort groups equal values
    of `arr`.  If every tied array is constant within each run of equal
    values, those runs are the key's classes and are numbered directly, in
    O(size) after the sort.  Otherwise each tied array, moved below its size
    first (`dense_labels`), is folded into pair codes with the numbering so
    far, which are numbered again; no code overflows int64.  First-encounter
    ids depend only on the partition the key induces, so both paths give the
    same ids.  Besides the inputs one pass holds three int64 arrays of their
    size at a time.
    """
    arr = np.asarray(arr)
    flat = arr.ravel()
    tied = tuple(np.asarray(t).ravel() for t in tied)
    if any(t.size != flat.size for t in tied):
        raise ValueError("every tied array must have the size of arr")
    order = np.argsort(flat)
    ordered = flat[order]
    starts = np.empty(flat.size, dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered
    # A tied array splits a run where it changes between two of its entries.
    collided = any(
        (np.not_equal(run[1:], run[:-1]) > starts[1:]).any() for run in (t[order] for t in tied)
    )
    # The first encounter of a value is the least position among its equals,
    # and its rank among first encounters is a count of them up to it.
    first = np.minimum.reduceat(order, np.flatnonzero(starts))
    is_first = np.zeros(flat.size, dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first, dtype=np.int64)[first]
    del is_first, first
    group = np.cumsum(starts, dtype=np.int64)
    group -= 1
    group[order] = rank[group]
    del order, starts, rank
    if collided:
        for t in tied:
            t = dense_labels(t)
            group *= int(t.max()) + 1
            group += t
            group = first_encounter_relabel(group)
    return group.reshape(arr.shape)


def dense_labels(arr: np.ndarray) -> np.ndarray:
    """The int64 values of `arr` moved into [0, arr.size), in the same order.

    Values already there pass unchanged; others are shifted to start at 0 if
    their range fits, or else replaced by the ranks of the distinct values.
    So a code a * (max + 1) + b of two such values sorts as the pair (a, b)
    and stays below size**2, which fits int64 for n x n matrices to n = 55,000.
    """
    lo, hi = int(arr.min()), int(arr.max())
    if 0 <= lo and hi < arr.size:
        return arr
    if hi - lo < arr.size:
        return arr - lo
    return np.searchsorted(distinct_values(arr), arr)


def refine_colours(labels: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """One exact round of colour refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): the ranks 0, 1, ... of the vertices' keys.

    Vertex v's key is colours[v], then the sorted multiset of
    (colours[w], labels[v, w]) over all w.  Ranks follow the keys, not first
    encounter, so they refine the colours, compare across graphs, and only
    permute when the vertices are renumbered.  Labels may be any int64:
    `dense_labels` renumbers them in order, which keeps every key's rank.
    Colours lie in [0, n), as ranks do.
    """
    labels = dense_labels(labels)
    keys = np.column_stack((colours, np.sort(colours * (int(labels.max()) + 1) + labels, axis=1)))
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    ranks = np.empty(colours.size, dtype=np.int64)
    ranks[order] = np.cumsum(np.append(True, (keys[1:] != keys[:-1]).any(axis=1))) - 1
    return ranks


def equitable_colours(labels: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """The coarsest equitable refinement of the ranks `colours`, as ranks, by
    rounds of `refine_colours` (the stable colour refinement when `colours`
    are the diagonal's ranks).  Ranks only split classes, so a round that
    keeps the number of classes split none."""
    while True:
        refined = refine_colours(labels, colours)
        if refined.max() == colours.max():
            return refined
        colours = refined


def equivalent_variable_substitution(codes: Sequence[Sequence[Code]] | np.ndarray) -> LabeledGraph:
    """Relabel a symmetric matrix of opaque codes into a LabeledGraph.

    Identical codes receive identical labels and distinct codes distinct
    labels, so the result is equivalent to the input.  Labels are assigned
    by first encounter in row-major order starting from 1.
    """
    if isinstance(codes, np.ndarray) and np.issubdtype(codes.dtype, np.integer):
        arr = codes.astype(np.int64, copy=False)
    else:
        rows = [list(row) for row in codes]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise GraphError("code matrix must be square")
        flat = first_encounter_ids((code for row in rows for code in row), {})
        arr = np.array(flat, dtype=np.int64).reshape(n, n)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise GraphError("code matrix must be square")
    if not np.array_equal(arr, arr.T):
        raise SymmetryError("code matrix must be symmetric")
    return LabeledGraph(first_encounter_relabel(arr))


# ---------------------------------------------------------------------------
# Small structural helpers shared across modules.

def is_simple(g: LabeledGraph) -> bool:
    """Blank diagonal and at most one edge label (dim <= 2)."""
    return bool((g.labels.diagonal() == BLANK).all()) and dim(g) <= 2


def adjacency(g: AnyGraph) -> np.ndarray:
    """0/1 adjacency of the non-blank, off-diagonal entries."""
    adj = (g.labels != BLANK).astype(np.int64)
    np.fill_diagonal(adj, 0)
    return adj


def is_connected(g: AnyGraph) -> bool:
    adj = adjacency(g)
    seen = np.zeros(g.n, dtype=bool)
    seen[0] = True
    frontier = [0]
    while frontier:
        nxt = adj[frontier].any(axis=0) & ~seen
        frontier = np.flatnonzero(nxt).tolist()
        seen |= nxt
    return bool(seen.all())


def permuted(g: LabeledGraph, sigma: Sequence[int]) -> LabeledGraph:
    """Graph h with h[sigma[i]][sigma[j]] == g[i][j]."""
    idx = np.asarray(sigma, dtype=np.int64)
    if sorted(idx.tolist()) != list(range(g.n)):
        raise GraphError("sigma is not a permutation of the vertices")
    out = np.empty_like(g.labels)
    out[np.ix_(idx, idx)] = g.labels
    return LabeledGraph(out)


def induced_subgraph(g: LabeledGraph, vertices: Sequence[int]) -> LabeledGraph:
    idx = np.asarray(vertices, dtype=np.int64)
    return LabeledGraph(g.labels[np.ix_(idx, idx)])


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint sorted vertex cells covering [0..n)."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.cells or any(not cell for cell in self.cells):
            raise GraphError("cells must be nonempty")
        members = [v for cell in self.cells for v in cell]
        if len(set(members)) != len(members):
            raise GraphError("cells must be pairwise disjoint")
        if set(members) != set(range(len(members))):
            raise GraphError("cells must cover [0..n) exactly")

    @classmethod
    def from_cells(cls, cells: Iterable[Iterable[int]]) -> "Partition":
        canon = sorted((tuple(sorted(cell)) for cell in cells), key=lambda c: c[0])
        return cls(tuple(canon))

    @classmethod
    def from_colours(cls, colours: Sequence[int] | np.ndarray) -> "Partition":
        """The cells of vertices of equal colour, ordered by smallest member."""
        cells: dict[int, list[int]] = {}
        for v, colour in enumerate(np.asarray(colours).tolist()):
            cells.setdefault(colour, []).append(v)
        # Each cell was added at its smallest member, so cells come in order.
        return cls(tuple(map(tuple, cells.values())))

    @property
    def n(self) -> int:
        return sum(len(cell) for cell in self.cells)

    def cell_of(self) -> np.ndarray:
        """Vector mapping each vertex to its cell index."""
        out = np.empty(self.n, dtype=np.int64)
        for k, cell in enumerate(self.cells):
            out[list(cell)] = k
        return out

    def refines(self, other: "Partition") -> bool:
        """True iff every cell of self lies inside a cell of other."""
        coarse = other.cell_of()
        return all(len({int(coarse[v]) for v in cell}) == 1 for cell in self.cells)
