"""Square-and-substitution, ordered-pair, and k-power refinement rounds.

Each round replaces every entry of the matrix with a code describing the
multiset of label pairs (or longer walk label multisets) that the symbolic
matrix product would place there, then performs an equivalent variable
substitution.  Working with multiset codes instead of numeric sums keeps
the rounds exact: sums of products of independent variables are equal iff
the underlying multisets match, which is precisely what the codes compare.
The numeric first-come-first-served variant that loses this exactness is
kept as `numeric_ff_stabilize` purely to demonstrate the failure mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    AnyGraph,
    DirectedLabeledGraph,
    GraphError,
    LabeledGraph,
    dim,
    first_encounter_ids,
    first_encounter_relabel,
    is_equivalent,
    is_simple,
)
from .descgraph import walk_powers

K_POWER_LIMIT = 4


class VertexRecognitionError(GraphError):
    """Refinement round applied to a graph whose vertex labels leak onto edges."""


def recognizes_vertices(g: AnyGraph) -> bool:
    """Diagonal label set disjoint from the off-diagonal label set."""
    diag = set(np.unique(g.labels.diagonal()).tolist())
    off = g.labels[~np.eye(g.n, dtype=bool)]
    return not (diag & set(np.unique(off).tolist())) if off.size else True


def seed_recognize_vertices(g: LabeledGraph) -> LabeledGraph:
    """Substitute fresh labels on the diagonal so the result recognizes vertices.

    Which diagonal entries were equal is preserved; off-diagonal labels are
    untouched.  Fresh labels start above every existing label, matching the
    usual seeding of a 0/1 graph whose diagonal becomes 2.
    """
    fresh_base = int(g.labels.max()) + 1
    diag = g.labels.diagonal()
    new_diag = first_encounter_relabel(diag.reshape(1, -1)).ravel() + fresh_base - 1
    out = g.labels.copy()
    np.fill_diagonal(out, new_diag)
    return LabeledGraph(out)


def _require_recognizing(g: AnyGraph) -> None:
    if not recognizes_vertices(g):
        raise VertexRecognitionError("input must recognize vertices; seed it first")


def sas_step(g: LabeledGraph) -> LabeledGraph:
    """One square-and-substitution round.

    Entry (u,v) of the symbolic square is the multiset of unordered label
    pairs {g[u][k], g[k][v]} over all k; equal multisets get equal fresh
    labels.  Only the upper triangle is computed (the multiset is symmetric
    in u,v); traversing it row-major visits codes in the same order as a
    full row-major traversal would first meet them.
    """
    _require_recognizing(g)
    m = g.labels
    n = g.n
    stride = int(m.max()) + 1
    ids: dict[bytes, int] = {}
    out = np.empty((n, n), dtype=np.int64)
    for u in range(n):
        row = m[u]
        rest = m[u:]
        pair = np.minimum(row, rest) * stride + np.maximum(row, rest)
        pair.sort(axis=1)
        out[u, u:] = out[u:, u] = first_encounter_ids((code.tobytes() for code in pair), ids)
    return LabeledGraph(out)


def wl_step(g: DirectedLabeledGraph) -> DirectedLabeledGraph:
    """One ordered-pair product round.

    Entry (u,v) is the multiset of ordered pairs (g[u][k], g[k][v]); the
    output may be asymmetric but stays converse equivalent.
    """
    _require_recognizing(g)
    m = g.labels
    n = g.n
    mt = np.ascontiguousarray(m.T)
    stride = int(m.max()) + 1
    ids: dict[bytes, int] = {}
    out = np.empty((n, n), dtype=np.int64)
    for u in range(n):
        pair = m[u] * stride + mt
        pair.sort(axis=1)
        out[u] = first_encounter_ids((code.tobytes() for code in pair), ids)
    return DirectedLabeledGraph(out)


def kpower_step(g: LabeledGraph, k: int) -> LabeledGraph:
    """One matrix-power round for walks of length k.

    Entry (u,v) is the multiset, over all length-k walks from u to v through
    arbitrary intermediate vertices, of the sorted multiset of the k labels
    along the walk.  The walks are expanded by the description-graph walk
    expander, so they share its term budget.  For k=2 this coincides with
    `sas_step`.
    """
    if k < 2:
        raise GraphError(f"k must be at least 2, got {k}")
    if k > K_POWER_LIMIT:
        raise GraphError(f"k-power rounds are limited to k <= {K_POWER_LIMIT} at desk scale")
    _require_recognizing(g)
    # Shift every label off the blank so that every entry is a walk variable;
    # only the length-k matrix is kept.
    for walks in walk_powers(g.labels + 1, k):
        pass
    codes = (tuple(sorted(entry.items())) for row in walks for entry in row)
    return LabeledGraph(np.array(first_encounter_ids(codes, {}), dtype=np.int64).reshape(g.n, g.n))


@dataclass
class StabilizationTrace:
    """Stable graph plus the per-round dimension growth that led to it."""

    stable: AnyGraph
    rounds: int
    dims: list[int] = field(default_factory=list)


def _stabilize(start: AnyGraph, step) -> StabilizationTrace:
    round_bound = start.n * (start.n + 1) // 2 + 1
    current = start
    dims = [dim(current)]
    for rounds in range(1, round_bound + 1):
        refined = step(current)
        dims.append(dim(refined))
        if dims[-1] == dims[-2]:
            # Dimension fixpoint implies equivalence; assert it once.
            if not is_equivalent(current, refined):
                raise AssertionError("dimension fixpoint without equivalence; refinement is broken")
            return StabilizationTrace(stable=refined, rounds=rounds, dims=dims)
        current = refined
    raise AssertionError("refinement exceeded its theoretical round bound")


def sas_stabilize(g: LabeledGraph) -> StabilizationTrace:
    """Seed, then square-and-substitute until the dimension stops growing."""
    return _stabilize(seed_recognize_vertices(g), sas_step)


def wl_stabilize(g: LabeledGraph) -> StabilizationTrace:
    """Seed, then apply ordered-pair rounds until the dimension stops growing."""
    seeded = DirectedLabeledGraph(seed_recognize_vertices(g).labels)
    return _stabilize(seeded, wl_step)


def kpower_stabilize(g: LabeledGraph, k: int) -> StabilizationTrace:
    """Seed, then apply k-power rounds until the dimension stops growing."""
    return _stabilize(seed_recognize_vertices(g), lambda x: kpower_step(x, k))


def numeric_ff_stabilize(g: LabeledGraph) -> StabilizationTrace:
    """The numeric pitfall procedure: integer squaring with ff renumbering.

    Squares the integer matrix, renumbers entries first-come-first-served,
    and stops when the renumbered square has the same pattern as its input.
    Because the renumbering feeds numbers (not independent variables) into
    the next product, numeric coincidences can merge classes that the exact
    rounds keep apart, yielding a pseudo-stable graph.  Exists only to
    demonstrate that failure mode.
    """
    if not is_simple(g) or not set(np.unique(g.labels).tolist()) <= {0, 1}:
        raise GraphError("the numeric procedure is defined for simple 0/1 graphs")
    current = g.labels.copy()
    np.fill_diagonal(current, 2)
    dims = [int(np.unique(current).size)]
    round_bound = g.n * (g.n + 1) // 2 + 5
    for rounds in range(1, round_bound + 1):
        squared = current @ current
        renumbered = first_encounter_relabel(squared)
        dims.append(int(np.unique(renumbered).size))
        if is_equivalent(LabeledGraph(renumbered), LabeledGraph(current)):
            return StabilizationTrace(stable=LabeledGraph(current), rounds=rounds, dims=dims)
        current = renumbered
    raise GraphError("numeric procedure did not reach a (pseudo-)stable pattern")
