"""Square-and-substitution, ordered-pair, and k-power refinement rounds.

Each round replaces every entry of the matrix with a code describing the
multiset of label pairs (or longer walk label multisets) that the symbolic
matrix product would place there, then performs an equivalent variable
substitution.  The graph's type chooses the product: a LabeledGraph is
squared over unordered label pairs (sas), a DirectedLabeledGraph multiplied
over ordered ones (wl).  `kpower_step` builds its walk codes explicitly.

The sas and wl rounds evaluate the symbolic product at random points of the
prime field GF(`PRIME`): each label is a variable, the square is one
float64 matrix product per point, and every entry gets `EVALUATIONS` values.
Equal multisets always evaluate equal, so evaluations can only merge
classes that the exact round keeps apart (Schwartz-Zippel bounds the chance
by 2/`PRIME` per point).  The reference rounds `sas_step` and `wl_step` are
exact: within each class of equal evaluations they compare the entries'
sorted pair-code rows, block by block (`_unequal_classes`), and split by
their rows the classes whose rows differ.  The rounds of `sas_stabilize`
and `wl_stabilize` key every entry by its evaluations and its previous
label, so they refine their input; unless evaluations collide, one sort of
them numbers the round.  Every round numbers its labels 1..d, so the loop
reads a round's dimension off its largest label, and a round whose entries
all differ is stable without another round.  Every other round that grows
the dimension is checked exactly, the diagonal entries' rows first, and a
stable iterate is returned at once.  Before comparing every class, a
best-effort individualization-refinement search (`_automorphisms`) looks
for vertex permutations that preserve every label, and verifies each one it
returns.  Such a permutation maps each entry's pair codes onto its image's
term by term, so an entry that one of them maps to a smaller position need
not be checked; at least one entry of every orbit still is.  Where a
collision hid a split, the reference round runs and refinement continues,
so the stable graph returned is always the exact one, numbered as the
reference rounds number it.

The numeric first-come-first-served variant that loses exactness -- it feeds
numbers, not independent variables, into the next product -- is kept as
`numeric_ff_stabilize` purely to demonstrate the failure mode.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    AnyGraph,
    DirectedLabeledGraph,
    GraphError,
    LabeledGraph,
    dense_labels,
    dim,
    distinct_values,
    first_encounter_ids,
    first_encounter_relabel,
    is_equivalent,
    is_simple,
)
from .descgraph import walk_powers

K_POWER_LIMIT = 4

#: The field of the evaluated rounds.  A product of two N x N matrices of
#: field elements is exact in float64 while N * PRIME**2 < 2**53, that is
#: for N up to `max_evaluated_order()`.
PRIME = 2**20 - 3
#: Independent random points per evaluated round.
EVALUATIONS = 3
#: Each stabilization draws its points from a generator with this seed, so
#: its output never depends on earlier calls.
EVALUATION_SEED = 20240901
#: Size of one block of pair-code rows in the exact fixpoint check.
CHECK_BLOCK_BYTES = 256 * 1024


def max_evaluated_order() -> int:
    """The largest order N with N * PRIME**2 < 2**53, 8192: evaluated rounds
    and the edgelist reader refuse larger orders."""
    return (2**53 - 1) // PRIME**2


class VertexRecognitionError(GraphError):
    """Refinement round applied to a graph whose vertex labels leak onto edges."""


def recognizes_vertices(g: AnyGraph) -> bool:
    """Diagonal label set disjoint from the off-diagonal label set."""
    diag = distinct_values(g.labels.diagonal())
    off = distinct_values(g.labels[~np.eye(g.n, dtype=bool)])
    both = np.sort(np.concatenate((diag, off)))
    return not (both[1:] == both[:-1]).any()


def seed_recognize_vertices(g: LabeledGraph) -> LabeledGraph:
    """Substitute fresh labels on the diagonal so the result recognizes vertices.

    Which diagonal entries were equal is preserved; off-diagonal labels are
    untouched.  Fresh labels start above every existing label, matching the
    usual seeding of a 0/1 graph whose diagonal becomes 2.
    """
    top = int(g.labels.max())
    diag = first_encounter_relabel(g.labels.diagonal())
    if top + int(diag.max()) > np.iinfo(np.int64).max:
        raise GraphError(
            f"label {top} is too large to seed: {int(diag.max())} fresh diagonal "
            "label(s) above it would pass the int64 limit 2**63 - 1"
        )
    new_diag = diag + top
    out = g.labels.copy()
    np.fill_diagonal(out, new_diag)
    return LabeledGraph(out)


def _require_recognizing(g: AnyGraph) -> None:
    if not recognizes_vertices(g):
        raise VertexRecognitionError("input must recognize vertices; seed it first")


def _require_evaluable(n: int) -> None:
    if n > max_evaluated_order():
        raise GraphError(
            f"order {n} is too large for exact evaluated rounds: need order * {PRIME}**2 < 2**53"
        )


def _pair_code_builder(g: AnyGraph) -> tuple[Callable, int]:
    """The builder of the sorted pair-code rows of entries of `g`, and its rows per block.

    The builder maps flat positions u * n + v to one row per entry (u,v): the
    codes a * stride + b of the label pairs (a, b) = (g[u][k], g[k][v]) over
    all k, sorted.  A LabeledGraph is squared, so its pairs are unordered and
    coded smaller label first; a DirectedLabeledGraph is multiplied in order.
    Codes are held in the narrowest unsigned type of 16 bits or more that
    fits them, which halves sorting time or better.  A block of rows takes
    about CHECK_BLOCK_BYTES.
    """
    m = dense_labels(g.labels)
    stride = int(m.max()) + 1
    # Not 8 bits: numpy sorts rows of uint8 about 20 times slower than uint16.
    m = m.astype(np.promote_types(np.uint16, np.min_scalar_type(stride * stride - 1)))
    symmetric = isinstance(g, LabeledGraph)
    columns = m if symmetric else np.ascontiguousarray(m.T)

    def rows(at: np.ndarray) -> np.ndarray:
        a, b = m[at // g.n], columns[at % g.n]
        if symmetric:
            a, b = np.minimum(a, b), np.maximum(a, b)
        codes = a * stride + b
        codes.sort(axis=1)
        return codes

    return rows, max(1, CHECK_BLOCK_BYTES // (m.itemsize * g.n))


def _unequal_classes(rows: Callable, block: int, keys: np.ndarray, positions: np.ndarray):
    """Yield, block by block, the keys of classes whose entries' pair-code rows differ.

    The entry at flat position positions[i] is in class keys[i].  Entries of
    classes with two or more of them are visited class by class, in blocks
    of `block` rows (`_pair_code_builder`) that overlap by one, and each row
    is compared with the row before it in its class.  No yield is empty.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    same = np.append(False, keys[1:] == keys[:-1])  # as the entry before
    in_class = same | np.append(same[1:], False)
    positions, keys = positions[order[in_class]], keys[in_class]
    for lo in range(0, positions.size - 1, block):
        block_keys, block_rows = keys[lo : lo + block + 1], rows(positions[lo : lo + block + 1])
        differs = (block_rows[1:] != block_rows[:-1]).any(axis=1) & (block_keys[1:] == block_keys[:-1])
        if differs.any():
            yield block_keys[1:][differs]


def _evaluations(g: AnyGraph, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
    """The evaluations of one round of `g`'s process at random field points.

    Entry (u,v) of the symbolic square of a LabeledGraph is
    sum_k x[g[u][k]] * x[g[k][v]], with one variable per label; the ordered
    product of a DirectedLabeledGraph uses independent x and y.  Each point
    gives one float64 matrix product, exact below 2**53, reduced mod PRIME,
    and an entry's evaluations pack into one int64 below PRIME**3 < 2**60.
    A square is symmetric, so only its upper triangle is evaluated, over the
    returned mask (None for the ordered product): row-major, it meets every
    value where the full matrix does, so first-encounter ids agree.
    """
    m = dense_labels(g.labels)
    n = g.n
    directed = isinstance(g, DirectedLabeledGraph)
    upper = None if directed else np.triu(np.ones((n, n), dtype=bool))
    size = (1 + directed, int(m.max()) + 1)
    values = None
    for _ in range(EVALUATIONS):
        # Drawn as used: the same values as one draw of every point, a third of the memory.
        x = rng.integers(0, PRIME, size=size).astype(np.float64)
        left = x[0][m]
        # A symmetric `left` written as left @ left.T takes BLAS's faster
        # symmetric path.
        product = left @ (x[1][m] if directed else left.T)
        del left
        entries = (product.ravel() if directed else product[upper]).astype(np.int64)
        del product
        entries %= PRIME
        if values is None:
            values = entries
        else:
            values *= PRIME
            values += entries
    return values, upper


def _mirrored(ids: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper triangle holds `ids`, row-major."""
    out = np.empty(upper.shape, dtype=np.int64)
    out[upper] = ids
    out.T[upper] = ids
    return out


def _exact_round(g: AnyGraph, kind: type) -> AnyGraph:
    """One exact round of the `kind` graph `g`: equal pair-code rows, equal labels.

    Equal rows always evaluate equal (`_evaluations`), so the classes of
    equal evaluations can only be coarser than the round's.  Those in which
    `_unequal_classes` finds differing rows are split by their rows.  Labels
    are 1, 2, ... by first encounter in row-major order, so they depend only
    on the partition, not on the points drawn.
    """
    if not isinstance(g, kind):
        raise GraphError(f"this round takes a {kind.__name__}, not a {type(g).__name__}")
    _require_recognizing(g)
    _require_evaluable(g.n)
    values, upper = _evaluations(g, np.random.default_rng(EVALUATION_SEED))
    positions = np.arange(g.n**2) if upper is None else np.flatnonzero(upper)
    rows, block = _pair_code_builder(g)
    unequal = [*_unequal_classes(rows, block, values, positions)]
    split = np.zeros(values.size, dtype=np.int64)
    if unequal:
        chosen = np.isin(values, np.concatenate(unequal))
        split[chosen] = np.unique(rows(positions[chosen]), axis=0, return_inverse=True)[1] + 1
    ids = first_encounter_relabel(values, split)
    return kind(ids.reshape(g.n, g.n) if upper is None else _mirrored(ids, upper))


def sas_step(g: LabeledGraph) -> LabeledGraph:
    """One square-and-substitution round.

    Entry (u,v) of the symbolic square is the multiset of unordered label
    pairs {g[u][k], g[k][v]} over all k; equal multisets get equal fresh
    labels.
    """
    return _exact_round(g, LabeledGraph)


def wl_step(g: DirectedLabeledGraph) -> DirectedLabeledGraph:
    """One ordered-pair product round.

    Entry (u,v) is the multiset of ordered pairs (g[u][k], g[k][v]); the
    output may be asymmetric but stays converse equivalent.
    """
    return _exact_round(g, DirectedLabeledGraph)


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


def _evaluated_round(g: AnyGraph, rng: np.random.Generator) -> np.ndarray:
    """One round of `g`'s process evaluated at random field points (`_evaluations`).

    Entries are keyed by their evaluations, then their previous label (for
    the ordered product then also the evaluations of the transposed entry,
    which keeps the output converse equivalent even under collisions), and
    numbered 1..d by first encounter in row-major order.  Without a
    collision the evaluations alone decide the key, so the numbering costs
    one sort (`first_encounter_relabel`).
    """
    values, upper = _evaluations(g, rng)
    if upper is None:
        return first_encounter_relabel(values, g.labels, values.reshape(g.n, -1).T).reshape(g.n, -1)
    return _mirrored(first_encounter_relabel(values, g.labels[upper]), upper)


def _unchecked(kind: type, labels: np.ndarray) -> AnyGraph:
    """A `kind` graph over int64 `labels` valid by construction, built unchecked:
    the seeded graph, or an evaluated round's ids from 1, which are symmetric
    (`_mirrored`) or key each entry by its transposed entry's evaluations."""
    g = object.__new__(kind)
    labels.setflags(write=False)
    object.__setattr__(g, "labels", labels)
    return g


def _refinement_step(labels: np.ndarray, colours: np.ndarray, x: int, stride: int) -> np.ndarray:
    """Individualize vertex `x` and split every colour class by its label from `x`.

    Vertex v is ranked by (colours[v], v != x, labels[x, v]).  Ranks come
    from these values alone, so the step commutes with every renumbering of
    the vertices.  `stride` exceeds every label.
    """
    key = colours * 2 + (np.arange(colours.size) != x)
    key *= stride
    key += labels[x]
    return np.unique(key, return_inverse=True)[1]


def _target_cell(colours: np.ndarray) -> np.ndarray | None:
    """The vertices of the smallest colour with two or more, or None if none has."""
    several = np.flatnonzero(np.bincount(colours) >= 2)
    return np.flatnonzero(colours == several[0]) if several.size else None


def _preserves_labels(labels: np.ndarray, pi: np.ndarray, rows: tuple[int, ...]) -> bool:
    """True iff labels[pi[u], pi[v]] == labels[u, v] for all u, v.

    The given rows are compared first, as a cheap rejection; then the whole
    matrix, in blocks of about CHECK_BLOCK_BYTES.
    """
    for u in rows:
        if not np.array_equal(labels[pi[u], pi], labels[u]):
            return False
    block = max(1, CHECK_BLOCK_BYTES // (labels.itemsize * labels.shape[0]))
    for lo in range(0, labels.shape[0], block):
        image = np.take(labels[pi[lo : lo + block]], pi, axis=1)
        if not np.array_equal(image, labels[lo : lo + block]):
            return False
    return True


def _automorphisms(g: AnyGraph) -> list[np.ndarray]:
    """Label-preserving vertex permutations of `g`, found by individualization-refinement.

    Colours start as the ranks of the diagonal labels.  A refinement step
    individualizes a vertex of the smallest colour with several vertices
    (`_refinement_step`).  The base leaf always takes the least such vertex
    b_j, at levels j = 0, 1, ..., until every colour has one vertex.  From
    the deepest level up, every other vertex y of b_j's cell that is not yet
    in b_j's orbit under the permutations found so far (all of them fix
    b_0 ... b_{j-1}) replaces b_j, and greedy steps lead to a new leaf.  The
    permutation pi sends each vertex to the vertex of the same colour in the
    new leaf; it is kept only if it preserves every label.

    The search is best effort: it takes at most n refinement steps, the base
    leaf included, which bounds the refinement by O(n^2 log n), and returns
    what it has verified when they run out.  A new leaf is compared in full,
    at O(n^2), only if the rows of b_j and y already match.
    """
    n = g.n
    labels = g.labels
    stride = int(labels.max()) + 1
    steps = n

    def leaf(colours: np.ndarray, x: int | None, levels: list | None = None) -> np.ndarray | None:
        """Individualize `x`, then greedily the least vertex of each target
        cell, until every colour has one vertex; None once the budget is spent."""
        nonlocal steps
        while x is not None:
            if steps == 0:
                return None
            steps -= 1
            colours = _refinement_step(labels, colours, x, stride)
            cell = _target_cell(colours)
            x = None if cell is None else int(cell[0])
            if levels is not None and x is not None:
                levels.append((colours, cell))
        return colours

    colours = np.unique(labels.diagonal(), return_inverse=True)[1]
    cell = _target_cell(colours)
    if cell is None:
        return []
    levels = [(colours, cell)]
    base = leaf(colours, int(cell[0]), levels)
    if base is None:
        return []
    generators: list[np.ndarray] = []
    orbit = list(range(n))  # union-find forest of the orbits of `generators`

    def root(v: int) -> int:
        while orbit[v] != v:
            orbit[v] = orbit[orbit[v]]
            v = orbit[v]
        return v

    for colours, cell in reversed(levels):
        b = int(cell[0])
        for y in cell[1:].tolist():
            if root(y) == root(b):
                continue
            other = leaf(colours, y)
            if other is None:
                return generators
            pi = np.empty(n, dtype=np.intp)
            pi[other] = np.arange(n)
            pi = pi[base]
            if _preserves_labels(labels, pi, (b, y)):
                generators.append(pi)
                for u in np.flatnonzero(pi != np.arange(n)).tolist():
                    orbit[root(u)] = root(int(pi[u]))
    return generators


def _exactly_stable(g: AnyGraph) -> bool:
    """True iff the exact round would split no label class of `g`.

    Labels are at most n*n, as every round numbers them.  Entries of one
    class must have equal sorted pair-code rows (`_pair_code_builder`).  The
    n diagonal entries go first, keyed by their labels: short of stable,
    some class of them nearly always splits.  Then every class is checked;
    for symmetric graphs the upper triangle suffices, since (u,v) and (v,u)
    share a code.  For every automorphism pi of `g` that `_automorphisms`
    returns, entry (pi u, pi v) has the label and, term by term, the pair
    codes of (u,v); so every entry that some pi maps to a smaller position
    (after a symmetric image is moved into the upper triangle) is dropped,
    in one pass per pi.  The least entry of every orbit of the group they
    generate stays, so every entry still meets a checked one of its class.
    The search runs only where the checked entries of classes with two or
    more of them fill more than one block.  Rows are compared as the exact
    round compares them (`_unequal_classes`).
    """
    n = g.n
    symmetric = isinstance(g, LabeledGraph)
    rows, block = _pair_code_builder(g)
    if next(_unequal_classes(rows, block, g.labels.diagonal(), np.arange(n) * (n + 1)), None) is not None:
        return False
    counts = np.bincount(g.labels.ravel())
    if symmetric:  # the upper triangle holds each off-diagonal entry once
        counts += np.bincount(g.labels.diagonal(), minlength=counts.size)
        counts //= 2
    generators = _automorphisms(g) if counts[counts >= 2].sum() > block else []
    del counts
    positions = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool))) if symmetric else np.arange(n * n)
    for pi in generators:
        u = pi[positions // n]
        v = pi[positions % n]
        if symmetric:  # in place, so that at most four position-sized arrays live
            u, v = np.minimum(u, v), np.maximum(u, v, out=v)
        u *= n
        u += v
        positions = positions[u >= positions]
    return next(_unequal_classes(rows, block, g.labels.ravel()[positions], positions), None) is None


def _stabilize(g: LabeledGraph, kind: type) -> StabilizationTrace:
    """Seed `g`, then refine it as a `kind` graph until the dimension stops growing.

    Rounds are evaluated (`_evaluated_round`): they refine their input but
    may refine it less than the exact round, so every round that grows the
    dimension is checked exactly (`_exactly_stable`).  A stable graph is
    returned at once, counting the round that would only number its
    partition the same way again; so is a discrete one (every entry, or
    every unordered pair for a symmetric `kind`, its own class), unchecked.
    A round that keeps the dimension of a graph short of stable met a
    collision, and the reference round (`sas_step` or `wl_step`) takes its
    place.  Every round numbers its labels 1..d; its dim is its largest.
    """
    _require_evaluable(g.n)
    rng = np.random.default_rng(EVALUATION_SEED)
    current = _unchecked(kind, seed_recognize_vertices(g).labels)
    round_bound = g.n * (g.n + 1) // 2 + 1
    discrete = g.n * (g.n + 1) // 2 if kind is LabeledGraph else g.n * g.n
    dims = [dim(current)]
    for rounds in range(1, round_bound + 1):
        refined = _unchecked(kind, _evaluated_round(current, rng))
        dims.append(int(refined.labels.max()))
        if dims[-1] == dims[-2]:
            # Dimension fixpoint implies equivalence; assert it once.
            if not is_equivalent(current, refined):
                raise AssertionError("dimension fixpoint without equivalence; refinement is broken")
            if rounds == 1 and _exactly_stable(refined):  # later ones failed the check
                return StabilizationTrace(stable=refined, rounds=rounds, dims=dims)
            refined = (sas_step if kind is LabeledGraph else wl_step)(refined)
            dims[-1] = int(refined.labels.max())
        if dims[-1] == discrete or _exactly_stable(refined):
            dims.append(dims[-1])
            return StabilizationTrace(stable=refined, rounds=rounds + 1, dims=dims)
        current = refined
    raise AssertionError("refinement exceeded its theoretical round bound")


def sas_stabilize(g: LabeledGraph) -> StabilizationTrace:
    """Seed, then square-and-substitute until the dimension stops growing."""
    return _stabilize(g, LabeledGraph)


def wl_stabilize(g: LabeledGraph) -> StabilizationTrace:
    """Seed, then apply ordered-pair rounds until the dimension stops growing."""
    return _stabilize(g, DirectedLabeledGraph)


def kpower_stabilize(g: LabeledGraph, k: int) -> StabilizationTrace:
    """Seed, then apply k-power rounds until the dimension stops growing or is discrete."""
    current = seed_recognize_vertices(g)
    discrete = g.n * (g.n + 1) // 2
    dims = [dim(current)]
    for rounds in range(1, discrete + 2):
        refined = kpower_step(current, k)
        dims.append(int(refined.labels.max()))
        if dims[-1] == dims[-2]:
            # Dimension fixpoint implies equivalence; assert it once.
            if not is_equivalent(current, refined):
                raise AssertionError("dimension fixpoint without equivalence; refinement is broken")
            return StabilizationTrace(stable=refined, rounds=rounds, dims=dims)
        if dims[-1] == discrete:
            dims.append(dims[-1])
            return StabilizationTrace(stable=refined, rounds=rounds + 1, dims=dims)
        current = refined
    raise AssertionError("refinement exceeded its theoretical round bound")


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
