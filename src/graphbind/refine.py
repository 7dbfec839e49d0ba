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
by 2/`PRIME` per point).  An evaluated round keys every entry by its
evaluations and its previous label, so it refines its input.  The
reference rounds `sas_step` and `wl_step` are exact: the evaluated round
split by rows, that is, its classes whose entries' sorted pair-code rows
differ (`_unequal_classes`) split by those rows.  `sas_stabilize` and
`wl_stabilize` check each evaluated round that grows the dimension and
return a stable one at once; a round that keeps the dimension they split
by rows where it stands, so the stable graph is the exact one.

`search_automorphisms` finds label-preserving vertex permutations by
individualization-refinement (McKay & Piperno 2014), every node refined by
`core.equitable_colours`, and verifies each one; `gi_decide` runs it once
per decision, on the wing graph, and lifts what it finds to the binding
graph.  The stabilization loops take such permutations (`automorphisms=`),
check each once against the seeded graph, and use the group they generate,
the trivial group if none, twice.  Orbits come from one routine,
`_least_in_orbit`, the least vertex of each vertex's orbit.  With fewer
orbits than half the vertices, an evaluated round computes its products
for one row per orbit and reads every entry off its orbit's row, with the
full product's values.  The check compares one entry per orbit, since an
automorphism maps each entry's pair codes onto its image's term by term.

The numeric first-come-first-served variant that loses exactness -- it feeds
numbers, not independent variables, into the next product -- is kept as
`numeric_ff_stabilize` purely to demonstrate the failure mode.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
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
    equitable_colours,
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


def _evaluations(g: AnyGraph, rng: np.random.Generator, symmetry: _Symmetry) -> np.ndarray:
    """The evaluations of one round of `g`'s process at random field points.

    Entry (u,v) of the symbolic square of a LabeledGraph is
    sum_k x[g[u][k]] * x[g[k][v]], with one variable per label; the ordered
    product of a DirectedLabeledGraph uses independent x and y.  Each point
    gives one float64 matrix product, exact below 2**53, reduced mod PRIME,
    and an entry's evaluations pack into one int64 below PRIME**3 < 2**60.
    A square is symmetric, so only its upper triangle is evaluated, over the
    mask of `symmetry`: row-major, it meets every value where the full
    matrix does, so first-encounter ids agree.

    With a gather index (`_symmetry`), each point gives the product of the
    orbits' least vertices' rows only, and the packed evaluations are read
    off it once: entry (u, v) equals entry (t u, t v) for every automorphism
    t.  Its sums are the same integers, so the values are the full product's.
    """
    m = dense_labels(g.labels)
    directed = symmetry.upper is None
    by_orbit = symmetry.gather is not None
    size = (1 + directed, int(m.max()) + 1)
    values = None
    for _ in range(EVALUATIONS):
        # Drawn as used: the same values as one draw of every point, a third of the memory.
        x = rng.integers(0, PRIME, size=size).astype(np.float64)
        left = x[0][m]
        # A symmetric `left` written as left @ left.T takes BLAS's faster
        # symmetric path.
        right = x[1][m] if directed else left.T
        product = (left[symmetry.representatives] if by_orbit else left) @ right
        del left, right
        entries = (product.ravel() if directed or by_orbit else product[symmetry.upper]).astype(np.int64)
        del product
        entries %= PRIME
        if values is None:
            values = entries
        else:
            values *= PRIME
            values += entries
    return values[symmetry.gather] if by_orbit else values


def _mirrored(ids: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The symmetric matrix whose upper triangle holds `ids`, row-major."""
    out = np.empty(upper.shape, dtype=np.int64)
    out[upper] = ids
    out.T[upper] = ids
    return out


def _split_by_rows(g: AnyGraph, labels: np.ndarray, symmetry: _Symmetry) -> np.ndarray:
    """`labels`, a round of `g`, with each class whose pair-code rows of `g`
    differ (`_unequal_classes`) split by them; `labels` itself if none do."""
    upper = symmetry.upper
    positions = np.arange(g.n**2) if upper is None else np.flatnonzero(upper)
    keys = labels.ravel()[positions]
    rows, block = _pair_code_builder(g)
    unequal = [*_unequal_classes(rows, block, keys, positions)]
    if not unequal:
        return labels
    chosen = np.isin(keys, np.concatenate(unequal))
    split = np.zeros(keys.size, dtype=np.int64)
    split[chosen] = np.unique(rows(positions[chosen]), axis=0, return_inverse=True)[1] + 1
    ids = first_encounter_relabel(keys, split)
    return ids.reshape(g.n, g.n) if upper is None else _mirrored(ids, upper)


def _exact_round(g: AnyGraph, kind: type) -> AnyGraph:
    """One exact round of the `kind` graph `g`: equal pair-code rows, equal labels.

    It is the evaluated round under the trivial group split by rows
    (`_split_by_rows`): on a graph that recognizes vertices, equal rows force
    equal evaluations, previous labels and transposed evaluations, so the
    evaluated classes are never finer than the classes of equal rows.
    """
    if not isinstance(g, kind):
        raise GraphError(f"this round takes a {kind.__name__}, not a {type(g).__name__}")
    _require_recognizing(g)
    _require_evaluable(g.n)
    symmetry = _symmetry(g.labels, (), kind is LabeledGraph)
    labels = _evaluated_round(g, np.random.default_rng(EVALUATION_SEED), symmetry)
    return kind(_split_by_rows(g, labels, symmetry))


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


def _evaluated_round(g: AnyGraph, rng: np.random.Generator, symmetry: _Symmetry) -> np.ndarray:
    """One round of `g`'s process evaluated at random field points (`_evaluations`).

    Entries are keyed by their evaluations, then their previous label (for
    the ordered product then also the evaluations of the transposed entry,
    which keeps the output converse equivalent even under collisions), and
    numbered 1..d by first encounter in row-major order.  Without a
    collision the evaluations alone decide the key, so the numbering costs
    one sort (`first_encounter_relabel`).
    """
    values, upper = _evaluations(g, rng, symmetry), symmetry.upper
    if upper is None:
        return first_encounter_relabel(values, g.labels, values.reshape(g.n, -1).T).reshape(g.n, -1)
    return _mirrored(first_encounter_relabel(values, g.labels[upper]), upper)


def _unchecked(kind: type, labels: np.ndarray) -> AnyGraph:
    """A `kind` graph over int64 `labels` valid by construction, built unchecked:
    the seeded graph, or a round's ids from 1: exact, symmetric (`_mirrored`),
    or keyed by each entry's transposed entry's evaluations."""
    g = object.__new__(kind)
    labels.setflags(write=False)
    object.__setattr__(g, "labels", labels)
    return g


def _individualized(labels: np.ndarray, colours: np.ndarray, x: int) -> np.ndarray:
    """Give vertex `x` a colour of its own, just below the rest of its cell,
    and refine to the equitable colouring (`equitable_colours`)."""
    c = colours[x]
    split = colours + (colours > c) + (colours == c)
    split[x] = c
    return equitable_colours(labels, split)


def _quotient(labels: np.ndarray, colours: np.ndarray, stride: int) -> np.ndarray:
    """The invariant of an equitable colouring: its cell sizes, then each cell's
    sorted (colour, label) codes toward every vertex, the same from any member."""
    member = np.empty(int(colours.max()) + 1, dtype=np.intp)
    member[colours] = np.arange(colours.size)
    codes = np.sort(colours * stride + labels[member], axis=1)
    return np.concatenate((np.bincount(colours), codes.ravel()))


def _mapped(base: np.ndarray, colours: np.ndarray) -> np.ndarray:
    """A permutation taking each cell of `base` onto the cell of the same colour
    in `colours`, whose cells have the same sizes.  It fixes every vertex that
    has the same colour in both and maps the rest in increasing order within
    each colour; between discrete colourings it is the only such permutation."""
    pi = np.arange(base.size)
    moved = np.flatnonzero(base != colours)
    pi[moved[np.argsort(base[moved], kind="stable")]] = moved[np.argsort(colours[moved], kind="stable")]
    return pi


def _preserves_labels(labels: np.ndarray, pi: np.ndarray) -> bool:
    """True iff labels[pi[u], pi[v]] == labels[u, v] for all u, v, compared in
    blocks of rows of about CHECK_BLOCK_BYTES."""
    block = max(1, CHECK_BLOCK_BYTES // (labels.itemsize * labels.shape[0]))
    for lo in range(0, labels.shape[0], block):
        image = np.take(labels[pi[lo : lo + block]], pi, axis=1)
        if not np.array_equal(image, labels[lo : lo + block]):
            return False
    return True


def search_automorphisms(g: AnyGraph) -> list[np.ndarray]:
    """Label-preserving vertex permutations of `g`, by individualization-refinement
    (McKay & Piperno, "Practical graph isomorphism, II", 2014).

    Every node of the search tree is an equitable colouring, ranked so that
    it compares across nodes (`equitable_colours`): the root refines the
    ranks of the diagonal labels, and a child individualizes one vertex of
    its parent's first smallest cell with two or more vertices
    (`_individualized`).  The base path always takes the least such vertex,
    down to a discrete leaf.  From its deepest level up, every other vertex y
    of the base node's cell is tried, one per orbit of the permutations found
    so far (`_least_in_orbit`), whether or not an earlier y gave one: all of
    them fix the base path above, so y's orbit-mates share its answer.  The
    subtree under y is searched depth first, the least vertex first, so its
    first leaf is greedy.  A node whose invariant (`_quotient`) differs from
    the base path's at its depth is pruned; any other yields the permutation
    that maps the base path's node onto it (`_mapped`), which is kept, and
    ends y's search, if it preserves every label (`_preserves_labels`).  Cells
    keep their positions under refinement, so a kept permutation fixes the
    base path above y and maps its vertex there to y; with the search
    complete the permutations generate the group.

    The search is best effort: it individualizes at most n**2 times and then
    returns what it has verified.  Every returned permutation is verified.
    """
    n = g.n
    labels = dense_labels(g.labels)
    stride = int(labels.max()) + 1
    steps = n * n

    def target(colours: np.ndarray) -> int | None:
        """The first smallest colour with two or more vertices, or None."""
        sizes = np.bincount(colours)
        return int(np.argmin(np.where(sizes >= 2, sizes, n + 1))) if sizes.max() >= 2 else None

    path = [equitable_colours(labels, np.unique(labels.diagonal(), return_inverse=True)[1])]
    cells: list[int] = []  # the colour individualized at each depth of the base path
    while (c := target(path[-1])) is not None:  # at most n - 1 steps, within the budget
        steps -= 1
        cells.append(c)
        path.append(_individualized(labels, path[-1], int(np.flatnonzero(path[-1] == c)[0])))
    quotients: dict[int, np.ndarray] = {}

    def below(depth: int, y: int) -> np.ndarray | None:
        """A verified permutation in the subtree that individualizes y at
        `depth`, or None if it has none or the budget runs out."""
        nonlocal steps
        stack = [(depth, path[depth], [y])]
        while stack and steps:
            d, node, pending = stack[-1]
            if not pending:
                stack.pop()
                continue
            steps -= 1
            child = _individualized(labels, node, pending.pop(0))
            d += 1
            if d not in quotients:
                quotients[d] = _quotient(labels, path[d], stride)
            if not np.array_equal(_quotient(labels, child, stride), quotients[d]):
                continue
            pi = _mapped(path[d], child)
            if _preserves_labels(labels, pi):
                return pi
            if d < len(cells):
                stack.append((d, child, np.flatnonzero(child == cells[d]).tolist()))
        return None

    generators: list[np.ndarray] = []
    least = np.arange(n)  # the least vertex of every orbit of `generators`
    for depth in reversed(range(len(cells))):
        cell = np.flatnonzero(path[depth] == cells[depth]).tolist()
        tried = [cell[0]]
        for y in cell[1:]:
            if least[y] in {least[t] for t in tried}:
                continue
            tried.append(y)
            pi = below(depth, y)
            if pi is not None:
                generators.append(pi)
                least = _least_in_orbit([least, pi], n)  # the orbits so far, joined by pi's
            elif steps == 0:
                return generators
    return generators


def _least_in_orbit(generators: Sequence[np.ndarray], n: int) -> np.ndarray:
    """The least vertex of every vertex's orbit under the group that the
    permutations `generators` of n vertices generate.  Any map f of the
    vertices may stand among them, joining u and f(u): a previous result
    joins its orbits.  Each vertex's value stays in its orbit and only
    decreases: every pass lowers it to its images' values and its images'
    to its own, then jumps pointers, until a pass changes nothing."""
    least = np.arange(n)
    while True:
        before = least.copy()
        for f in generators:
            np.minimum(least, least[f], out=least)
            np.minimum.at(least, f, least)
        least = least[least]
        if np.array_equal(least, before):
            return least


@dataclass(frozen=True)
class _Symmetry:
    """Verified automorphisms of a stabilization's seeded graph, with the orbit
    data its rounds and its check read off them; the trivial group if none."""

    generators: tuple[np.ndarray, ...]
    #: The least vertex of every orbit, increasing.
    representatives: np.ndarray
    #: For every entry an evaluated round computes, its flat index in the
    #: product of the representatives' rows; None where that product is not
    #: used (`_symmetry`).
    gather: np.ndarray | None
    #: The upper triangle a symmetric round computes; None for the ordered product.
    upper: np.ndarray | None


def _symmetry(labels: np.ndarray, automorphisms, symmetric: bool) -> _Symmetry:
    """Check that each of `automorphisms` is a vertex permutation preserving
    every entry of `labels`, and build the orbit data of the group they
    generate, with the upper-triangle mask if `symmetric`.

    The orbits come from their least vertices, r(u) for vertex u
    (`_least_in_orbit`).  Only if there are fewer orbits than half the
    vertices is the gather index built: a breadth-first search over the
    generators from the representatives finds for every u a group element
    t_u with t_u(u) = r(u), and entry (u, v) of a round's product reads row
    r(u), column t_u(v) of the product of the representatives' rows, for
    the entries a round evaluates only.
    """
    n = labels.shape[0]
    upper = np.triu(np.ones((n, n), dtype=bool)) if symmetric else None
    generators = []
    for k, pi in enumerate(automorphisms):
        pi = np.asarray(pi)
        if not (
            pi.shape == (n,)
            and np.issubdtype(pi.dtype, np.integer)
            and np.array_equal(np.sort(pi), np.arange(n))
            and _preserves_labels(labels, pi)
        ):
            raise GraphError(f"automorphism {k} is not a permutation of the {n} vertices that preserves every label")
        generators.append(pi.astype(np.intp))
    least = _least_in_orbit(generators, n)
    representatives = np.flatnonzero(least == np.arange(n))
    if 2 * representatives.size >= n:
        return _Symmetry(tuple(generators), representatives, None, upper)
    t = np.empty((n, n), dtype=np.int32)
    t[representatives] = np.arange(n, dtype=np.int32)
    reached = least == np.arange(n)
    frontier = representatives
    inverses = [np.argsort(pi) for pi in generators]
    while frontier.size:
        grown = []
        for pi, inverse in zip(generators, inverses):
            image = pi[frontier]
            fresh = ~reached[image]
            # t_w = t_u . pi^-1 takes w = pi(u) to r(u) = r(w).
            t[image[fresh]] = t[frontier[fresh]][:, inverse]
            reached[image[fresh]] = True
            grown.append(image[fresh])
        frontier = np.concatenate(grown)
    row = np.empty(n, dtype=np.int32)
    row[representatives] = np.arange(representatives.size, dtype=np.int32) * n
    t += row[least][:, None]
    gather = t[upper] if symmetric else t.ravel()
    return _Symmetry(tuple(generators), representatives, gather, upper)


def _exactly_stable(g: AnyGraph, symmetry: _Symmetry) -> bool:
    """True iff the exact round would split no label class of `g`.

    Labels are at most n*n, as every round numbers them.  Entries of one
    class must have equal sorted pair-code rows (`_pair_code_builder`).  The
    n diagonal entries go first, keyed by their labels: short of stable,
    some class of them nearly always splits.  Then every class is checked;
    for symmetric graphs the upper triangle suffices, since (u,v) and (v,u)
    share a code.  Each automorphism pi of `symmetry` preserves the labels
    of `g` (`_stabilize`), so entry (pi u, pi v) has the label and, term by
    term, the pair codes of (u,v).  The least entry of every orbit of the
    group lies in the row of an orbit's least vertex, so the check starts
    from the entries of those rows and drops every entry that some pi maps
    to a smaller position (after a symmetric image is moved into the upper
    triangle), in one pass per pi.  The least entry of every orbit stays,
    so every entry still meets a checked one of its class.  Rows are
    compared as the exact round compares them (`_unequal_classes`).
    """
    n = g.n
    symmetric = isinstance(g, LabeledGraph)
    rows, block = _pair_code_builder(g)
    if next(_unequal_classes(rows, block, g.labels.diagonal(), np.arange(n) * (n + 1)), None) is not None:
        return False
    checked = np.zeros((n, n), dtype=bool)
    checked[symmetry.representatives] = True
    positions = np.flatnonzero(checked if symmetry.upper is None else checked & symmetry.upper)
    del checked
    for pi in symmetry.generators:
        u = pi[positions // n]
        v = pi[positions % n]
        if symmetric:  # in place, so that at most four position-sized arrays live
            u, v = np.minimum(u, v), np.maximum(u, v, out=v)
        u *= n
        u += v
        positions = positions[u >= positions]
    return next(_unequal_classes(rows, block, g.labels.ravel()[positions], positions), None) is None


def _stabilize(g: LabeledGraph, kind: type, automorphisms) -> StabilizationTrace:
    """Seed `g`, then refine it as a `kind` graph until the dimension stops growing.

    Rounds are evaluated (`_evaluated_round`): they refine their input but
    may refine it less than the exact round, so every round that grows the
    dimension is checked exactly (`_exactly_stable`).  A stable graph is
    returned at once, counting the round that would only number its
    partition the same way again; so is a discrete one (every entry, or
    every unordered pair for a symmetric `kind`, its own class), unchecked.
    A round that keeps the dimension is split by its input's rows
    (`_split_by_rows`) into the exact round; if nothing splits, the input
    was stable.  Every round numbers its labels 1..d; its dim is its largest.

    Each of `automorphisms` is checked once to preserve the seeded graph
    (`_symmetry`); with none the group is trivial.  Every round is invariant
    and numbers its labels by its keys alone, so an automorphism of the
    seeded graph preserves every iterate; the evaluated rounds compute their
    products by orbit rows and the check compares one entry per orbit.
    """
    _require_evaluable(g.n)
    rng = np.random.default_rng(EVALUATION_SEED)
    current = _unchecked(kind, seed_recognize_vertices(g).labels)
    symmetry = _symmetry(current.labels, automorphisms, kind is LabeledGraph)
    round_bound = g.n * (g.n + 1) // 2 + 1
    discrete = g.n * (g.n + 1) // 2 if kind is LabeledGraph else g.n * g.n
    dims = [dim(current)]
    for rounds in range(1, round_bound + 1):
        refined = _unchecked(kind, _evaluated_round(current, rng, symmetry))
        dims.append(int(refined.labels.max()))
        if dims[-1] == dims[-2]:
            # Dimension fixpoint implies equivalence; assert it once.
            if not is_equivalent(current, refined):
                raise AssertionError("dimension fixpoint without equivalence; refinement is broken")
            refined = _unchecked(kind, _split_by_rows(current, refined.labels, symmetry))
            dims[-1] = int(refined.labels.max())
            if dims[-1] == dims[-2]:
                return StabilizationTrace(stable=refined, rounds=rounds, dims=dims)
        if dims[-1] == discrete or _exactly_stable(refined, symmetry):
            dims.append(dims[-1])
            return StabilizationTrace(stable=refined, rounds=rounds + 1, dims=dims)
        current = refined
    raise AssertionError("refinement exceeded its theoretical round bound")


def sas_stabilize(g: LabeledGraph, automorphisms: Sequence[np.ndarray] = ()) -> StabilizationTrace:
    """Seed, then square-and-substitute until the dimension stops growing.

    `automorphisms` are label-preserving vertex permutations of `g`, such as
    `search_automorphisms` finds; they change how the rounds are computed,
    never their labels, and one that fails raises GraphError.
    """
    return _stabilize(g, LabeledGraph, automorphisms)


def wl_stabilize(g: LabeledGraph, automorphisms: Sequence[np.ndarray] = ()) -> StabilizationTrace:
    """Seed, then apply ordered-pair rounds until the dimension stops growing;
    `automorphisms` as for `sas_stabilize`."""
    return _stabilize(g, DirectedLabeledGraph, automorphisms)


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
