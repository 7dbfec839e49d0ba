"""Refinement rounds, stabilization loops, and the numeric pitfall."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphbind.binding import binding_graph, wing_graph
from graphbind.core import (
    BLANK,
    DirectedLabeledGraph,
    GraphError,
    LabeledGraph,
    Partition,
    dim,
    first_encounter_relabel,
    is_equivalent,
    is_imbedded,
    permuted,
)
from graphbind.corpus import (
    all_graphs,
    cfi_graph,
    complete_graph,
    cycle_graph,
    from_edges,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
    random_permutation,
    rook_graph_4x4,
    shrikhande_graph,
)
from graphbind.descgraph import BudgetExceededError
from graphbind.oracle import automorphism_orbits, is_isomorphic_bruteforce
from graphbind.partition import vertex_partition
from graphbind.refine import (
    PRIME,
    VertexRecognitionError,
    _evaluations,
    _exactly_stable,
    _least_in_orbit,
    _preserves_labels,
    _symmetry,
    kpower_step,
    numeric_ff_stabilize,
    recognizes_vertices,
    sas_stabilize,
    sas_step,
    search_automorphisms,
    seed_recognize_vertices,
    wl_stabilize,
    wl_step,
)

from conftest import as_graph, cells_from_diagonal


#: Labels of 2**31 and above: pair codes min * (max + 1) + max of them pass
#: 2**63, so a round must renumber them first, as the evaluated round does.
WIDE_LABELS = np.array(
    [[7, 9, 9, 5], [9, 7, 9, 5 + 2**31], [9, 9, 8, 2**33 - 1], [5, 5 + 2**31, 2**33 - 1, 8]]
)


def seeded_p3() -> LabeledGraph:
    return seed_recognize_vertices(path_graph(3))


def brute_pair_codes(g: LabeledGraph) -> list[list[tuple]]:
    """Definitional oracle: entry (u,v) is the sorted multiset of unordered
    label pairs over all intermediate vertices."""
    n = g.n
    m = g.labels
    return [
        [
            tuple(sorted(tuple(sorted((int(m[u, k]), int(m[k, v])))) for k in range(n)))
            for v in range(n)
        ]
        for u in range(n)
    ]


def brute_ordered_pair_codes(g) -> list[list[tuple]]:
    """Definitional oracle: entry (u,v) is the sorted multiset of ordered
    label pairs (g[u][k], g[k][v]) over all intermediate vertices k."""
    n = g.n
    m = g.labels
    return [
        [tuple(sorted((int(m[u, k]), int(m[k, v])) for k in range(n))) for v in range(n)]
        for u in range(n)
    ]


def brute_walk_codes(g: LabeledGraph, k: int) -> list[list[tuple]]:
    """Definitional oracle: entry (u,v) is the sorted multiset, over all
    length-k walks from u to v, of the sorted labels along the walk."""
    from itertools import product

    n = g.n
    m = g.labels
    return [
        [
            tuple(
                sorted(
                    tuple(sorted(int(m[a, b]) for a, b in zip((u, *mid), (*mid, v))))
                    for mid in product(range(n), repeat=k - 1)
                )
            )
            for v in range(n)
        ]
        for u in range(n)
    ]


def exact_stabilize(start, step):
    """Reference loop: iterate an exact round until the dimension repeats.

    Returns the last round's output, the number of rounds and the dims.
    """
    current, dims = start, [dim(start)]
    while True:
        refined = step(current)
        dims.append(dim(refined))
        if dims[-1] == dims[-2]:
            return refined, len(dims) - 1, dims
        current = refined


def exact_sas(g: LabeledGraph):
    return exact_stabilize(seed_recognize_vertices(g), sas_step)


def exact_wl(g: LabeledGraph):
    return exact_stabilize(DirectedLabeledGraph(seed_recognize_vertices(g).labels), wl_step)


def stable_iterates(start, step) -> list:
    """`start` and its exact rounds up to the first that keeps the dimension.

    The second to last iterate is stable, so the one before it is one round
    short of stable.
    """
    iterates = [start, step(start)]
    while dim(iterates[-1]) > dim(iterates[-2]):
        iterates.append(step(iterates[-1]))
    return iterates


def seeded_processes(g: LabeledGraph) -> tuple:
    """(start, exact round) of the sas and wl processes on `g`."""
    seeded = seed_recognize_vertices(g)
    return ((seeded, sas_step), (DirectedLabeledGraph(seeded.labels), wl_step))


def asymmetric_pair_binding_graph() -> LabeledGraph:
    """Binding graph of an asymmetric 6-vertex graph and a relabeled copy.

    Each of its stable vertex cells holds one vertex of each copy.
    """
    a = random_connected_graph(6, 0.5, seed=0)
    assert len(automorphism_orbits(a).cells) == a.n
    return binding_graph(wing_graph(a, permuted(a, random_permutation(6, seed=1)))).graph


def symmetric_pairs() -> list[tuple[LabeledGraph, LabeledGraph]]:
    """Two regular pairs with large stable cells: K3,3 against the prism, a
    NO pair, and the Petersen graph against a relabeled copy, a YES pair."""
    k33 = from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    prism = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)])
    petersen = petersen_graph()
    return [(k33, prism), (petersen, permuted(petersen, random_permutation(10, seed=3)))]


def symmetric_pair_binding_graphs() -> list[LabeledGraph]:
    """The binding graphs of `symmetric_pairs`, of orders 91 and 231."""
    return [binding_graph(wing_graph(a, b)).graph for a, b in symmetric_pairs()]


def wing_lifts(a: LabeledGraph, b: LabeledGraph) -> tuple[LabeledGraph, list[np.ndarray]]:
    """The binding graph of the wing graph of a and b, and the lifts of the
    permutations that the search finds on the wing graph."""
    wing = wing_graph(a, b)
    bound = binding_graph(wing)
    return bound.graph, [bound.lift(pi) for pi in search_automorphisms(wing)]


def quick_corpus_pairs() -> list[tuple[LabeledGraph, LabeledGraph]]:
    """The pairs of the quick audit: the binding completeness pairs of order
    4, and the decision check's pairs of a graph with its relabeled copy and
    with another graph."""
    from graphbind.validate import CorpusSpec, _gi_triples, _representative_pairs, build_corpus

    spec = CorpusSpec(quick=True)
    corpus = build_corpus(spec)
    pairs = [(a, b) for _, a, b in _representative_pairs(corpus, spec)]
    return pairs + [(a, other) for _, a, relabeled, b in _gi_triples(corpus, spec) for other in (relabeled, b)]


def graphs_up_to_isomorphism(n: int) -> list[LabeledGraph]:
    """One graph of every isomorphism class of order n: the least edge mask
    of each class over all relabelings."""
    from itertools import combinations, permutations

    pairs = list(combinations(range(n), 2))
    index = {pair: k for k, pair in enumerate(pairs)}
    masks = np.arange(1 << len(pairs))
    bits = (masks[:, None] >> np.arange(len(pairs))) & 1
    least = masks
    for sigma in permutations(range(n)):
        image = [index[tuple(sorted((sigma[u], sigma[v])))] for u, v in pairs]
        least = np.minimum(least, bits @ (1 << np.array(image)))
    return [from_edges(n, [pairs[k] for k in range(len(pairs)) if mask >> k & 1]) for mask in np.unique(least).tolist()]


def srg_and_cfi_pairs() -> list[tuple[LabeledGraph, LabeledGraph]]:
    """Shrikhande against the rook graph and the CFI(K4) pair, NO pairs, and
    each graph against a relabeled copy: binding graphs of order 561."""
    k4 = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    s, r = shrikhande_graph(), rook_graph_4x4()
    untwisted, twisted = cfi_graph(k4, False), cfi_graph(k4, True)
    return [
        (s, r),
        (untwisted, twisted),
        (s, permuted(s, random_permutation(16, seed=4))),
        (twisted, permuted(twisted, random_permutation(16, seed=5))),
    ]


def asymmetric_no_pair_binding_graph() -> LabeledGraph:
    """Binding graph of two non-isomorphic asymmetric 6-vertex graphs.

    Its wing graph has no automorphism but the identity, and both processes
    stabilize it to a discrete graph: every entry has a label of its own.
    """
    a = random_connected_graph(6, 0.5, seed=0)
    b = next(
        b
        for b in (random_connected_graph(6, 0.5, seed=s) for s in range(1, 100))
        if len(automorphism_orbits(b).cells) == b.n and is_isomorphic_bruteforce(a, b) is None
    )
    return binding_graph(wing_graph(a, b)).graph


def binding_graphs_of_yes_and_no_pairs() -> list[LabeledGraph]:
    """The binding graphs above, and those of random YES and NO pairs of order 3 to 6."""
    bound_graphs = [
        asymmetric_pair_binding_graph(),
        asymmetric_no_pair_binding_graph(),
        *symmetric_pair_binding_graphs(),
    ]
    for n in range(3, 7):
        for seed in range(3):
            a = random_connected_graph(n, 0.5, seed=10 * n + seed)
            yes = permuted(a, random_permutation(n, seed=seed))
            no = next(
                b
                for b in (random_connected_graph(n, 0.5, seed=1000 + s) for s in range(100))
                if sorted(b.labels.sum(axis=0)) != sorted(a.labels.sum(axis=0))
            )
            bound_graphs += [binding_graph(wing_graph(a, other)).graph for other in (yes, no)]
    return bound_graphs


def trivial_group(g):
    """The trivial group of `g`, as a stabilization given no automorphisms holds it."""
    return _symmetry(g.labels, (), isinstance(g, LabeledGraph))


def recorded_splits(monkeypatch) -> list:
    """Wrap `refine._split_by_rows` so that every split that changes the
    labels appends (process, whether a gather index was held, labels) to
    the returned list."""
    import graphbind.refine as refine

    splits = []
    split = refine._split_by_rows

    def recording(g, labels, symmetry):
        out = split(g, labels, symmetry)
        if not np.array_equal(out, labels):
            process = "sas" if isinstance(g, LabeledGraph) else "wl"
            splits.append((process, symmetry.gather is not None, out))
        return out

    monkeypatch.setattr(refine, "_split_by_rows", recording)
    return splits


def recorded_outputs(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` so that every call's result is appended to the returned list."""
    outputs = []
    fn = getattr(module, name)

    def recording(*args, **kwargs):
        outputs.append(fn(*args, **kwargs))
        return outputs[-1]

    monkeypatch.setattr(module, name, recording)
    return outputs


def numbered(codes: list[list[tuple]]) -> np.ndarray:
    """Label codes 1, 2, ... by first encounter in row-major order."""
    first: dict[tuple, int] = {}
    for row in codes:
        for code in row:
            if code not in first:
                first[code] = len(first) + 1
    return np.array([[first[code] for code in row] for row in codes])


class TestSeed:
    def test_zero_one_graph_gets_diagonal_two(self):
        seeded = seeded_p3()
        assert seeded.labels.diagonal().tolist() == [2, 2, 2]
        assert recognizes_vertices(seeded)

    def test_preserves_diagonal_pattern(self):
        g = LabeledGraph(np.array([[4, 1, 0], [1, 4, 1], [0, 1, 7]]))
        seeded = seed_recognize_vertices(g)
        d = seeded.labels.diagonal()
        assert d[0] == d[1] != d[2]
        assert recognizes_vertices(seeded)
        assert is_imbedded(g, seeded)

    def test_already_recognizing_stays_equivalent(self):
        g = LabeledGraph(np.array([[5, 1], [1, 5]]))
        assert is_equivalent(seed_recognize_vertices(g), g)

    def test_order_one(self):
        g = LabeledGraph(np.array([[0]]))
        assert seed_recognize_vertices(g).labels[0, 0] == 1

    def test_labels_near_the_int64_limit(self):
        top = np.iinfo(np.int64).max
        # One fresh label above 2**63 - 1, or two above 2**63 - 2, would
        # overflow; the last label that fits is accepted.
        for m in ([[0, top], [top, 0]], [[0, top - 1], [top - 1, 1]]):
            for stabilize in (sas_stabilize, wl_stabilize):
                with pytest.raises(GraphError, match="int64 limit"):
                    stabilize(LabeledGraph(np.array(m)))
        seeded = seed_recognize_vertices(LabeledGraph(np.array([[0, top - 2], [top - 2, 1]])))
        assert seeded.labels.diagonal().tolist() == [top - 1, top]


class TestSasStep:
    def test_rejects_non_recognizing(self):
        with pytest.raises(VertexRecognitionError):
            sas_step(path_graph(3))

    def test_rejects_a_directed_graph(self):
        with pytest.raises(GraphError, match="takes a LabeledGraph"):
            sas_step(DirectedLabeledGraph(seeded_p3().labels))

    def test_p3_vertex_split(self):
        out = sas_step(seeded_p3())
        d = out.labels.diagonal()
        assert d[0] == d[2] != d[1]

    def test_matches_definitional_pair_codes(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            g = seed_recognize_vertices(random_graph(6, 0.5, seed=int(rng.integers(2**32))))
            fast = sas_step(g)
            codes = brute_pair_codes(g)
            for u in range(6):
                for v in range(6):
                    for r in range(6):
                        for s in range(6):
                            assert (fast.labels[u, v] == fast.labels[r, s]) == (
                                codes[u][v] == codes[r][s]
                            )

    def test_numbering_matches_definitional_oracle(self, monkeypatch):
        import graphbind.refine as refine

        # Over GF(2) and GF(3) the round's evaluations merge classes, which
        # it must split by their pair-code rows.
        for prime in (PRIME, 2, 3):
            monkeypatch.setattr(refine, "PRIME", prime)
            for seed in range(4):
                g = seed_recognize_vertices(random_graph(7, 0.5, seed=200 + seed))
                for _ in range(2):
                    out = sas_step(g)
                    assert np.array_equal(out.labels, numbered(brute_pair_codes(g)))
                    g = out

    def test_labels_of_2_to_the_31_and_above(self):
        g = LabeledGraph(WIDE_LABELS)
        dense = LabeledGraph(first_encounter_relabel(WIDE_LABELS))
        assert np.array_equal(sas_step(g).labels, numbered(brute_pair_codes(g)))
        assert np.array_equal(sas_step(g).labels, sas_step(dense).labels)
        assert dim(sas_step(g)) == 10

    def test_stable_graph_is_fixpoint(self, reference):
        stable = as_graph(reference["g21_stable"])
        assert is_equivalent(sas_step(stable), stable)

    def test_round_one_pattern_matches_integer_square(self, reference):
        seeded = seed_recognize_vertices(as_graph(reference["g21"]))
        symbolic = sas_step(seeded)
        integer = LabeledGraph(seeded.labels @ seeded.labels)
        assert is_equivalent(symbolic, integer)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_output_refines_input(self, seed):
        g = seed_recognize_vertices(random_graph(5, 0.5, seed=seed))
        out = sas_step(g)
        assert is_imbedded(g, out)
        assert recognizes_vertices(out)


class TestWlStep:
    def test_rejects_a_symmetric_labeled_graph(self):
        with pytest.raises(GraphError, match="takes a DirectedLabeledGraph"):
            wl_step(seeded_p3())

    def test_ordered_pairs_differ(self):
        g = DirectedLabeledGraph(np.array([[2, 1], [1, 3]]))
        out = wl_step(g)
        assert out.labels[0, 1] != out.labels[1, 0]

    def test_numbering_matches_definitional_oracle(self, monkeypatch):
        import graphbind.refine as refine

        for prime in (PRIME, 2, 3):  # as for sas_step
            monkeypatch.setattr(refine, "PRIME", prime)
            for seed in range(4):
                seeded = seed_recognize_vertices(random_graph(7, 0.5, seed=300 + seed))
                g = DirectedLabeledGraph(seeded.labels)
                for _ in range(2):
                    out = wl_step(g)
                    assert np.array_equal(out.labels, numbered(brute_ordered_pair_codes(g)))
                    g = out

    def test_labels_of_2_to_the_31_and_above(self):
        g = DirectedLabeledGraph(WIDE_LABELS)
        dense = DirectedLabeledGraph(first_encounter_relabel(WIDE_LABELS))
        assert np.array_equal(wl_step(g).labels, numbered(brute_ordered_pair_codes(g)))
        assert np.array_equal(wl_step(g).labels, wl_step(dense).labels)

    def test_output_converse_equivalent_on_random_graphs(self):
        for seed in range(6):
            g = seed_recognize_vertices(random_graph(6, 0.5, seed=seed))
            out = wl_step(DirectedLabeledGraph(g.labels))
            # construction succeeded: converse equivalence was validated
            assert out.n == 6

    def test_symmetrization_matches_square(self):
        # Substituting the transpose-sum of the ordered-pair product gives
        # the unordered-pair round: the (u,v) entry of the sum is the union
        # of both orientations' ordered-pair multisets.
        from graphbind.core import equivalent_variable_substitution

        for seed in range(5):
            g = seed_recognize_vertices(random_graph(6, 0.5, seed=100 + seed))
            m = g.labels
            summed = [
                [
                    tuple(
                        sorted(
                            [(int(m[u, k]), int(m[k, v])) for k in range(6)]
                            + [(int(m[v, k]), int(m[k, u])) for k in range(6)]
                        )
                    )
                    for v in range(6)
                ]
                for u in range(6)
            ]
            assert is_equivalent(equivalent_variable_substitution(summed), sas_step(g))


def test_reference_rounds_on_order_325_stable_graphs_stay_under_16_mb():
    # The stable binding graphs of a random n = 12 YES pair and NO pair:
    # interning one key per distinct pair-code row would take 40-300 MB.
    a = random_connected_graph(12, 0.5, seed=12)
    for b in (permuted(a, random_permutation(12, seed=13)), random_connected_graph(12, 0.5, seed=14)):
        bound = binding_graph(wing_graph(a, b)).graph
        for stabilize, step in ((sas_stabilize, sas_step), (wl_stabilize, wl_step)):
            stable = stabilize(bound).stable
            tracemalloc.start()
            try:
                step(stable)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, (step.__name__, peak)


class TestKPower:
    def test_rejects_small_k(self):
        with pytest.raises(GraphError):
            kpower_step(seeded_p3(), 1)

    def test_rejects_large_k(self):
        with pytest.raises(GraphError):
            kpower_step(seeded_p3(), 9)

    def test_k2_equals_square_round(self):
        for seed in range(4):
            g = seed_recognize_vertices(random_graph(5, 0.5, seed=seed))
            assert np.array_equal(kpower_step(g, 2).labels, sas_step(g).labels)

    def test_k3_same_vertex_split_on_p3(self):
        out = kpower_step(seeded_p3(), 3)
        d = out.labels.diagonal()
        assert d[0] == d[2] != d[1]

    def test_k3_matches_walk_enumeration(self):
        g = seeded_p3()
        out = kpower_step(g, 3)
        walks = brute_walk_codes(g, 3)
        codes = {(u, v): walks[u][v] for u in range(3) for v in range(3)}
        for p1, c1 in codes.items():
            for p2, c2 in codes.items():
                assert (out.labels[p1] == out.labels[p2]) == (c1 == c2)

    def test_k3_numbering_matches_definitional_oracle(self):
        for seed in range(3):
            g = seed_recognize_vertices(random_graph(6, 0.5, seed=400 + seed))
            assert BLANK in g.labels
            assert np.array_equal(kpower_step(g, 3).labels, numbered(brute_walk_codes(g, 3)))

    def test_budget_guard(self, monkeypatch):
        import graphbind.descgraph as mod

        monkeypatch.setattr(mod, "GAMMA_TERM_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            kpower_step(seeded_p3(), 3)

    def test_stable_is_fixpoint_of_cubes(self, reference):
        stable = sas_stabilize(as_graph(reference["g8"])).stable
        assert is_equivalent(kpower_step(stable, 3), stable)


class TestStabilize:
    def test_petersen_single_round(self):
        trace = sas_stabilize(petersen_graph())
        assert trace.rounds == 1
        assert len(vertex_partition(trace.stable).cells) == 1

    def test_dims_strictly_grow_then_repeat(self):
        trace = sas_stabilize(random_graph(9, 0.4, seed=2))
        dims = trace.dims
        assert dims[-1] == dims[-2]
        assert all(a < b for a, b in zip(dims[:-2], dims[1:-1]))

    def test_stable_fixpoint_and_chain(self):
        g = random_graph(8, 0.5, seed=3)
        trace = sas_stabilize(g)
        assert is_equivalent(sas_step(trace.stable), trace.stable)
        assert is_imbedded(g, trace.stable)

    def test_reference_21(self, reference):
        trace = sas_stabilize(as_graph(reference["g21"]))
        assert dim(trace.stable) == 127
        assert is_equivalent(trace.stable, as_graph(reference["g21_stable"]))
        assert cells_from_diagonal(trace.stable) == sorted(reference["g21_stable_cells"])

    def test_reference_24(self, reference):
        trace = sas_stabilize(as_graph(reference["g24"]))
        assert is_equivalent(trace.stable, as_graph(reference["g24_stable"]))
        assert cells_from_diagonal(trace.stable) == sorted(reference["g24_stable_cells"])

    def test_wl_reference_24(self, reference):
        trace = wl_stabilize(as_graph(reference["g24"]))
        ref = DirectedLabeledGraph(np.asarray(reference["g24_wl_stable"]))
        assert is_equivalent(trace.stable, ref)

    def test_equivariance(self):
        g = random_graph(7, 0.5, seed=4)
        sigma = random_permutation(7, seed=5)
        lhs = sas_stabilize(permuted(g, sigma)).stable
        rhs = permuted(sas_stabilize(g).stable, sigma)
        assert is_equivalent(lhs, rhs)

    @given(st.integers(2, 12), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sas_wl_same_vertex_partition(self, n, seed):
        # Round counts are deliberately not compared here: the two processes
        # can take different numbers of rounds to their full fixpoints (see
        # the acceptance test that documents this); the vertex partitions
        # always agree.
        g = random_graph(n, 0.5, seed=seed)
        s = sas_stabilize(g)
        w = wl_stabilize(g)
        assert vertex_partition(s.stable) == vertex_partition(w.stable)


class TestEvaluatedRounds:
    """`sas_stabilize` and `wl_stabilize` evaluate their rounds at random
    points and check the fixpoint exactly; the reference rounds iterated to
    their fixpoint must give the same stable labels, and without collisions
    the same rounds and dims."""

    @staticmethod
    def assert_identical(trace, reference):
        stable, rounds, dims = reference
        assert np.array_equal(trace.stable.labels, stable.labels)
        assert (trace.rounds, trace.dims) == (rounds, dims)

    def test_identical_on_quick_corpus(self):
        from graphbind.validate import CorpusSpec, build_corpus

        for _, g in build_corpus(CorpusSpec(quick=True)):
            self.assert_identical(sas_stabilize(g), exact_sas(g))
            self.assert_identical(wl_stabilize(g), exact_wl(g))

    def test_every_evaluated_round_passes_the_constructors_checks(self, monkeypatch):
        # The loop builds its rounds' graphs without the constructors' checks
        # (`_unchecked`), so the checks run here on every quick-corpus round.
        import graphbind.refine as refine
        from graphbind.validate import CorpusSpec, build_corpus

        evaluated = recorded_outputs(monkeypatch, refine, "_evaluated_round")
        rounds = 0
        for _, g in build_corpus(CorpusSpec(quick=True)):
            for stabilize, kind in ((sas_stabilize, LabeledGraph), (wl_stabilize, DirectedLabeledGraph)):
                evaluated.clear()
                trace = stabilize(g)
                assert type(trace.stable) is kind
                for labels in [*evaluated, trace.stable.labels]:
                    assert np.array_equal(kind(labels).labels, labels)
                    assert labels.dtype == np.int64 and labels.min() == 1
                rounds += len(evaluated)
        assert rounds > 0

    def test_identical_on_binding_graphs_of_yes_and_no_pairs(self, monkeypatch):
        import graphbind.refine as refine

        evaluated = recorded_outputs(monkeypatch, refine, "_evaluated_round")
        discrete = {"sas": 0, "wl": 0}
        for bound in binding_graphs_of_yes_and_no_pairs():
            n = bound.n
            for name, stabilize, exact, entries in (
                ("sas", sas_stabilize, exact_sas, n * (n + 1) // 2),
                ("wl", wl_stabilize, exact_wl, n * n),
            ):
                evaluated.clear()
                trace = stabilize(bound)
                # The reference rounds evaluate too, so count before they run.
                rounds_evaluated = len(evaluated)
                self.assert_identical(trace, exact(bound))
                # A stable graph, discrete or not, is returned without the
                # round that would confirm it; the trace still counts that round.
                discrete[name] += trace.dims[-1] == entries
                assert rounds_evaluated == trace.rounds - 1
        assert discrete["sas"] > 0 and discrete["wl"] > 0

    def test_diagonal_pass_only_rejects(self):
        # Every vertex of the seeded 6-cycle meets the others alike, so all
        # diagonal rows agree; but the non-adjacent pairs at distance 2 and
        # at distance 3 share a label and not their common neighbours.
        import graphbind.refine as refine

        seeded = seed_recognize_vertices(cycle_graph(6))
        diagonal = np.arange(6) * 7
        for g in (seeded, DirectedLabeledGraph(seeded.labels)):
            rows, block = refine._pair_code_builder(g)
            assert next(refine._unequal_classes(rows, block, g.labels.diagonal(), diagonal), None) is None
            assert not _exactly_stable(g, trivial_group(g))

    def test_one_search_and_no_confirming_round_on_the_srg_binding_graph(self, monkeypatch):
        # Shrikhande against the rook graph (N = 561): one automorphism search
        # per decision, on the wing graph, and none in the fixpoint check; the
        # diagonal pass turns away every iterate short of stable, and no round
        # is spent confirming the stable graph.
        import graphbind.decide as decide
        import graphbind.refine as refine

        evaluated = recorded_outputs(monkeypatch, refine, "_evaluated_round")
        searches = recorded_outputs(monkeypatch, decide, "search_automorphisms")
        monkeypatch.setattr(refine, "search_automorphisms", None)
        for process in ("sas", "wl"):
            evaluated.clear()
            searches.clear()
            result = decide.gi_decide(shrikhande_graph(), rook_graph_4x4(), process=process)
            assert len(searches) == 1
            assert len(evaluated) == result.rounds - 1

    def test_every_round_numbers_its_labels_one_to_dim(self, monkeypatch):
        import graphbind.refine as refine
        from graphbind.refine import kpower_stabilize

        outputs = {
            name: recorded_outputs(monkeypatch, refine, name) for name in ("_evaluated_round", "kpower_step")
        }
        splits = recorded_splits(monkeypatch)
        graphs = [random_graph(4 + seed % 7, 0.5, seed=500 + seed) for seed in range(30)]
        traces = [kpower_stabilize(g, 3) for g in graphs[:6]]
        for prime in (PRIME, 2):
            # Over GF(2) collisions are common, so rounds are split by rows.
            monkeypatch.setattr(refine, "PRIME", prime)
            traces += [stabilize(g) for g in graphs for stabilize in (sas_stabilize, wl_stabilize)]
        for process in ("sas", "wl"):
            outputs[f"{process} split"] = [labels for name, _, labels in splits if name == process]
        for name, rounds in outputs.items():
            assert rounds, name
            for out in rounds:
                labels = out if isinstance(out, np.ndarray) else out.labels
                assert np.array_equal(np.unique(labels), np.arange(1, labels.max() + 1)), name
        for trace in traces:
            assert trace.dims[-1] == dim(trace.stable)

    def test_collisions_fall_back_to_the_exact_round(self, monkeypatch):
        # Over GF(2) and GF(3) evaluations collide often; the exact fixpoint
        # check must catch every collision that hides a split.
        import graphbind.refine as refine

        splits = recorded_splits(monkeypatch)
        fallbacks = {"sas": 0, "wl": 0}
        for prime in (2, 3):
            monkeypatch.setattr(refine, "PRIME", prime)
            for seed in range(30):
                g = random_graph(4 + seed % 7, 0.5, seed=500 + seed)
                for process, stabilize, exact in (("sas", sas_stabilize, exact_sas), ("wl", wl_stabilize, exact_wl)):
                    # The reference rounds split too, so count before they run.
                    splits.clear()
                    stable = stabilize(g).stable
                    fallbacks[process] += len(splits)
                    assert np.array_equal(stable.labels, exact(g)[0].labels)
        assert fallbacks["sas"] > 0 and fallbacks["wl"] > 0

    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_verifier_rejects_one_round_short_and_accepts_stable(
        self, reference, monkeypatch, block_bytes
    ):
        import graphbind.refine as refine

        if block_bytes is not None:
            # One row per block: every comparison crosses a block boundary.
            monkeypatch.setattr(refine, "CHECK_BLOCK_BYTES", block_bytes)
        # Given no automorphisms, the check compares every entry; one entry
        # per orbit is checked in TestAutomorphismSearch.
        for g in (
            as_graph(reference["g21"]),
            asymmetric_pair_binding_graph(),
            *symmetric_pair_binding_graphs(),
        ):
            for start, step in seeded_processes(g):
                iterates = stable_iterates(start, step)
                assert len(iterates) >= 3
                assert not _exactly_stable(iterates[-3], trivial_group(iterates[-3]))
                assert _exactly_stable(iterates[-2], trivial_group(iterates[-2]))
        stable = as_graph(reference["g21_stable"])
        assert _exactly_stable(stable, trivial_group(stable))

    @staticmethod
    def assert_check_agrees_with_the_round(graphs):
        """On every exact-round iterate of sas and of wl, the check is true
        iff the next round keeps the dimension."""
        for g in graphs:
            for start, step in seeded_processes(g):
                iterates = stable_iterates(start, step)
                for current, refined in zip(iterates, iterates[1:]):
                    assert _exactly_stable(current, trivial_group(current)) == (dim(refined) == dim(current))

    @pytest.mark.parametrize("block_bytes", [None, 1])
    def test_check_agrees_with_the_round_on_the_quick_corpus(self, monkeypatch, block_bytes):
        import graphbind.refine as refine
        from graphbind.validate import CorpusSpec, build_corpus

        if block_bytes is not None:
            monkeypatch.setattr(refine, "CHECK_BLOCK_BYTES", block_bytes)
        self.assert_check_agrees_with_the_round(g for _, g in build_corpus(CorpusSpec(quick=True)))

    def test_check_agrees_with_the_round_on_binding_graphs(self):
        self.assert_check_agrees_with_the_round(binding_graphs_of_yes_and_no_pairs())

    def test_exactness_bound_raises_before_any_work(self, monkeypatch):
        import graphbind.refine as refine

        def unreachable(g):
            raise AssertionError("seeded before the bound was checked")

        # 3 * (2**27)**2 >= 2**53: even a 3-vertex graph is out of bounds.
        monkeypatch.setattr(refine, "PRIME", 2**27)
        monkeypatch.setattr(refine, "seed_recognize_vertices", unreachable)
        for stabilize in (sas_stabilize, wl_stabilize):
            with pytest.raises(GraphError, match="too large"):
                stabilize(path_graph(3))

    def test_default_binding_budget_is_within_the_bound(self):
        from graphbind.decide import DEFAULT_MAX_BINDING_ORDER

        assert DEFAULT_MAX_BINDING_ORDER * PRIME**2 < 2**53

    def test_sparse_input_labels(self):
        g = LabeledGraph(np.array([[0, 10**15, 7], [10**15, 0, 7], [7, 7, 0]]))
        self.assert_identical(sas_stabilize(g), exact_sas(g))
        self.assert_identical(wl_stabilize(g), exact_wl(g))


def orbit_partition(n: int, generators: list[np.ndarray]) -> Partition:
    """Vertex orbits of the group the permutations generate."""
    cell = list(range(n))

    def root(v):
        while cell[v] != v:
            v = cell[v]
        return v

    for pi in generators:
        for u in range(n):
            cell[root(u)] = root(int(pi[u]))
    cells: dict[int, list[int]] = {}
    for v in range(n):
        cells.setdefault(root(v), []).append(v)
    return Partition.from_cells(cells.values())


class TestAutomorphismSearch:
    """`search_automorphisms` finds label-preserving permutations by
    individualization-refinement, once per decision on the wing graph; the
    stabilizations take their lifts to the binding graph, compute each
    product by orbit rows and check one entry per orbit."""

    @staticmethod
    def stable_graphs(g: LabeledGraph, lifts: list) -> list:
        return [sas_stabilize(g, lifts).stable, wl_stabilize(g, lifts).stable]

    def test_every_permutation_preserves_every_label(self):
        for a, b in [*symmetric_pairs(), (shrikhande_graph(), rook_graph_4x4())]:
            wing = wing_graph(a, b)
            generators = search_automorphisms(wing)
            assert generators
            for pi in generators:
                assert sorted(pi.tolist()) == list(range(wing.n))
                assert np.array_equal(wing.labels[np.ix_(pi, pi)], wing.labels)
            bound, lifts = wing_lifts(a, b)
            for stable in [bound, *self.stable_graphs(bound, lifts)]:
                for pi in lifts:
                    assert sorted(pi.tolist()) == list(range(stable.n))
                    assert np.array_equal(stable.labels[np.ix_(pi, pi)], stable.labels)

    def test_orbits_are_the_stable_cells_on_k33_against_prism(self):
        # On this NO pair the orbits of the lifted group are the stable cells.
        bound, lifts = wing_lifts(*symmetric_pairs()[0])
        for stable in self.stable_graphs(bound, lifts):
            assert orbit_partition(stable.n, lifts) == vertex_partition(stable)

    def test_broken_cell_swap_gets_no_generator_and_is_rejected(self, monkeypatch):
        # Vertices 1 and 2 share a diagonal label, but vertex 0 meets them by
        # different labels: the swap is no automorphism.  The check's
        # diagonal pass finds that (1,1) and (2,2) have different pair codes,
        # and the stabilizers refuse the swap.
        import graphbind.refine as refine

        m = np.array([[3, 1, 2], [1, 4, 0], [2, 0, 4]])
        swap = np.array([0, 2, 1])
        for block_bytes in (refine.CHECK_BLOCK_BYTES, 1):
            monkeypatch.setattr(refine, "CHECK_BLOCK_BYTES", block_bytes)
            for graph in (LabeledGraph(m), DirectedLabeledGraph(m)):
                assert search_automorphisms(graph) == []
                assert not _exactly_stable(graph, trivial_group(graph))
            for stabilize in (sas_stabilize, wl_stabilize):
                with pytest.raises(GraphError, match="automorphism 1 is not"):
                    stabilize(LabeledGraph(m), [np.arange(3), swap])

    def test_least_in_orbit_agrees_with_a_union_find(self):
        # Each generator permutes a random subset of the vertices, so the
        # generated groups have anywhere from one orbit to n.
        rng = np.random.default_rng(40)
        for n in range(1, 41):
            for count in range(5):
                for _ in range(3):
                    generators = []
                    for _ in range(count):
                        pi = np.arange(n)
                        moved = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
                        pi[moved] = rng.permutation(moved)
                        generators.append(pi)
                    expected = np.empty(n, dtype=np.int64)
                    for cell in orbit_partition(n, generators).cells:
                        expected[list(cell)] = min(cell)
                    assert np.array_equal(_least_in_orbit(generators, n), expected)
                    # A previous result stands for its generators, as in the search.
                    joined = np.arange(n)
                    for pi in generators:
                        joined = _least_in_orbit([joined, pi], n)
                    assert np.array_equal(joined, expected)

    def test_stabilizers_refuse_what_is_not_a_vertex_permutation(self):
        g = cycle_graph(4)
        for bad in ([0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], np.array([0.0, 1.0, 2.0, 3.0])):
            with pytest.raises(GraphError, match="automorphism 1 is not"):
                sas_stabilize(g, [np.array([1, 2, 3, 0]), np.asarray(bad)])

    def test_leaf_is_verified_beyond_the_individualized_rows(self, monkeypatch):
        # pi = (0 1)(2 3) maps rows 0 and 1 onto each other label by label,
        # but sends (2,4) to (3,4), labels 6 and 7: the graph has no
        # automorphism besides the identity, and the verifier says so.
        import graphbind.refine as refine

        m = np.array(
            [
                [10, 1, 2, 3, 4],
                [1, 10, 3, 2, 4],
                [2, 3, 10, 5, 6],
                [3, 2, 5, 10, 7],
                [4, 4, 6, 7, 10],
            ]
        )
        pi = np.array([1, 0, 3, 2, 4])
        for u in (0, 1):
            assert np.array_equal(m[pi[u], pi], m[u])
        assert not np.array_equal(m[np.ix_(pi, pi)], m)
        assert not _preserves_labels(m, pi)
        assert search_automorphisms(LabeledGraph(m)) == []
        # Every permutation the search returns passed the whole-matrix
        # verifier, and on the SRG wing graph it turns candidates away.
        verdicts = []

        def recorded(labels, candidate):
            verdicts.append((candidate.copy(), _preserves_labels(labels, candidate)))
            return verdicts[-1][1]

        monkeypatch.setattr(refine, "_preserves_labels", recorded)
        wing = wing_graph(shrikhande_graph(), rook_graph_4x4())
        generators = search_automorphisms(wing)
        accepted = [candidate for candidate, ok in verdicts if ok]
        assert len(accepted) == len(generators) < len(verdicts)
        assert all(np.array_equal(a, g) for a, g in zip(accepted, generators))

    def test_search_budget_on_a_complete_graph(self, monkeypatch):
        # The base leaf of K200 alone takes 199 individualizations; the search
        # individualizes at most n**2 times and finds the whole group.
        import graphbind.refine as refine

        g = seed_recognize_vertices(complete_graph(200))
        individualized = recorded_outputs(monkeypatch, refine, "_individualized")
        generators = search_automorphisms(g)
        for pi in generators:
            assert np.array_equal(g.labels[np.ix_(pi, pi)], g.labels)
        assert g.n <= len(individualized) <= g.n**2
        assert orbit_partition(g.n, generators) == Partition((tuple(range(g.n)),))
        assert _exactly_stable(g, trivial_group(g))
        assert _exactly_stable(g, _symmetry(g.labels, generators, True))

    def test_decisions_identical_without_the_search(self, monkeypatch):
        import graphbind.decide as decide

        s, r = shrikhande_graph(), rook_graph_4x4()
        pairs = [
            (s, r),
            (s, permuted(s, random_permutation(16, seed=1))),
            (r, permuted(r, random_permutation(16, seed=2))),
        ]

        def evidence(result):
            return result.verdict, result.partition, result.rounds, result.dims

        with_search = [evidence(decide.gi_decide(a, b)) for a, b in pairs]
        monkeypatch.setattr(decide, "search_automorphisms", lambda graph: [])
        assert [evidence(decide.gi_decide(a, b)) for a, b in pairs] == with_search
        assert [verdict for verdict, *_ in with_search] == [False, True, True]

    def test_orbits_are_the_oracle_orbits_on_every_small_graph(self):
        # Every graph of order <= 5, and every isomorphism class of order 6
        # under eight labelings: the search is complete at these orders.
        graphs = [g for n in range(1, 6) for g in all_graphs(n)]
        for k, g in enumerate(graphs_up_to_isomorphism(6)):
            graphs += [permuted(g, random_permutation(6, seed=8 * k + i)) for i in range(8)]
        assert len(graphs) == 1099 + 8 * 156
        for g in graphs:
            assert orbit_partition(g.n, search_automorphisms(g)) == automorphism_orbits(g)

    def test_orbits_are_the_oracle_orbits_on_quick_corpus_wing_graphs(self):
        wings = [wing_graph(a, b) for a, b in quick_corpus_pairs() if 2 * a.n + 1 <= 13]
        assert len(wings) >= 40
        for wing in wings:
            generators = search_automorphisms(wing)
            assert orbit_partition(wing.n, generators) == automorphism_orbits(wing, max_n=13)

    def test_lifts_preserve_the_binding_graph(self):
        lifted = 0
        for a, b in [*quick_corpus_pairs(), *symmetric_pairs()]:
            wing = wing_graph(a, b)
            bound = binding_graph(wing)
            for pi in search_automorphisms(wing):
                lift = bound.lift(pi)
                assert np.array_equal(lift[: wing.n], pi)
                assert _preserves_labels(bound.graph.labels, lift)
                lifted += 1
            # A permutation that breaks the wing graph breaks its lift.
            broken = np.arange(wing.n)
            broken[[0, wing.n - 1]] = [wing.n - 1, 0]
            assert not _preserves_labels(bound.graph.labels, bound.lift(broken))
        assert lifted > 0

    @pytest.mark.parametrize("prime", [PRIME, 3])
    def test_orbit_rows_evaluate_as_the_full_product(self, monkeypatch, prime):
        # The evaluated rounds of both processes from the seeded graph up to
        # the first that keeps the dimension, each by orbit rows and by the
        # full product from the same generator state: the same values, and
        # the generator left in the same state.
        import graphbind.refine as refine

        monkeypatch.setattr(refine, "PRIME", prime)
        rounds = 0
        for a, b in srg_and_cfi_pairs():
            bound, lifts = wing_lifts(a, b)
            for start, _ in seeded_processes(bound):
                symmetry = _symmetry(start.labels, lifts, isinstance(start, LabeledGraph))
                assert symmetry.gather is not None
                rng = np.random.default_rng(refine.EVALUATION_SEED)
                current, grew = start, True
                while grew:
                    state = rng.bit_generator.state
                    values = _evaluations(current, rng, symmetry)
                    full_rng = np.random.default_rng()
                    full_rng.bit_generator.state = state
                    trivial = trivial_group(current)
                    full = _evaluations(current, full_rng, trivial)
                    assert np.array_equal(values, full)
                    assert np.array_equal(symmetry.upper, trivial.upper)
                    assert full_rng.bit_generator.state == rng.bit_generator.state
                    rounds += 1
                    rng.bit_generator.state = state
                    refined = refine._unchecked(type(start), refine._evaluated_round(current, rng, symmetry))
                    current, grew = refined, dim(refined) > dim(current)
        assert rounds >= 32

    def test_check_by_orbits_agrees_with_the_round(self):
        # The check started from the orbits' least rows and filtered by the
        # lifted generators answers as the exact round does, on every
        # iterate of the symmetric pairs.
        for a, b in symmetric_pairs():
            bound, lifts = wing_lifts(a, b)
            for start, step in seeded_processes(bound):
                symmetry = _symmetry(start.labels, lifts, isinstance(start, LabeledGraph))
                iterates = stable_iterates(start, step)
                for current, refined in zip(iterates, iterates[1:]):
                    assert _exactly_stable(current, symmetry) == (dim(refined) == dim(current))

    def test_collisions_split_by_rows_under_lifted_automorphisms(self, monkeypatch):
        # Over GF(2) and GF(3) rounds computed by orbit rows collide; the
        # round held is split by rows under the gather index and the stable
        # graph is the exact one.  Collisions change the rounds and dims on
        # the way, but the lifts do not: they match the run without them.
        import graphbind.refine as refine

        bound, lifts = wing_lifts(*symmetric_pairs()[0])
        references = {"sas": exact_sas(bound), "wl": exact_wl(bound)}
        splits = recorded_splits(monkeypatch)
        for prime in (2, 3):
            monkeypatch.setattr(refine, "PRIME", prime)
            for process, stabilize in (("sas", sas_stabilize), ("wl", wl_stabilize)):
                stable, _, dims = references[process]
                trace = stabilize(bound, lifts)
                assert np.array_equal(trace.stable.labels, stable.labels)
                assert trace.dims[-2:] == dims[-2:]
                alone = stabilize(bound)
                assert np.array_equal(alone.stable.labels, stable.labels)
                assert (trace.rounds, trace.dims) == (alone.rounds, alone.dims)
        assert {process for process, by_orbit, _ in splits if by_orbit} == {"sas", "wl"}


class TestDeterminism:
    def test_identical_labels_across_processes(self, reference):
        """Substitution determinism: a separate interpreter must produce the
        byte-identical stable matrices, not merely equivalent ones, although
        the loops draw random evaluation points."""
        import hashlib
        import os
        import subprocess
        import sys

        import graphbind

        # The child imports the same graphbind as this process, installed or not.
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(graphbind.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root, env.get("PYTHONPATH"))))
        script = (
            "import hashlib, numpy as np\n"
            "from graphbind.corpus import demo_graph\n"
            "from graphbind.refine import sas_stabilize, wl_stabilize\n"
            "for stabilize in (sas_stabilize, wl_stabilize):\n"
            "    m = stabilize(demo_graph('demo24')).stable.labels\n"
            "    print(hashlib.sha256(m.tobytes()).hexdigest())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=env
        ).stdout.split()
        from graphbind.corpus import demo_graph

        here = [
            hashlib.sha256(stabilize(demo_graph("demo24")).stable.labels.tobytes()).hexdigest()
            for stabilize in (sas_stabilize, wl_stabilize)
        ]
        assert out == here

    def test_matches_reference_numbering_exactly(self, reference):
        # First-encounter row-major numbering reproduces the bundled
        # reference matrices verbatim, not just up to relabeling.
        stable = sas_stabilize(as_graph(reference["g24"])).stable
        assert np.array_equal(stable.labels, np.asarray(reference["g24_stable"]))
        wl = wl_stabilize(as_graph(reference["g24"])).stable
        assert np.array_equal(wl.labels, np.asarray(reference["g24_wl_stable"]))


class TestKPowerStabilize:
    def test_cube_stabilization_matches_square_route(self):
        from graphbind.refine import kpower_stabilize

        for seed in range(4):
            g = random_graph(6, 0.5, seed=seed)
            k3 = kpower_stabilize(g, 3)
            s2 = sas_stabilize(g)
            assert is_equivalent(k3.stable, s2.stable)


class TestTinyOrders:
    def test_single_vertex(self):
        g = LabeledGraph(np.array([[0]]))
        trace = sas_stabilize(g)
        assert trace.stable.n == 1
        assert trace.rounds >= 1

    def test_two_vertices(self):
        for m in ([[0, 0], [0, 0]], [[0, 1], [1, 0]]):
            trace = sas_stabilize(LabeledGraph(np.array(m)))
            assert is_equivalent(sas_step(trace.stable), trace.stable)
            wl = wl_stabilize(LabeledGraph(np.array(m)))
            assert vertex_partition(wl.stable) == vertex_partition(trace.stable)


class TestNumericPitfall:
    def test_rejects_labeled_input(self):
        with pytest.raises(GraphError):
            numeric_ff_stabilize(LabeledGraph(np.array([[0, 2], [2, 0]])))

    def test_reproduces_pseudo_stable(self, reference):
        trace = numeric_ff_stabilize(as_graph(reference["g21"]))
        assert np.array_equal(trace.stable.labels, np.asarray(reference["g21_ff_pseudo_stable"]))
        exact = sas_stabilize(as_graph(reference["g21"]))
        assert not is_equivalent(trace.stable, exact.stable)

    def test_agrees_on_k3(self):
        trace = numeric_ff_stabilize(complete_graph(3))
        exact = sas_stabilize(complete_graph(3))
        assert is_equivalent(trace.stable, exact.stable)

    def test_agreement_rate_on_small_random_graphs(self):
        agree = 0
        total = 20
        for seed in range(total):
            g = random_graph(7, 0.5, seed=seed)
            if is_equivalent(numeric_ff_stabilize(g).stable, sas_stabilize(g).stable):
                agree += 1
        # The shortcut is usually right at this scale; the point is that it
        # is not always right, which the 21-vertex regression pins down.
        assert agree >= total * 0.8
