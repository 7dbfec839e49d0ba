"""Core graph types, substitution, and the imbedding/equivalence predicates."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphbind.core as core
from graphbind.core import (
    BLANK,
    DirectedLabeledGraph,
    GraphError,
    LabeledGraph,
    OrderMismatchError,
    Partition,
    SymmetryError,
    dense_labels,
    dim,
    distinct_values,
    equivalent_variable_substitution,
    first_encounter_ids,
    first_encounter_relabel,
    induced_subgraph,
    is_equivalent,
    is_imbedded,
    is_simple,
    permuted,
    refine_colours,
)


def _imbedded_by_definition(a, b):
    """Quadruple-loop oracle straight from the definition."""
    n = a.n
    for i in range(n):
        for j in range(n):
            for s in range(n):
                for t in range(n):
                    if b.labels[i, j] == b.labels[s, t] and a.labels[i, j] != a.labels[s, t]:
                        return False
    return True


def random_symmetric(rng, n, high):
    m = rng.integers(0, high, size=(n, n))
    return LabeledGraph(np.triu(m) + np.triu(m, 1).T)


class TestLabeledGraph:
    def test_rejects_asymmetric(self):
        with pytest.raises(SymmetryError):
            LabeledGraph(np.array([[0, 1], [2, 0]]))

    def test_rejects_negative_labels(self):
        with pytest.raises(GraphError):
            LabeledGraph(np.array([[-1]]))

    def test_rejects_empty(self):
        with pytest.raises(GraphError):
            LabeledGraph(np.zeros((0, 0), dtype=int))

    def test_matrix_is_frozen(self):
        g = LabeledGraph(np.zeros((2, 2), dtype=int))
        with pytest.raises(ValueError):
            g.labels[0, 1] = 3

    def test_directed_requires_converse_equivalence(self):
        # (0,1)=5=(2,1) but (1,0)=6 != (1,2)=7: same-label positions must
        # transpose to same-label positions.
        bad = np.array([[1, 5, 2], [6, 1, 7], [3, 5, 1]])
        with pytest.raises(GraphError):
            DirectedLabeledGraph(bad)

    def test_directed_accepts_converse_equivalent(self):
        ok = np.array([[1, 5, 2], [6, 1, 2], [3, 3, 1]])
        assert DirectedLabeledGraph(ok).n == 3

    def test_directed_accepts_what_the_two_way_check_accepts(self):
        # The constructor checks one direction of converse equivalence; the
        # definition, and the check in both directions, accept the same
        # matrices: all 3x3 matrices over 3 labels and random 4x4 ones.
        import itertools

        from graphbind.core import _single_valued

        rng = np.random.default_rng(12)
        matrices = [np.array(m).reshape(3, 3) for m in itertools.product(range(3), repeat=9)]
        matrices += list(rng.integers(0, 3, size=(3000, 4, 4)))
        accepted = 0
        for m in matrices:
            flat, converse = m.ravel(), m.T.ravel()
            by_definition = bool(
                ((flat[:, None] == flat[None, :]) == (converse[:, None] == converse[None, :])).all()
            )
            assert by_definition == (_single_valued(flat, converse) and _single_valued(converse, flat))
            try:
                DirectedLabeledGraph(m)
            except GraphError:
                assert not by_definition
            else:
                assert by_definition
                accepted += 1
        assert 0 < accepted < len(matrices)


class TestSubstitution:
    def test_pattern_example(self):
        out = equivalent_variable_substitution([[("c", 5), ("c", 5)], [("c", 5), ("c", 7)]])
        assert out.labels.tolist() == [[1, 1], [1, 2]]

    def test_all_equal_entries_collapse(self):
        out = equivalent_variable_substitution([["x"] * 3] * 3)
        assert out.labels.tolist() == [[1, 1, 1], [1, 1, 1], [1, 1, 1]]

    def test_random_matrix_is_equivalent_both_ways(self):
        rng = np.random.default_rng(5)
        g = random_symmetric(rng, 5, 4)
        out = equivalent_variable_substitution(g.labels)
        assert _imbedded_by_definition(out, g)
        assert _imbedded_by_definition(g, out)

    def test_rejects_asymmetric_codes(self):
        with pytest.raises(SymmetryError):
            equivalent_variable_substitution([["a", "b"], ["c", "a"]])

    def test_deterministic_first_encounter_row_major(self):
        m = np.array([[9, 4, 4], [4, 9, 2], [4, 2, 5]])
        out = equivalent_variable_substitution(m)
        # 9 encountered first, then 4, then 2, then 5.
        assert out.labels.tolist() == [[1, 2, 2], [2, 1, 3], [2, 3, 4]]
        again = equivalent_variable_substitution(m)
        assert np.array_equal(out.labels, again.labels)

    def test_distinct_code_types_get_distinct_labels(self):
        for a, b in [(1, "1"), ((1, 2), (12,)), (b"ab", ("ab",))]:
            out = equivalent_variable_substitution([[a, b], [b, a]])
            assert out.labels.tolist() == [[1, 2], [2, 1]]

    def test_object_and_integer_paths_agree(self):
        rng = np.random.default_rng(11)
        g = random_symmetric(rng, 6, 5)
        fast = equivalent_variable_substitution(g.labels)
        slow = equivalent_variable_substitution([[int(x) for x in row] for row in g.labels])
        assert np.array_equal(fast.labels, slow.labels)

    @given(st.integers(1, 6), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_substitution_equivalent_property(self, n, seed):
        g = random_symmetric(np.random.default_rng(seed), n, 4)
        out = equivalent_variable_substitution(g.labels)
        assert is_equivalent(g, out)


class TestImbedding:
    def test_coarsest_graph_imbeds_in_all(self):
        rng = np.random.default_rng(1)
        b = random_symmetric(rng, 4, 5)
        a = LabeledGraph(np.full((4, 4), 2))
        assert is_imbedded(a, b)

    def test_two_labels_do_not_imbed_in_one(self):
        a = LabeledGraph(np.array([[1, 2], [2, 1]]))
        b = LabeledGraph(np.array([[3, 3], [3, 3]]))
        assert not is_imbedded(a, b)
        assert is_imbedded(b, a)

    def test_order_mismatch_raises(self):
        with pytest.raises(OrderMismatchError):
            is_imbedded(LabeledGraph(np.zeros((2, 2), int)), LabeledGraph(np.zeros((3, 3), int)))

    def test_p3_vs_k3_not_equivalent(self):
        p3 = LabeledGraph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        k3 = LabeledGraph(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        assert not is_equivalent(p3, k3)

    def test_p3_imbeds_in_its_first_refinement_round(self):
        from graphbind.refine import sas_step, seed_recognize_vertices

        p3 = LabeledGraph(np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]]))
        refined = sas_step(seed_recognize_vertices(p3))
        assert is_imbedded(p3, refined)
        assert _imbedded_by_definition(p3, refined)

    def test_petersen_stable_equivalent_to_its_refined_square(self):
        from graphbind.corpus import petersen_graph
        from graphbind.refine import sas_stabilize, sas_step

        stable = sas_stabilize(petersen_graph()).stable
        assert is_equivalent(stable, sas_step(stable))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_definitional_oracle(self, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, 4, 3)
        b = random_symmetric(rng, 4, 3)
        assert is_imbedded(a, b) == _imbedded_by_definition(a, b)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_dim_monotone_under_imbedding(self, seed):
        rng = np.random.default_rng(seed)
        b = random_symmetric(rng, 5, 5)
        labels = np.unique(b.labels)
        if labels.size < 2:
            return
        a = LabeledGraph(np.where(b.labels == labels[0], labels[1], b.labels))
        assert is_imbedded(a, b)
        assert dim(a) <= dim(b)


class TestDim:
    def test_k3_simple(self):
        k3 = LabeledGraph(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        assert dim(k3) == 2

    def test_all_blank(self):
        assert dim(LabeledGraph(np.zeros((4, 4), int))) == 1

    def test_bound(self):
        rng = np.random.default_rng(3)
        g = random_symmetric(rng, 6, 100)
        assert dim(g) <= 6 * 7 // 2

    def test_distinct_values_match_np_unique(self):
        rng = np.random.default_rng(5)
        for high in (1, 3, 50, 2**62):
            g = random_symmetric(rng, 9, high)
            assert np.array_equal(distinct_values(g.labels), np.unique(g.labels))
            assert dim(g) == np.unique(g.labels).size


def numbered_by_dict(*arrays) -> list[int]:
    """Number the tuples of the arrays' row-major entries 1, 2, ... by first encounter."""
    ids: dict[tuple, int] = {}
    return [ids.setdefault(key, len(ids) + 1) for key in zip(*(np.ravel(a).tolist() for a in arrays))]


def counting_relabels(monkeypatch) -> list:
    """Record the number of tied arrays of every `first_encounter_relabel`
    call made through the module, its own fallback's included."""
    calls = []
    relabel = core.first_encounter_relabel

    def counted(*args):
        calls.append(len(args) - 1)
        return relabel(*args)

    monkeypatch.setattr(core, "first_encounter_relabel", counted)
    return calls


WIDE = st.integers(-(2**60), 2**60)


class TestFirstEncounterRelabel:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_tuple_keys_match_dict_numbering(self, data):
        size = data.draw(st.integers(1, 24))
        column = st.lists(st.one_of(st.integers(0, 3), WIDE), min_size=size, max_size=size)
        arr = data.draw(st.lists(st.integers(0, 3), min_size=size, max_size=size))
        tied = data.draw(st.lists(column, max_size=2))
        out = first_encounter_relabel(np.array(arr), *map(np.array, tied))
        assert out.dtype == np.int64 and out.tolist() == numbered_by_dict(arr, *tied)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.integers(0, 3), WIDE), min_size=1, max_size=40))
    def test_without_tied_arrays_matches_dict_numbering(self, arr):
        assert first_encounter_relabel(np.array(arr)).tolist() == numbered_by_dict(arr)

    def test_tied_arrays_constant_within_runs_take_one_sort(self, monkeypatch):
        rng = np.random.default_rng(21)
        arr = rng.integers(0, 30, size=(20, 20))
        tied = (arr * 7 % 5, arr + 2**60)
        calls = counting_relabels(monkeypatch)
        for k in range(len(tied) + 1):
            calls.clear()
            out = core.first_encounter_relabel(arr, *tied[:k])
            assert out.shape == arr.shape
            assert out.ravel().tolist() == numbered_by_dict(arr, *tied[:k])
            assert calls == [k]

    def test_tied_array_that_splits_a_run_falls_back(self, monkeypatch):
        rng = np.random.default_rng(22)
        arr = rng.integers(0, 5, size=200)
        splitting = (rng.integers(0, 3, size=200), rng.integers(-(2**60), 2**60, size=200))
        calls = counting_relabels(monkeypatch)
        for tied in ((splitting[0],), (arr % 2, splitting[1]), splitting):
            calls.clear()
            out = core.first_encounter_relabel(arr, *tied)
            assert out.tolist() == numbered_by_dict(arr, *tied)
            # One pass over `arr`, then one per tied array folded in, plus one
            # to renumber a tied array that is not dense already.
            assert calls[0] == len(tied) and len(calls) > 1 and set(calls[1:]) == {0}
        assert core.first_encounter_relabel(np.array([1, 1, 2, 2]), np.array([0, 1, 0, 0])).tolist() == [
            1, 2, 3, 3
        ]

    def test_tied_arrays_are_read_row_major(self):
        m = np.array([[5, 5], [6, 5]])
        assert first_encounter_relabel(m, m.T).tolist() == [[1, 2], [3, 1]]
        with pytest.raises(ValueError):
            first_encounter_relabel(m, m[0])

    def test_matches_dict_numbering(self):
        rng = np.random.default_rng(8)
        for shape, high in (((1,), 5), ((7, 7), 3), ((40,), 40), ((12, 12), 2**62)):
            arr = rng.integers(0, high, size=shape)
            ids: dict[int, int] = {}
            expected = [ids.setdefault(int(x), len(ids) + 1) for x in arr.ravel()]
            out = first_encounter_relabel(arr)
            assert out.dtype == np.int64 and out.shape == arr.shape
            assert out.ravel().tolist() == expected

    def test_transposed_view_is_read_row_major(self):
        m = np.array([[5, 7], [6, 5]])
        assert first_encounter_relabel(m.T).tolist() == [[1, 2], [3, 1]]


class TestFirstEncounterIds:
    def test_injective_and_stable(self):
        ids = {}
        assert first_encounter_ids([b"one", b"two", b"one", b"two"], ids) == [1, 2, 1, 2]

    def test_never_issues_blank(self):
        assert BLANK not in first_encounter_ids((bytes([k]) for k in range(20)), {})

    def test_numbering_continues_across_calls(self):
        ids = {}
        assert first_encounter_ids(["a", "b"], ids) == [1, 2]
        assert first_encounter_ids(["c", "a", "d"], ids) == [3, 1, 4]
        assert ids == {"a": 1, "b": 2, "c": 3, "d": 4}


class TestHelpers:
    def test_permuted_identity(self):
        rng = np.random.default_rng(8)
        g = random_symmetric(rng, 5, 3)
        assert np.array_equal(permuted(g, range(5)).labels, g.labels)

    def test_permuted_definition(self):
        rng = np.random.default_rng(9)
        g = random_symmetric(rng, 5, 3)
        sigma = [2, 0, 4, 1, 3]
        h = permuted(g, sigma)
        for i in range(5):
            for j in range(5):
                assert h.labels[sigma[i], sigma[j]] == g.labels[i, j]

    def test_induced_subgraph(self):
        rng = np.random.default_rng(10)
        g = random_symmetric(rng, 6, 3)
        sub = induced_subgraph(g, [1, 3, 5])
        assert sub.labels[0, 1] == g.labels[1, 3]

    def test_is_simple(self):
        assert is_simple(LabeledGraph(np.array([[0, 1], [1, 0]])))
        assert not is_simple(LabeledGraph(np.array([[2, 1], [1, 0]])))


class TestPartitionType:
    def test_rejects_overlap(self):
        with pytest.raises(GraphError):
            Partition.from_cells([[0, 1], [1, 2]])

    def test_rejects_gap(self):
        with pytest.raises(GraphError):
            Partition.from_cells([[0], [2]])

    def test_canonical_order(self):
        p = Partition.from_cells([[3, 1], [0, 2]])
        assert p.cells == ((0, 2), (1, 3))

    def test_refines(self):
        fine = Partition.from_cells([[0], [1], [2, 3]])
        coarse = Partition.from_cells([[0, 1], [2, 3]])
        assert fine.refines(coarse)
        assert not coarse.refines(fine)

    def test_from_colours_groups_equal_colours(self):
        assert Partition.from_colours([5, -1, 5, 2**63 - 1, -1]).cells == ((0, 2), (1, 4), (3,))
        rng = np.random.default_rng(7)
        for n in range(1, 30):
            colours = rng.integers(-3, 4, size=n).tolist()
            groups: dict[int, list[int]] = {}
            for v, colour in enumerate(colours):
                groups.setdefault(colour, []).append(v)
            assert Partition.from_colours(colours) == Partition.from_cells(groups.values())


def signature_colours(labels: np.ndarray) -> list[int]:
    """Stable colour refinement by tuple signatures interned in a dict.

    The oracle's own refinement before `refine_colours`, kept as the
    reference: colours start from the diagonal labels, and a vertex's next
    colour is its colour plus the sorted multiset of (colour of w,
    label(v, w)) over all w, until no class splits.
    """
    rows = labels.tolist()
    colours = [row[v] for v, row in enumerate(rows)]
    classes = len(set(colours))
    while True:
        signatures = [(colours[v], tuple(sorted(zip(colours, row)))) for v, row in enumerate(rows)]
        ids: dict = {}
        refined = first_encounter_ids(signatures, ids)
        if len(ids) == classes:
            return colours
        colours, classes = refined, len(ids)


def ranked_by_python_keys(labels: np.ndarray, colours: np.ndarray) -> list[int]:
    """One round from its definition: each vertex's rank among the sorted distinct keys."""
    keys = [(c, tuple(sorted(zip(colours.tolist(), row)))) for c, row in zip(colours.tolist(), labels.tolist())]
    order = sorted(set(keys))
    return [order.index(key) for key in keys]


def same_partition(a, b) -> bool:
    return np.array_equal(first_encounter_relabel(np.asarray(a)), first_encounter_relabel(np.asarray(b)))


class TestRefineColours:
    """`refine_colours`, run to the stable colouring as the oracle runs it."""

    @staticmethod
    def assert_matches_reference(labels: np.ndarray) -> None:
        from graphbind.oracle import _colours

        assert same_partition(_colours(labels), signature_colours(labels))

    def test_every_graph_of_order_at_most_5(self):
        from graphbind.corpus import all_graphs

        for n in range(1, 6):
            for g in all_graphs(n):
                self.assert_matches_reference(g.labels)

    def test_random_graphs_of_orders_2_to_20(self):
        from graphbind.corpus import random_graph

        rng = np.random.default_rng(11)
        for n in range(2, 21):
            for _ in range(4):
                g = random_graph(n, float(rng.uniform(0.1, 0.9)), seed=int(rng.integers(2**32)))
                self.assert_matches_reference(g.labels)
                self.assert_matches_reference(random_symmetric(rng, n, 4).labels)

    def test_disjoint_unions_with_negative_cross_labels(self):
        from graphbind.corpus import random_graph, random_permutation

        for seed in range(20):
            n = 2 + seed % 9
            a = random_graph(n, 0.5, seed=seed)
            b = permuted(a, random_permutation(n, seed=seed)) if seed % 2 else random_graph(n, 0.5, seed=99 + seed)
            union = np.full((2 * n, 2 * n), -1, dtype=np.int64)
            union[:n, :n] = a.labels
            union[n:, n:] = b.labels
            self.assert_matches_reference(union)

    def test_directed_stable_graphs(self):
        from graphbind.corpus import random_graph
        from graphbind.refine import wl_stabilize

        asymmetric = 0
        for seed in range(12):
            stable = wl_stabilize(random_graph(3 + seed % 8, 0.4, seed=seed)).stable
            asymmetric += not np.array_equal(stable.labels, stable.labels.T)
            self.assert_matches_reference(stable.labels)
        assert asymmetric

    def test_labels_near_the_int64_limit(self):
        rng = np.random.default_rng(5)
        top = np.iinfo(np.int64).max
        for n in (1, 2, 7, 15):
            labels = top - random_symmetric(rng, n, 3).labels
            self.assert_matches_reference(labels)

    def test_one_round_ranks_keys_in_increasing_order(self):
        rng = np.random.default_rng(3)
        for n in range(1, 16):
            labels = rng.integers(0, 4, size=(n, n))
            colours = np.unique(rng.integers(0, 3, size=n), return_inverse=True)[1]
            assert refine_colours(labels, colours).tolist() == ranked_by_python_keys(labels, colours)

    def test_renumbering_the_vertices_permutes_the_ranks(self):
        rng = np.random.default_rng(4)
        for n in range(1, 16):
            labels = rng.integers(0, 4, size=(n, n))
            colours = np.unique(rng.integers(0, 3, size=n), return_inverse=True)[1]
            sigma = rng.permutation(n)
            moved = refine_colours(labels[np.ix_(sigma, sigma)], colours[sigma])
            assert np.array_equal(moved, refine_colours(labels, colours)[sigma])

    @pytest.mark.parametrize(
        "low, high",
        [
            (-9, 3),
            (-(2**40), -(2**40) + 5),
            (40, 45),
            (2**62, 2**62 + 4),
            (2**63 - 6, 2**63 - 1),
            (-(2**63), 2**63 - 1),
        ],
    )
    def test_labels_outside_the_matrix_size(self, low, high):
        # Labels below 0 or at n * n and above, a few distinct values or spread over all of int64.
        rng = np.random.default_rng(6)
        for n in range(1, 12):
            values = np.unique(np.append(rng.integers(low, high, size=3, endpoint=True), high))
            labels = rng.choice(values, size=(n, n))
            colours = np.unique(rng.integers(0, 3, size=n), return_inverse=True)[1]
            ranks = refine_colours(labels, colours)
            # Ranks of the keys of the labels' ranks, their order-preserving renumbering.
            renumbered = np.searchsorted(values, labels)
            assert ranks.tolist() == ranked_by_python_keys(renumbered, colours)
            assert ranks.tolist() == ranked_by_python_keys(labels, colours)
            sigma = rng.permutation(n)
            moved = refine_colours(labels[np.ix_(sigma, sigma)], colours[sigma])
            assert np.array_equal(moved, ranks[sigma])

    def test_dense_labels(self):
        inside = np.array([[0, 3], [2, 1]])
        assert dense_labels(inside) is inside
        assert dense_labels(inside + 7).tolist() == [[0, 3], [2, 1]]
        assert dense_labels(inside - 9).tolist() == [[0, 3], [2, 1]]
        spread = np.array([[2**63 - 1, -5], [2**40, -5]])
        assert dense_labels(spread).tolist() == [[2, 0], [1, 0]]

    def test_colours_stay_below_the_order(self, monkeypatch):
        import graphbind.binding
        import graphbind.core
        import graphbind.partition
        import graphbind.validate
        from graphbind.binding import check_stable_bv_labeling
        from graphbind.corpus import cycle_graph, random_graph
        from graphbind.oracle import automorphism_orbits, is_isomorphic_bruteforce
        from graphbind.partition import is_equitable, is_strongly_equitable, vertex_partition
        from graphbind.refine import sas_stabilize, wl_stabilize
        from graphbind.validate import partition_properties

        calls = []

        def checked(labels, colours):
            assert colours.dtype.kind == "i" and 0 <= colours.min() and colours.max() < colours.size
            assert labels.shape == (colours.size, colours.size)
            calls.append(colours.size)
            return refine_colours(labels, colours)

        # The oracle's rounds run in `equitable_colours`, which looks the round up in core.
        for module in (graphbind.binding, graphbind.core, graphbind.partition, graphbind.validate):
            monkeypatch.setattr(module, "refine_colours", checked)
        g = random_graph(7, 0.5, seed=3)
        h = LabeledGraph(g.labels * (2**62) + 5)
        assert is_isomorphic_bruteforce(h, h) is not None
        automorphism_orbits(h)
        for stable in (sas_stabilize(g).stable, wl_stabilize(g).stable):
            is_equitable(stable, vertex_partition(stable))
            is_strongly_equitable(stable, vertex_partition(stable))
        partition_properties(cycle_graph(6))
        check_stable_bv_labeling({3: -4, 4: 2**62, 5: -4}, 3)
        assert len(calls) >= 10
