"""Binding graphs, wing graphs, derived relabelings, and labeling checks."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from graphbind.binding import (
    BindingGraph,
    BvLabelingReport,
    binding_graph,
    build_phi,
    build_psi,
    build_theta,
    check_stable_bv_labeling,
    pair_rank,
    plain_binding_graph,
    wing_graph,
)
from graphbind.core import (
    BLANK,
    GraphError,
    LabeledGraph,
    Partition,
    induced_subgraph,
    is_equivalent,
    is_imbedded,
    permuted,
)
from graphbind.corpus import (
    complete_graph,
    cycle_graph,
    from_edges,
    nonisomorphic_connected_graphs,
    path_graph,
    random_connected_graph,
)
from graphbind.oracle import automorphism_orbits, is_isomorphic_bruteforce
from graphbind.partition import vertex_partition
from graphbind.refine import sas_stabilize, wl_stabilize

from conftest import as_graph, binders


def binder_permutation(ours, ref_matrix: np.ndarray) -> list[int]:
    """Vertex map from our binder numbering to a reference numbering, read
    off the reference's binding adjacencies."""
    n = ours.basic_n
    ref_pairs = {}
    for p in range(n, ref_matrix.shape[0]):
        nb = tuple(sorted(np.flatnonzero(ref_matrix[p]).tolist()))
        ref_pairs[nb] = p
    perm = list(range(n)) + [0] * (ours.n1 - n)
    for pair, p in binders(ours).items():
        perm[p] = ref_pairs[pair]
    return perm


class TestBindingGraph:
    def test_triangle(self):
        b = binding_graph(complete_graph(3))
        assert b.n1 == 6
        degrees = b.graph.labels.sum(axis=1)
        assert degrees[3:].tolist() == [2, 2, 2]

    def test_path4_structure(self):
        b = binding_graph(path_graph(4))
        assert b.n1 == 10
        # each basic vertex gains n-1 = 3 binding neighbors
        binding_part = b.graph.labels[:4, 4:]
        assert binding_part.sum(axis=1).tolist() == [3, 3, 3, 3]

    def test_basic_subgraph_is_input(self):
        g = random_connected_graph(6, 0.5, seed=3)
        b = binding_graph(g)
        assert np.array_equal(induced_subgraph(b.graph, range(6)).labels, g.labels)

    def test_rejects_small_or_disconnected(self):
        with pytest.raises(GraphError):
            binding_graph(complete_graph(2))
        with pytest.raises(GraphError):
            binding_graph(from_edges(4, [(0, 1)]))

    def test_rejects_non_simple(self):
        with pytest.raises(GraphError):
            binding_graph(LabeledGraph(np.array([[2, 1], [1, 2]])))

    def test_reference_binding_graph(self, reference):
        b = binding_graph(as_graph(reference["g8"]))
        perm = binder_permutation(b, np.asarray(reference["g8_binding"]))
        assert np.array_equal(
            permuted(b.graph, perm).labels, np.asarray(reference["g8_binding"])
        )

    def test_pair_rank_is_lexicographic(self):
        ranks = [pair_rank(u, v, 4) for u in range(4) for v in range(u + 1, 4)]
        assert ranks == list(range(6))
        b = binding_graph(complete_graph(4))
        for u in range(4):
            for v in range(u + 1, 4):
                assert b.binding_vertex(u, v) == b.binding_vertex(v, u) == 4 + pair_rank(u, v, 4)

    def test_rejects_a_graph_not_numbered_by_pair_rank(self):
        b = binding_graph(cycle_graph(4))
        with pytest.raises(GraphError, match="^binding graph of 5 basic vertices has order 15$"):
            BindingGraph(graph=b.graph, basic_n=5)
        with pytest.raises(GraphError, match="^binding graph of -2 basic vertices has order 1$"):
            BindingGraph(graph=LabeledGraph(np.zeros((1, 1), dtype=np.int64)), basic_n=-2)
        # Binders swapped in pairs: each still binds exactly one basic pair,
        # but not the pair that its `pair_rank` number names, so the lift of
        # a basic automorphism would not preserve the graph.
        swapped = permuted(b.graph, [0, 1, 2, 3, 5, 4, 7, 6, 9, 8])
        with pytest.raises(GraphError, match=r"^binding vertex 4 must be adjacent to exactly \{0,1\}$"):
            BindingGraph(graph=swapped, basic_n=4)
        # A binding vertex with a non-blank diagonal.
        looped = b.graph.labels.copy()
        looped[7, 7] = 1
        with pytest.raises(GraphError, match=r"^binding vertex 7 must be adjacent to exactly \{1,2\}$"):
            BindingGraph(graph=LabeledGraph(looped), basic_n=4)
        assert BindingGraph(graph=b.graph, basic_n=4).binding_vertex(1, 2) == 7


class TestWingGraph:
    def test_two_triangles(self):
        w = wing_graph(complete_graph(3), complete_graph(3))
        assert w.n == 7
        assert w.labels[6].sum() == 6

    def test_degree_split(self):
        w = wing_graph(cycle_graph(4), complete_graph(4))
        assert w.n == 9
        degrees = (w.labels != 0).sum(axis=1)
        assert degrees[8] == 8
        assert sorted(degrees[:4].tolist()) == [3, 3, 3, 3]
        assert sorted(degrees[4:8].tolist()) == [4, 4, 4, 4]

    def test_apex_is_singleton_stable_cell(self):
        w = wing_graph(cycle_graph(4), cycle_graph(4))
        cells = vertex_partition(sas_stabilize(w).stable).cells
        assert (8,) in cells

    def test_rejects_order_mismatch(self):
        with pytest.raises(GraphError):
            wing_graph(complete_graph(3), complete_graph(4))

    def test_rejects_disconnected_inputs(self):
        with pytest.raises(GraphError):
            wing_graph(from_edges(4, [(0, 1)]), complete_graph(4))


@pytest.fixture(scope="module")
def eight(reference):
    g = as_graph(reference["g8"])
    b = binding_graph(g)
    stable = sas_stabilize(b.graph).stable
    return reference, b, stable


class TestDerived:
    def test_psi_phi_chain(self, eight):
        _, b, stable = eight
        psi = build_psi(b, stable)
        phi = build_phi(b, stable)
        assert is_imbedded(b.graph, psi)
        assert is_imbedded(psi, stable)
        assert is_imbedded(phi, psi)

    def test_phi_blanks_basic_edges(self, eight):
        _, b, stable = eight
        phi = build_phi(b, stable)
        n = b.basic_n
        off = ~np.eye(n, dtype=bool)
        assert (phi.labels[:n, :n][off] == BLANK).all()

    def test_phi_matches_reference(self, eight):
        reference, b, stable = eight
        phi = build_phi(b, stable)
        perm = binder_permutation(b, np.asarray(reference["g8_binding"]))
        assert is_equivalent(permuted(phi, perm), as_graph(reference["g8_phi"]))

    def test_theta_matches_reference(self, eight):
        reference, b, stable = eight
        theta = build_theta(build_phi(b, stable), b)
        perm = binder_permutation(b, np.asarray(reference["g8_binding"]))
        assert is_equivalent(permuted(theta, perm), as_graph(reference["g8_theta"]))

    def test_phi_and_theta_restabilize_to_stable(self, eight):
        _, b, stable = eight
        phi = build_phi(b, stable)
        theta = build_theta(phi, b)
        assert is_equivalent(sas_stabilize(phi).stable, stable)
        assert is_equivalent(sas_stabilize(theta).stable, sas_stabilize(phi).stable)

    def test_theta_wl_partition_matches_phi(self, eight):
        _, b, stable = eight
        phi = build_phi(b, stable)
        theta = build_theta(phi, b)
        assert vertex_partition(wl_stabilize(theta).stable) == vertex_partition(
            wl_stabilize(phi).stable
        )

    def test_order_mismatch_rejected(self, eight):
        _, b, stable = eight
        with pytest.raises(GraphError):
            build_psi(b, complete_graph(4))
        with pytest.raises(GraphError):
            build_theta(complete_graph(4), b)


def counted_bv_labeling(pi: dict[int, int], n: int) -> BvLabelingReport:
    """`check_stable_bv_labeling` as it counted types and degrees in dict loops,
    kept as the reference for its colour-refinement rounds."""
    pairs = binders(plain_binding_graph(n))
    bound = {p: pair for pair, p in pairs.items()}
    types: dict[int, Counter] = {u: Counter() for u in range(n)}
    for (u, v), p in pairs.items():
        types[u][pi[p]] += 1
        types[v][pi[p]] += 1
    by_type: dict[tuple, list[int]] = {}
    for u in range(n):
        by_type.setdefault(tuple(sorted(types[u].items())), []).append(u)
    basic_cells = sorted(by_type.values(), key=lambda c: c[0])
    by_label: dict[int, list[int]] = {}
    for p in sorted(pi):
        by_label.setdefault(pi[p], []).append(p)
    binding_cells = sorted(by_label.values(), key=lambda c: c[0])
    cell_of_basic = {u: k for k, cell in enumerate(basic_cells) for u in cell}
    degree_table: dict[tuple[int, int], int | None] = {}
    stable = True
    for dk, dcell in enumerate(binding_cells):
        for ck in range(len(basic_cells)):
            degrees = {(cell_of_basic[bound[p][0]] == ck) + (cell_of_basic[bound[p][1]] == ck) for p in dcell}
            degree_table[(dk, ck)] = degrees.pop() if len(degrees) == 1 else None
            stable &= degree_table[(dk, ck)] is not None
    return BvLabelingReport(
        stable=stable,
        basic_partition=Partition.from_cells(basic_cells),
        binding_partition=Partition.from_cells([[p - n for p in cell] for cell in binding_cells]),
        degree_table=degree_table,
    )


#: Labels drawn by `random_bv_labeling`: negative ones down to -2**63, small
#: ones and ones at 2**62 and above, but never the reserved 0 and 1.
BV_LABELS = [-(2**62), -7, -1, 2, 3, 5, 2**62, 2**62 + 9, 2**63 - 1, -(2**63)]


def random_bv_labeling(rng: np.random.Generator, b: BindingGraph) -> dict[int, int]:
    """A binding-vertex labeling of `b`: a random symmetric function of the
    colours of each binding vertex's two basic vertices, under a random
    colouring with up to three colours (stable when the function separates
    colour pairs), or with probability 1/4 a label drawn for each binding
    vertex on its own."""
    colour = rng.integers(0, rng.integers(1, 4), size=b.basic_n)
    table = rng.choice(BV_LABELS, size=(3, 3))
    table = np.minimum(table, table.T) if rng.random() < 0.5 else np.maximum(table, table.T)
    if rng.random() < 0.25:
        return {p: int(rng.choice(BV_LABELS[:4])) for p in binders(b).values()}
    return {p: int(table[colour[u], colour[v]]) for (u, v), p in binders(b).items()}


class TestPlainBindingAndLabelings:
    def test_plain_binding_structure(self):
        b = plain_binding_graph(4)
        assert b.n1 == 10
        assert (b.graph.labels[:4, :4] == BLANK).all()

    def test_discrete_labeling_is_stable_and_discrete(self):
        n = 3
        pi = {3: 5, 4: 6, 5: 7}
        report = check_stable_bv_labeling(pi, n)
        assert report.stable
        assert all(len(c) == 1 for c in report.basic_partition.cells)

    def test_uniform_labeling_single_basic_cell(self):
        n = 5
        b = plain_binding_graph(n)
        pi = {p: 9 for p in range(n, b.n1)}
        report = check_stable_bv_labeling(pi, n)
        assert report.stable
        assert report.basic_partition.cells == (tuple(range(n)),)
        assert report.degree_table[(0, 0)] == 2

    def test_unstable_labeling_detected(self):
        # Distinguish the binder of {0,1} from the rest: vertices 0,1 get a
        # different type than 2,3, but the shared cell of the remaining
        # binders is irregular to the split basic cells.
        n = 4
        b = plain_binding_graph(n)
        pi = {p: 3 for p in range(n, b.n1)}
        pi[b.binding_vertex(0, 1)] = 4
        report = check_stable_bv_labeling(pi, n)
        assert not report.stable
        assert None in report.degree_table.values()

    def test_theta_labels_form_stable_labeling(self, reference):
        g = as_graph(reference["g8"])
        b = binding_graph(g)
        stable = sas_stabilize(b.graph).stable
        phi = build_phi(b, stable)
        theta = build_theta(phi, b)
        n = b.basic_n
        base = int(theta.labels.max()) + 1
        pi = {p: base + int(theta.labels[p, p]) for p in range(n, b.n1)}
        assert check_stable_bv_labeling(pi, n).stable

    def test_matches_the_counting_reference(self):
        rng = np.random.default_rng(18)
        answers = {True: 0, False: 0}
        for k in range(1200):
            n = 2 + k % 11
            pi = random_bv_labeling(rng, plain_binding_graph(n))
            report = check_stable_bv_labeling(pi, n)
            assert report == counted_bv_labeling(pi, n), (n, pi)
            answers[report.stable] += 1
        assert min(answers.values()) >= 100, answers

    def test_rejects_reserved_labels(self):
        with pytest.raises(GraphError):
            check_stable_bv_labeling({3: 1, 4: 5, 5: 6}, 3)

    @pytest.mark.parametrize("label", [2**63, -(2**63) - 1])
    def test_rejects_labels_outside_int64(self, label):
        with pytest.raises(GraphError, match="int64"):
            check_stable_bv_labeling({3: label, 4: 5, 5: 6}, 3)

    def test_rejects_incomplete_labeling(self):
        with pytest.raises(GraphError):
            check_stable_bv_labeling({3: 5}, 3)


class TestBindingTheorems:
    def test_completeness_on_order_four_classes(self):
        reps = nonisomorphic_connected_graphs(4)
        assert len(reps) == 6
        for a in reps:
            for b in reps:
                plain = is_isomorphic_bruteforce(a, b) is not None
                bound = (
                    is_isomorphic_bruteforce(binding_graph(a).graph, binding_graph(b).graph)
                    is not None
                )
                assert plain == bound

    def test_basic_orbits_agree(self):
        for seed in range(4):
            g = random_connected_graph(5, 0.6, seed=seed)
            b = binding_graph(g)
            orbit_cells = automorphism_orbits(b.graph, max_n=b.n1).cells
            basic = sorted(
                tuple(v for v in cell if v < 5) for cell in orbit_cells if any(v < 5 for v in cell)
            )
            assert basic == sorted(automorphism_orbits(g).cells)

    def test_reference_24_binding_basic_cells(self, reference):
        g = as_graph(reference["g24"])
        b = binding_graph(g)
        stable = sas_stabilize(b.graph).stable
        cells = [
            list(cell)
            for cell in vertex_partition(stable).cells
            if cell[0] < 24
        ]
        assert sorted(cells) == sorted(reference["g24_binding_basic_cells"])
