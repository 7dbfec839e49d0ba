"""Brute-force oracles, audited against unrestricted search and full enumeration."""

from __future__ import annotations

import sys
from itertools import combinations, permutations

import numpy as np
import pytest

from graphbind.binding import binding_graph
from graphbind.core import LabeledGraph, permuted, same_matrix
from graphbind.corpus import (
    cfi_graph,
    complete_graph,
    cycle_graph,
    from_edges,
    nonisomorphic_connected_graphs,
    path_graph,
    petersen_graph,
    random_connected_graph,
    random_graph,
    random_permutation,
    rook_graph_4x4,
    shrikhande_graph,
)
from graphbind.oracle import (
    SEARCH_BOUND,
    OracleBoundError,
    _search,
    automorphism_orbits,
    is_isomorphic_bruteforce,
)
from graphbind.partition import vertex_partition
from graphbind.refine import sas_stabilize

from conftest import as_graph


def orbits_by_enumeration(g: LabeledGraph):
    """Definitional oracle: enumerate the whole automorphism group."""
    n = g.n
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for sigma in permutations(range(n)):
        if same_matrix(permuted(g, list(sigma)), g):
            for i, img in enumerate(sigma):
                ri, rj = find(i), find(img)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for v in range(n):
        groups.setdefault(find(v), []).append(v)
    return sorted(tuple(c) for c in groups.values())


def unrestricted(n: int) -> list[list[int]]:
    """Every vertex a candidate image of every vertex: a search that assumes nothing."""
    return [list(range(n)) for _ in range(n)]


def unrestricted_witness(a: LabeledGraph, b: LabeledGraph):
    return _search(a.labels, b.labels, list(range(a.n)), unrestricted(a.n))


def unrestricted_orbits(g: LabeledGraph):
    """u and v share an orbit iff the unrestricted search maps u to v."""
    cells: list[tuple[int, ...]] = []
    for u in range(g.n):
        if any(u in cell for cell in cells):
            continue
        order = [u] + [i for i in range(g.n) if i != u]
        cell = [u]
        for v in range(u + 1, g.n):
            candidates = unrestricted(g.n)
            candidates[u] = [v]
            if _search(g.labels, g.labels, order, candidates) is not None:
                cell.append(v)
        cells.append(tuple(cell))
    return sorted(cells)


def binding_graphs_of_small_representatives():
    """Binding graphs of the connected order-4 and order-5 representatives."""
    return [binding_graph(g).graph for n in (4, 5) for g in nonisomorphic_connected_graphs(n)]


class TestOrbits:
    def test_c4_single_orbit(self):
        assert automorphism_orbits(cycle_graph(4)).cells == ((0, 1, 2, 3),)

    def test_p3(self):
        assert automorphism_orbits(path_graph(3)).cells == ((0, 2), (1,))

    def test_reference_21(self, reference):
        orbits = automorphism_orbits(as_graph(reference["g21"]), max_n=21)
        assert sorted(list(c) for c in orbits.cells) == sorted(reference["g21_stable_cells"])

    def test_matches_full_enumeration(self):
        for seed in range(12):
            g = random_graph(6, 0.5, seed=seed)
            expected = orbits_by_enumeration(g)
            assert sorted(automorphism_orbits(g).cells) == expected

    def test_orbits_refine_stable_cells(self):
        for seed in range(8):
            g = random_graph(7, 0.5, seed=100 + seed)
            orbits = automorphism_orbits(g)
            assert orbits.refines(vertex_partition(sas_stabilize(g).stable))

    def test_bound(self):
        assert SEARCH_BOUND == 16
        assert automorphism_orbits(random_graph(16, 0.5, seed=0)).n == 16
        big = random_graph(17, 0.5, seed=0)
        with pytest.raises(OracleBoundError):
            automorphism_orbits(big)
        with pytest.raises(OracleBoundError):
            is_isomorphic_bruteforce(big, big)
        assert automorphism_orbits(big, max_n=17).n == 17

    def test_unrestricted_search_agrees(self):
        for seed in range(20):
            n = 3 + seed % 8
            g = random_graph(n, 0.5, seed=300 + seed)
            assert sorted(automorphism_orbits(g).cells) == unrestricted_orbits(g)
        for g in binding_graphs_of_small_representatives():
            assert sorted(automorphism_orbits(g).cells) == unrestricted_orbits(g)


class TestIsomorphism:
    def test_relabeled_cycle(self):
        c5 = cycle_graph(5)
        sigma = random_permutation(5, seed=9)
        witness = is_isomorphic_bruteforce(c5, permuted(c5, sigma))
        assert witness is not None

    def test_k4_vs_c4(self):
        assert is_isomorphic_bruteforce(complete_graph(4), cycle_graph(4)) is None

    def test_witness_satisfies_definition(self):
        a = random_connected_graph(6, 0.5, seed=1)
        sigma = random_permutation(6, seed=2)
        b = permuted(a, sigma)
        # a[w(i)][w(j)] == b[i][j]: relabeling a by the witness gives b.
        witness = is_isomorphic_bruteforce(b, a)
        assert witness is not None
        idx = np.asarray(witness)
        assert np.array_equal(b.labels[np.ix_(idx, idx)], a.labels)

    def test_lexicographically_least_witness(self):
        c4 = cycle_graph(4)
        all_witnesses = sorted(
            sigma
            for sigma in permutations(range(4))
            if np.array_equal(c4.labels[np.ix_(np.array(sigma), np.array(sigma))], c4.labels)
        )
        assert is_isomorphic_bruteforce(c4, c4) == all_witnesses[0]

    def test_tree_leaf_move_matches_exhaustive_check(self):
        tree = from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4), (4, 5)])
        moved = from_edges(6, [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5)])
        got = is_isomorphic_bruteforce(tree, moved) is not None
        brute = any(
            np.array_equal(tree.labels[np.ix_(np.array(s), np.array(s))], moved.labels)
            for s in permutations(range(6))
        )
        assert got == brute

    def test_pruned_and_unpruned_agree(self):
        """Candidates pruned by colour give the witness of the unrestricted search."""
        pairs = []
        for seed in range(30):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(3, 11))
            a = random_graph(n, 0.5, seed=seed)
            if rng.random() < 0.5:
                b = permuted(a, random_permutation(n, seed=seed + 1))
            else:
                b = random_graph(n, 0.5, seed=seed + 10_000)
            pairs.append((a, b))
        bindings = binding_graphs_of_small_representatives()
        for k, a in enumerate(bindings):
            pairs.append((a, bindings[k - 1]))
            # The unrestricted search takes seconds on some relabeled order-15
            # binding graphs, so relabeled copies are of order 10.
            if a.n == 10:
                pairs.append((a, permuted(a, random_permutation(a.n, seed=k))))
        for a, b in pairs:
            # Both are the lexicographically least witness, or both None.
            assert is_isomorphic_bruteforce(a, b) == unrestricted_witness(a, b)

    def test_labels_must_match_exactly(self):
        a = LabeledGraph(np.array([[0, 7], [7, 0]]))
        b = LabeledGraph(np.array([[0, 9], [9, 0]]))
        assert is_isomorphic_bruteforce(a, b) is None

    def test_order_mismatch_is_none(self):
        assert is_isomorphic_bruteforce(complete_graph(3), complete_graph(4)) is None


class TestStandsAlone:
    """The oracles audit the refinement, so they must not call it."""

    def test_right_answers_with_the_stabilizers_unavailable(self, monkeypatch):
        def unavailable(*args, **kwargs):
            raise AssertionError("the oracle called a stabilizer")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "graphbind":
                for attr in ("sas_stabilize", "wl_stabilize"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, unavailable)
        assert automorphism_orbits(path_graph(3)).cells == ((0, 2), (1,))
        assert automorphism_orbits(petersen_graph()).cells == (tuple(range(10)),)
        g = random_graph(6, 0.5, seed=4)
        assert sorted(automorphism_orbits(g).cells) == orbits_by_enumeration(g)
        k4 = list(combinations(range(4), 2))
        assert is_isomorphic_bruteforce(rook_graph_4x4(), cfi_graph(k4, False)) is not None
        assert is_isomorphic_bruteforce(rook_graph_4x4(), shrikhande_graph()) is None
        a = random_connected_graph(8, 0.5, seed=5)
        b = permuted(a, random_permutation(8, seed=6))
        assert is_isomorphic_bruteforce(a, b) == unrestricted_witness(a, b)
