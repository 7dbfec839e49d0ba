"""The three description-graph routes and their cross-equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from graphbind.core import GraphError, LabeledGraph, dim, is_equivalent, is_imbedded
from graphbind.corpus import (
    all_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from graphbind.descgraph import (
    BudgetExceededError,
    adjoint_description_graph,
    gamma_description_graph,
    minimal_polynomial_degree,
    spectral_decomposition,
    spectral_description_graph,
)
from graphbind.refine import sas_stabilize


def brute_walk_counts(g: LabeledGraph, max_len: int):
    """Definitional oracle: enumerate genuine walks and tally label sorts."""
    n = g.n
    m = g.labels
    table = {}
    for u in range(n):
        for v in range(n):
            sorts = {}
            if u == v:
                sorts[(0, ())] = 1
            frontier = [(u, ())]
            for _ in range(max_len):
                nxt = []
                for at, sort in frontier:
                    for w in range(n):
                        if m[at, w] != 0:
                            nxt.append((w, tuple(sorted(sort + (int(m[at, w]),)))))
                for w, sort in nxt:
                    if w == v:
                        key = (len(sort), sort)
                        sorts[key] = sorts.get(key, 0) + 1
                frontier = nxt
            table[(u, v)] = tuple(sorted(sorts.items()))
    return table


class TestGamma:
    def test_complete_graph_two_classes(self):
        assert dim(gamma_description_graph(complete_graph(5))) == 2

    def test_p3_splits_middle_vertex_and_edge_vs_blank(self):
        out = gamma_description_graph(path_graph(3))
        d = out.labels.diagonal()
        assert d[0] == d[2] != d[1]
        assert out.labels[0, 1] != out.labels[0, 2]

    def test_matches_walk_enumeration_oracle(self):
        g = random_graph(5, 0.5, seed=21)
        out = gamma_description_graph(g, 4)
        counts = brute_walk_counts(g, 4)
        n = g.n
        for u in range(n):
            for v in range(n):
                for r in range(n):
                    for s in range(n):
                        assert (out.labels[u, v] == out.labels[r, s]) == (
                            counts[(u, v)] == counts[(r, s)]
                        )

    def test_labels_number_walk_counts_by_first_encounter(self):
        for g in (random_graph(5, 0.5, seed=21), _labeled(4)):
            counts = brute_walk_counts(g, 4)
            ids: dict = {}
            expected = [
                [ids.setdefault(counts[(u, v)], len(ids) + 1) for v in range(g.n)]
                for u in range(g.n)
            ]
            assert np.array_equal(gamma_description_graph(g, 4).labels, expected)

    def test_negative_truncation_rejected(self):
        for g in (path_graph(3), complete_graph(1)):
            with pytest.raises(GraphError):
                gamma_description_graph(g, -1)

    def test_truncation_at_minimal_polynomial_degree(self):
        for seed in range(30):
            g = random_graph(6, 0.5, seed=seed)
            m = minimal_polynomial_degree(g)
            assert is_equivalent(
                gamma_description_graph(g, max(m - 1, 0)), gamma_description_graph(g)
            )

    def test_chain_input_description_stable(self):
        for seed in range(8):
            g = random_graph(6, 0.5, seed=40 + seed)
            desc = gamma_description_graph(g)
            stable = sas_stabilize(g).stable
            assert is_imbedded(g, desc)
            assert is_imbedded(desc, stable)

    def test_diagonal_never_leaks_off_diagonal(self):
        for seed in range(8):
            g = random_graph(6, 0.5, seed=60 + seed)
            out = gamma_description_graph(g)
            diag = set(out.labels.diagonal().tolist())
            off = set(out.labels[~np.eye(6, dtype=bool)].tolist())
            assert not diag & off

    def test_strongly_regular_one_description_round(self):
        g = petersen_graph()
        assert is_equivalent(gamma_description_graph(g), sas_stabilize(g).stable)

    def test_budget_guard(self, monkeypatch):
        import graphbind.descgraph as mod

        monkeypatch.setattr(mod, "GAMMA_TERM_BUDGET", 10)
        with pytest.raises(BudgetExceededError):
            gamma_description_graph(_labeled(5), 4)


def _labeled(n):
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(n):
            m[i, j] = m[j, i] = (i * j + i + j) % 5 + 1
    return LabeledGraph(m)


class TestAdjoint:
    def test_k2_with_labeled_edge(self):
        g = LabeledGraph(np.array([[0, 1], [1, 0]]))
        out = adjoint_description_graph(g, seed=1)
        assert out.labels[0, 0] == out.labels[1, 1]
        assert out.labels[0, 1] != out.labels[0, 0]

    def test_p3_matches_gamma(self):
        g = path_graph(3)
        assert is_equivalent(adjoint_description_graph(g, seed=2), gamma_description_graph(g))

    def test_random_graphs_match_gamma(self):
        for seed in range(20):
            g = random_graph(6, 0.5, seed=seed)
            assert is_equivalent(
                adjoint_description_graph(g, seed=seed), gamma_description_graph(g)
            )

    def test_labeled_graphs_match_gamma(self):
        g = _labeled(5)
        assert is_equivalent(adjoint_description_graph(g, seed=5), gamma_description_graph(g))


class TestSpectral:
    def test_complete_graph_two_classes(self):
        assert dim(spectral_description_graph(complete_graph(4))) == 2

    def test_c4_matches_gamma(self):
        g = cycle_graph(4)
        assert is_equivalent(spectral_description_graph(g), gamma_description_graph(g))

    def test_petersen_matches_gamma(self):
        g = petersen_graph()
        assert is_equivalent(spectral_description_graph(g), gamma_description_graph(g))

    def test_rejects_labeled_input(self):
        with pytest.raises(GraphError):
            spectral_description_graph(_labeled(4))

    def test_decomposition_reconstructs(self):
        g = petersen_graph()
        dec = spectral_decomposition(g)
        recon = sum(mu * p for mu, p in zip(dec.eigenvalues, dec.projectors))
        assert np.allclose(recon, g.labels.astype(float))
        assert len(dec.eigenvalues) == 3
        assert not dec.ill_conditioned

    def test_ill_conditioned_grouping_warns(self):
        # With an absurd tolerance the gap between eigenvalue groups falls
        # below ten times tol, which must be reported, not hidden.
        g = path_graph(3)
        with pytest.warns(RuntimeWarning):
            spectral_description_graph(g, tol=0.2)


class TestThreeWay:
    def test_exhaustive_order_four(self):
        for k, g in enumerate(all_graphs(4)):
            gamma = gamma_description_graph(g)
            assert is_equivalent(gamma, adjoint_description_graph(g, seed=k))
            assert is_equivalent(gamma, spectral_description_graph(g))

    def test_single_vertex(self):
        """Order 1 needs no case of its own: one vertex is one class."""
        for label in (0, 1, 5):
            g = LabeledGraph(np.array([[label]]))
            assert gamma_description_graph(g).labels.tolist() == [[1]]
            assert gamma_description_graph(g, t=3).labels.tolist() == [[1]]
            if label == 5:
                with pytest.raises(GraphError, match="0/1"):
                    spectral_description_graph(g)
            else:
                assert spectral_description_graph(g).labels.tolist() == [[1]]
