"""The three description-graph routes and their cross-equivalence."""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

import graphbind.descgraph as descgraph
from graphbind.core import (
    BLANK,
    GraphError,
    LabeledGraph,
    dim,
    equivalent_variable_substitution,
    first_encounter_relabel,
    is_equivalent,
    is_imbedded,
)
from graphbind.corpus import (
    all_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from graphbind.descgraph import (
    ADJOINT_PRIME,
    ADJOINT_TRIALS,
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


class TestAgainstTheFormerRoutes:
    """The routes as they were before they stopped computing what no
    comparison reads, kept here as the reference: the spectral route
    checked every pair of projectors and refolded its signature once per
    projector, and the adjugate route scaled each inverse by its determinant.
    """

    @staticmethod
    def former_cluster_sorted(values, tol):
        if values.size == 0:
            return np.zeros(0, dtype=np.int64)
        breaks = np.diff(values) > tol
        return np.concatenate([[0], np.cumsum(breaks)]).astype(np.int64)

    def former_spectral(self, a, tol=1e-9):
        """(labels, ill_conditioned) of the former spectral route."""
        values, vectors = np.linalg.eigh(a.labels.astype(float))
        ids = self.former_cluster_sorted(values, tol)
        eigenvalues, projectors = [], []
        gaps_ok = True
        for k in range(int(ids.max()) + 1):
            sel = ids == k
            eigenvalues.append(float(values[sel].mean()))
            basis = vectors[:, sel]
            projectors.append(basis @ basis.T)
        if len(eigenvalues) > 1:
            gaps_ok = bool(np.diff(np.sort(eigenvalues)).min() >= 10 * tol)
        recon = sum(mu * p for mu, p in zip(eigenvalues, projectors))
        assert np.allclose(recon, a.labels.astype(float), atol=max(tol, 1e-8))
        for i, p in enumerate(projectors):
            for j, q in enumerate(projectors):
                expect = p if i == j else np.zeros((a.n, a.n))
                assert np.allclose(p @ q, expect, atol=max(tol, 1e-8))
        clusters = []
        for proj in projectors:
            proj = (proj + proj.T) / 2.0
            flat = proj.ravel()
            order = np.argsort(flat, kind="stable")
            cluster = np.empty_like(order)
            cluster[order] = self.former_cluster_sorted(flat[order], tol)
            clusters.append(cluster)
        codes = first_encounter_relabel(*clusters).reshape(a.n, a.n)
        return equivalent_variable_substitution(codes).labels, not gaps_ok

    @staticmethod
    def former_adjugate(m, p):
        n = len(m)
        a = [row[:] for row in m]
        inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        det = 1
        for col in range(n):
            pivot = next((r for r in range(col, n) if a[r][col] % p), None)
            if pivot is None:
                return None
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
                det = -det % p
            det = det * a[col][col] % p
            scale = pow(a[col][col], p - 2, p)
            a[col] = [x * scale % p for x in a[col]]
            inv[col] = [x * scale % p for x in inv[col]]
            for r in range(n):
                if r != col and a[r][col]:
                    factor = a[r][col]
                    a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[col])]
                    inv[r] = [(x - factor * y) % p for x, y in zip(inv[r], inv[col])]
        return [[det * x % p for x in row] for row in inv]

    def former_adjoint(self, a, seed):
        rng = random.Random(seed)
        labels = np.unique(a.labels).tolist()
        samples = []
        while len(samples) < ADJOINT_TRIALS:
            assignment = {
                label: (0 if label == BLANK else rng.randrange(ADJOINT_PRIME)) for label in labels
            }
            lam = rng.randrange(ADJOINT_PRIME)
            m = [
                [((lam if i == j else 0) - assignment[int(a.labels[i, j])]) % ADJOINT_PRIME for j in range(a.n)]
                for i in range(a.n)
            ]
            adj = self.former_adjugate(m, ADJOINT_PRIME)
            if adj is not None:
                samples.append(adj)
        codes = first_encounter_relabel(*np.array(samples, dtype=np.int64))
        return equivalent_variable_substitution(codes).labels

    @staticmethod
    def graphs(orders):
        """Every graph of order <= 5, then a seeded random symmetric 0/1
        matrix, loops allowed, for each of `orders`."""
        for n in range(1, 6):
            yield from all_graphs(n)
        rng = np.random.default_rng(20240901)
        for n in orders:
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.8))
            yield LabeledGraph((upper | upper.T).astype(np.int64))

    def test_spectral_route_unchanged(self):
        checked = ill = 0
        for g in self.graphs(range(6, 41)):
            for tol in (1e-9, 0.05) if g.n <= 5 else (1e-9,):
                expected, expected_ill = self.former_spectral(g, tol)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    labels = spectral_description_graph(g, tol).labels
                assert np.array_equal(labels, expected), g.labels.tolist()
                assert spectral_decomposition(g, tol).ill_conditioned == expected_ill
                assert [w.category for w in caught] == [RuntimeWarning] * expected_ill
                checked += 1
                ill += expected_ill
        assert checked > 2000 and ill > 0

    def test_adjugate_route_unchanged(self):
        for k, g in enumerate(self.graphs(range(6, 13))):
            assert np.array_equal(
                adjoint_description_graph(g, seed=k).labels, self.former_adjoint(g, k)
            ), g.labels.tolist()


class TestGuards:
    def test_non_orthonormal_eigenvectors_rejected(self, monkeypatch):
        eigh = np.linalg.eigh

        def stretched(m):
            values, vectors = eigh(m)
            return values, 2 * vectors

        monkeypatch.setattr(np.linalg, "eigh", stretched)
        with pytest.raises(GraphError, match="orthonormal"):
            spectral_decomposition(petersen_graph())

    def test_failed_reconstruction_rejected(self, monkeypatch):
        eigh = np.linalg.eigh

        def shifted(m):
            values, vectors = eigh(m)
            return values + 1.0, vectors

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        with pytest.raises(GraphError, match="reconstruct"):
            spectral_decomposition(petersen_graph())

    def test_singular_lambda_is_redrawn(self, monkeypatch):
        draws = []

        class ZeroFirst(random.Random):
            def randrange(self, *args):
                draws.append(0 if not draws else super().randrange(*args))
                return draws[-1]

        monkeypatch.setattr(descgraph.random, "Random", ZeroFirst)
        # On [[0]] the blank draws no value, so the first draw is lambda.
        out = adjoint_description_graph(LabeledGraph(np.array([[0]])), seed=3)
        assert out.labels.tolist() == [[1]]
        assert draws[0] == 0 and len(draws) == ADJOINT_TRIALS + 1
