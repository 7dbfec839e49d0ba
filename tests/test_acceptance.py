"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 4's round-count clause is expected to fail: the equal-round-count
claim it checks has genuine counterexamples (small sparse graphs where the
ordered-pair process stabilizes one round earlier); see the test docstring.
The counterexamples are serialized next to this file when hit.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from graphbind.binding import binding_graph, build_phi, build_theta
from graphbind.core import dim, is_equivalent, permuted
from graphbind.corpus import (
    NAMED_GRAPHS,
    all_graphs,
    connected_graphs,
    nonisomorphic_connected_graphs,
    petersen_graph,
    random_connected_graph,
    random_graph,
    random_permutation,
)
from graphbind.decide import gi_decide
from graphbind.descgraph import gamma_description_graph, minimal_polynomial_degree
from graphbind.oracle import is_isomorphic_bruteforce
from graphbind.partition import vertex_partition
from graphbind.refine import numeric_ff_stabilize, sas_stabilize, wl_stabilize
from graphbind.validate import (
    binding_completeness,
    binding_lemmas,
    description_routes,
    orbit_coarsening,
    partition_properties,
    square_vs_ordered_pair_vertices,
    strongly_regular_one_round,
)

from conftest import as_graph, binders, cells_from_diagonal

ARTIFACTS = Path(__file__).parent / "artifacts"


def report(number: int, ok: bool, message: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {message}")


def corpus_small(max_exhaustive: int = 5, seed: int = 424242):
    """Fixed acceptance corpus: all graphs up to order 5, named graphs,
    and seeded random graphs up to order 14."""
    rng = np.random.default_rng(seed)
    graphs = []
    for n in range(1, max_exhaustive + 1):
        graphs.extend(all_graphs(n))
    for make in NAMED_GRAPHS.values():
        graphs.append(make())
    for _ in range(60):
        n = int(rng.integers(2, 15))
        graphs.append(random_graph(n, float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(2**32))))
    return graphs


class TestCriterion1Reproduction:
    def test_worked_examples_reproduce_exactly(self, reference):
        started = time.perf_counter()

        trace21 = sas_stabilize(as_graph(reference["g21"]))
        assert dim(trace21.stable) == 127
        assert is_equivalent(trace21.stable, as_graph(reference["g21_stable"]))
        assert cells_from_diagonal(trace21.stable) == sorted(reference["g21_stable_cells"])

        trace24 = sas_stabilize(as_graph(reference["g24"]))
        assert is_equivalent(trace24.stable, as_graph(reference["g24_stable"]))
        assert cells_from_diagonal(trace24.stable) == sorted(reference["g24_stable_cells"])

        b24 = binding_graph(as_graph(reference["g24"]))
        btrace = sas_stabilize(b24.graph)
        basic_cells = [
            list(c) for c in vertex_partition(btrace.stable).cells if c[0] < 24
        ]
        assert sorted(basic_cells) == sorted(reference["g24_binding_basic_cells"])

        b8 = binding_graph(as_graph(reference["g8"]))
        stable8 = sas_stabilize(b8.graph).stable
        ref_bi = np.asarray(reference["g8_binding"])
        ref_pairs = {
            tuple(sorted(np.flatnonzero(ref_bi[p]).tolist())): p for p in range(8, 36)
        }
        perm = list(range(8)) + [0] * 28
        for pair, p in binders(b8).items():
            perm[p] = ref_pairs[pair]
        phi = build_phi(b8, stable8)
        theta = build_theta(phi, b8)
        assert is_equivalent(permuted(phi, perm), as_graph(reference["g8_phi"]))
        assert is_equivalent(permuted(theta, perm), as_graph(reference["g8_theta"]))

        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"reproduction took {elapsed:.1f}s, budget is 10s"
        report(1, True, f"all bundled reference matrices reproduced in {elapsed:.1f}s")


class TestCriterion2FfPitfall:
    def test_numeric_shortcut_is_faulty_on_demo_graph(self, reference):
        started = time.perf_counter()
        g = as_graph(reference["g21"])
        pseudo = numeric_ff_stabilize(g)
        exact = sas_stabilize(g)
        assert np.array_equal(
            pseudo.stable.labels, np.asarray(reference["g21_ff_pseudo_stable"])
        )
        assert not is_equivalent(pseudo.stable, exact.stable)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        report(2, True, "numeric shortcut reproduces the faulty fixpoint and is caught")


class TestCriterion3OracleEquivalence:
    def test_exhaustive_order_four_pairs(self):
        started = time.perf_counter()
        graphs = list(connected_graphs(4))
        assert len(graphs) == 38
        disagreements = []
        for i, a in enumerate(graphs):
            for j, b in enumerate(graphs):
                verdict = gi_decide(a, b).verdict
                truth = is_isomorphic_bruteforce(a, b) is not None
                if verdict != truth:
                    disagreements.append((i, j, verdict, truth))
        assert not disagreements, disagreements[:5]
        elapsed = time.perf_counter() - started
        assert elapsed < 600
        report(3, True, f"exhaustive order-4: {len(graphs) ** 2} pairs, 100% agreement, {elapsed:.0f}s")

    def test_random_pairs_orders_five_to_seven(self):
        started = time.perf_counter()
        rng = np.random.default_rng(31337)
        disagreements = []
        for k in range(500):
            n = int(rng.integers(5, 8))
            a = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
            if rng.random() < 0.5:
                b = permuted(a, random_permutation(n, seed=int(rng.integers(2**32))))
            else:
                b = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
            verdict = gi_decide(a, b).verdict
            truth = is_isomorphic_bruteforce(a, b) is not None
            if verdict != truth:
                disagreements.append(
                    {"a": a.labels.tolist(), "b": b.labels.tolist(), "verdict": verdict}
                )
        if disagreements:
            ARTIFACTS.mkdir(exist_ok=True)
            with open(ARTIFACTS / "criterion3_disagreements.json", "w") as fh:
                json.dump(disagreements, fh)
        assert not disagreements, f"{len(disagreements)} disagreements (artifact written)"
        elapsed = time.perf_counter() - started
        assert elapsed < 600
        report(3, True, f"500 random pairs of order 5-7, 100% agreement with brute force, {elapsed:.0f}s")


class TestCriterion4SasWlAgreement:
    @staticmethod
    def _corpus():
        rng = np.random.default_rng(99)
        graphs = [
            random_graph(
                int(rng.integers(2, 31)),
                float(rng.uniform(0.2, 0.8)),
                seed=int(rng.integers(2**32)),
            )
            for _ in range(300)
        ]
        graphs.extend(make() for make in NAMED_GRAPHS.values())
        return graphs

    def test_identical_vertex_partitions(self):
        bad = [g.labels.tolist() for g in self._corpus() if square_vs_ordered_pair_vertices(g)]
        assert not bad, bad[:1]
        report(4, True, "diagonal partitions identical on 300 random + named graphs")

    def test_identical_round_counts(self):
        """Expected failure: the equal-iteration-number claim is false.

        The ordered-pair process can reach its (finer) fixpoint one round
        before the unordered one; exhaustive sweeps show SaS = WL or
        SaS = WL + 1 on all 33866 graphs of order <= 6, with 2880 lagging
        instances (1920 of them connected).  The vertex-level agreement
        that the decision procedure relies on holds at every round; only
        this full-stabilization count diverges.  Counterexamples are
        serialized for reproduction.
        """
        counterexamples = []
        for g in self._corpus():
            s = sas_stabilize(g)
            w = wl_stabilize(g)
            if s.rounds != w.rounds:
                counterexamples.append(
                    {
                        "labels": g.labels.tolist(),
                        "square_rounds": s.rounds,
                        "ordered_rounds": w.rounds,
                    }
                )
        if counterexamples:
            ARTIFACTS.mkdir(exist_ok=True)
            with open(ARTIFACTS / "criterion4_round_counts.json", "w") as fh:
                json.dump(counterexamples, fh, indent=1)
        report(
            4,
            not counterexamples,
            f"round counts: {len(counterexamples)} divergences on 300 random + named graphs"
            + (" (counterexamples serialized)" if counterexamples else ""),
        )
        assert not counterexamples, (
            f"{len(counterexamples)} round-count divergences; this documents a genuine "
            "counterexample to the equal-iteration claim, see tests/artifacts/"
        )


class TestCriterion5StrongEquitability:
    def test_every_stable_graph_strongly_equitable(self):
        checked = 0
        for g in corpus_small():
            assert partition_properties(g) == [], g.labels.tolist()
            checked += 1
        report(5, True, f"strong equitability and the partition rules hold for all {checked} stable graphs")


class TestCriterion6OrbitCoarsening:
    def test_orbits_inside_stable_cells(self):
        checked = 0
        for g in corpus_small():
            if g.n > 8:
                continue
            assert orbit_coarsening(g) == [], g.labels.tolist()
            checked += 1
        report(6, True, f"oracle orbits sit inside stable cells on {checked} graphs (n<=8)")


class TestCriterion7ThreeWayEquivalence:
    def test_three_routes_agree(self):
        checked = 0
        for g in corpus_small():
            if g.n > 7 or not set(np.unique(g.labels).tolist()) <= {0, 1}:
                continue
            assert description_routes(g, seed=checked) == [], g.labels.tolist()
            checked += 1
        report(7, True, f"walk, adjugate and spectral routes agree on {checked} graphs (n<=7)")


class TestCriterion8Truncation:
    def test_truncation_at_minimal_polynomial_degree(self):
        rng = np.random.default_rng(2718)
        for k in range(100):
            n = int(rng.integers(2, 9))
            g = random_graph(n, float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(2**32)))
            m = minimal_polynomial_degree(g)
            assert is_equivalent(
                gamma_description_graph(g, max(m - 1, 0)),
                gamma_description_graph(g, g.n - 1) if g.n > 1 else gamma_description_graph(g),
            ), g.labels.tolist()
        report(8, True, "degree-truncated walk matrices equivalent on 100 random graphs")


class TestCriterion9StronglyRegularOneShot:
    def test_petersen_single_post_seed_round(self):
        assert strongly_regular_one_round(petersen_graph()) == []
        report(9, True, "petersen stabilizes in exactly 1 post-seed round, as one description round")


class TestCriterion10BindingCompleteness:
    def test_binding_preserves_isomorphism_classes(self):
        started = time.perf_counter()
        reps = nonisomorphic_connected_graphs(4)
        # There are 6 isomorphism classes of connected order-4 graphs; the
        # enumeration derives them rather than assuming the count.
        assert len(reps) == 6
        for a in reps:
            for b in reps:
                assert binding_completeness(a, b) == [], (a.labels.tolist(), b.labels.tolist())
        elapsed = time.perf_counter() - started
        assert elapsed < 300
        report(10, True, f"binding preserved all {len(reps) ** 2} order-4 verdicts in {elapsed:.1f}s")


class TestCriterion11LemmaChecks:
    def test_binding_label_lemmas(self):
        graphs = list(connected_graphs(4))
        rng = np.random.default_rng(5150)
        for _ in range(5):
            graphs.append(random_connected_graph(5, 0.55, seed=int(rng.integers(2**32))))
        for g in graphs:
            assert binding_lemmas(g) == [], g.labels.tolist()
        report(11, True, f"label-correspondence checks hold on {len(graphs)} binding graphs")
