"""The isomorphism decision procedure against ground truth."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from graphbind.core import GraphError, LabeledGraph, permuted
from graphbind.corpus import (
    cfi_graph,
    complete_graph,
    count_4_cliques,
    cycle_graph,
    heawood_graph,
    path_graph,
    random_connected_graph,
    random_permutation,
    rook_graph_4x4,
    shrikhande_graph,
)
from graphbind.decide import gi_decide
from graphbind.graphio import dumps_graph
from graphbind.oracle import is_isomorphic_bruteforce

CFI_HEAWOOD = Path(__file__).parent / "artifacts" / "cfi_heawood_sas.json"


class TestPreconditions:
    def test_rejects_order_mismatch(self):
        with pytest.raises(GraphError):
            gi_decide(complete_graph(3), complete_graph(4))

    def test_rejects_disconnected(self):
        g = LabeledGraph(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(GraphError):
            gi_decide(g, g)

    def test_rejects_non_simple(self):
        g = LabeledGraph(np.array([[2, 1], [1, 2]]))
        with pytest.raises(GraphError):
            gi_decide(g, g)

    def test_rejects_order_one(self):
        g = LabeledGraph(np.array([[0]]))
        with pytest.raises(GraphError):
            gi_decide(g, g)

    def test_budget(self):
        g = cycle_graph(40)
        with pytest.raises(GraphError):
            gi_decide(g, g, max_binding_order=100)

    def test_budget_checked_before_building(self, monkeypatch):
        import graphbind.decide

        def forbidden(*args):
            raise AssertionError("binding graph built past the budget")

        monkeypatch.setattr(graphbind.decide, "binding_graph", forbidden)
        g = cycle_graph(40)
        with pytest.raises(GraphError, match="exceeds the budget 100"):
            gi_decide(g, g, max_binding_order=100)

    def test_order_above_the_exact_round_bound_refused_before_building(self, monkeypatch):
        import graphbind.decide

        def forbidden(*args):
            raise AssertionError("binding graph built past the exact-round bound")

        monkeypatch.setattr(graphbind.decide, "binding_graph", forbidden)
        g = cycle_graph(64)  # binding order 129 * 130 / 2 = 8385 > 8192
        with pytest.raises(GraphError, match="order 8385 is above the exact-round bound 8192"):
            gi_decide(g, g, max_binding_order=10**6)

    def test_rejects_unknown_process(self):
        with pytest.raises(GraphError):
            gi_decide(cycle_graph(4), cycle_graph(4), process="magic")


class TestVerdicts:
    def test_relabeled_cycle_yes(self):
        c5 = cycle_graph(5)
        res = gi_decide(c5, permuted(c5, random_permutation(5, seed=12)))
        assert res.verdict
        assert not res.anomalies

    def test_smallest_admissible_order(self):
        k2 = complete_graph(2)
        assert gi_decide(k2, k2).verdict

    def test_k4_vs_c4_no(self):
        res = gi_decide(complete_graph(4), cycle_graph(4))
        assert not res.verdict
        assert res.unmixed_cells

    def test_path_vs_star_no(self):
        star = LabeledGraph(
            np.array([[0, 1, 1, 1], [1, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        )
        assert not gi_decide(path_graph(4), star).verdict

    def test_symmetric_verdict(self):
        for seed in range(6):
            a = random_connected_graph(5, 0.5, seed=seed)
            b = random_connected_graph(5, 0.5, seed=seed + 50)
            assert gi_decide(a, b).verdict == gi_decide(b, a).verdict

    def test_wl_process_agrees(self):
        for seed in range(4):
            a = random_connected_graph(5, 0.5, seed=seed)
            b = random_connected_graph(5, 0.5, seed=seed + 77)
            assert gi_decide(a, b).verdict == gi_decide(a, b, process="wl").verdict
        c5 = cycle_graph(5)
        assert gi_decide(c5, permuted(c5, [3, 1, 0, 4, 2]), process="wl").verdict

    def test_agrees_with_oracle_on_random_pairs(self):
        rng = np.random.default_rng(1234)
        for _ in range(25):
            n = int(rng.integers(4, 7))
            a = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
            if rng.random() < 0.5:
                b = permuted(a, random_permutation(n, seed=int(rng.integers(2**32))))
            else:
                b = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
            expected = is_isomorphic_bruteforce(a, b) is not None
            assert gi_decide(a, b).verdict == expected

    def test_trace_json_shape(self):
        res = gi_decide(cycle_graph(4), cycle_graph(4))
        doc = res.to_json()
        assert doc["verdict"] == "YES"
        assert doc["rounds"] >= 1
        assert doc["dims"][-1] == doc["dims"][-2]
        assert sum(len(c) for c in doc["cells"]) == 9 * 10 // 2


@pytest.mark.slow
class TestStronglyRegularPair:
    def test_shrikhande_vs_rook(self):
        """Both are srg(16,6,2,2); ground truth distinguishes them by
        4-clique counts, and the decision procedure must answer NO.  A YES
        here would be a counterexample to the automorphism-partition claim
        and must surface, not be suppressed."""
        shrik = shrikhande_graph()
        rook = rook_graph_4x4()
        assert count_4_cliques(shrik) == 0
        assert count_4_cliques(rook) == 8
        res = gi_decide(shrik, rook)
        if res.verdict:
            pytest.fail(
                "counterexample: procedure says YES for Shrikhande vs rook; "
                f"trace dims={res.dims}"
            )


class TestCfiHeawoodCounterexample:
    """The committed wrong YES on a non-isomorphic pair (tools/cfi_counterexample.py).

    The decision takes minutes and gigabytes, so the test reads its record
    and does not rerun it.
    """

    def test_records_yes_on_the_builders_pair(self):
        doc = json.loads(CFI_HEAWOOD.read_text())
        edges = doc["base_edges"]
        assert edges == np.argwhere(np.triu(heawood_graph().labels)).tolist()
        assert doc["untwisted"] == dumps_graph(cfi_graph(edges, False), "graph6").strip()
        assert doc["twisted"] == dumps_graph(cfi_graph(edges, True), "graph6").strip()
        assert (doc["process"], doc["verdict"], doc["unmixed_cells"]) == ("sas", "YES", [])
