"""The audit suite itself: structure, classification, and known findings."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import graphbind.validate as validate
from graphbind.binding import binding_graph
from graphbind.core import DirectedLabeledGraph, LabeledGraph, permuted
from graphbind.corpus import cycle_graph, demo_graph, path_graph, random_connected_graph, random_permutation
from graphbind.refine import StabilizationTrace, sas_stabilize, wl_stabilize
from graphbind.validate import (
    CHECKS,
    CorpusSpec,
    _run,
    build_corpus,
    ff_pitfall,
    gi_decision,
    relabeling_equivariance,
    square_vs_ordered_pair_round_counts,
    validate_suite,
)

from conftest import binders

ROUND_COUNT_FINDINGS = Path(__file__).parent / "artifacts" / "criterion4_round_counts.json"


def test_quick_suite_structure_and_classification():
    report = validate_suite(CorpusSpec(quick=True))
    assert set(report["checks"]) == set(CHECKS)
    for name, entry in report["checks"].items():
        assert entry["kind"] in ("implementation", "theorem")
        assert entry["cases"] > 0, name
    # Implementation invariants must be spotless on any corpus.
    assert report["implementation_violations"] == 0
    # Theorem findings, if any on this corpus, may only come from the known
    # round-count divergence; everything else must hold.
    for name, entry in report["checks"].items():
        if name != "square_vs_ordered_pair_round_counts":
            assert not entry["violations"], (name, entry["violations"][:1])


def test_violations_carry_reproducible_instances():
    """The serialized round-count counterexamples, run through the audit's
    runner, are recorded with labels that reproduce the divergence."""
    found = json.loads(ROUND_COUNT_FINDINGS.read_text())
    selection = [
        (f"criterion4/{k}", LabeledGraph(np.asarray(case["labels"])))
        for k, case in enumerate(found)
    ]
    result = _run(selection, square_vs_ordered_pair_round_counts)
    assert result.cases == len(found) > 0
    assert [v["instance"] for v in result.violations] == [name for name, _ in selection]
    for violation, case in zip(result.violations, found):
        assert set(violation) == {"instance", "detail", "graph"}
        g = LabeledGraph(np.asarray(violation["graph"]["labels"]))
        assert g.n == violation["graph"]["n"]
        rounds = (sas_stabilize(g).rounds, wl_stabilize(g).rounds)
        assert rounds[0] != rounds[1]
        assert rounds == (case["square_rounds"], case["ordered_rounds"])
        assert violation["detail"] == f"round counts differ: {rounds[0]} vs {rounds[1]}"


def test_every_check_is_a_callable_and_a_kind():
    for name, value in CHECKS.items():
        check, kind = value
        assert callable(check), name
        assert kind in ("implementation", "theorem"), name


def test_gi_decision_and_ff_pitfall_hold():
    a = random_connected_graph(7, 0.5, seed=5)
    b = random_connected_graph(7, 0.5, seed=6)
    assert gi_decision(a, permuted(a, random_permutation(7, seed=7)), b) == []
    assert ff_pitfall(demo_graph("pitfall21")) == []


def replayed(finding: dict) -> tuple:
    """The case of a serialized finding, read back from its JSON alone."""

    def read(x):
        return LabeledGraph(np.asarray(x["labels"])) if isinstance(x, dict) else x

    return read(finding["graph"]), *map(read, finding.get("arguments", []))


class TestFindingsReplay:
    """Findings of claims that take arguments replay as claim(graph, *arguments)."""

    @staticmethod
    def assert_replays(check: str, claim, spec: CorpusSpec) -> list[dict]:
        findings = json.loads(json.dumps(CHECKS[check][0](build_corpus(spec), spec).violations))
        assert findings
        for finding in findings:
            assert set(finding) == {"instance", "detail", "graph", "arguments"}
            assert finding["detail"] in claim(*replayed(finding)), finding["instance"]
        return findings

    def test_gi_decision(self, monkeypatch):
        # A verdict that depends on the order of the arguments and the
        # numbering of vertex 0 breaks every clause of the claim.
        def decide(a, b):
            return SimpleNamespace(verdict=bool(a.labels[0].sum() >= b.labels[0].sum()))

        monkeypatch.setattr(validate, "gi_decide", decide)
        findings = self.assert_replays("gi_decision", gi_decision, CorpusSpec())
        assert {f["instance"] for f in findings} <= {f"gi/{k}" for k in range(40)}
        assert all(len(f["arguments"]) == 2 for f in findings)
        assert {f["detail"].split(" ")[0] for f in findings} == {"a", "verdict", "decision"}

    def test_relabeling_equivariance(self, monkeypatch):
        # A stable graph that marks vertex 0 is not relabeled with the input.
        def stabilize(g):
            labels = g.labels.copy()
            labels[0, 0] = labels.max() + 1
            return StabilizationTrace(LabeledGraph(labels), 0)

        monkeypatch.setattr(validate, "sas_stabilize", stabilize)
        findings = self.assert_replays("relabeling_equivariance", relabeling_equivariance, CorpusSpec(quick=True))
        assert all(isinstance(f["arguments"][0], int) for f in findings)


def test_corpus_contains_named_and_exhaustive_parts():
    corpus = build_corpus(CorpusSpec(quick=True))
    names = [name for name, _ in corpus]
    assert any(name.startswith("all/n3/") for name in names)
    assert "named/petersen" in names
    assert "named/pitfall21" in names


class TestBindingLemmas:
    """`binding_lemmas` on stable graphs that break its label lemmas on purpose."""

    @staticmethod
    def merged(labels: np.ndarray, a: tuple[int, int], b: tuple[int, int]) -> np.ndarray:
        """`labels` with the labels at `a` and its mirror set to those at `b` and
        its mirror, which keeps a symmetric or converse-equivalent matrix so."""
        out = labels.copy()
        out[a], out[a[::-1]] = labels[b], labels[b[::-1]]
        return out

    @staticmethod
    def patched(monkeypatch, stabilizer: str, labels: np.ndarray, kind: type) -> None:
        trace = getattr(validate, stabilizer)
        monkeypatch.setattr(
            validate, stabilizer, lambda g: StabilizationTrace(kind(labels), trace(g).rounds)
        )

    @staticmethod
    def looped(g: LabeledGraph) -> list[str]:
        """The lemmas as pair loops over the binding vertices, kept as the reference."""
        b = binding_graph(g)
        m = validate.sas_stabilize(b.graph).stable.labels
        x = validate.wl_stabilize(b.graph).stable.labels
        pairs = list(binders(b).items())
        details = []
        on_edge, on_blank = set(), set()
        for (u, v), p in pairs:
            (on_edge if b.graph.labels[u, v] != 0 else on_blank).update({int(m[p, u]), int(m[p, v])})
        if on_edge & on_blank:
            details.append("binding edges fail to witness basic (non-)edges")
        diag = m.diagonal()
        if set(diag[: b.basic_n].tolist()) & set(diag[b.basic_n :].tolist()):
            details.append("basic and binding vertices share a stable label")
        if any(
            (m[u, v] == m[r, s]) != (m[p, p] == m[q, q])
            for i, ((u, v), p) in enumerate(pairs)
            for (r, s), q in pairs[i + 1 :]
        ):
            details.append("binding-vertex labels disagree with basic pair labels")
        if any(
            (x[u, v] == x[r, s]) != (m[u, p] == m[r, q] and m[v, p] == m[s, q])
            for i, ((u, v), p) in enumerate(pairs)
            for (r, s), q in pairs[i:]
        ) or any((x[u, v] == x[v, u]) != (m[u, p] == m[v, p]) for (u, v), p in pairs):
            details.append("binding-edge labels disagree with the ordered-pair labels")
        return details

    def test_merged_binding_vertex_labels_are_reported(self, monkeypatch):
        g = path_graph(4)
        b = binding_graph(g)
        m = sas_stabilize(b.graph).stable.labels
        assert validate.binding_lemmas(g) == []
        p, q = b.binding_vertex(0, 1), b.binding_vertex(1, 2)
        assert m[p, p] != m[q, q]
        self.patched(monkeypatch, "sas_stabilize", self.merged(m, (q, q), (p, p)), LabeledGraph)
        assert validate.binding_lemmas(g) == ["binding-vertex labels disagree with basic pair labels"]

    def test_every_clause_reports_as_the_pair_loops_do(self, monkeypatch):
        reported = set()
        for g in (path_graph(4), cycle_graph(5), random_connected_graph(5, 0.5, seed=2)):
            b = binding_graph(g)
            m = sas_stabilize(b.graph).stable.labels
            x = wl_stabilize(b.graph).stable.labels
            n, p, q = g.n, b.binding_vertex(0, 1), b.binding_vertex(1, 2)
            broken_m = [
                self.merged(m, (q, q), (p, p)),  # two binding-vertex labels
                self.merged(m, (0, 0), (p, p)),  # a basic and a binding vertex
                self.merged(m, (0, 1), (0, 2)),  # two basic pair labels
                self.merged(m, (p, 0), (q, 2)),  # two binding-edge labels
                self.merged(m, (p, 1), (p, 0)),  # the two edges of one binder
            ]
            broken_x = [self.merged(x, (0, 1), (1, 2)), self.merged(x, (0, n - 1), (1, 0))]
            for labels in broken_m:
                with monkeypatch.context() as patch:
                    self.patched(patch, "sas_stabilize", labels, LabeledGraph)
                    details = validate.binding_lemmas(g)
                    assert details == self.looped(g), g.labels.tolist()
                    reported.update(details)
            for labels in broken_x:
                with monkeypatch.context() as patch:
                    self.patched(patch, "wl_stabilize", labels, DirectedLabeledGraph)
                    details = validate.binding_lemmas(g)
                    assert details == self.looped(g), g.labels.tolist()
                    reported.update(details)
        assert len(reported) == 4, reported
