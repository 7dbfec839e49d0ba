"""The audit suite itself: structure, classification, and known findings."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from graphbind.core import LabeledGraph
from graphbind.refine import sas_stabilize, wl_stabilize
from graphbind.validate import (
    CHECKS,
    CorpusSpec,
    _run,
    build_corpus,
    square_vs_ordered_pair_round_counts,
    validate_suite,
)

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


def test_corpus_contains_named_and_exhaustive_parts():
    corpus = build_corpus(CorpusSpec(quick=True))
    names = [name for name, _ in corpus]
    assert any(name.startswith("all/n3/") for name in names)
    assert "named/petersen" in names
    assert "named/pitfall21" in names
