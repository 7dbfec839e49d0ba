"""The audit suite itself: structure, classification, and known findings."""

from __future__ import annotations

from graphbind.validate import CHECKS, CorpusSpec, build_corpus, validate_suite


def test_quick_suite_structure_and_classification():
    report = validate_suite(CorpusSpec(quick=True, random_count=30))
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
    report = validate_suite(CorpusSpec(quick=True, random_count=20, seed=3))
    for entry in report["checks"].values():
        for violation in entry["violations"]:
            assert set(violation) == {"instance", "detail", "graph"}
            assert len(violation["graph"]["labels"]) == violation["graph"]["n"]


def test_corpus_contains_named_and_exhaustive_parts():
    corpus = build_corpus(CorpusSpec(quick=True, random_count=5))
    names = [name for name, _ in corpus]
    assert any(name.startswith("all/n3/") for name in names)
    assert "named/petersen" in names
    assert "named/pitfall21" in names
