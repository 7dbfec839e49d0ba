"""Audit suite: run the library's claimed invariants over a graph corpus.

Each check returns the concrete violating instances rather than asserting,
so a broken claim surfaces as reproducible data.  The suite exercises both
implementation invariants and the claims imported from the underlying
theory; a violation of the latter is exactly the kind of counterexample the
toolkit exists to hunt for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .binding import binding_graph
from .core import (
    LabeledGraph,
    dim,
    equivalent_variable_substitution,
    is_connected,
    is_equivalent,
    is_imbedded,
    is_simple,
    permuted,
)
from .corpus import (
    NAMED_GRAPHS,
    all_graphs,
    complete_graph,
    cycle_graph,
    demo_graph,
    nonisomorphic_connected_graphs,
    path_graph,
    random_connected_graph,
    random_graph,
    random_permutation,
)
from .decide import gi_decide
from .descgraph import (
    adjoint_description_graph,
    gamma_description_graph,
    spectral_description_graph,
)
from .oracle import automorphism_orbits, is_isomorphic_bruteforce
from .partition import is_equitable, is_strongly_equitable, vertex_partition
from .refine import (
    kpower_step,
    numeric_ff_stabilize,
    recognizes_vertices,
    sas_stabilize,
    sas_step,
    seed_recognize_vertices,
    wl_stabilize,
)


@dataclass
class CorpusSpec:
    """What the audit runs on: exhaustive small orders, random samples, named graphs.

    The corpus lists every graph of order <= 5 (<= 4 when quick) first, then
    the random samples of order 2..12, then the named graphs.  Checks that
    take at most `limit` graphs take the first ones, so they only ever see
    exhaustive small graphs.  Quick mode: refinement_chain,
    stable_fixpoint_and_recognition, relabeling_equivariance and
    orbit_coarsening reach order 3; dim_monotone_under_imbedding, both
    square_vs_ordered_pair checks and partition_properties reach order 4.
    Full mode: stable_fixpoint_and_recognition and relabeling_equivariance
    reach order 4, the other limited checks order 5.
    """

    seed: int = 20240901
    random_count: int = 200
    quick: bool = False

    def scaled(self, count: int) -> int:
        return max(3, count // 10) if self.quick else count


def build_corpus(spec: CorpusSpec) -> list[tuple[str, LabeledGraph]]:
    rng = np.random.default_rng(spec.seed)
    out: list[tuple[str, LabeledGraph]] = []
    for n in range(1, (4 if spec.quick else 5) + 1):
        for k, g in enumerate(all_graphs(n)):
            out.append((f"all/n{n}/{k}", g))
    for k in range(spec.scaled(spec.random_count)):
        n = int(rng.integers(2, 13))
        p = float(rng.uniform(0.2, 0.8))
        out.append((f"random/{k}", random_graph(n, p, seed=int(rng.integers(2**32)))))
    for name, make in NAMED_GRAPHS.items():
        out.append((f"named/{name}", make()))
    out.append(("named/pitfall21", demo_graph("pitfall21")))
    out.append(("named/demo24", demo_graph("demo24")))
    out.append(("named/demo8", demo_graph("demo8")))
    for n in (6, 9, 12):
        out.append((f"named/cycle{n}", cycle_graph(n)))
        out.append((f"named/path{n}", path_graph(n)))
        out.append((f"named/complete{n}", complete_graph(n)))
    return out


@dataclass
class CheckResult:
    cases: int = 0
    violations: list[dict] = field(default_factory=list)

    def record(self, name: str, g: LabeledGraph, detail: str) -> None:
        self.violations.append(
            {"instance": name, "detail": detail, "graph": {"n": g.n, "labels": g.labels.tolist()}}
        )


def _graphs_up_to(corpus, max_n, *, connected=False, limit=None):
    picked = []
    for name, g in corpus:
        if g.n > max_n or (connected and not is_connected(g)):
            continue
        picked.append((name, g))
        if limit is not None and len(picked) >= limit:
            break
    return picked


# ---------------------------------------------------------------------------
# Definitional helpers reused by the acceptance tests.

def stable_recognizes_edges(g: LabeledGraph, stable: LabeledGraph) -> bool:
    """Labels of the stable graph over edges of g never occur over blanks."""
    off = ~np.eye(g.n, dtype=bool)
    edge_labels = set(stable.labels[(g.labels != 0) & off].tolist())
    blank_labels = set(stable.labels[(g.labels == 0) & off].tolist())
    return not edge_labels & blank_labels


def binding_edge_recognition_ok(b, stable: LabeledGraph) -> bool:
    """Binding edges that bind basic edges never share stable labels with
    binding edges that bind blank basic pairs."""
    basic = b.graph.labels[: b.basic_n, : b.basic_n]
    on_edge, on_blank = set(), set()
    for (u, v), p in b.binder.items():
        labels = {int(stable.labels[p, u]), int(stable.labels[p, v])}
        (on_edge if basic[u, v] != 0 else on_blank).update(labels)
    return not on_edge & on_blank


def basic_binding_separation_ok(b, stable: LabeledGraph) -> bool:
    diag = stable.labels.diagonal()
    return not set(diag[: b.basic_n].tolist()) & set(diag[b.basic_n :].tolist())


def bv_correspondence_ok(b, stable: LabeledGraph) -> bool:
    """Diagonal labels of binding vertices classify pairs exactly as the
    off-diagonal labels of their bound basic pairs."""
    m = stable.labels
    pairs = list(b.binder.items())
    for i, ((u, v), p) in enumerate(pairs):
        for (r, s), q in pairs[i + 1 :]:
            if (m[u, v] == m[r, s]) != (m[p, p] == m[q, q]):
                return False
    return True


def wl_from_sas_ok(b, stable: LabeledGraph, wl_stable) -> bool:
    """Ordered binding-edge label pairs in the stable graph classify basic
    pairs exactly as the ordered-pair stable graph labels them."""
    m = stable.labels
    x = wl_stable.labels
    pairs = list(b.binder.items())
    for i, ((u, v), p) in enumerate(pairs):
        for (r, s), q in pairs[i:]:
            same_wl = x[u, v] == x[r, s]
            same_bind = m[u, p] == m[r, q] and m[v, p] == m[s, q]
            if same_wl != same_bind:
                return False
            # Symmetry of the ordered label is the binding-edge equality.
            if (x[u, v] == x[v, u]) != (m[u, p] == m[v, p]):
                return False
    return True


def singleton_cell_rule_ok(stable: LabeledGraph) -> bool:
    part = vertex_partition(stable)
    for cell in part.cells:
        if len(cell) != 1:
            continue
        u = cell[0]
        for other in part.cells:
            if len(set(stable.labels[u, list(other)].tolist())) != 1:
                return False
    return True


def row_equality_rule_ok(stable: LabeledGraph) -> bool:
    m = stable.labels
    diag = m.diagonal()
    rows = np.sort(m, axis=1)
    for u in range(stable.n):
        for v in range(u + 1, stable.n):
            if (diag[u] == diag[v]) != bool((rows[u] == rows[v]).all()):
                return False
    return True


# ---------------------------------------------------------------------------
# The checks.

def _check_substitution(corpus, spec) -> CheckResult:
    res = CheckResult()
    for name, g in corpus:
        res.cases += 1
        again = equivalent_variable_substitution(g.labels)
        twice = equivalent_variable_substitution(again.labels)
        if not is_equivalent(g, again):
            res.record(name, g, "substitution is not equivalent to its input")
        if not np.array_equal(again.labels, twice.labels):
            res.record(name, g, "substitution is not idempotent on normalized input")
        coded = [[("c", int(g.labels[i, j])) for j in range(g.n)] for i in range(g.n)]
        if not np.array_equal(equivalent_variable_substitution(coded).labels, again.labels):
            res.record(name, g, "object-coded and integer substitution disagree")
    return res


def _check_dim_monotone(corpus, spec) -> CheckResult:
    res = CheckResult()
    rng = np.random.default_rng(spec.seed + 1)
    for name, g in _graphs_up_to(corpus, 12, limit=spec.scaled(120)):
        res.cases += 1
        labels = np.unique(g.labels)
        if labels.size < 2:
            continue
        a, b = rng.choice(labels, size=2, replace=False)
        merged = LabeledGraph(np.where(g.labels == a, int(b), g.labels))
        if not is_imbedded(merged, g):
            res.record(name, g, "label merge must be imbedded in the original")
        if dim(merged) > dim(g):
            res.record(name, g, "dim must not grow under imbedding")
    return res


def _check_refinement_chain(corpus, spec) -> CheckResult:
    res = CheckResult()
    for name, g in _graphs_up_to(corpus, 12, limit=spec.scaled(80)):
        res.cases += 1
        current = seed_recognize_vertices(g)
        if not is_imbedded(g, current):
            res.record(name, g, "seed must refine the input")
        for _ in range(3):
            nxt = sas_step(current)
            if not recognizes_vertices(nxt):
                res.record(name, g, "a refined graph stopped recognizing vertices")
                break
            if not is_imbedded(current, nxt):
                res.record(name, g, "round output must refine its input")
                break
            current = nxt
    return res


def _check_stable_fixpoint(corpus, spec) -> CheckResult:
    res = CheckResult()
    for name, g in _graphs_up_to(corpus, 10, limit=spec.scaled(60)):
        res.cases += 1
        stable = sas_stabilize(g).stable
        if not is_equivalent(stable, sas_step(stable)):
            res.record(name, g, "stable graph is not a fixpoint of the square round")
        if g.n <= 8 and not is_equivalent(stable, kpower_step(stable, 3)):
            res.record(name, g, "stable graph is not a fixpoint of the cube round")
        if not recognizes_vertices(stable):
            res.record(name, g, "stable graph does not recognize vertices")
        if not stable_recognizes_edges(g, stable):
            res.record(name, g, "stable graph does not recognize the input's edges")
    return res


def _check_sas_wl_partitions(corpus, spec) -> CheckResult:
    res = CheckResult()
    for name, g in _graphs_up_to(corpus, 30, limit=spec.scaled(300)):
        res.cases += 1
        s = sas_stabilize(g)
        w = wl_stabilize(g)
        if vertex_partition(s.stable) != vertex_partition(w.stable):
            res.record(name, g, "square and ordered-pair rounds split vertices differently")
    return res


def _check_sas_wl_round_counts(corpus, spec) -> CheckResult:
    """Equal full-stabilization round counts for the two processes.

    This claim has genuine counterexamples (small sparse graphs where the
    ordered-pair rounds, being finer per round, reach their fixpoint one
    round earlier); the check exists to surface them as findings, with the
    vertex-level agreement covered by the partition check.
    """
    res = CheckResult()
    for name, g in _graphs_up_to(corpus, 30, limit=spec.scaled(300)):
        res.cases += 1
        s = sas_stabilize(g)
        w = wl_stabilize(g)
        if s.rounds != w.rounds:
            res.record(name, g, f"round counts differ: {s.rounds} vs {w.rounds}")
    return res


def _check_equivariance(corpus, spec) -> CheckResult:
    res = CheckResult()
    rng = np.random.default_rng(spec.seed + 2)
    for name, g in _graphs_up_to(corpus, 12, limit=spec.scaled(60)):
        res.cases += 1
        sigma = random_permutation(g.n, seed=int(rng.integers(2**32)))
        lhs = sas_stabilize(permuted(g, sigma)).stable
        rhs = permuted(sas_stabilize(g).stable, sigma)
        if not is_equivalent(lhs, rhs):
            res.record(name, g, "stabilization does not commute with relabeling vertices")
    return res


def _check_orbit_coarsening(corpus, spec) -> CheckResult:
    res = CheckResult()
    for name, g in _graphs_up_to(corpus, 8, limit=spec.scaled(80)):
        res.cases += 1
        orbits = automorphism_orbits(g, prune=False)
        cells = vertex_partition(sas_stabilize(g).stable)
        if not orbits.refines(cells):
            res.record(name, g, "an automorphism orbit crosses a stable cell")
    return res


def _check_descgraph_routes(corpus, spec) -> CheckResult:
    res = CheckResult()
    binary = [
        (name, g)
        for name, g in _graphs_up_to(corpus, 8)
        if set(np.unique(g.labels).tolist()) <= {0, 1}
    ]
    for name, g in binary[: spec.scaled(160)]:
        res.cases += 1
        gamma = gamma_description_graph(g)
        adj = adjoint_description_graph(g, seed=spec.seed)
        spectral = spectral_description_graph(g)
        if not is_equivalent(gamma, adj):
            adj = adjoint_description_graph(g, seed=spec.seed + 999)
            if not is_equivalent(gamma, adj):
                res.record(name, g, "walk and adjugate routes disagree after a re-run")
        if not is_equivalent(gamma, spectral):
            res.record(name, g, "walk and spectral routes disagree")
        stable = sas_stabilize(g).stable
        if not (is_imbedded(g, gamma) and is_imbedded(gamma, stable)):
            res.record(name, g, "input-description-stable chain broken")
        diag = set(gamma.labels.diagonal().tolist())
        off = set(gamma.labels[~np.eye(g.n, dtype=bool)].tolist()) if g.n > 1 else set()
        if diag & off:
            res.record(name, g, "description graph fails to recognize vertices")
    return res


def _check_strongly_regular_one_round(corpus, spec) -> CheckResult:
    res = CheckResult()
    for name in ("named/petersen", "named/shrikhande", "named/rook4x4"):
        g = dict(corpus)[name]
        res.cases += 1
        trace = sas_stabilize(g)
        if trace.rounds != 1:
            res.record(name, g, f"expected 1 post-seed round, got {trace.rounds}")
        if not is_equivalent(gamma_description_graph(g), trace.stable):
            res.record(name, g, "one description round should already be stable")
    return res


def _check_partition_properties(corpus, spec) -> CheckResult:
    res = CheckResult()
    for name, g in _graphs_up_to(corpus, 14, limit=spec.scaled(120)):
        res.cases += 1
        stable = sas_stabilize(g).stable
        part = vertex_partition(stable)
        if not is_equitable(stable, part):
            res.record(name, g, "stable partition is not equitable")
        if not is_strongly_equitable(stable, part):
            res.record(name, g, "stable partition is not strongly equitable")
        if not singleton_cell_rule_ok(stable):
            res.record(name, g, "singleton cells must see constant labels per cell")
        if not row_equality_rule_ok(stable):
            res.record(name, g, "diagonal labels must match exactly when rows match")
    return res


def _check_binding_lemmas(corpus, spec) -> CheckResult:
    res = CheckResult()
    graphs = [
        (name, g)
        for name, g in _graphs_up_to(corpus, 6, connected=True)
        if g.n > 2 and is_simple(g)
    ]
    for name, g in graphs[: spec.scaled(60)]:
        res.cases += 1
        b = binding_graph(g)
        stable = sas_stabilize(b.graph).stable
        wl_stable = wl_stabilize(b.graph).stable
        if not binding_edge_recognition_ok(b, stable):
            res.record(name, g, "binding edges fail to witness basic (non-)edges")
        if not basic_binding_separation_ok(b, stable):
            res.record(name, g, "basic and binding vertices share a stable label")
        if not bv_correspondence_ok(b, stable):
            res.record(name, g, "binding-vertex labels disagree with basic pair labels")
        if not wl_from_sas_ok(b, stable, wl_stable):
            res.record(name, g, "binding-edge labels disagree with the ordered-pair labels")
    return res


def _check_binding_completeness(corpus, spec) -> CheckResult:
    res = CheckResult()
    reps = nonisomorphic_connected_graphs(4)
    for i, a in enumerate(reps):
        for j, b in enumerate(reps):
            res.cases += 1
            plain = is_isomorphic_bruteforce(a, b) is not None
            bound = (
                is_isomorphic_bruteforce(binding_graph(a).graph, binding_graph(b).graph)
                is not None
            )
            if plain != bound:
                res.record(f"reps4/{i}-{j}", a, "binding changed the isomorphism verdict")
    return res


def _check_binding_orbits(corpus, spec) -> CheckResult:
    res = CheckResult()
    graphs = [
        (name, g)
        for name, g in _graphs_up_to(corpus, 5, connected=True)
        if g.n > 2 and is_simple(g)
    ]
    for name, g in graphs[: spec.scaled(30)]:
        res.cases += 1
        b = binding_graph(g)
        basic_orbits = [
            tuple(v for v in cell if v < g.n)
            for cell in automorphism_orbits(b.graph, max_n=b.n1).cells
            if any(v < g.n for v in cell)
        ]
        if sorted(basic_orbits) != sorted(automorphism_orbits(g).cells):
            res.record(name, g, "basic orbits of the binding graph differ from the graph's")
    return res


def _check_gi(corpus, spec) -> CheckResult:
    res = CheckResult()
    rng = np.random.default_rng(spec.seed + 3)
    for k in range(spec.scaled(40)):
        n = int(rng.integers(3, 9))
        a = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
        sigma = random_permutation(n, seed=int(rng.integers(2**32)))
        res.cases += 1
        if not gi_decide(a, permuted(a, sigma)).verdict:
            res.record(f"gi/perm{k}", a, "a relabeled copy was declared non-isomorphic")
        b = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
        v1 = gi_decide(a, b).verdict
        v2 = gi_decide(b, a).verdict
        oracle = is_isomorphic_bruteforce(a, b) is not None
        if v1 != v2:
            res.record(f"gi/sym{k}", a, "verdict is not symmetric in its arguments")
        if v1 != oracle:
            res.record(f"gi/oracle{k}", a, f"decision {v1} disagrees with brute force {oracle}")
    return res


def _check_ff_pitfall(corpus, spec) -> CheckResult:
    res = CheckResult()
    g = demo_graph("pitfall21")
    res.cases += 1
    pseudo = numeric_ff_stabilize(g)
    exact = sas_stabilize(g)
    if is_equivalent(pseudo.stable, exact.stable):
        res.record("named/pitfall21", g, "numeric shortcut unexpectedly matched the exact rounds")
    return res


# kind: "implementation" for artifact plumbing whose failure is a code bug,
# "theorem" for claims imported from the underlying theory whose failure is
# a reportable finding (serialized for reproduction either way).
CHECKS = {
    "substitution_roundtrip": (_check_substitution, "implementation"),
    "dim_monotone_under_imbedding": (_check_dim_monotone, "implementation"),
    "refinement_chain": (_check_refinement_chain, "theorem"),
    "stable_fixpoint_and_recognition": (_check_stable_fixpoint, "theorem"),
    "square_vs_ordered_pair_vertices": (_check_sas_wl_partitions, "theorem"),
    "square_vs_ordered_pair_round_counts": (_check_sas_wl_round_counts, "theorem"),
    "relabeling_equivariance": (_check_equivariance, "implementation"),
    "orbit_coarsening": (_check_orbit_coarsening, "theorem"),
    "description_routes": (_check_descgraph_routes, "theorem"),
    "strongly_regular_one_round": (_check_strongly_regular_one_round, "theorem"),
    "partition_properties": (_check_partition_properties, "theorem"),
    "binding_lemmas": (_check_binding_lemmas, "theorem"),
    "binding_completeness": (_check_binding_completeness, "theorem"),
    "binding_orbits": (_check_binding_orbits, "theorem"),
    "gi_decision": (_check_gi, "theorem"),
    "ff_pitfall_regression": (_check_ff_pitfall, "implementation"),
}


def validate_suite(spec: CorpusSpec | None = None) -> dict:
    """Run every check; violations are data in the report, not exceptions.

    The report separates implementation-invariant violations (always a bug)
    from theorem violations (findings against the underlying claims; the
    known one is the full-stabilization round-count divergence between the
    square and ordered-pair processes on small sparse graphs).
    """
    spec = spec or CorpusSpec()
    corpus = build_corpus(spec)
    report: dict = {"seed": spec.seed, "quick": spec.quick, "checks": {}}
    totals = {"implementation": 0, "theorem": 0}
    for name, (check, kind) in CHECKS.items():
        started = time.perf_counter()
        result = check(corpus, spec)
        report["checks"][name] = {
            "kind": kind,
            "cases": result.cases,
            "violations": result.violations,
            "seconds": round(time.perf_counter() - started, 3),
        }
        totals[kind] += len(result.violations)
    report["implementation_violations"] = totals["implementation"]
    report["theorem_violations"] = totals["theorem"]
    report["violation_total"] = sum(totals.values())
    report["ok"] = report["violation_total"] == 0
    return report
