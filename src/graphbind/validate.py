"""Audit suite: run the library's claimed invariants over a graph corpus.

A claim is a public function of one case, a graph and the arguments it
needs (another graph, a seed), that returns its violation details there; an
empty list means the claim holds.  A check is a row of CHECKS: a selection
of cases, and the claim `_run` calls on each.  It records the violating
instances, each with its graph and arguments, rather than asserting, so a
broken claim surfaces as data that replays as claim(graph, *arguments).
The acceptance tests call the same claims on their own corpora.  The suite
audits both implementation invariants and the claims imported from the
underlying theory; a violation of the latter is exactly the kind of
counterexample the toolkit exists to hunt for.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .binding import binding_graph
from .core import (
    LabeledGraph,
    Partition,
    dim,
    equivalent_variable_substitution,
    first_encounter_relabel,
    is_connected,
    is_equivalent,
    is_imbedded,
    is_simple,
    permuted,
    refine_colours,
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


RANDOM_COUNT = 200


@dataclass
class CorpusSpec:
    """What the audit runs on: exhaustive small orders, random samples, named graphs.

    The corpus lists every graph of order <= 5 (<= 4 when quick) first, then
    RANDOM_COUNT random samples of order 2..12 (20 when quick) drawn from
    `seed`, then the named graphs.  Checks that select with `_first` take the
    first graphs of bounded order, so they only ever see exhaustive small graphs.
    Quick mode: refinement_chain, stable_fixpoint_and_recognition,
    relabeling_equivariance and orbit_coarsening reach order 3;
    dim_monotone_under_imbedding, both square_vs_ordered_pair checks and
    partition_properties reach order 4.  Full mode:
    stable_fixpoint_and_recognition and relabeling_equivariance reach order
    4, the other limited checks order 5.
    """

    seed: int = 20240901
    quick: bool = False

    def scaled(self, count: int) -> int:
        return max(3, count // 10) if self.quick else count


def build_corpus(spec: CorpusSpec) -> list[tuple[str, LabeledGraph]]:
    rng = np.random.default_rng(spec.seed)
    out: list[tuple[str, LabeledGraph]] = []
    for n in range(1, (4 if spec.quick else 5) + 1):
        for k, g in enumerate(all_graphs(n)):
            out.append((f"all/n{n}/{k}", g))
    for k in range(spec.scaled(RANDOM_COUNT)):
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


def _as_json(x):
    return {"n": x.n, "labels": x.labels.tolist()} if isinstance(x, LabeledGraph) else x


def _run(selection, claim) -> CheckResult:
    """One case per selected (name, graph, *arguments); claim(graph, *arguments)
    gives its violations, each recorded with the case's graph and arguments."""
    res = CheckResult()
    for name, g, *arguments in selection:
        res.cases += 1
        for detail in claim(g, *arguments):
            finding = {"instance": name, "detail": detail, "graph": _as_json(g)}
            if arguments:
                finding["arguments"] = [_as_json(x) for x in arguments]
            res.violations.append(finding)
    return res


# ---------------------------------------------------------------------------
# The claims.

def substitution_roundtrip(g: LabeledGraph) -> list[str]:
    """Substitution is equivalent to its input, idempotent, and blind to how labels are coded."""
    details = []
    again = equivalent_variable_substitution(g.labels)
    twice = equivalent_variable_substitution(again.labels)
    if not is_equivalent(g, again):
        details.append("substitution is not equivalent to its input")
    if not np.array_equal(again.labels, twice.labels):
        details.append("substitution is not idempotent on normalized input")
    coded = [[("c", int(g.labels[i, j])) for j in range(g.n)] for i in range(g.n)]
    if not np.array_equal(equivalent_variable_substitution(coded).labels, again.labels):
        details.append("object-coded and integer substitution disagree")
    return details


def dim_monotone_under_imbedding(g: LabeledGraph, seed: int) -> list[str]:
    """Merging two labels of g, drawn from seed, gives a graph imbedded in g of no larger dim."""
    labels = np.unique(g.labels)
    if labels.size < 2:
        return []
    details = []
    a, b = np.random.default_rng(seed).choice(labels, size=2, replace=False)
    merged = LabeledGraph(np.where(g.labels == a, int(b), g.labels))
    if not is_imbedded(merged, g):
        details.append("label merge must be imbedded in the original")
    if dim(merged) > dim(g):
        details.append("dim must not grow under imbedding")
    return details


def refinement_chain(g: LabeledGraph) -> list[str]:
    """The seed refines g, and each of three square rounds refines and recognizes vertices."""
    details = []
    current = seed_recognize_vertices(g)
    if not is_imbedded(g, current):
        details.append("seed must refine the input")
    for _ in range(3):
        nxt = sas_step(current)
        if not recognizes_vertices(nxt):
            details.append("a refined graph stopped recognizing vertices")
            break
        if not is_imbedded(current, nxt):
            details.append("round output must refine its input")
            break
        current = nxt
    return details


def stable_fixpoint_and_recognition(g: LabeledGraph) -> list[str]:
    """The stable graph of g is a fixpoint of the square round (and, up to
    order 8, of the cube round) and recognizes vertices and g's edges."""
    details = []
    stable = sas_stabilize(g).stable
    if not is_equivalent(stable, sas_step(stable)):
        details.append("stable graph is not a fixpoint of the square round")
    if g.n <= 8 and not is_equivalent(stable, kpower_step(stable, 3)):
        details.append("stable graph is not a fixpoint of the cube round")
    if not recognizes_vertices(stable):
        details.append("stable graph does not recognize vertices")
    # Labels of the stable graph over edges of g never occur over blanks.
    off = ~np.eye(g.n, dtype=bool)
    edge_labels = set(stable.labels[(g.labels != 0) & off].tolist())
    blank_labels = set(stable.labels[(g.labels == 0) & off].tolist())
    if edge_labels & blank_labels:
        details.append("stable graph does not recognize the input's edges")
    return details


def square_vs_ordered_pair_vertices(g: LabeledGraph) -> list[str]:
    """The square and the ordered-pair process split the vertices of g alike."""
    same = vertex_partition(sas_stabilize(g).stable) == vertex_partition(wl_stabilize(g).stable)
    return [] if same else ["square and ordered-pair rounds split vertices differently"]


def square_vs_ordered_pair_round_counts(g: LabeledGraph) -> list[str]:
    """Equal full-stabilization round counts for the two processes.

    This claim has genuine counterexamples (small sparse graphs where the
    ordered-pair rounds, being finer per round, reach their fixpoint one
    round earlier); the check exists to surface them as findings, with the
    vertex-level agreement covered by the partition check.
    """
    s = sas_stabilize(g)
    w = wl_stabilize(g)
    return [] if s.rounds == w.rounds else [f"round counts differ: {s.rounds} vs {w.rounds}"]


def relabeling_equivariance(g: LabeledGraph, seed: int) -> list[str]:
    """Stabilizing g relabeled by a permutation drawn from seed relabels its stable graph."""
    sigma = random_permutation(g.n, seed=seed)
    lhs = sas_stabilize(permuted(g, sigma)).stable
    rhs = permuted(sas_stabilize(g).stable, sigma)
    same = is_equivalent(lhs, rhs)
    return [] if same else ["stabilization does not commute with relabeling vertices"]


def orbit_coarsening(g: LabeledGraph) -> list[str]:
    """Every automorphism orbit of g lies inside one stable cell."""
    orbits = automorphism_orbits(g)
    cells = vertex_partition(sas_stabilize(g).stable)
    return [] if orbits.refines(cells) else ["an automorphism orbit crosses a stable cell"]


def description_routes(g: LabeledGraph, seed: int) -> list[str]:
    """The walk, adjugate and spectral routes give one description graph of the 0/1 graph
    g, between g and its stable graph, that recognizes vertices.  The adjugate route is
    one-sided Monte Carlo: it runs at `seed` and after a disagreement at `seed + 999`."""
    details = []
    gamma = gamma_description_graph(g)
    adj = adjoint_description_graph(g, seed=seed)
    spectral = spectral_description_graph(g)
    if not is_equivalent(gamma, adj):
        adj = adjoint_description_graph(g, seed=seed + 999)
        if not is_equivalent(gamma, adj):
            details.append("walk and adjugate routes disagree after a re-run")
    if not is_equivalent(gamma, spectral):
        details.append("walk and spectral routes disagree")
    stable = sas_stabilize(g).stable
    if not (is_imbedded(g, gamma) and is_imbedded(gamma, stable)):
        details.append("input-description-stable chain broken")
    diag = set(gamma.labels.diagonal().tolist())
    off = set(gamma.labels[~np.eye(g.n, dtype=bool)].tolist()) if g.n > 1 else set()
    if diag & off:
        details.append("description graph fails to recognize vertices")
    return details


def strongly_regular_one_round(g: LabeledGraph) -> list[str]:
    """The strongly regular graph g is stable one round after the seed, as one description round."""
    details = []
    trace = sas_stabilize(g)
    if trace.rounds != 1:
        details.append(f"expected 1 post-seed round, got {trace.rounds}")
    if not is_equivalent(gamma_description_graph(g), trace.stable):
        details.append("one description round should already be stable")
    return details


def partition_properties(g: LabeledGraph) -> list[str]:
    """The stable partition of g is (strongly) equitable, a singleton cell
    sees one label per cell, and diagonal labels match exactly when rows do."""
    details = []
    stable = sas_stabilize(g).stable
    part = vertex_partition(stable)
    m = stable.labels
    if not is_equitable(stable, part):
        details.append("stable partition is not equitable")
    if not is_strongly_equitable(stable, part):
        details.append("stable partition is not strongly equitable")
    singletons = [cell[0] for cell in part.cells if len(cell) == 1]
    if any(len(set(m[u, list(other)].tolist())) != 1 for u in singletons for other in part.cells):
        details.append("singleton cells must see constant labels per cell")
    # From one colour, a refinement round ranks the vertices by their sorted rows.
    if Partition.from_colours(refine_colours(m, np.zeros(g.n, dtype=np.int64))) != part:
        details.append("diagonal labels must match exactly when rows match")
    return details


def binding_lemmas(g: LabeledGraph) -> list[str]:
    """The label lemmas of the stable binding graph of the connected simple graph g."""
    details = []
    b = binding_graph(g)
    m = sas_stabilize(b.graph).stable.labels
    x = wl_stabilize(b.graph).stable.labels
    u, v = np.triu_indices(b.basic_n, 1)  # the pair of binding vertex p, by `pair_rank`
    p = np.arange(b.basic_n, b.n1)
    # Binding edges that bind basic edges never share stable labels with
    # binding edges that bind blank basic pairs.
    edge = b.graph.labels[u, v] != 0
    witnessed = np.stack((m[p, u], m[p, v]))
    if np.isin(witnessed[:, edge], witnessed[:, ~edge]).any():
        details.append("binding edges fail to witness basic (non-)edges")
    diag = m.diagonal()
    if np.isin(diag[: b.basic_n], diag[b.basic_n :]).any():
        details.append("basic and binding vertices share a stable label")
    # Diagonal labels of binding vertices classify pairs exactly as the
    # off-diagonal labels of their bound basic pairs: both classifications,
    # numbered by first encounter, are the same numbering.
    if not np.array_equal(first_encounter_relabel(m[u, v]), first_encounter_relabel(m[p, p])):
        details.append("binding-vertex labels disagree with basic pair labels")
    # Ordered binding-edge label pairs classify basic pairs exactly as the
    # ordered-pair stable graph labels them, and symmetry of the ordered
    # label is the binding-edge equality.
    if not np.array_equal(
        first_encounter_relabel(x[u, v]), first_encounter_relabel(m[u, p], m[v, p])
    ) or not np.array_equal(x[u, v] == x[v, u], m[u, p] == m[v, p]):
        details.append("binding-edge labels disagree with the ordered-pair labels")
    return details


def binding_completeness(a: LabeledGraph, b: LabeledGraph) -> list[str]:
    """Binding keeps the isomorphism verdict of the pair a, b."""
    plain = is_isomorphic_bruteforce(a, b) is not None
    bound = is_isomorphic_bruteforce(binding_graph(a).graph, binding_graph(b).graph) is not None
    return [] if plain == bound else ["binding changed the isomorphism verdict"]


def binding_orbits(g: LabeledGraph) -> list[str]:
    """The automorphism orbits of g's binding graph restrict to g's own orbits."""
    b = binding_graph(g)
    basic_orbits = [
        tuple(v for v in cell if v < g.n)
        for cell in automorphism_orbits(b.graph, max_n=b.n1).cells
        if any(v < g.n for v in cell)
    ]
    same = sorted(basic_orbits) == sorted(automorphism_orbits(g).cells)
    return [] if same else ["basic orbits of the binding graph differ from the graph's"]


def gi_decision(a: LabeledGraph, relabeled: LabeledGraph, b: LabeledGraph) -> list[str]:
    """The decision says YES on a and its relabeled copy, and on a, b it is
    symmetric and agrees with brute force."""
    details = []
    if not gi_decide(a, relabeled).verdict:
        details.append("a relabeled copy was declared non-isomorphic")
    v1 = gi_decide(a, b).verdict
    v2 = gi_decide(b, a).verdict
    oracle = is_isomorphic_bruteforce(a, b) is not None
    if v1 != v2:
        details.append("verdict is not symmetric in its arguments")
    if v1 != oracle:
        details.append(f"decision {v1} disagrees with brute force {oracle}")
    return details


def ff_pitfall(g: LabeledGraph) -> list[str]:
    """The numeric shortcut stabilizes g, built to defeat it, unlike the exact rounds."""
    same = is_equivalent(numeric_ff_stabilize(g).stable, sas_stabilize(g).stable)
    return ["numeric shortcut unexpectedly matched the exact rounds"] if same else []


# ---------------------------------------------------------------------------
# The checks: each selection gives the cases (name, graph, *arguments) of a claim.

def _first(max_n, count, keep=lambda g: True):
    """The first spec.scaled(count) corpus graphs of order <= max_n that keep accepts."""
    return lambda corpus, spec: list(
        islice(((name, g) for name, g in corpus if g.n <= max_n and keep(g)), spec.scaled(count))
    )


def _seeded(select, offset):
    """select's cases, each followed by a seed drawn from spec.seed + offset."""

    def cases(corpus, spec):
        rng = np.random.default_rng(spec.seed + offset)
        return [(*case, int(rng.integers(2**32))) for case in select(corpus, spec)]

    return cases


def _named(*names):
    def cases(corpus, spec):
        graphs = dict(corpus)
        return [(f"named/{name}", graphs[f"named/{name}"]) for name in names]

    return cases


def _bindable(g: LabeledGraph) -> bool:
    return g.n > 2 and is_simple(g) and is_connected(g)


def _binary_graphs(corpus, spec):
    """The first spec.scaled(160) 0/1 corpus graphs of order <= 8, each with spec.seed."""
    binary = _first(8, 160, lambda g: set(np.unique(g.labels).tolist()) <= {0, 1})
    return [(*case, spec.seed) for case in binary(corpus, spec)]


def _representative_pairs(corpus, spec):
    reps = nonisomorphic_connected_graphs(4)
    return [(f"reps4/{i}-{j}", a, b) for i, a in enumerate(reps) for j, b in enumerate(reps)]


def _gi_triples(corpus, spec):
    """spec.scaled(40) random connected graphs a of order 3..8 drawn from
    spec.seed + 3, each with a relabeled copy and another such graph b."""
    rng = np.random.default_rng(spec.seed + 3)
    cases = []
    for k in range(spec.scaled(40)):
        n = int(rng.integers(3, 9))
        a = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
        sigma = random_permutation(n, seed=int(rng.integers(2**32)))
        b = random_connected_graph(n, 0.5, seed=int(rng.integers(2**32)))
        cases.append((f"gi/{k}", a, permuted(a, sigma), b))
    return cases


def _check(select, claim):
    """The check that runs claim on every case select(corpus, spec) gives."""
    return lambda corpus, spec: _run(select(corpus, spec), claim)


# kind: "implementation" for artifact plumbing whose failure is a code bug,
# "theorem" for claims imported from the underlying theory whose failure is
# a reportable finding (serialized for reproduction either way).
CHECKS = {
    "substitution_roundtrip": (_check(lambda corpus, spec: corpus, substitution_roundtrip), "implementation"),
    "dim_monotone_under_imbedding": (
        _check(_seeded(_first(12, 120), 1), dim_monotone_under_imbedding),
        "implementation",
    ),
    "refinement_chain": (_check(_first(12, 80), refinement_chain), "theorem"),
    "stable_fixpoint_and_recognition": (_check(_first(10, 60), stable_fixpoint_and_recognition), "theorem"),
    "square_vs_ordered_pair_vertices": (_check(_first(30, 300), square_vs_ordered_pair_vertices), "theorem"),
    "square_vs_ordered_pair_round_counts": (
        _check(_first(30, 300), square_vs_ordered_pair_round_counts),
        "theorem",
    ),
    "relabeling_equivariance": (_check(_seeded(_first(12, 60), 2), relabeling_equivariance), "implementation"),
    "orbit_coarsening": (_check(_first(8, 80), orbit_coarsening), "theorem"),
    "description_routes": (_check(_binary_graphs, description_routes), "theorem"),
    "strongly_regular_one_round": (
        _check(_named("petersen", "shrikhande", "rook4x4"), strongly_regular_one_round),
        "theorem",
    ),
    "partition_properties": (_check(_first(14, 120), partition_properties), "theorem"),
    "binding_lemmas": (_check(_first(6, 60, _bindable), binding_lemmas), "theorem"),
    "binding_completeness": (_check(_representative_pairs, binding_completeness), "theorem"),
    "binding_orbits": (_check(_first(5, 30, _bindable), binding_orbits), "theorem"),
    "gi_decision": (_check(_gi_triples, gi_decision), "theorem"),
    "ff_pitfall_regression": (_check(_named("pitfall21"), ff_pitfall), "implementation"),
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
