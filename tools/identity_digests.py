"""Digests of every stabilization graphbind makes on a fixed set of inputs.

    python3 tools/identity_digests.py SRC

SRC is the `src/` directory of any checkout; graphbind is imported from
there and from nowhere else, so the same script runs against two trees.  The
benchmark inputs come from `gibench/workloads.py` next to this script.

Every call to `sas_stabilize`, `wl_stabilize` and `kpower_stabilize` is
caught in every graphbind module that binds them, the way the benchmark's
tracing catches its layers, and recorded as [sha256 of the stable labels,
rounds, dims].  One line per input group prints the number of calls and a
sha256 over their records in call order.  Two trees that print the same
lines stabilize every input identically, label for label.

Groups: the audit's quick corpus (kpower with k = 3 for order <= 8 only);
`collisions`, sas and wl on the quick corpus of order <= 8 with
`refine.PRIME` set to 3, where evaluations collide often, so that the
interner's collision path and the fallback to the exact round run;
`reference rounds`, the labels of `sas_step` and `wl_step` applied directly
to each seeded quick-corpus graph of order <= 8 and to its next two
iterates, once at the default `refine.PRIME` and once at 3, where the exact
round's evaluations merge classes that it must split by their rows; one
`audit` op; `decide-random` ops 1-2 at seeds 7 and 8; and `decide-srg` op 1
at seeds 7 and 8.

The `oracle` line digests the brute-force oracles' answers, in order: the
orbits of every quick-corpus graph of order <= 10; for each of them the
witness against a copy relabeled by a permutation from a fixed seed, and
against the next corpus graph of its order; and the orbits of the binding
graphs of the connected order-4 and order-5 representatives.

The `equitable` line digests `is_equitable` and `is_strongly_equitable`, in
order, for every quick-corpus graph of order <= 10 and for its sas and wl
stable graphs, each against four partitions of the graph: the one-cell
partition, the vertex partitions of the seeded graph and of its first sas
round, and the sas stable vertex partition.  Both answers occur.  The
first-round partition, by degree on a simple graph, is where a vertex's
labels into each cell matter and not only its whole row, so a check that
always says yes, or a refinement round that splits less, changes the line.

The `bvlabel` line digests `check_stable_bv_labeling` reports, in order:
whether the labeling is stable, both partitions and the degree table, for
`BVLABELS_PER_ORDER` labelings of each order 2-7 from a fixed seed.  Each
labels a binding vertex by a random symmetric function of the colours of
its two basic vertices, under a random colouring with up to three colours,
or, one time in four, each binding vertex on its own.  Labels include
negative ones and ones at 2**62 and above, and both answers occur.

The `descgraph` line digests the description-graph routes, in order, for
every 0/1 quick-corpus graph of order <= 10 and then `DESCGRAPH_RANDOM`
seeded random 0/1 graphs of orders 11-40: the labels of
`spectral_description_graph`, the eigenvalue count and `ill_conditioned` of
`spectral_decomposition`, `minimal_polynomial_degree`, and the labels of
`adjoint_description_graph(g, seed=k)` for the k-th graph; then the labels
of `gamma_description_graph` on the corpus graphs only.  The audit compares
these routes only up to relabeling, so no other line sees their numbering.

Two more lines digest the quick and the full `validate_suite` report: the
number of violations and the first 16 hex digits of a sha256 over every
check's entry without its `seconds`, the same entries the benchmark's
`audit` fingerprint compares.

The last line, `symmetries`, digests, for the wing graph of every pair of the
quick audit (`validate._representative_pairs` and `validate._gi_triples`)
and of every `decide-random` and `decide-srg` input above, the orbit
partition of the group that `refine.search_automorphisms` finds and the
number of orbits of its lifts on the binding graph, which is the number of
rows an evaluated round computes when it computes by orbit rows.  It does
not digest the generators, which depend on the order of the search.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import warnings
from pathlib import Path

# Single-threaded BLAS, as in the benchmark, set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Importing the benchmark's modules leaves no bytecode cache in its directory.
sys.dont_write_bytecode = True

GIBENCH = Path(__file__).resolve().parent.parent / "gibench"
STABILIZERS = ("sas_stabilize", "wl_stabilize", "kpower_stabilize")
KPOWER_MAX_ORDER = 8
COLLISION_MAX_ORDER = 8
COLLISION_PRIME = 3
ORACLE_MAX_ORDER = 10
ORACLE_SEED = 20240901
BVLABELS_PER_ORDER = 50
BVLABEL_VALUES = [-(2**62), -7, -1, 2, 3, 5, 2**62, 2**62 + 9, 2**63 - 1]
DESCGRAPH_RANDOM = 20


def import_graphbind(src: Path):
    """graphbind from `src`, then the benchmark's workloads and tracing."""
    sys.path.insert(0, str(src))
    import graphbind

    if Path(graphbind.__file__).resolve().parent != src / "graphbind":
        raise SystemExit(f"imported graphbind from {graphbind.__file__}, not {src}")
    sys.path.insert(1, str(GIBENCH))
    import tracing
    import workloads

    return tracing, workloads


def report_digest(report: dict) -> str:
    checks = {
        name: {k: v for k, v in entry.items() if k != "seconds"}
        for name, entry in report["checks"].items()
    }
    return hashlib.sha256(json.dumps(checks, sort_keys=True).encode()).hexdigest()[:16]


def oracle_results() -> list:
    """The answers the `oracle` line digests, in order."""
    from graphbind.binding import binding_graph
    from graphbind.core import permuted
    from graphbind.corpus import nonisomorphic_connected_graphs, random_permutation
    from graphbind.oracle import automorphism_orbits, is_isomorphic_bruteforce
    from graphbind.validate import CorpusSpec, build_corpus

    graphs = [g for _, g in build_corpus(CorpusSpec(quick=True)) if g.n <= ORACLE_MAX_ORDER]
    results: list = [automorphism_orbits(g).cells for g in graphs]
    for k, g in enumerate(graphs):
        sigma = random_permutation(g.n, seed=ORACLE_SEED + k)
        results.append(is_isomorphic_bruteforce(g, permuted(g, sigma)))
        following = next((h for h in graphs[k + 1:] if h.n == g.n), None)
        if following is not None:
            results.append(is_isomorphic_bruteforce(g, following))
    for n in (4, 5):
        for g in nonisomorphic_connected_graphs(n):
            results.append(automorphism_orbits(binding_graph(g).graph).cells)
    return results


def equitable_results() -> list:
    """The answers the `equitable` line digests, in order."""
    from graphbind.core import Partition
    from graphbind.partition import is_equitable, is_strongly_equitable, vertex_partition
    from graphbind.refine import sas_stabilize, sas_step, seed_recognize_vertices, wl_stabilize
    from graphbind.validate import CorpusSpec, build_corpus

    results: list = []
    for _, g in build_corpus(CorpusSpec(quick=True)):
        if g.n > ORACLE_MAX_ORDER:
            continue
        sas, wl = sas_stabilize(g).stable, wl_stabilize(g).stable
        seeded = seed_recognize_vertices(g)
        partitions = [
            Partition((tuple(range(g.n)),)),
            vertex_partition(seeded),
            vertex_partition(sas_step(seeded)),
            vertex_partition(sas),
        ]
        for h in (g, sas, wl):
            results += [[is_equitable(h, p), is_strongly_equitable(h, p)] for p in partitions]
    return results


def bvlabel_results() -> list:
    """The reports the `bvlabel` line digests, in order."""
    import numpy as np
    from graphbind.binding import check_stable_bv_labeling

    rng = np.random.default_rng(ORACLE_SEED)
    results: list = []
    for n in range(2, 8):
        # Binding vertex n + k binds the k-th pair, in `pair_rank` order.
        pairs = list(zip(*np.triu_indices(n, 1)))
        for _ in range(BVLABELS_PER_ORDER):
            colour = rng.integers(0, rng.integers(1, 4), size=n)
            table = rng.choice(BVLABEL_VALUES, size=(3, 3))
            table = np.minimum(table, table.T)
            if rng.random() < 0.25:
                pi = {n + k: int(rng.choice(BVLABEL_VALUES[:4])) for k in range(len(pairs))}
            else:
                pi = {n + k: int(table[colour[u], colour[v]]) for k, (u, v) in enumerate(pairs)}
            report = check_stable_bv_labeling(pi, n)
            partitions = [report.basic_partition.cells, report.binding_partition.cells]
            results.append([report.stable, *partitions, sorted(report.degree_table.items())])
    return results


def descgraph_results() -> list:
    """The outputs the `descgraph` line digests, in order."""
    import numpy as np
    from graphbind.corpus import random_graph
    from graphbind.descgraph import (
        adjoint_description_graph,
        gamma_description_graph,
        minimal_polynomial_degree,
        spectral_decomposition,
        spectral_description_graph,
    )
    from graphbind.validate import CorpusSpec, build_corpus

    corpus = [
        g
        for _, g in build_corpus(CorpusSpec(quick=True))
        if g.n <= ORACLE_MAX_ORDER and set(np.unique(g.labels).tolist()) <= {0, 1}
    ]
    rng = np.random.default_rng(ORACLE_SEED)
    randoms = [
        random_graph(int(rng.integers(11, 41)), float(rng.uniform(0.2, 0.8)), seed=int(rng.integers(2**32)))
        for _ in range(DESCGRAPH_RANDOM)
    ]
    results: list = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # ill_conditioned is digested
        for k, g in enumerate(corpus + randoms):
            dec = spectral_decomposition(g)
            results.append([
                spectral_description_graph(g).labels.tolist(),
                len(dec.eigenvalues),
                dec.ill_conditioned,
                minimal_polynomial_degree(g),
                adjoint_description_graph(g, seed=k).labels.tolist(),
            ])
    results += [gamma_description_graph(g).labels.tolist() for g in corpus]
    return results


def symmetry_results(workloads) -> list:
    """The orbits and orbit-row counts the `symmetries` line digests, in order."""
    from graphbind.binding import binding_graph, wing_graph
    from graphbind.refine import _symmetry, search_automorphisms, seed_recognize_vertices
    from graphbind.validate import CorpusSpec, _gi_triples, _representative_pairs, build_corpus

    spec = CorpusSpec(quick=True)
    corpus = build_corpus(spec)
    pairs = [(a, b) for _, a, b in _representative_pairs(corpus, spec)]
    pairs += [(a, other) for _, a, relabeled, b in _gi_triples(corpus, spec) for other in (relabeled, b)]
    for name, ops in (("decide-random", (1, 2)), ("decide-srg", (1,))):
        for seed in (7, 8):
            workload = workloads.WORKLOADS[name](seed)
            pairs += [pair for op in ops for pair in workload.inputs(op).values()]
    results: list = []
    for a, b in pairs:
        wing = wing_graph(a, b)
        generators = search_automorphisms(wing)
        orbit = list(range(wing.n))  # each vertex's least known orbit-mate, until it is the least
        changed = True
        while changed:
            changed = False
            for pi in generators:
                for u, v in enumerate(pi.tolist()):
                    least = min(orbit[u], orbit[v])
                    if orbit[u] != least or orbit[v] != least:
                        orbit[u] = orbit[v] = least
                        changed = True
        bound = binding_graph(wing)
        seeded = seed_recognize_vertices(bound.graph).labels
        rows = _symmetry(seeded, [bound.lift(pi) for pi in generators], True).representatives.size
        results.append([orbit, rows])
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path, help="src/ directory holding graphbind")
    args = parser.parse_args(argv)
    tracing, workloads = import_graphbind(args.src.resolve())
    from graphbind import refine
    from graphbind.validate import CorpusSpec, build_corpus, validate_suite

    records: list = []

    def recorder(layer, fn):
        def recorded(*call_args, **kwargs):
            trace = fn(*call_args, **kwargs)
            labels = hashlib.sha256(trace.stable.labels.tobytes()).hexdigest()
            records.append([labels, trace.rounds, list(trace.dims)])
            return trace

        return recorded

    def corpus():
        for _, g in build_corpus(CorpusSpec(quick=True)):
            refine.sas_stabilize(g)
            refine.wl_stabilize(g)
            if g.n <= KPOWER_MAX_ORDER:
                refine.kpower_stabilize(g, 3)

    def collisions():
        prime = refine.PRIME
        refine.PRIME = COLLISION_PRIME
        try:
            for _, g in build_corpus(CorpusSpec(quick=True)):
                if g.n <= COLLISION_MAX_ORDER:
                    refine.sas_stabilize(g)
                    refine.wl_stabilize(g)
        finally:
            refine.PRIME = prime

    def reference_rounds():
        from graphbind.core import DirectedLabeledGraph

        prime = refine.PRIME
        try:
            for refine_prime in (prime, COLLISION_PRIME):
                refine.PRIME = refine_prime
                for _, g in build_corpus(CorpusSpec(quick=True)):
                    if g.n > COLLISION_MAX_ORDER:
                        continue
                    seeded = refine.seed_recognize_vertices(g)
                    for step, current in (
                        (refine.sas_step, seeded),
                        (refine.wl_step, DirectedLabeledGraph(seeded.labels)),
                    ):
                        for _ in range(3):
                            current = step(current)
                            records.append(hashlib.sha256(current.labels.tobytes()).hexdigest())
        finally:
            refine.PRIME = prime

    def decide(workload, seed: int, op: int):
        w = workloads.WORKLOADS[workload](seed)
        return lambda: w.run(w.inputs(op))

    groups = [
        ("corpus", corpus),
        ("collisions", collisions),
        ("reference rounds", reference_rounds),
        ("audit", lambda: validate_suite(CorpusSpec(quick=True))),
    ]
    for seed in (7, 8):
        groups += [(f"decide-random seed {seed} op {op}", decide("decide-random", seed, op)) for op in (1, 2)]
    for seed in (7, 8):
        groups.append((f"decide-srg seed {seed} op 1", decide("decide-srg", seed, 1)))

    layers = [(name, "graphbind.refine", name, None) for name in STABILIZERS]
    with tracing.rebound(recorder, layers):
        for name, run in groups:
            records.clear()
            run()
            digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
            print(f"{name:28s} calls={len(records):<5d} sha256={digest}", flush=True)
    results = oracle_results()
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    print(f"{'oracle':28s} calls={len(results):<5d} sha256={digest}", flush=True)
    results = equitable_results()
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    print(f"{'equitable':28s} calls={len(results):<5d} sha256={digest}", flush=True)
    results = bvlabel_results()
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    stable = sum(result[0] for result in results)
    print(f"{'bvlabel':28s} calls={len(results):<5d} sha256={digest} stable={stable}", flush=True)
    results = descgraph_results()
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    print(f"{'descgraph':28s} calls={len(results):<5d} sha256={digest}", flush=True)
    for mode in ("quick", "full"):
        report = validate_suite(CorpusSpec(quick=mode == "quick"))
        line = f"{mode + ' report':28s} violations={report['violation_total']:<5d}"
        print(f"{line} sha256={report_digest(report)}", flush=True)
    results = symmetry_results(workloads)
    digest = hashlib.sha256(json.dumps(results).encode()).hexdigest()
    rows = sum(result[1] for result in results)
    print(f"{'symmetries':28s} calls={len(results):<5d} sha256={digest} rows={rows}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
