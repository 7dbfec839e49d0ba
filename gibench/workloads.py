"""The benchmark's workloads: seeded inputs, the timed operation, and checks.

Inputs are built here with numpy alone, and every check compares the
program's output with a property computed here from the inputs (a graph
invariant or the way a pair was built), never with a stored copy of an
earlier output.  The program receives only the generated graphs.
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np

import graphbind.decide
import graphbind.validate
from graphbind import LabeledGraph

# decide-random: binding order N = (2n+1)(2n+2)/2 = 325 at n = 12.
RANDOM_N = 12
RANDOM_P = 0.4

# The one audit finding the report may carry: the two processes sometimes
# stabilize in a different number of rounds (see the repository README).
KNOWN_AUDIT_FINDING = "square_vs_ordered_pair_round_counts"


# ---------------------------------------------------------------------------
# Graphs and invariants, independent of graphbind.


def _connected(adj: np.ndarray) -> bool:
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = (adj[frontier].any(axis=0)) & ~seen
        seen |= frontier
    return bool(seen.all())


def random_connected(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """G(n, p) conditioned on being connected, by rejection."""
    while True:
        upper = np.triu(rng.random((n, n)) < p, 1)
        adj = (upper | upper.T).astype(np.int64)
        if _connected(adj):
            return adj


def relabel(adj: np.ndarray, perm: np.ndarray) -> np.ndarray:
    return adj[np.ix_(perm, perm)]


def degree_triangle_profile(adj: np.ndarray) -> list[tuple[int, int]]:
    """Sorted (degree, triangles through the vertex) pairs; an isomorphism invariant."""
    triangles = np.diagonal(adj @ adj @ adj) // 2
    return sorted(zip(adj.sum(axis=1).tolist(), triangles.tolist()))


def count_4_cliques(adj: np.ndarray) -> int:
    return sum(
        1
        for quad in combinations(range(adj.shape[0]), 4)
        if all(adj[u, v] for u, v in combinations(quad, 2))
    )


def shrikhande() -> np.ndarray:
    """Cayley graph on Z4 x Z4 with connection set {±(1,0), ±(0,1), ±(1,1)}."""
    steps = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}
    adj = np.zeros((16, 16), dtype=np.int64)
    for u, v in combinations(range(16), 2):
        if ((u // 4 - v // 4) % 4, (u % 4 - v % 4) % 4) in steps:
            adj[u, v] = adj[v, u] = 1
    return adj


def rook_4x4() -> np.ndarray:
    """K4 x K4: cells of a 4x4 board, adjacent when they share a row or a column."""
    adj = np.zeros((16, 16), dtype=np.int64)
    for u, v in combinations(range(16), 2):
        if (u // 4 == v // 4) != (u % 4 == v % 4):
            adj[u, v] = adj[v, u] = 1
    return adj


def is_srg_16_6_2_2(adj: np.ndarray) -> bool:
    """A^2 = 6I + 2A + 2(J - I - A), the defining identity of SRG(16,6,2,2)."""
    eye = np.eye(16, dtype=np.int64)
    return bool(np.array_equal(adj @ adj, 6 * eye + 2 * adj + 2 * (1 - eye - adj)))


# ---------------------------------------------------------------------------
# Workloads.  `inputs(i)` builds the inputs of operation i from the seed,
# `run` is the timed call into the program, `check` lists what is wrong with
# its output, and `fingerprint` is what a traced run must reproduce exactly.


def _decision_fingerprint(result) -> tuple:
    return (result.verdict, result.partition.cells, result.rounds, tuple(result.dims))


class DecideRandom:
    """One op: a relabeled pair and a non-isomorphic pair, each under sas then wl."""

    name = "decide-random"

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def inputs(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        a = random_connected(rng, RANDOM_N, RANDOM_P)
        twin = relabel(a, rng.permutation(RANDOM_N))
        profile = degree_triangle_profile(a)
        while True:
            other = random_connected(rng, RANDOM_N, RANDOM_P)
            if degree_triangle_profile(other) != profile:
                break
        a = LabeledGraph(a)
        return {"yes": (a, LabeledGraph(twin)), "no": (a, LabeledGraph(other))}

    def run(self, inp: dict) -> dict:
        return {
            (kind, process): graphbind.decide.gi_decide(*inp[kind], process=process)
            for kind in ("yes", "no")
            for process in ("sas", "wl")
        }

    def check(self, inp: dict, out: dict) -> list[str]:
        problems = []
        for (kind, process), result in out.items():
            if result.verdict != (kind == "yes"):
                problems.append(f"{kind} pair under {process}: verdict {result.verdict}")
        for kind in ("yes", "no"):
            if out[kind, "sas"].partition != out[kind, "wl"].partition:
                problems.append(f"{kind} pair: sas and wl vertex partitions differ")
        return problems

    def fingerprint(self, out: dict) -> tuple:
        return tuple(_decision_fingerprint(out[key]) for key in sorted(out))


class DecideSrg:
    """One op: Shrikhande vs rook (NO) and each against a relabeling of itself (YES)."""

    name = "decide-srg"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.shrikhande = shrikhande()
        self.rook = rook_4x4()
        for adj in (self.shrikhande, self.rook):
            if not is_srg_16_6_2_2(adj):
                raise RuntimeError("benchmark graph construction is not SRG(16,6,2,2)")
        # Different 4-clique counts prove the pair non-isomorphic.
        self.cliques = (count_4_cliques(self.shrikhande), count_4_cliques(self.rook))
        if self.cliques != (0, 8):
            raise RuntimeError(f"unexpected 4-clique counts {self.cliques}")

    def inputs(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])

        def shuffled(adj):
            return LabeledGraph(relabel(adj, rng.permutation(16)))

        s, r = self.shrikhande, self.rook
        return {
            "shrikhande-rook": (shuffled(s), shuffled(r)),
            "shrikhande-self": (shuffled(s), shuffled(s)),
            "rook-self": (shuffled(r), shuffled(r)),
        }

    def run(self, inp: dict) -> dict:
        return {name: graphbind.decide.gi_decide(*pair) for name, pair in inp.items()}

    def check(self, inp: dict, out: dict) -> list[str]:
        expected = {"shrikhande-rook": False, "shrikhande-self": True, "rook-self": True}
        return [
            f"{name}: verdict {out[name].verdict}, expected {want}"
            for name, want in expected.items()
            if out[name].verdict != want
        ]

    def fingerprint(self, out: dict) -> tuple:
        return tuple(_decision_fingerprint(out[name]) for name in sorted(out))


class Audit:
    """One op: a quick validate_suite pass over the suite's default corpus.

    The corpus does not follow --seed: across corpus seeds the quick pass
    takes from 0.44 s to 2.3 s (coefficient of variation 0.41, against 0.09
    for one seed repeated), so a seeded corpus would measure the seed rather
    than the code.
    """

    name = "audit"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.spec = graphbind.validate.CorpusSpec(quick=True)

    def inputs(self, i: int):
        return self.spec

    def run(self, spec) -> dict:
        return graphbind.validate.validate_suite(spec)

    def check(self, spec, report: dict) -> list[str]:
        problems = []
        if report["implementation_violations"]:
            problems.append(f"{report['implementation_violations']} implementation violations")
        for name, entry in report["checks"].items():
            if entry["violations"] and name != KNOWN_AUDIT_FINDING:
                problems.append(f"{name}: {len(entry['violations'])} violations")
            if entry["cases"] == 0:
                problems.append(f"{name}: no cases ran")
        return problems

    def fingerprint(self, report: dict) -> str:
        checks = {
            name: {k: v for k, v in entry.items() if k != "seconds"}
            for name, entry in report["checks"].items()
        }
        return json.dumps(checks, sort_keys=True)


WORKLOADS = {w.name: w for w in (DecideRandom, DecideSrg, Audit)}
