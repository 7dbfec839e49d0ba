"""Three routes to the one-round description graph of a labeled graph.

All three classify vertex pairs by the walks of every sort and length
between them, and they agree up to relabeling:

* the truncated walk-generating matrix, built exactly over symbolic walk
  polynomials (the production route for correctness checks),
* the spectral route through eigenprojectors, defined for real 0/1 inputs,
  which checks once that its eigenvectors are orthonormal,
* the adjugate of the characteristic matrix, decided by randomized
  evaluation over a large prime field (one-sided Monte Carlo); it compares
  the entries of the inverse, since adj = det * inv with det != 0.

Walks step over non-blank entries only, so in every route the blank label
behaves as the annihilating zero: it is a reserved marker, not one of the
independent edge variables.  Without that convention the spectral route
(which lives over the reals, where a non-edge contributes nothing) could
not match the other two.
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    BLANK,
    GraphError,
    LabeledGraph,
    equivalent_variable_substitution,
    first_encounter_relabel,
)

#: Monomial-count budget for exact walk polynomials (desk scale n <= 12).
GAMMA_TERM_BUDGET = 5_000_000

#: The prime field of the adjugate evaluations: 2**62 - 57.
ADJOINT_PRIME = 4611686018427387847
#: Independent random evaluations per adjugate description graph.
ADJOINT_TRIALS = 3


class BudgetExceededError(GraphError):
    """Exact walk polynomials outgrew the configured memory budget."""


def walk_powers(labels: np.ndarray, t: int) -> Iterator[list[list[dict[tuple[int, ...], int]]]]:
    """Yield the exact walk polynomials of lengths 1..t of a symmetric matrix.

    Entry (u, v) of the k-th matrix maps each monomial (the sorted labels
    along a length-k walk from u to v) to its number of walks.  A blank step
    annihilates the product, so monomials never contain the blank label.
    Only the upper triangle is expanded; each lower entry is the same dict as
    its mirror.  Raises BudgetExceededError once the terms stored for lengths
    2.. exceed GAMMA_TERM_BUDGET.
    """
    if t < 1:
        return
    m = np.asarray(labels).tolist()
    n = len(m)
    total_terms = 0
    power = [[({(m[u][v],): 1} if m[u][v] != BLANK else {}) for v in range(n)] for u in range(n)]
    yield power
    for k in range(2, t + 1):
        nxt: list[list[dict[tuple[int, ...], int]]] = [[{} for _ in range(n)] for _ in range(n)]
        for u in range(n):
            for w in range(n):
                partial = power[u][w]
                if not partial:
                    continue
                row_w = m[w]
                for v in range(u, n):
                    label = row_w[v]
                    if label == BLANK:
                        continue
                    bucket = nxt[u][v]
                    for mono, count in partial.items():
                        key = tuple(sorted(mono + (label,)))
                        bucket[key] = bucket.get(key, 0) + count
        for u in range(n):
            for v in range(u, n):
                nxt[v][u] = nxt[u][v]
                total_terms += len(nxt[u][v])
        if total_terms > GAMMA_TERM_BUDGET:
            raise BudgetExceededError(
                f"walk polynomials exceeded {GAMMA_TERM_BUDGET} stored terms at length {k}"
            )
        power = nxt
        yield power


def gamma_description_graph(a: LabeledGraph, t: int | None = None) -> LabeledGraph:
    """Description graph via exact truncated walk counting.

    Entry (u, v) is coded by its walk polynomials of lengths 0..t: one
    `(k, sorted monomial counts)` per non-empty length k, where length 0 is
    the constant 1 on the diagonal.  `t=None` uses the always-sufficient
    truncation n-1 (the degree of the minimum polynomial, minus one, already
    suffices but need not be known).
    """
    truncation = a.n - 1 if t is None else t
    if truncation < 0:
        raise GraphError("truncation must be non-negative")
    n = a.n
    entries = [[[(0, ((), 1))] if u == v else [] for v in range(n)] for u in range(n)]
    for k, power in enumerate(walk_powers(a.labels, truncation), start=1):
        for u in range(n):
            for v in range(n):
                if power[u][v]:
                    entries[u][v].append((k, tuple(sorted(power[u][v].items()))))
    return equivalent_variable_substitution([[tuple(entry) for entry in row] for row in entries])


def minimal_polynomial_degree(a: LabeledGraph, tol: float = 1e-6) -> int:
    """Degree of the minimum polynomial of a real 0/1 matrix.

    Real symmetric matrices are diagonalizable, so the degree equals the
    number of distinct eigenvalues; eigenvalues closer than `tol` count as
    one.
    """
    _require_binary(a)
    eigenvalues = np.linalg.eigvalsh(a.labels.astype(float))  # ascending
    return int(_cluster_sorted(eigenvalues, tol).max()) + 1


# ---------------------------------------------------------------------------
# Spectral route.

@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues with their orthogonal projectors."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]
    ill_conditioned: bool


def _require_binary(a: LabeledGraph) -> None:
    if not set(np.unique(a.labels).tolist()) <= {0, 1}:
        raise GraphError("this route is defined for real 0/1 matrices only")


def _cluster_sorted(values: np.ndarray, tol: float) -> np.ndarray:
    """Cluster ids for a sorted non-empty 1-D array, splitting at gaps larger than tol."""
    breaks = np.diff(values) > tol
    return np.concatenate([[0], np.cumsum(breaks)]).astype(np.int64)


def spectral_decomposition(a: LabeledGraph, tol: float = 1e-9) -> SpectralDecomposition:
    _require_binary(a)
    if tol <= 0:
        raise GraphError("tolerance must be positive")
    matrix = a.labels.astype(float)
    values, vectors = np.linalg.eigh(matrix)
    # Projectors onto spans of orthonormal eigenvectors are mutually
    # orthogonal idempotents, so this one product checks all of them.
    if not np.allclose(vectors.T @ vectors, np.eye(a.n), atol=max(tol, 1e-8)):
        raise GraphError("eigenvectors are not orthonormal")
    ids = _cluster_sorted(values, tol)
    eigenvalues = []
    projectors = []
    for k in range(int(ids.max()) + 1):
        sel = ids == k
        eigenvalues.append(float(values[sel].mean()))
        basis = vectors[:, sel]
        projectors.append(basis @ basis.T)
    recon = sum(mu * p for mu, p in zip(eigenvalues, projectors))
    if not np.allclose(recon, matrix, atol=max(tol, 1e-8)):
        raise GraphError("eigendecomposition failed to reconstruct the matrix")
    return SpectralDecomposition(
        eigenvalues=tuple(eigenvalues),
        projectors=tuple(projectors),
        # The cluster means ascend with the clusters.
        ill_conditioned=bool((np.diff(eigenvalues) < 10 * tol).any()),
    )


def spectral_description_graph(a: LabeledGraph, tol: float = 1e-9) -> LabeledGraph:
    """Description graph via eigenprojectors of a 0/1 matrix.

    Positions are classified by the vector of their entries across all
    eigenprojectors, quantized by gap-clustering at `tol`.  The projector of
    the zero eigenvalue participates: leaving it out would discard the
    constant (length-0) walk term and merge diagonal with off-diagonal
    classes on singular matrices.
    """
    dec = spectral_decomposition(a, tol)
    if dec.ill_conditioned:
        warnings.warn("eigenvalue gaps within 10x tolerance; grouping may be unreliable", RuntimeWarning)
    clusters = []
    for proj in dec.projectors:
        proj = (proj + proj.T) / 2.0
        flat = proj.ravel()
        order = np.argsort(flat, kind="stable")
        ids = np.empty_like(order)
        ids[order] = _cluster_sorted(flat[order], tol)
        clusters.append(ids)
    # A position's signature is its tuple of cluster ids, one per projector.
    _, signature = np.unique(np.column_stack(clusters), axis=0, return_inverse=True)
    return equivalent_variable_substitution(signature.reshape(a.n, a.n))


# ---------------------------------------------------------------------------
# Adjugate route.

def _modular_inverse(m: list[list[int]], p: int) -> list[list[int]] | None:
    """inv(M) mod p by Gauss-Jordan elimination; None when M is singular mod p."""
    n = len(m)
    a = [row[:] for row in m]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] % p), None)
        if pivot is None:
            return None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = pow(a[col][col], p - 2, p)
        a[col] = [x * scale % p for x in a[col]]
        inv[col] = [x * scale % p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [(x - factor * y) % p for x, y in zip(a[r], a[col])]
                inv[r] = [(x - factor * y) % p for x, y in zip(inv[r], inv[col])]
    return inv


def adjoint_description_graph(a: LabeledGraph, seed: int | None = None) -> LabeledGraph:
    """Description graph via the adjugate of the characteristic matrix.

    Entries of adj(lambda*I - A) are polynomials in lambda and the labels;
    they are compared by evaluating at ADJOINT_TRIALS independent uniformly
    random assignments over GF(ADJOINT_PRIME) and grouping positions equal at
    all of them.  The decision is one-sided Monte Carlo: distinct polynomials
    collide with probability at most deg/ADJOINT_PRIME per trial.
    """
    rng = random.Random(seed)
    n = a.n
    labels = np.unique(a.labels).tolist()
    samples: list[list[list[int]]] = []
    while len(samples) < ADJOINT_TRIALS:
        # The blank is the annihilating non-edge marker, not an independent
        # variable; only the true labels are randomized.
        assignment = {
            label: (0 if label == BLANK else rng.randrange(ADJOINT_PRIME)) for label in labels
        }
        lam = rng.randrange(ADJOINT_PRIME)
        m = [
            [((lam if i == j else 0) - assignment[int(a.labels[i, j])]) % ADJOINT_PRIME for j in range(n)]
            for i in range(n)
        ]
        # adj(M) = det(M) * inv(M) with det(M) != 0 mod p whenever inv(M)
        # exists, so the same entries of a sample are equal in both.
        inv = _modular_inverse(m, ADJOINT_PRIME)
        if inv is None:
            continue  # unlucky lambda hit an eigenvalue mod p; resample
        samples.append(inv)
    # A position's code is its tuple of evaluations, one per sample.
    return equivalent_variable_substitution(first_encounter_relabel(*np.array(samples, dtype=np.int64)))
