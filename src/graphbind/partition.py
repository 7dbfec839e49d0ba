"""Vertex partitions of labeled graphs and (strong) equitability checks.

Equitability is a colour refinement round (`core.refine_colours`) that splits no cell.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import AnyGraph, GraphError, LabeledGraph, Partition, _single_valued, permuted
from .core import refine_colours, same_matrix


def vertex_partition(g: AnyGraph) -> Partition:
    """Group vertices by diagonal label; cells ordered by smallest member."""
    return Partition.from_colours(g.labels.diagonal())


def _check_partition(g: AnyGraph, p: Partition) -> None:
    if p.n != g.n:
        raise GraphError(f"partition covers {p.n} vertices, graph has {g.n}")


def is_equitable(g: AnyGraph, p: Partition) -> bool:
    """Row label multisets into each cell depend only on the source cell.

    For every ordered pair of cells (C, D), the multiset of labels from a
    vertex of C into D must be independent of the chosen vertex (the
    diagonal entry is included when the vertex lies in D), and so must the
    multiset of labels from D into it: a refinement round from the cells keys
    each vertex by these multisets, on the matrix and on its transpose.
    """
    _check_partition(g, p)
    cells = p.cell_of()
    matrices = (g.labels,) if isinstance(g, LabeledGraph) else (g.labels, g.labels.T)
    return all(refine_colours(m, cells).max() == cells.max() for m in matrices)


def is_strongly_equitable(g: AnyGraph, p: Partition) -> bool:
    """Equitable, and label sets of distinct cell pairs are disjoint.

    Every label may appear between exactly one unordered pair of cells
    (same-cell blocks count as a pair with itself), so labels on edges
    between different cell pairs never overlap.
    """
    cells = p.cell_of()
    pairs = np.minimum.outer(cells, cells) * len(p.cells) + np.maximum.outer(cells, cells)
    return is_equitable(g, p) and _single_valued(g.labels.ravel(), pairs.ravel())


def block_commutant_check(y: LabeledGraph, x: Sequence[int]) -> bool:
    """If x is an automorphism of y, it must fix every stable cell setwise.

    Returns whether that implication held; a non-automorphism x satisfies it
    vacuously.
    """
    if not same_matrix(permuted(y, x), y):
        return True
    cell_of = vertex_partition(y).cell_of()
    image = np.asarray(x, dtype=np.int64)
    return bool((cell_of[image] == cell_of).all())


def partition_json(g: AnyGraph) -> dict:
    """JSON-ready dump of the vertex partition: cells and their diagonal labels."""
    p = vertex_partition(g)
    diag = g.labels.diagonal()
    return {
        "cells": [list(cell) for cell in p.cells],
        "labels": [int(diag[cell[0]]) for cell in p.cells],
    }
