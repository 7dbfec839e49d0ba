from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from graphbind.core import LabeledGraph

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def reference():
    """Reference matrices for the bundled demo graphs (see tests/data)."""
    with open(DATA / "reference_matrices.json") as fh:
        raw = json.load(fh)
    return raw


def as_graph(doc) -> LabeledGraph:
    return LabeledGraph(np.asarray(doc, dtype=np.int64))


def binders(b) -> dict[tuple[int, int], int]:
    """The binding vertex of every basic pair u < v, in `pair_rank` order."""
    u, v = np.triu_indices(b.basic_n, 1)
    return {(x, y): b.binding_vertex(x, y) for x, y in zip(u.tolist(), v.tolist())}


def cells_from_diagonal(g) -> list[list[int]]:
    """Independent partition reader: group vertices by diagonal entry."""
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(int(g.labels[v, v]), []).append(v)
    return sorted(groups.values())
