"""Vertex partitions and (strong) equitability."""

from __future__ import annotations

import numpy as np
import pytest

from graphbind.core import GraphError, LabeledGraph, Partition, permuted
from graphbind.corpus import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
)
from graphbind.oracle import automorphism_orbits
from graphbind.partition import (
    block_commutant_check,
    is_equitable,
    is_strongly_equitable,
    partition_json,
    vertex_partition,
)
from graphbind.refine import sas_stabilize

from conftest import as_graph


class TestVertexPartition:
    def test_groups_by_diagonal(self):
        g = LabeledGraph(np.diag([5, 7, 5]) + 1 - np.eye(3, dtype=np.int64))
        assert vertex_partition(g).cells == ((0, 2), (1,))

    def test_reference_24(self, reference):
        cells = vertex_partition(as_graph(reference["g24_stable"])).cells
        assert [list(c) for c in cells] == sorted(reference["g24_stable_cells"])

    def test_discrete_when_diagonal_distinct(self):
        g = LabeledGraph(np.diag([3, 4, 5]))
        assert all(len(c) == 1 for c in vertex_partition(g).cells)

    def test_complete_graph_single_cell(self):
        stable = sas_stabilize(complete_graph(5)).stable
        assert vertex_partition(stable).cells == (tuple(range(5)),)


class TestEquitable:
    def test_stable_partitions_are_equitable(self):
        for seed in range(6):
            g = random_graph(7, 0.5, seed=seed)
            stable = sas_stabilize(g).stable
            p = vertex_partition(stable)
            assert is_equitable(stable, p)
            assert is_strongly_equitable(stable, p)

    def test_directed_stable_partitions_are_strongly_equitable(self):
        from graphbind.refine import wl_stabilize

        for seed in range(6):
            g = random_graph(7, 0.5, seed=seed)
            stable = wl_stabilize(g).stable
            p = vertex_partition(stable)
            assert is_strongly_equitable(stable, p)

    def test_p3_single_cell_not_equitable(self):
        p3 = path_graph(3)
        assert not is_equitable(p3, Partition.from_cells([[0, 1, 2]]))

    def test_c6_single_cell_equitable(self):
        c6 = cycle_graph(6)
        single = Partition.from_cells([list(range(6))])
        assert is_equitable(c6, single)
        assert is_strongly_equitable(c6, single)

    def test_merged_labels_break_strong_equitability(self):
        stable = sas_stabilize(path_graph(4)).stable
        p = vertex_partition(stable)
        m = stable.labels.copy()
        # Merge one cross-cell label into a label of a different cell pair.
        cells = [list(c) for c in p.cells]
        assert len(cells) >= 2
        a_label = m[cells[0][0], cells[0][0]]
        cross = None
        for i in range(stable.n):
            for j in range(stable.n):
                if i != j and m[i, j] not in (a_label,):
                    cross = (i, j)
                    break
            if cross:
                break
        m2 = np.where(m == m[cross], a_label, m)
        broken = LabeledGraph(np.minimum(m2, m2.T))
        assert not is_strongly_equitable(broken, p)

    def test_partition_mismatch_rejected(self):
        with pytest.raises(GraphError):
            is_equitable(path_graph(3), Partition.from_cells([[0], [1]]))


def equitable_by_cell_pairs(g, p: Partition) -> bool:
    """The cell-pair definition: is_equitable before it ran a refinement round."""
    matrices = [g.labels]
    if not np.array_equal(g.labels, g.labels.T):
        matrices.append(np.ascontiguousarray(g.labels.T))
    for m in matrices:
        for src in p.cells:
            for dst in p.cells:
                block = np.sort(m[np.ix_(src, dst)], axis=1)
                if not (block == block[0]).all():
                    return False
    return True


def strongly_equitable_by_cell_pairs(g, p: Partition) -> bool:
    """is_strongly_equitable before it compared labels with cell-pair codes."""
    if not equitable_by_cell_pairs(g, p):
        return False
    owner: dict[int, tuple[int, int]] = {}
    for i, src in enumerate(p.cells):
        for j, dst in enumerate(p.cells[i:], start=i):
            for label in np.unique(g.labels[np.ix_(src, dst)]).tolist():
                if owner.setdefault(label, (i, j)) != (i, j):
                    return False
    return True


def random_partition(rng, n: int) -> Partition:
    cell = rng.integers(0, int(rng.integers(1, n + 1)), size=n)
    return Partition.from_cells([np.flatnonzero(cell == k).tolist() for k in np.unique(cell)])


def coarsened(rng, p: Partition) -> Partition:
    """`p` with cells merged at random: near an equitable partition, so both answers occur."""
    group = rng.integers(0, len(p.cells), size=len(p.cells))
    return Partition.from_cells(
        [v for k, cell in enumerate(p.cells) if group[k] == j for v in cell] for j in np.unique(group)
    )


class TestEquitableAgainstCellPairs:
    """is_equitable and is_strongly_equitable against their definitions, kept here."""

    @pytest.mark.parametrize("process", ["sas", "wl"])
    def test_agrees_with_the_cell_pair_definition(self, process):
        from graphbind.refine import wl_stabilize

        stabilize = sas_stabilize if process == "sas" else wl_stabilize
        rng = np.random.default_rng(17 if process == "sas" else 18)
        answers = {True: 0, False: 0}
        strongly = {True: 0, False: 0}
        asymmetric = 0
        for k in range(40):
            g = random_graph(int(rng.integers(2, 10)), float(rng.uniform(0.2, 0.8)), seed=k)
            stable = stabilize(g).stable
            asymmetric += not np.array_equal(stable.labels, stable.labels.T)
            cells = vertex_partition(stable)
            for h in (g, stable):
                for p in (cells, coarsened(rng, cells), random_partition(rng, g.n)):
                    answer = is_equitable(h, p)
                    assert answer == equitable_by_cell_pairs(h, p)
                    answers[answer] += 1
                    answer = is_strongly_equitable(h, p)
                    assert answer == strongly_equitable_by_cell_pairs(h, p)
                    strongly[answer] += 1
        assert min(answers.values()) >= 20 and min(strongly.values()) >= 20
        assert process == "sas" or asymmetric


class TestBlockCommutant:
    def test_identity(self):
        stable = sas_stabilize(path_graph(4)).stable
        assert block_commutant_check(stable, list(range(4)))

    def test_non_automorphism_vacuous(self):
        stable = sas_stabilize(path_graph(4)).stable
        assert block_commutant_check(stable, [1, 0, 2, 3])

    def test_every_oracle_automorphism_fixes_cells(self):
        from itertools import permutations

        from graphbind.core import same_matrix

        for seed in range(5):
            g = random_graph(6, 0.5, seed=seed)
            stable = sas_stabilize(g).stable
            for sigma in permutations(range(6)):
                if same_matrix(permuted(g, sigma), g):
                    assert block_commutant_check(stable, list(sigma))

    def test_discrete_partition_forces_identity_only(self):
        # A graph whose stable partition is discrete has a trivial group.
        g = LabeledGraph(
            np.array(
                [
                    [0, 1, 0, 0, 0, 0],
                    [1, 0, 1, 0, 0, 1],
                    [0, 1, 0, 1, 0, 0],
                    [0, 0, 1, 0, 1, 1],
                    [0, 0, 0, 1, 0, 0],
                    [0, 1, 0, 1, 0, 0],
                ]
            )
        )
        stable = sas_stabilize(g).stable
        if all(len(c) == 1 for c in vertex_partition(stable).cells):
            assert automorphism_orbits(g).cells == tuple((v,) for v in range(6))


class TestJson:
    def test_dump_shape(self):
        stable = sas_stabilize(path_graph(3)).stable
        doc = partition_json(stable)
        assert set(doc) == {"cells", "labels"}
        assert len(doc["cells"]) == len(doc["labels"]) == 2
