"""The isomorphism decision procedure over binding graphs.

Two connected simple graphs of the same order are joined into one wing
graph, its binding graph is stabilized under the lifts of the automorphisms
that one search of the wing graph finds, and the verdict is read off the
cells of the stable vertex partition: YES iff every basic cell other than
the apex singleton mixes vertices of both copies.

The test suite audits this procedure against brute-force search.  The
correctness claim behind it is refuted by a committed counterexample, a YES
on the non-isomorphic CFI pair over the Heawood graph (see the README), so
the tool reports, it does not certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binding import binding_graph, wing_graph
from .core import GraphError, LabeledGraph, Partition, is_connected, is_simple
from .partition import vertex_partition
from .refine import StabilizationTrace, max_evaluated_order, sas_stabilize, search_automorphisms, wl_stabilize

#: Refuse binding graphs beyond this order by default (rounds cost O(order^3)).
DEFAULT_MAX_BINDING_ORDER = 5000


@dataclass
class GiResult:
    """Verdict plus the evidence it was read from."""

    verdict: bool
    partition: Partition
    rounds: int
    dims: list[int]
    unmixed_cells: list[list[int]] = field(default_factory=list)
    anomalies: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "verdict": "YES" if self.verdict else "NO",
            "rounds": self.rounds,
            "dims": list(self.dims),
            "cells": [list(c) for c in self.partition.cells],
            "unmixed_cells": [list(c) for c in self.unmixed_cells],
            "anomalies": list(self.anomalies),
        }


def check_binding_order(n: int, max_binding_order: int) -> None:
    """Refuse two graphs of order n whose wing graph's binding graph, of order
    (2n+1)(2n+2)/2, is above `max_binding_order` or the exact-round bound."""
    order = (2 * n + 1) * (2 * n + 2) // 2
    if order > max_binding_order:
        raise GraphError(f"binding graph order {order} exceeds the budget {max_binding_order}")
    if order > max_evaluated_order():
        raise GraphError(f"binding graph order {order} is above the exact-round bound {max_evaluated_order()}")


def gi_decide(
    a1: LabeledGraph,
    a2: LabeledGraph,
    *,
    process: str = "sas",
    max_binding_order: int = DEFAULT_MAX_BINDING_ORDER,
) -> GiResult:
    """Decide isomorphism of two connected simple graphs of equal order n > 1.

    Steps: build the wing graph of order 2n+1, its binding graph of order
    (2n+1)(2n+2)/2, search the wing graph's automorphisms and lift them to
    the binding graph, stabilize under them (they change how the rounds are
    computed, not their labels), form the vertex partition, and check that
    every basic cell apart from the apex singleton contains vertices from
    both copies.
    """
    if a1.n != a2.n:
        raise GraphError(f"orders differ: {a1.n} != {a2.n}")
    if a1.n <= 1:
        raise GraphError("the procedure needs order at least 2")
    for name, g in (("first", a1), ("second", a2)):
        if not is_simple(g):
            raise GraphError(f"{name} input is not a simple graph")
        if not is_connected(g):
            raise GraphError(f"{name} input is not connected")
    if process not in ("sas", "wl"):
        raise GraphError(f"unknown process {process!r}")

    n = a1.n
    check_binding_order(n, max_binding_order)
    wing = wing_graph(a1, a2)
    bound = binding_graph(wing)
    lifts = [bound.lift(pi) for pi in search_automorphisms(wing)]
    stabilize = sas_stabilize if process == "sas" else wl_stabilize
    trace: StabilizationTrace = stabilize(bound.graph, automorphisms=lifts)
    partition = vertex_partition(trace.stable)

    apex = 2 * n
    basic_count = 2 * n + 1
    anomalies = []
    basic_cells: list[list[int]] = []
    for cell in partition.cells:
        members = list(cell)
        if len({v < basic_count for v in members}) > 1:
            anomalies.append(f"cell mixes basic and binding vertices: {members}")
        if apex in members:
            if members != [apex]:
                anomalies.append(f"apex cell is not a singleton: {members}")
            continue
        if any(v < basic_count for v in members):
            basic_cells.append(members)

    unmixed = [
        cell
        for cell in basic_cells
        if not (any(v < n for v in cell) and any(n <= v < 2 * n for v in cell))
    ]
    return GiResult(
        verdict=not unmixed,
        partition=partition,
        rounds=trace.rounds,
        dims=list(trace.dims),
        unmixed_cells=unmixed,
        anomalies=anomalies,
    )
