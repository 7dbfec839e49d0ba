"""File formats: graph6, edgelist, matrix-json."""

from __future__ import annotations

import re

import numpy as np
import pytest

from graphbind.core import GraphError, LabeledGraph
from graphbind.corpus import cycle_graph, random_graph
from graphbind.graphio import (
    ParseError,
    dumps_graph,
    loads_graph,
    read_graph,
    read_order,
    write_graph,
)


class TestEdgelist:
    def test_p3(self):
        g = loads_graph("3\n1 2\n2 3\n", "edgelist")
        assert g.labels.tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_roundtrip(self, tmp_path):
        g = random_graph(7, 0.4, seed=3)
        path = tmp_path / "g.txt"
        write_graph(g, path, "edgelist")
        assert np.array_equal(read_graph(path, "edgelist").labels, g.labels)

    def test_writer_matches_the_pairwise_loop(self):
        def by_loop(g):
            lines = [str(g.n)]
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    if g.labels[u, v]:
                        lines.append(f"{u + 1} {v + 1}")
            return "\n".join(lines) + "\n"

        assert dumps_graph(cycle_graph(4), "edgelist") == "4\n1 2\n1 4\n2 3\n3 4\n"
        for n in (1, 2, 5, 7, 62, 300):
            g = random_graph(n, 0.5, seed=n)
            assert dumps_graph(g, "edgelist") == by_loop(g)

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            loads_graph("3\n1 2\n2 x\n", "edgelist")
        assert err.value.line == 3
        assert err.value.column == 3

    @pytest.mark.parametrize(
        "text, token, column",
        [("3\n1_0 1_\n", "1_", 5), ("3\n-1 -\n", "-", 4), ("3\n+2 +\n", "+", 4)],
    )
    def test_error_column_is_the_tokens_own(self, text, token, column):
        # The bad token also starts the line's first token, which parses.
        with pytest.raises(ParseError, match=re.escape(f"line 2, column {column}: not an integer: {token!r}")):
            loads_graph(text, "edgelist")

    def test_out_of_range_endpoint(self):
        with pytest.raises(ParseError):
            loads_graph("2\n1 3\n", "edgelist")

    def test_vertex_count_above_the_largest_refined_order(self, monkeypatch):
        import graphbind.refine as refine

        with pytest.raises(ParseError) as err:
            loads_graph("\n8193\n", "edgelist")
        assert err.value.line == 2
        # The bound is read from refine's field: with a larger prime it is 7.
        monkeypatch.setattr(refine, "PRIME", 2**25)
        assert loads_graph("7\n", "edgelist").n == 7
        with pytest.raises(ParseError):
            loads_graph("8\n", "edgelist")

    def test_loop_rejected(self):
        with pytest.raises(ParseError):
            loads_graph("2\n1 1\n", "edgelist")


class TestGraph6:
    def test_c5_decodes_to_cycle(self):
        # "DqK" is C5 in the public encoding: check the degree sequence and
        # connectivity rather than trusting any library.
        g = loads_graph("DqK", "graph6")
        assert g.n == 5
        assert (g.labels != 0).sum(axis=1).tolist() == [2, 2, 2, 2, 2]
        # one 5-cycle: closed walk count of length 5 through distinct edges
        assert np.trace(np.linalg.matrix_power(g.labels, 5)) == 10

    def test_roundtrip_random(self):
        for seed in range(10):
            g = random_graph(9, 0.5, seed=seed)
            assert np.array_equal(loads_graph(dumps_graph(g, "graph6"), "graph6").labels, g.labels)

    def test_roundtrip_cycle(self):
        g = cycle_graph(5)
        assert np.array_equal(loads_graph(dumps_graph(g, "graph6"), "graph6").labels, g.labels)

    def test_header_prefix_accepted(self):
        g = loads_graph(">>graph6<<DqK", "graph6")
        assert g.n == 5

    def test_large_n_header(self):
        g = random_graph(70, 0.2, seed=1)
        assert np.array_equal(loads_graph(dumps_graph(g, "graph6"), "graph6").labels, g.labels)

    def test_rejects_labeled(self):
        with pytest.raises(GraphError):
            dumps_graph(LabeledGraph(np.array([[0, 2], [2, 0]])), "graph6")

    def test_rejects_garbage(self):
        with pytest.raises(ParseError):
            loads_graph("D\x07", "graph6")

    def test_error_line_counts_leading_blank_lines(self):
        with pytest.raises(ParseError, match=r"line 3, column 2: invalid graph6 character '\\x7f'"):
            loads_graph("\n\nC\x7f", "graph6")

    def test_error_column_counts_the_header_prefix(self):
        with pytest.raises(ParseError, match=r"line 1, column 12: invalid graph6 character '\\x7f'"):
            loads_graph(">>graph6<<C\x7f", "graph6")

    def test_truncated_body(self):
        with pytest.raises(ParseError):
            loads_graph("E", "graph6")

    def test_order_above_the_largest_refined_order(self):
        # "~AKg" is the 4-character header of order 2*4096 + 12*64 + 40 = 9000;
        # the order is refused before the missing body is noticed.
        with pytest.raises(ParseError, match="order 9000 is above the largest order 8192"):
            loads_graph("~AKg", "graph6")
        with pytest.raises(ParseError, match="expected 5591723 body characters"):
            loads_graph("~A??", "graph6")

    def test_bits_fill_the_upper_triangle_column_by_column(self):
        # Bits run over (0,1), (0,2), (1,2), (0,3), ...: "C" + chr(63 + 0b101100)
        # is the order-4 graph with edges 01, 12 and 03.
        g = loads_graph("C" + chr(63 + 0b101100), "graph6")
        assert g.labels.tolist() == [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


class TestMatrixJson:
    def test_roundtrip_labeled(self, tmp_path):
        m = np.array([[3, 1, 0], [1, 5, 2], [0, 2, 3]])
        g = LabeledGraph(m)
        path = tmp_path / "g.json"
        write_graph(g, path, "matrix-json")
        assert np.array_equal(read_graph(path, "matrix-json").labels, m)

    def test_bad_json_positions(self):
        with pytest.raises(ParseError):
            loads_graph('{"n": 2, "labels": [[0, 1], [1, 0]', "matrix-json")

    def test_row_count_must_match(self):
        with pytest.raises(ParseError):
            loads_graph('{"n": 3, "labels": [[0]]}', "matrix-json")

    @pytest.mark.parametrize(
        "labels",
        [
            "[[0, 1.9], [1.9, 0]]",
            "[[0, 1.0], [1.0, 0]]",
            "[[0, true], [true, 0]]",
            '[[0, "1"], ["1", 0]]',
            "[[0, 1], [1]]",
            "[[0, 1], 1]",
            "[0, 1]",
            '"01"',
            "[[0, null], [null, 0]]",
            "[[0, -1], [-1, 0]]",
            f"[[0, {2**63}], [{2**63}, 0]]",
        ],
    )
    def test_malformed_labels(self, tmp_path, labels):
        from graphbind.graphio import read_directed_graph

        text = f'{{"n": 2, "labels": {labels}}}'
        with pytest.raises(ParseError):
            loads_graph(text, "matrix-json")
        path = tmp_path / "d.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_directed_graph(path)

    def test_directed_reader_needs_labels(self, tmp_path):
        from graphbind.graphio import read_directed_graph

        path = tmp_path / "d.json"
        path.write_text('{"n": 2}')
        with pytest.raises(ParseError):
            read_directed_graph(path)

    def test_unknown_format(self):
        with pytest.raises(GraphError):
            loads_graph("x", "dot")

    def test_directed_roundtrip(self, tmp_path):
        from graphbind.core import DirectedLabeledGraph
        from graphbind.graphio import read_directed_graph

        g = DirectedLabeledGraph(np.array([[1, 5, 2], [6, 1, 2], [3, 3, 1]]))
        path = tmp_path / "d.json"
        write_graph(g, path, "matrix-json")
        assert path.read_text() == '{"n": 3, "labels": [[1, 5, 2], [6, 1, 2], [3, 3, 1]]}\n'
        assert np.array_equal(read_directed_graph(path).labels, g.labels)


class TestReadOrder:
    """The order from a file's header alone, or None where the full read decides."""

    def test_orders_of_written_files_agree_with_the_full_read(self, tmp_path):
        for n in (1, 5, 63, 64, 300):
            g = random_graph(n, 0.3, seed=n)
            for fmt, name in (("graph6", "g.g6"), ("edgelist", "g.txt")):
                path = tmp_path / name
                write_graph(g, path, fmt)
                assert read_order(path, fmt) == read_graph(path, fmt).n == n

    @pytest.mark.parametrize(
        "text, fmt, order",
        [
            ("\n  \n  8000  \n1 2\n", "edgelist", 8000),
            (">>graph6<<~@|?", "graph6", 8000),
            ("\n\nDqK\n", "graph6", 5),
            ("8193\n", "edgelist", None),  # above the largest order
            ("0\n", "edgelist", None),
            ("eight\n", "edgelist", None),
            ("1" * 70 + "\n", "edgelist", None),  # longer than the header read
            ("\u00e9\n", "edgelist", None),
            ("", "edgelist", None),
            ("~", "graph6", None),
            ('{"n": 2, "labels": [[0, 1], [1, 0]]}', "matrix-json", None),
        ],
    )
    def test_headers(self, tmp_path, text, fmt, order):
        path = tmp_path / "g"
        path.write_bytes(text.encode("utf-8"))
        assert read_order(path, fmt) == order
