"""End-to-end command-line behavior."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from graphbind.cli import build_parser, main
from graphbind.core import LabeledGraph, is_equivalent
from graphbind.corpus import cycle_graph, path_graph, random_connected_graph
from graphbind.decide import DEFAULT_MAX_BINDING_ORDER
from graphbind.graphio import read_directed_graph, read_graph, write_graph


@pytest.fixture()
def files(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_graph(cycle_graph(5), a, "matrix-json")
    write_graph(
        LabeledGraph(
            np.array(
                [
                    [0, 1, 0, 0, 1],
                    [1, 0, 1, 0, 0],
                    [0, 1, 0, 1, 0],
                    [0, 0, 1, 0, 1],
                    [1, 0, 0, 1, 0],
                ]
            )
        ),
        b,
        "matrix-json",
    )
    return tmp_path, str(a), str(b)


class TestRefineCommand:
    def test_sas_with_trace(self, files):
        tmp, a, _ = files
        out = tmp / "stable.json"
        trace = tmp / "trace.json"
        rc = main(["refine", "--process", "sas", "--in", a, "--out", str(out), "--trace", str(trace)])
        assert rc == 0
        doc = json.loads(trace.read_text())
        assert set(doc) >= {"process", "rounds", "dims", "cells", "labels"}
        stable = read_graph(out, "matrix-json")
        assert stable.n == 5

    def test_wl_writes_json(self, files):
        tmp, a, _ = files
        out = tmp / "wl.json"
        assert main(["refine", "--process", "wl", "--in", a, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n"] == 5
        assert read_directed_graph(out).n == 5

    def test_kpow(self, files):
        tmp, a, _ = files
        out = tmp / "k.json"
        assert main(["refine", "--process", "kpow", "--k", "3", "--in", a, "--out", str(out)]) == 0


class TestDescgraphCommand:
    @pytest.mark.parametrize("process", ["gamma", "adjoint", "spectral"])
    def test_processes(self, files, process):
        tmp, a, _ = files
        out = tmp / f"{process}.json"
        rc = main(["descgraph", "--process", process, "--in", a, "--out", str(out), "--seed", "3"])
        assert rc == 0
        assert read_graph(out, "matrix-json").n == 5

    def test_routes_agree_via_cli(self, files):
        tmp, a, _ = files
        outs = []
        for process in ("gamma", "spectral"):
            out = tmp / f"cmp_{process}.json"
            main(["descgraph", "--process", process, "--in", a, "--out", str(out)])
            outs.append(read_graph(out, "matrix-json"))
        assert is_equivalent(*outs)


class TestBindingCommands:
    def test_binding(self, files):
        tmp, a, _ = files
        out = tmp / "bind.json"
        assert main(["binding", "--in", a, "--out", str(out)]) == 0
        assert read_graph(out, "matrix-json").n == 15

    @pytest.mark.parametrize("which", ["psi", "phi", "theta"])
    def test_derived(self, files, which):
        tmp, a, _ = files
        out = tmp / f"{which}.json"
        assert main(["derived", "--which", which, "--in", a, "--out", str(out)]) == 0
        assert read_graph(out, "matrix-json").n == 15

    def test_derived_matches_the_plain_stabilization(self, tmp_path):
        # `derived` stabilizes under the lifts of the input's automorphisms;
        # the labels are those of the stabilization without them.
        from graphbind.binding import binding_graph, build_psi
        from graphbind.corpus import petersen_graph
        from graphbind.refine import sas_stabilize

        g, out = tmp_path / "petersen.json", tmp_path / "psi.json"
        write_graph(petersen_graph(), g, "matrix-json")
        assert main(["derived", "--which", "psi", "--in", str(g), "--out", str(out)]) == 0
        b = binding_graph(petersen_graph())
        plain = build_psi(b, sas_stabilize(b.graph).stable)
        assert np.array_equal(read_graph(out, "matrix-json").labels, plain.labels)


class TestOracleCommand:
    def test_orbits(self, files, capsys):
        _, a, _ = files
        assert main(["oracle", "orbits", "--in", a]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["orbits"] == [[0, 1, 2, 3, 4]]

    def test_iso_found(self, files, capsys):
        _, a, b = files
        assert main(["oracle", "iso", "--in", a, "--in2", b]) == 0
        assert json.loads(capsys.readouterr().out)["isomorphic"] is True

    def test_iso_not_found(self, files, tmp_path, capsys):
        _, a, _ = files
        p4 = tmp_path / "p4.json"
        write_graph(path_graph(5), p4, "matrix-json")
        assert main(["oracle", "iso", "--in", a, "--in2", str(p4)]) == 1


class TestGiCommand:
    def test_yes_exit_zero(self, files, tmp_path, capsys):
        _, a, b = files
        trace = tmp_path / "gi.json"
        rc = main(["gi", "--a", a, "--b", b, "--json", str(trace)])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "YES"
        doc = json.loads(trace.read_text())
        assert doc["verdict"] == "YES"
        assert doc["dims"][-1] == doc["dims"][-2]
        assert sum(len(c) for c in doc["cells"]) == 11 * 12 // 2

    def test_no_exit_one(self, files, tmp_path, capsys):
        _, a, _ = files
        p5 = tmp_path / "p5.json"
        write_graph(path_graph(5), p5, "matrix-json")
        rc = main(["gi", "--a", a, "--b", str(p5)])
        assert rc == 1
        assert capsys.readouterr().out.strip() == "NO"

    def test_error_exit_two(self, files, tmp_path, capsys):
        _, a, _ = files
        small = tmp_path / "k3.json"
        write_graph(cycle_graph(3), small, "matrix-json")
        assert main(["gi", "--a", a, "--b", str(small)]) == 2

    @pytest.mark.parametrize("labels", ["[[0, 1.9], [1.9, 0]]", "[[0, 1], [1]]"])
    def test_malformed_labels_exit_two(self, files, tmp_path, capsys, labels):
        _, a, _ = files
        bad = tmp_path / "bad.json"
        bad.write_text(f'{{"n": 2, "labels": {labels}}}')
        assert main(["gi", "--a", a, "--b", str(bad)]) == 2
        assert "labels" in capsys.readouterr().err

    def test_max_binding_order_defaults_to_library_constant(self):
        args = build_parser().parse_args(["gi", "--a", "a.json", "--b", "b.json"])
        assert args.max_binding_order == DEFAULT_MAX_BINDING_ORDER

    def test_order_above_the_exact_round_bound_exit_two(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_graph(cycle_graph(64), a, "matrix-json")
        write_graph(path_graph(64), b, "matrix-json")
        assert main(["gi", "--a", str(a), "--b", str(b), "--max-binding-order", "100000"]) == 2
        assert "8385" in capsys.readouterr().err

    def test_over_budget_header_exits_two_before_a_full_read(self, tmp_path, capsys, monkeypatch):
        # Read in full, the 5-byte edgelist `8000` would allocate an 8000 x
        # 8000 matrix; its header alone is over the binding-order budget.
        import graphbind.cli as cli

        big = tmp_path / "big.txt"
        big.write_text("8000\n")
        assert big.stat().st_size == 5
        g6 = tmp_path / "big.g6"
        g6.write_text("~@|?" + "?" * 10 + "\n")  # the size header of order 8000, then a short body

        def unread(path, fmt):
            raise AssertionError(f"{path} was read in full")

        monkeypatch.setattr(cli, "read_graph", unread)
        for a, b in ((big, big), (big, g6), (g6, g6)):
            assert main(["gi", "--a", str(a), "--b", str(b)]) == 2
            assert capsys.readouterr().err == "error: binding graph order 128024001 exceeds the budget 5000\n"

    def test_header_orders_that_differ_exit_two_before_a_full_read(self, tmp_path, capsys, monkeypatch):
        import graphbind.cli as cli

        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        a.write_text("\n  7000\n1 2\n")
        b.write_text("8000\n")
        monkeypatch.setattr(cli, "read_graph", None)
        assert main(["gi", "--a", str(a), "--b", str(b)]) == 2
        assert capsys.readouterr().err == "error: orders differ: 7000 != 8000\n"

    def test_matrix_json_is_read_before_the_budget_check(self, files, tmp_path, capsys):
        # matrix-json states no order ahead of its matrix; it is read first,
        # then the other file's header is checked against its order.
        _, a, _ = files
        big = tmp_path / "big.txt"
        big.write_text("8000\n")
        assert main(["gi", "--a", a, "--b", str(big)]) == 2
        assert capsys.readouterr().err == "error: orders differ: 5 != 8000\n"

    def test_wl_process_flag(self, files):
        _, a, b = files
        assert main(["gi", "--a", a, "--b", b, "--process", "wl"]) == 0


class TestInputErrorsExitTwo:
    """An input that cannot be read gives exit 2 and one error line, never the NO code."""

    @staticmethod
    def assert_one_error_line(capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_missing_file(self, files, tmp_path, capsys):
        _, a, _ = files
        assert main(["gi", "--a", a, "--b", str(tmp_path / "missing.json")]) == 2
        self.assert_one_error_line(capsys)

    def test_non_ascii_file(self, files, tmp_path, capsys):
        _, a, _ = files
        bad = tmp_path / "bad.txt"
        bad.write_bytes("3\n1 2\n2 3 \u00e9\n".encode("utf-8"))
        assert main(["gi", "--a", a, "--b", str(bad)]) == 2
        self.assert_one_error_line(capsys)

    # Both counts are above the largest order refined, so no matrix is asked for.
    @pytest.mark.parametrize("count", [100_000_000, 10**10])
    def test_oversized_vertex_count(self, files, tmp_path, capsys, count):
        _, a, _ = files
        big = tmp_path / "big.txt"
        big.write_text(f"{count}\n")
        assert main(["gi", "--a", str(big), "--b", a]) == 2
        self.assert_one_error_line(capsys)

    def test_count_above_the_largest_order_allocates_nothing(self, files, tmp_path, capsys):
        _, a, _ = files
        big = tmp_path / "big.txt"
        big.write_text("9000\n")
        assert big.stat().st_size == 5
        tracemalloc.start()
        try:
            assert main(["gi", "--a", str(big), "--b", a]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A 9000 x 9000 int64 matrix is 648 MB; numpy reports its buffers to tracemalloc.
        assert peak < 2**20
        self.assert_one_error_line(capsys)

    def test_oracle_iso_without_second_graph(self, files, capsys):
        _, a, _ = files
        assert main(["oracle", "iso", "--in", a]) == 2
        self.assert_one_error_line(capsys)


class TestFormatsViaCli:
    def test_graph6_and_edgelist_inputs(self, tmp_path, capsys):
        g = random_connected_graph(6, 0.5, seed=8)
        g6 = tmp_path / "g.g6"
        el = tmp_path / "g.txt"
        write_graph(g, g6, "graph6")
        write_graph(g, el, "edgelist")
        assert main(["oracle", "iso", "--in", str(g6), "--in2", str(el)]) == 0
        assert json.loads(capsys.readouterr().out)["witness"] == list(range(6))


class TestValidateAndBench:
    def test_validate_quick_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(["validate", "--quick", "--out", str(out)])
        report = json.loads(out.read_text())
        assert report["implementation_violations"] == 0
        assert rc == (0 if report["ok"] else 1)
