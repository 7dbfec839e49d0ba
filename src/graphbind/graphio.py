"""Reading and writing graphs: graph6, whitespace edgelist, matrix-json.

graph6 and the edgelist format carry simple 0/1 graphs (edges labeled 1,
everything else blank); matrix-json round-trips arbitrary label matrices.
"""

from __future__ import annotations

import json
import os
from typing import Literal

import numpy as np

from .core import BLANK, AnyGraph, DirectedLabeledGraph, GraphError, LabeledGraph
from .refine import max_evaluated_order

Format = Literal["graph6", "edgelist", "matrix-json"]

FORMATS: tuple[str, ...] = ("graph6", "edgelist", "matrix-json")


class ParseError(GraphError):
    """Malformed graph file; carries a 1-based line and column."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _read_ascii(path: str | os.PathLike) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        lines = data[: exc.start].split(b"\n")
        raise ParseError("not an ASCII byte", len(lines), len(lines[-1]) + 1) from None


def read_graph(path: str | os.PathLike, format: Format) -> LabeledGraph:
    return loads_graph(_read_ascii(path), format)


#: The most bytes `read_order` reads of a header line.
HEADER_BYTES = 64


def read_order(path: str | os.PathLike, format: Format) -> int | None:
    """The order a graph6 or edgelist file states in its first non-blank line,
    read without the rest of the file.

    None for matrix-json, whose size already bounds its matrix, and for a
    header that does not give an order the full read would accept; the full
    read reports what is wrong with it.
    """
    if format not in ("graph6", "edgelist"):
        return None
    with open(path, "rb") as fh:
        line = fh.readline(HEADER_BYTES)
        while line and not line.strip():
            line = fh.readline(HEADER_BYTES)
    try:
        text = line.decode("ascii").strip()
        if format == "graph6":
            return _graph6_order(text.removeprefix(">>graph6<<"))[0]
        cut = len(line) == HEADER_BYTES and not line.endswith(b"\n")
        return None if cut else _edgelist_order(text, 1)
    except (UnicodeDecodeError, ParseError):
        return None


def write_graph(g: AnyGraph, path: str | os.PathLike, format: Format) -> None:
    """Write `g` in `format`; of the formats only matrix-json carries a directed graph."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps_graph(g, format))


def loads_graph(text: str, format: Format) -> LabeledGraph:
    if format == "graph6":
        return _parse_graph6(text)
    if format == "edgelist":
        return _parse_edgelist(text)
    if format == "matrix-json":
        return _parse_matrix_json(text)
    raise GraphError(f"unknown format {format!r}; expected one of {FORMATS}")


def dumps_graph(g: LabeledGraph, format: Format) -> str:
    if format == "graph6":
        return _emit_graph6(g)
    if format == "edgelist":
        return _emit_edgelist(g)
    if format == "matrix-json":
        return json.dumps({"n": g.n, "labels": g.labels.tolist()}) + "\n"
    raise GraphError(f"unknown format {format!r}; expected one of {FORMATS}")


def guess_format(path: str | os.PathLike) -> Format:
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".g6":
        return "graph6"
    if ext == ".json":
        return "matrix-json"
    return "edgelist"


# ---------------------------------------------------------------------------
# graph6 (the standard ASCII encoding for simple graphs).

def _graph6_sextets(chars: str, offset: int) -> np.ndarray:
    """The 6-bit values of graph6 characters that start at column `offset` + 1."""
    codes = np.frombuffer(chars.encode("utf-32-le"), dtype="<u4")
    bad = np.flatnonzero((codes < 63) | (codes > 126))
    if bad.size:
        raise ParseError(f"invalid graph6 character {chars[bad[0]]!r}", 1, offset + int(bad[0]) + 1)
    return (codes - 63).astype(np.uint8)


def _graph6_order(line: str) -> tuple[int, int]:
    """The order in the size header of a graph6 line, bounded, and the column
    where its body starts.  The header takes at most 8 characters."""
    if not line:
        raise ParseError("empty graph6 input", 1)
    data = _graph6_sextets(line[:8], 0)
    if data[0] <= 62:
        n, start = int(data[0]), 1
    elif len(data) >= 4 and data[1] <= 62:
        n, start = (int(data[1]) << 12) + (int(data[2]) << 6) + int(data[3]), 4
    elif len(data) >= 8:
        n, start = 0, 8
        for b in data[2:8].tolist():
            n = (n << 6) + b
    else:
        raise ParseError("truncated graph6 size header", 1)
    if n < 1:
        raise ParseError("graph6 order must be at least 1", 1)
    if n > max_evaluated_order():
        raise ParseError(f"graph6 order {n} is above the largest order {max_evaluated_order()}", 1)
    return n, start


def _parse_graph6(text: str) -> LabeledGraph:
    line = text.strip().splitlines()[0].strip().removeprefix(">>graph6<<") if text.strip() else ""
    # The order is bounded before the body is decoded.
    n, start = _graph6_order(line)
    body = _graph6_sextets(line[start:], start)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ParseError(f"expected {need} body characters, got {len(body)}", 1)
    # Six bits per character, high bit first, over the pairs u < v ordered
    # by v and then u: the row-major order of the strict lower triangle.
    bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()
    adj = np.zeros((n, n), dtype=np.uint8)
    adj[np.tri(n, k=-1, dtype=bool)] = bits[: n * (n - 1) // 2]
    adj |= adj.T
    return LabeledGraph(adj)


def _emit_graph6(g: LabeledGraph) -> str:
    if (g.labels > 1).any() or (g.labels.diagonal() != BLANK).any():
        raise GraphError("graph6 encodes simple 0/1 graphs only")
    n = g.n
    if n <= 62:
        header = [n]
    elif n <= 258047:
        header = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    else:
        raise GraphError("graph too large for this writer")
    # Six bits per character, high bit first, in the order `_parse_graph6` reads.
    bits = g.labels[np.tri(n, k=-1, dtype=bool)] != BLANK
    body = np.append(bits, np.zeros(-bits.size % 6, dtype=bool)).reshape(-1, 6) @ (1 << np.arange(5, -1, -1))
    return (np.concatenate((header, body)) + 63).astype(np.uint8).tobytes().decode("ascii") + "\n"


# ---------------------------------------------------------------------------
# Whitespace edgelist: first line n, then one 1-based edge per line.

def _edgelist_order(first: str, line_no: int) -> int:
    """The vertex count on the first line, `line_no`, of an edgelist, checked
    before the n x n matrix is allocated: no larger graph can be refined."""
    try:
        n = int(first.strip())
    except ValueError:
        raise ParseError("first line must be the vertex count", line_no) from None
    if n < 1:
        raise ParseError("vertex count must be at least 1", line_no)
    if n > max_evaluated_order():
        raise ParseError(f"vertex count {n} is above the largest order {max_evaluated_order()}", line_no)
    return n


def _parse_edgelist(text: str) -> LabeledGraph:
    lines = text.splitlines()
    meaningful = [(i + 1, line) for i, line in enumerate(lines) if line.strip()]
    if not meaningful:
        raise ParseError("empty edgelist", 1)
    first_no, first = meaningful[0]
    n = _edgelist_order(first, first_no)
    out = np.zeros((n, n), dtype=np.int64)
    for line_no, line in meaningful[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected two endpoints", line_no)
        ends = []
        for k, part in enumerate(parts):
            try:
                ends.append(int(part))
            except ValueError:
                column = line.index(part) + 1
                raise ParseError(f"not an integer: {part!r}", line_no, column) from None
        u, v = ends
        if not (1 <= u <= n and 1 <= v <= n):
            raise ParseError(f"endpoint out of range 1..{n}", line_no)
        if u == v:
            raise ParseError("loops are not allowed", line_no)
        out[u - 1, v - 1] = out[v - 1, u - 1] = 1
    return LabeledGraph(out)


def _emit_edgelist(g: LabeledGraph) -> str:
    if (g.labels > 1).any() or (g.labels.diagonal() != BLANK).any():
        raise GraphError("edgelist encodes simple 0/1 graphs only")
    u, v = np.nonzero(np.triu(g.labels != BLANK, 1))
    names = np.array([str(k) for k in range(1, g.n + 1)], dtype=object)
    return "\n".join([str(g.n), *map(" ".join, zip(names[u], names[v]))]) + "\n"


# ---------------------------------------------------------------------------
# matrix-json: {"n": ..., "labels": [[...]]}

def _matrix_json_labels(text: str) -> np.ndarray:
    """The label matrix of a matrix-json document, with the dtype its labels give."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(doc, dict) or "n" not in doc or "labels" not in doc:
        raise ParseError('expected an object with "n" and "labels"', 1)
    labels = doc["labels"]
    if not isinstance(labels, list) or len(labels) != doc["n"]:
        raise ParseError('"labels" does not have "n" rows', 1)
    if any(not isinstance(row, list) or len(row) != len(labels) for row in labels):
        raise ParseError('every row of "labels" must be a list of "n" labels', 1)
    # JSON true and false load as bool, a subclass of int; 1.0 loads as a float.
    if any(type(label) is not int or not 0 <= label < 2**63 for row in labels for label in row):
        raise ParseError("labels must be integers from 0 to 2**63 - 1", 1)
    return np.asarray(labels)


def _parse_matrix_json(text: str) -> LabeledGraph:
    return LabeledGraph(_matrix_json_labels(text))


def read_directed_graph(path: str | os.PathLike) -> DirectedLabeledGraph:
    """matrix-json reader for possibly asymmetric (converse-equivalent) matrices."""
    return DirectedLabeledGraph(_matrix_json_labels(_read_ascii(path)))
