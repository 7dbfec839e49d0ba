"""Command-line interface.

Subcommands mirror the library: refine, descgraph, binding, derived,
oracle, gi, validate.  The gi command exits 0 for YES, 1 for NO and
2 on errors; validate exits 1 when any check reports violations.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .binding import binding_graph, build_phi, build_psi, build_theta
from .core import DirectedLabeledGraph, GraphError, LabeledGraph
from .decide import DEFAULT_MAX_BINDING_ORDER, check_binding_order, gi_decide
from .descgraph import adjoint_description_graph, gamma_description_graph, spectral_description_graph
from .graphio import FORMATS, guess_format, read_graph, read_order, write_graph
from .oracle import automorphism_orbits, is_isomorphic_bruteforce
from .partition import partition_json
from .refine import kpower_stabilize, sas_stabilize, search_automorphisms, wl_stabilize
from .validate import CorpusSpec, validate_suite


def _read(path: str, fmt: str | None) -> LabeledGraph:
    return read_graph(path, fmt or guess_format(path))


def _write(g, path: str, fmt: str | None) -> None:
    fmt = fmt or guess_format(path)
    if isinstance(g, DirectedLabeledGraph) and fmt != "matrix-json":
        raise GraphError("directed outputs are written as matrix-json only")
    write_graph(g, path, fmt)


def _add_io_arguments(parser: argparse.ArgumentParser, output: bool = True) -> None:
    parser.add_argument("--in", dest="infile", required=True, help="input graph file")
    parser.add_argument("--format", choices=FORMATS, help="input format (default: by extension)")
    if output:
        parser.add_argument("--out", dest="outfile", required=True, help="output graph file")
        parser.add_argument("--out-format", choices=FORMATS, help="output format (default: by extension)")


def cmd_refine(args) -> int:
    g = _read(args.infile, args.format)
    if args.process == "sas":
        trace = sas_stabilize(g)
    elif args.process == "wl":
        trace = wl_stabilize(g)
    else:
        trace = kpower_stabilize(g, args.k)
    _write(trace.stable, args.outfile, args.out_format)
    if args.trace:
        doc = {
            "process": args.process,
            "rounds": trace.rounds,
            "dims": trace.dims,
            **partition_json(trace.stable),
        }
        with open(args.trace, "w") as fh:
            json.dump(doc, fh, indent=2)
    print(f"stable after {trace.rounds} rounds; dims {trace.dims}")
    return 0


def cmd_descgraph(args) -> int:
    g = _read(args.infile, args.format)
    if args.process == "gamma":
        out = gamma_description_graph(g, args.t)
    elif args.process == "adjoint":
        out = adjoint_description_graph(g, seed=args.seed)
    else:
        out = spectral_description_graph(g, tol=args.tol)
    _write(out, args.outfile, args.out_format)
    return 0


def cmd_binding(args) -> int:
    g = _read(args.infile, args.format)
    _write(binding_graph(g).graph, args.outfile, args.out_format)
    return 0


def cmd_derived(args) -> int:
    g = _read(args.infile, args.format)
    b = binding_graph(g)
    stable = sas_stabilize(b.graph, automorphisms=[b.lift(pi) for pi in search_automorphisms(g)]).stable
    if args.which == "psi":
        out = build_psi(b, stable)
    elif args.which == "phi":
        out = build_phi(b, stable)
    else:
        out = build_theta(build_phi(b, stable), b)
    _write(out, args.outfile, args.out_format)
    return 0


def cmd_oracle(args) -> int:
    if args.action == "iso" and args.infile2 is None:
        raise GraphError("oracle iso needs a second graph, --in2")
    g = _read(args.infile, args.format)
    if args.action == "orbits":
        orbits = automorphism_orbits(g, max_n=args.max_n)
        print(json.dumps({"orbits": [list(c) for c in orbits.cells]}))
        return 0
    other = _read(args.infile2, args.format)
    witness = is_isomorphic_bruteforce(g, other, max_n=args.max_n)
    if witness is None:
        print(json.dumps({"isomorphic": False}))
        return 1
    print(json.dumps({"isomorphic": True, "witness": list(witness)}))
    return 0


def cmd_gi(args) -> int:
    # The budget is checked from the files' headers before either is read in
    # full; a file whose header gives no order is read first.
    paths = (args.a, args.b)
    orders = [read_order(path, args.format or guess_format(path)) for path in paths]
    graphs = [_read(path, args.format) if order is None else None for path, order in zip(paths, orders)]
    orders = [g.n if order is None else order for order, g in zip(orders, graphs)]
    if orders[0] != orders[1]:
        raise GraphError(f"orders differ: {orders[0]} != {orders[1]}")
    check_binding_order(orders[0], args.max_binding_order)
    a, b = (_read(path, args.format) if g is None else g for g, path in zip(graphs, paths))
    result = gi_decide(a, b, process=args.process, max_binding_order=args.max_binding_order)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(result.to_json(), fh, indent=2)
    print("YES" if result.verdict else "NO")
    for anomaly in result.anomalies:
        print(f"anomaly: {anomaly}", file=sys.stderr)
    return 0 if result.verdict else 1


def cmd_validate(args) -> int:
    spec = CorpusSpec(seed=args.seed, quick=args.quick)
    report = validate_suite(spec)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
    for name, entry in report["checks"].items():
        status = "ok" if not entry["violations"] else f"{len(entry['violations'])} VIOLATIONS"
        print(
            f"{name:40s} [{entry['kind']:14s}] cases={entry['cases']:<5d} "
            f"{status} ({entry['seconds']}s)"
        )
    print(
        f"implementation violations: {report['implementation_violations']}; "
        f"theorem violations: {report['theorem_violations']}"
    )
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="graphbind", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("refine", help="stabilize a graph with a refinement process")
    _add_io_arguments(p)
    p.add_argument("--process", choices=["sas", "wl", "kpow"], default="sas")
    p.add_argument("--k", type=int, default=3, help="walk length for kpow")
    p.add_argument("--trace", help="write rounds/dims/cells as JSON")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("descgraph", help="one-round description graph")
    _add_io_arguments(p)
    p.add_argument("--process", choices=["gamma", "adjoint", "spectral"], default="gamma")
    p.add_argument("--t", type=int, default=None, help="walk-length truncation (default n-1)")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_descgraph)

    p = sub.add_parser("binding", help="binding graph of a connected simple graph")
    _add_io_arguments(p)
    p.set_defaults(func=cmd_binding)

    p = sub.add_parser("derived", help="derived relabelings of a stable binding graph")
    _add_io_arguments(p)
    p.add_argument("--which", choices=["psi", "phi", "theta"], required=True)
    p.set_defaults(func=cmd_derived)

    p = sub.add_parser("oracle", help="brute-force orbits / isomorphism")
    p.add_argument("action", choices=["orbits", "iso"])
    _add_io_arguments(p, output=False)
    p.add_argument("--in2", dest="infile2", help="second graph (iso)")
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gi", help="isomorphism decision via the binding graph")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--format", choices=FORMATS, default=None)
    p.add_argument("--process", choices=["sas", "wl"], default="sas")
    p.add_argument("--json", help="write the decision trace as JSON")
    p.add_argument("--max-binding-order", type=int, default=DEFAULT_MAX_BINDING_ORDER)
    p.set_defaults(func=cmd_gi)

    p = sub.add_parser("validate", help="run the audit suite over the default corpus")
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--quick", action="store_true", help="smaller corpus")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
