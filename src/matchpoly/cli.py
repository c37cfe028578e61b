"""Command-line surface.

Subcommands: poly, lattice, classify, summary, verify, count, bounds.  Output
is deterministic (fixed term ordering, floats at 12 significant digits).
Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 3 size
cap, 141 (128 + SIGPIPE) when the reader closes stdout before the output ends.

JSON documents are printed byte-for-byte as ``json.dump(doc, indent=2)`` plus a
newline, but written by ``_write_json``: the document is built first, then its
long lists go out one f-string per element, joined in batches.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import bpm, caps, matchcov, mclattice, polyalg, verify
from ._kernels import default_threads, thread_default
from .bitgraph import MAX_SIDE, cyclomatic_number, is_connected_spanning, parse_graph
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what shells report for a writer killed by it

# Elements of a long JSON list joined per stdout write.  A batch's strings (the
# elements, their join, its encoding) must fit in memory the document build
# freed: on the n=4 Fourier document (448 bytes a term) batches of 128 to 1024
# terms raised peak RSS by 128 KiB above the build's, 64 did not, and all of
# them write it in the same 0.06 s.  As one write it peaks 69 MiB higher.
_JSON_BATCH = 64


# _EDGE_JSON[i][j] = the text of edge [i, j] inside a term: a lookup instead of
# a format per edge, since the n=4 Fourier document alone has 524,288 edges.
_EDGE_JSON = [[f"        [\n          {i},\n          {j}\n        ]"
               for j in range(MAX_SIDE + 1)] for i in range(MAX_SIDE + 1)]


def _term_json(term: dict) -> str:
    edges = ",\n".join([_EDGE_JSON[i][j] for i, j in term["edges"]])
    edges = f"[\n{edges}\n      ]" if edges else "[]"
    return (f'    {{\n      "mask": "{term["mask"]}",\n      "edges": {edges},'
            f'\n      "coeff": {term["coeff"]}\n    }}')


def _node_json(node: dict) -> str:
    return (f'    {{\n      "mask": "{node["mask"]}",\n      "rank": {node["rank"]},'
            f'\n      "mobius": {node["mobius"]}\n    }}')


def _pair_json(pair: list) -> str:
    return f"    [\n      {pair[0]},\n      {pair[1]}\n    ]"


_POLY_ITEMS = {"terms": _term_json}
_LATTICE_ITEMS = {"nodes": _node_json, "cover_edges": _pair_json}


def _write_json(doc: dict, items: dict | None = None) -> None:
    r"""Write ``json.dumps(doc, indent=2) + "\n"`` to stdout for a non-empty
    dict.  ``items`` maps a key of ``doc`` whose value is a list to the
    template that renders one element, at its indent, exactly as ``json``
    would; those lists are written ``_JSON_BATCH`` elements per write.  Every
    other value goes through ``json.dumps``."""
    items = items or {}
    write = sys.stdout.write
    sep = "{\n  "
    for key, value in doc.items():
        write(f"{sep}{json.dumps(key)}: ")
        sep = ",\n  "
        template = items.get(key)
        if template is None or not value:
            write(json.dumps(value, indent=2).replace("\n", "\n  "))
            continue
        lead = "[\n"
        for start in range(0, len(value), _JSON_BATCH):
            write(lead)
            write(",\n".join(map(template, value[start:start + _JSON_BATCH])))
            lead = ",\n"
        write("\n  ]")
    write("\n}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matchpoly",
        description="Exact polynomial representations of bipartite perfect matching.")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for the dense kernels, at least 1 "
                             "(default: MATCHPOLY_THREADS or 1)")
    parser.add_argument("--allow-large", action="store_true",
                        help="lift the default n<=4 caps up to the hard caps (n=5)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("poly", help="print a polynomial of the matching function")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", choices=("primal", "dual", "fourier"), default="primal")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("lattice", help="print the matching-covered lattice")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="json")

    p = sub.add_parser("classify", help="one-line structural report for a graph")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph", type=str, required=True,
                   help="edge list like 1-1,2-2 or a hex mask like 0x9")

    p = sub.add_parser("summary", help="monomials grouped by coefficient, with "
                                       "isomorphism-class counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--basis", choices=("primal", "dual"), default="dual")

    p = sub.add_parser("verify", help="run named verification claims")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--claim", type=str, default="all",
                   help="claim name or 'all' (known: %s)" % ", ".join(sorted(verify.CLAIMS)))

    p = sub.add_parser("count", help="print one exact count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--what", required=True,
                   choices=("mc", "pm-graphs", "monomials-primal",
                            "monomials-dual", "totally-ordered", "hall-violators"))

    p = sub.add_parser("bounds", help="decision-tree lower bound report")
    p.add_argument("--n", type=int, required=True)

    return parser


def _cmd_poly(args) -> int:
    caps.require(f"poly-{args.basis}", args.n, args.allow_large)
    if args.basis == "primal":
        poly = bpm.primal_polynomial(args.n)
    elif args.basis == "dual":
        poly = bpm.dual_polynomial(args.n)
    else:
        poly = polyalg.to_fourier(bpm.primal_polynomial(args.n))
    if args.format == "text":
        sys.stdout.write(polyalg.to_text(poly))
    else:
        _write_json(polyalg.to_json_dict(poly, args.basis), _POLY_ITEMS)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    caps.require("lattice-dot" if args.format == "dot" else "lattice",
                 args.n, args.allow_large)
    lat = mclattice.build_lattice(args.n)
    if args.format == "dot":
        sys.stdout.write(lat.to_dot())
    else:
        _write_json(lat.to_json_dict(), _LATTICE_ITEMS)
    return EXIT_OK


def _cmd_classify(args) -> int:
    caps.require_domain("classify", args.n)
    g = parse_graph(args.n, args.graph)
    cls = bpm.classify_total_order(g)
    if g.is_empty:
        mc = elem = False
    else:
        mc = matchcov.is_matching_covered(g)
        elem = mc and is_connected_spanning(g)
    chi = cyclomatic_number(g)
    fields = [
        f"n={g.n}",
        f"graph={g.to_hex()}",
        f"class={cls}",
        f"matching_covered={'yes' if mc else 'no'}",
        f"elementary={'yes' if elem else 'no'}",
        f"chi={chi}",
    ]
    if caps.allows("dual-coefficient", g.n, args.allow_large):
        coeff = 0 if g.is_empty else bpm.dual_coefficient(g)
        fields.append(f"dual_coeff={coeff}")
    else:
        fields.append("dual_coeff=unavailable")
    if caps.allows("umbrella", g.n, args.allow_large):
        if g.is_empty:
            complete = True  # the umbrella of the bottom is every matching
        else:
            complete = not mclattice.has_incomplete_umbrella(g)
        fields.append(f"umbrella_complete={'yes' if complete else 'no'}")
    else:
        fields.append("umbrella_complete=unavailable")
    print(" ".join(fields))
    return EXIT_OK


def _cmd_summary(args) -> int:
    caps.require(f"poly-{args.basis}", args.n, args.allow_large)
    if args.basis == "primal":
        poly = bpm.primal_polynomial(args.n)
    else:
        poly = bpm.dual_polynomial(args.n)
    _write_json({"n": args.n, "basis": args.basis,
                 "groups": bpm.monomial_summary(poly)})
    return EXIT_OK


def _cmd_verify(args) -> int:
    caps.require("verify", args.n, args.allow_large)
    if args.claim == "all":
        reports = verify.run_all(args.n)
    else:
        reports = [verify.run_claim(args.claim, args.n)]
    for rep in reports:
        print(rep.line())
    failed = sum(not rep.passed for rep in reports)
    print(f"{len(reports) - failed}/{len(reports)} claims passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def _cmd_count(args) -> int:
    n = args.n
    if args.what == "mc":
        caps.require("enumerate-mc", n, args.allow_large)
        value = matchcov.count_mc(n)
    elif args.what == "pm-graphs":
        caps.require("truth-table", n, args.allow_large)
        value = bpm.bpm_truth(n).popcount()
    elif args.what == "monomials-primal":
        caps.require("poly-primal", n, args.allow_large)
        value = matchcov.count_mc(n)  # the primal has one term per MC mask
    elif args.what == "monomials-dual":
        caps.require("poly-dual", n, args.allow_large)
        value = len(bpm.dual_polynomial(n))
    elif args.what == "totally-ordered":
        value = bpm.totally_ordered_count(n)
    else:
        value = len(bpm.enumerate_hall_violators(n))
    print(value)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    report = bpm.bounds_report(args.n)
    _write_json(report.to_json_dict())
    return EXIT_OK


_COMMANDS = {
    "poly": _cmd_poly,
    "lattice": _cmd_lattice,
    "classify": _cmd_classify,
    "summary": _cmd_summary,
    "verify": _cmd_verify,
    "count": _cmd_count,
    "bounds": _cmd_bounds,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        args.threads = default_threads()
    elif args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    try:
        with thread_default(args.threads):  # every sweep of this command reads it
            code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # so a closed pipe raises here, not at interpreter exit
        return code
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout.  Point its descriptor at os.devnull so the
        # interpreter's final flush of what is still buffered stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
