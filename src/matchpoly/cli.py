"""Command-line surface.

Subcommands: poly, lattice, classify, summary, verify, count, bounds.  Output
is deterministic (fixed term ordering, floats at 12 significant digits).
Exit codes: 0 success, 1 verification failure, 2 usage or parse error, 3 size
cap, 141 (128 + SIGPIPE) when the reader closes stdout before the output ends.

Each subcommand is declared once, in ``_parser``, with its handler attached;
the parser is built on the first ``main`` call and reused by every later call
in the process.  ``poly --basis`` values are the keys of ``_BASES``, which
``summary`` also reads for its primal and dual, and ``count --what`` values
are the keys of ``_COUNTS``.

JSON documents are printed byte-for-byte as ``json.dump(doc, indent=2)`` plus a
newline, but written by ``_write_json``: the document is built first, then its
long lists go out one f-string per element, joined in batches.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bpm, caps, matchcov, mclattice, polyalg, verify
from ._kernels import default_threads, thread_default
from .bitgraph import MAX_SIDE, connected_components, parse_graph
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


# basis -> the polynomial in that basis at side size n.  Each entry looks its
# builder up through the module at call time, so a rebinding of the module
# attribute (perfbench's tracer does this) reaches it.
_BASES = {
    "primal": lambda n: bpm.primal_polynomial(n),
    "dual": lambda n: bpm.dual_polynomial(n),
    "fourier": lambda n: polyalg.to_fourier(bpm.primal_polynomial(n)),
}

# count --what -> (cap key, the count at n).  Rows without a cap key rely on
# their library function's own domain check.
_COUNTS = {
    "mc": ("enumerate-mc", lambda n: matchcov.count_mc(n)),
    "pm-graphs": ("truth-table", lambda n: bpm.bpm_truth(n).popcount()),
    # the primal has one term per MC mask
    "monomials-primal": ("poly-primal", lambda n: matchcov.count_mc(n)),
    "monomials-dual": ("poly-dual", lambda n: len(bpm.dual_polynomial(n))),
    "totally-ordered": (None, lambda n: bpm.totally_ordered_count(n)),
    "hall-violators": (None, lambda n: len(bpm.enumerate_hall_violators(n))),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built on the first call and shared by every later
    one: building it costs several times what parsing a command line does."""
    parser = argparse.ArgumentParser(
        prog="matchpoly",
        description="Exact polynomial representations of bipartite perfect matching.")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for the dense kernels, at least 1 "
                             "(default: MATCHPOLY_THREADS or 1)")
    parser.add_argument("--allow-large", action="store_true",
                        help="lift the default n<=4 caps up to the hard caps (n=5)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--n", type=int, required=True)
        p.set_defaults(handler=handler)
        return p

    p = command("poly", _cmd_poly, "print a polynomial of the matching function")
    p.add_argument("--basis", choices=tuple(_BASES), default="primal")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = command("lattice", _cmd_lattice, "print the matching-covered lattice")
    p.add_argument("--format", choices=("dot", "json"), default="json")

    p = command("classify", _cmd_classify, "one-line structural report for a graph")
    p.add_argument("--graph", type=str, required=True,
                   help="edge list like 1-1,2-2 or a hex mask like 0x9")

    p = command("summary", _cmd_summary,
                "monomials grouped by coefficient, with isomorphism-class counts")
    p.add_argument("--basis", choices=("primal", "dual"), default="dual")

    p = command("verify", _cmd_verify, "run named verification claims")
    p.add_argument("--claim", type=str, default="all",
                   help="claim name or 'all' (known: %s)" % ", ".join(sorted(verify.CLAIMS)))

    p = command("count", _cmd_count, "print one exact count")
    p.add_argument("--what", required=True, choices=tuple(_COUNTS))

    command("bounds", _cmd_bounds, "decision-tree lower bound report")
    return parser


def _cmd_poly(args) -> int:
    caps.require(f"poly-{args.basis}", args.n, args.allow_large)
    poly = _BASES[args.basis](args.n)
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
    components = len(connected_components(g))
    if g.is_empty:
        mc = elem = False
    else:
        mc = matchcov.is_matching_covered(g)
        elem = mc and components == 1
    chi = g.edge_count - 2 * g.n + components  # |E| - |V| + |C|, as cyclomatic_number
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
    _write_json({"n": args.n, "basis": args.basis,
                 "groups": bpm.monomial_summary(_BASES[args.basis](args.n))})
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
    cap, count = _COUNTS[args.what]
    if cap is not None:
        caps.require(cap, args.n, args.allow_large)
    print(count(args.n))
    return EXIT_OK


def _cmd_bounds(args) -> int:
    report = bpm.bounds_report(args.n)
    _write_json(report.to_json_dict())
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.threads is None:
        args.threads = default_threads()
    elif args.threads < 1:
        parser.error(f"argument --threads: must be at least 1, got {args.threads}")
    try:
        with thread_default(args.threads):  # every sweep of this command reads it
            code = args.handler(args)
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
