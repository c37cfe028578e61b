"""Command-line surface.

Subcommands: poly, lattice, classify, verify, count, bounds.  All output is
deterministic (fixed term ordering, floats at 12 significant digits).  Exit
codes: 0 success, 1 verification failure, 2 usage or parse error, 3 size cap.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bpm, caps, matchcov, mclattice, polyalg, verify
from ._kernels import default_threads, thread_default
from .bitgraph import cyclomatic_number, is_connected_spanning, parse_graph
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


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
        json.dump(polyalg.to_json_dict(poly, args.basis), sys.stdout, indent=2)
        sys.stdout.write("\n")
    return EXIT_OK


def _cmd_lattice(args) -> int:
    caps.require("lattice-dot" if args.format == "dot" else "lattice",
                 args.n, args.allow_large)
    lat = mclattice.build_lattice(args.n)
    if args.format == "dot":
        sys.stdout.write(lat.to_dot())
    else:
        json.dump(lat.to_json_dict(), sys.stdout, indent=2)
        sys.stdout.write("\n")
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
    doc = {"n": args.n, "basis": args.basis, "groups": bpm.monomial_summary(poly)}
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")
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
    json.dump(report.to_json_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
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
            return _COMMANDS[args.command](args)
    except ResourceLimitError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
