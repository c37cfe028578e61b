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

Every JSON document is ``json.dumps(doc, indent=2)`` plus a newline.  ``poly``
and ``lattice`` build their object, then hand ``sys.stdout.write`` to its
writer, which renders it from its arrays in batches; ``summary`` and
``bounds`` print ``json.dumps``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import bpm, caps, matchcov, mclattice, polyalg, verify
from ._kernels import default_threads, thread_default
from .bitgraph import connected_components, parse_graph
from .errors import ResourceLimitError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE: what shells report for a writer killed by it

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
        polyalg.write_text(poly, sys.stdout.write)
    else:
        polyalg.write_json(poly, args.basis, sys.stdout.write)
    return EXIT_OK


def _cmd_lattice(args) -> int:
    caps.require("lattice-dot" if args.format == "dot" else "lattice",
                 args.n, args.allow_large)
    lat = mclattice.build_lattice(args.n)
    if args.format == "dot":
        sys.stdout.write(lat.to_dot())
    else:
        lat.write_json(sys.stdout.write)
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
    print(json.dumps({"n": args.n, "basis": args.basis,
                      "groups": bpm.monomial_summary(_BASES[args.basis](args.n))}, indent=2))
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
    print(json.dumps(bpm.bounds_report(args.n).to_json_dict(), indent=2))
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
