"""Size caps for the exponential-scale operations.

Everything here is driven by one table so the limits, and the memory they
protect against, are documented in a single place.  Library functions enforce
the ``hard`` column; the CLI additionally keeps ``n`` at or below ``default``
unless ``--allow-large`` is passed.  Every operation also needs ``n >= 1``.

Most operations are dominated by a dense buffer of ``2**(n*n)`` machine
words, or by a stream of that many masks:

    n=4 ->   65_536 entries (int64 buffer:   0.5 MiB)
    n=5 -> 33_554_432 entries (int64 buffer: 256 MiB)

and lattice construction additionally materializes all matching-covered
graphs (|MC_4| = 7_443, |MC_5| ~ 6.1e6).  The dual polynomial and dual
coefficients are the exception: they run a row automaton over families of
matchable column sets, once per Ferrers shape or once per graph, and hold
only the terms they return.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ResourceLimitError


@dataclass(frozen=True)
class Cap:
    default: int
    hard: int
    note: str


CAPS: dict[str, Cap] = {
    "truth-table": Cap(4, 5, "dense 2^(n^2) byte table; n=5 -> 32 MiB"),
    "interpolate": Cap(4, 5, "dense 2^(n^2) int64 transform buffer (interpolate, "
                             "evaluate_all, dualize); n=5 -> 256 MiB"),
    "poly-primal": Cap(4, 5, "streams MC_n; |MC_5| ~ 6.1e6 terms (~100 MiB sparse)"),
    "poly-dual": Cap(4, 5, "family automaton per Ferrers shape, orbits listed; "
                           "n=5 -> 251 shapes, 95_161 terms"),
    "poly-fourier": Cap(4, 4, "dense int64 buffer plus dyadic numerators"),
    "dual-coefficient": Cap(4, 7, "signed family automaton over the 2^|row| "
                                  "submasks of each row; n=7 -> about 1 s and "
                                  "110 MiB per process, about 0.4 s of it "
                                  "building the automaton"),
    "enumerate-mc": Cap(4, 5, "streams 2^(n^2) masks through the MC filter"),
    "lattice": Cap(4, 4, "materializes MC_n and its covers; n=4 -> 7_444 nodes, "
                         "42_352 covers"),
    "lattice-dot": Cap(3, 3, "readability cap; 50 nodes / 135 edges at n=3"),
    "umbrella": Cap(4, 4, "filters the primal's MC_n terms for supergraphs of the argument"),
    "verify": Cap(4, 5, "runs every claim valid at n; none is defined above n=5"),
}


def allows(op: str, n: int, allow_large: bool = False) -> bool:
    """Does :func:`require` accept ``n`` for ``op``?"""
    cap = CAPS[op]
    return 1 <= n <= (cap.hard if allow_large else cap.default)


def require_domain(op: str, n: int) -> None:
    """Raise :class:`ValueError` for ``n < 1``, outside every operation's
    domain."""
    if n < 1:
        raise ValueError(f"{op}: n must be at least 1, got n={n}")


def require(op: str, n: int, allow_large: bool = False) -> None:
    """Raise unless ``n`` is in the domain of ``op``: :class:`ValueError` for
    ``n < 1``, :class:`ResourceLimitError` above the cap.

    ``allow_large=True`` lifts the limit from ``default`` to ``hard``; nothing
    lifts ``hard``.
    """
    if allows(op, n, allow_large):
        return
    require_domain(op, n)
    cap = CAPS[op]
    if n > cap.hard:
        raise ResourceLimitError(
            f"{op}: n={n} exceeds the hard cap n<={cap.hard} ({cap.note})")
    raise ResourceLimitError(
        f"{op}: n={n} exceeds the default cap n<={cap.default}; "
        f"pass allow_large/--allow-large to go up to n<={cap.hard} ({cap.note})")


def require_hard(op: str, n: int) -> None:
    """Library-level check: only the hard cap applies."""
    require(op, n, allow_large=True)
