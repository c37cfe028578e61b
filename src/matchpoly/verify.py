"""Named verification claims: every headline fact this package computes,
checked against an independent route and reported with a first
counterexample when one exists.

The registry is the single source for the CLI ``verify`` command and for the
acceptance test suite.  Each claim runner is a function of the side size n
that returns its :data:`Outcome`; :func:`run_claim` and :func:`run_all` name
it and wrap it in a :class:`VerificationReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Callable

import numpy as np

from . import _kernels, bpm, mclattice, polyalg
from .bitgraph import BipartiteGraph


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    n: int
    passed: bool
    detail: str
    counterexample: int | None = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = ("" if self.counterexample is None
                 else f" (first counterexample mask {self.counterexample:#x})")
        return f"[{status}] {self.claim} n={self.n}: {self.detail}{extra}"


# (passed, detail) or (passed, detail, first counterexample mask)
Outcome = tuple[bool, str] | tuple[bool, str, int]


@_kernels.frozen_cache
def _dualized(n: int) -> polyalg.MultilinearPoly:
    """The dual polynomial as :func:`polyalg.dualize` of the primal one.

    Not :func:`bpm.dual_polynomial`, which assumes Theorem 2: the claims
    that test Theorem 2 and its consequences read this polynomial.
    """
    return polyalg.dualize(bpm.primal_polynomial(n))


@_kernels.frozen_cache
def _total_order_codes(n: int) -> np.ndarray:
    """Read-only total-order class codes of every mask, indexed by mask."""
    return bpm.total_order_codes(n, np.arange(1 << (n * n)))


def _nonempty_of_class(n: int, cls: bpm.TotalOrderClass) -> np.ndarray:
    """The nonempty masks of total-order class ``cls``, ascending."""
    code = list(bpm.TotalOrderClass).index(cls)
    return np.flatnonzero(_total_order_codes(n)[1:] == code) + 1


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------

def _claim_thm1(n: int) -> Outcome:
    """Closed form vs interpolation: identical sparse term maps."""
    direct = bpm.primal_polynomial(n)
    oracle = polyalg.interpolate(bpm.bpm_truth(n))
    if direct == oracle:
        return True, (f"matching-covered closed form == interpolated polynomial "
                      f"({len(direct)} terms)")
    both = np.union1d(direct.masks, oracle.masks)
    diff = np.flatnonzero(direct.coeffs_at(both) != oracle.coeffs_at(both))
    detail = ("coefficients differ" if np.array_equal(direct.masks, oracle.masks)
              else "term maps differ")
    return False, detail, int(both[diff[0]])


def _claim_n2_closed_form(n: int) -> Outcome:
    """The n=2 polynomial is x11 x22 + x12 x21 - x11 x12 x21 x22."""
    expected = polyalg.MultilinearPoly.from_terms(2, {0b1001: 1, 0b0110: 1, 0b1111: -1})
    actual = bpm.primal_polynomial(2)
    ok = actual == expected
    return ok, ("n=2 primal polynomial equals its known closed form"
                if ok else f"got {actual.terms}")


_GOLDEN_RESOURCE = "bpm3_dual.txt"


def golden_dual3_text() -> str:
    return (resources.files("matchpoly.data") / _GOLDEN_RESOURCE).read_text()


def _claim_appendix_b(n: int) -> Outcome:
    """Byte-identical rendering of the n=3 dual polynomial vs the golden file."""
    dual = bpm.dual_polynomial(3)
    rendered = polyalg.to_text(dual)
    golden = golden_dual3_text()
    if rendered == golden:
        return True, (f"n=3 dual polynomial matches the golden transcription "
                      f"({len(dual)} terms, byte-identical)")
    for lineno, (got, want) in enumerate(zip(rendered.splitlines(),
                                             golden.splitlines()), start=1):
        if got != want:
            return False, f"first difference at line {lineno}: {got!r} != {want!r}"
    return False, (f"term counts differ: {len(rendered.splitlines())} rendered "
                   f"vs {len(golden.splitlines())} golden")


def _claim_thm2_strict(n: int) -> Outcome:
    """Every strictly totally ordered graph has dual coefficient (-1)^(n+1),
    and there are exactly (n!)^2 of them."""
    dual = _dualized(n)
    want = (-1) ** (n + 1)
    strict = _nonempty_of_class(n, bpm.TotalOrderClass.STRICTLY_TOTALLY_ORDERED)
    bad = strict[dual.coeffs_at(strict) != want]
    if bad.size:
        mask = int(bad[0])
        return False, (f"strictly ordered graph with coefficient "
                       f"{dual.coeff(mask)} != {want}"), mask
    count = strict.size
    expected = math.factorial(n) ** 2
    if count != expected:
        return False, f"{count} strictly ordered graphs, expected {expected}"
    return True, f"all {count} strictly totally ordered graphs have coefficient {want}"


def _claim_thm2_nonordered(n: int) -> Outcome:
    """Every non-totally-ordered graph has dual coefficient 0."""
    dual = _dualized(n)
    nonordered = _nonempty_of_class(n, bpm.TotalOrderClass.NOT_TOTALLY_ORDERED)
    bad = np.intersect1d(dual.masks, nonordered, assume_unique=True)
    if bad.size:
        mask = int(bad[0])
        return False, f"non-ordered graph with coefficient {dual.coeff(mask)}", mask
    return True, f"all {nonordered.size} non-totally-ordered graphs have coefficient 0"


def _claim_dual_count(n: int) -> Outcome:
    """(n!)^2 <= |mon(dual)| < (n+2)^(2n+2)."""
    dual = bpm.dual_polynomial(n)
    lo = math.factorial(n) ** 2
    hi = (n + 2) ** (2 * n + 2)
    count = len(dual)
    ok = lo <= count < hi
    return ok, f"|mon| = {count}, bounds [{lo}, {hi})" + ("" if ok else " violated")


def _independent_covers(lat: mclattice.McLattice) -> set[tuple[int, int]]:
    """Cover pairs by the definition: containment with no node in between."""
    masks = lat.masks.tolist()
    pairs = set()
    for ai, a in enumerate(masks):
        for bi, b in enumerate(masks):
            if a == b or (a & ~b) != 0:
                continue
            between = any(z != a and z != b and (a & ~z) == 0 and (z & ~b) == 0
                          for z in masks)
            if not between:
                pairs.add((ai, bi))
    return pairs


def _join_meet_tables(lat: mclattice.McLattice
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node-index tables of the join (edge union) and meet (allowed edges of
    the intersection) of every node pair, and where either one is not a
    node (its index there is meaningless)."""
    a, b = lat.masks[:, None], lat.masks[None, :]
    joins, in_joins = _kernels.sorted_lookup(lat.masks, a | b)
    meets, in_meets = _kernels.sorted_lookup(
        lat.masks, _kernels.allowed_edge_masks(lat.n, a & b).astype(np.int64))
    return joins, meets, ~(in_joins & in_meets)


def _first_axiom_failure(joins: np.ndarray, meets: np.ndarray
                         ) -> tuple[str, int] | None:
    """The first failing lattice axiom as (message, node index), scanning
    nodes i, then idempotence, then for each j absorption and for each k
    join and meet associativity."""
    size = len(joins)
    ids = np.arange(size)
    col = ids[:, None]
    idem = (joins[ids, ids] != ids) | (meets[ids, ids] != ids)
    absorb = (joins[col, meets] != col) | (meets[col, joins] != col)
    assoc = np.stack([joins[joins] != joins[col[..., None], joins[None]],
                      meets[meets] != meets[col[..., None], meets[None]]], axis=-1)
    # one row per node i, its checks in scan order, and their messages
    per_j = np.concatenate([absorb[..., None], assoc.reshape(size, size, -1)], axis=-1)
    order = np.concatenate([idem[:, None], per_j.reshape(size, -1)], axis=1)
    if not order.any():
        return None
    messages = ["idempotence fails"] + size * (
        ["absorption fails"] + size * ["join associativity fails", "meet associativity fails"])
    i, pos = divmod(int(np.argmax(order)), order.shape[1])
    return messages[pos], i


def _claim_lattice(n: int) -> Outcome:
    """Covers, rank, interval Moebius sums and the lattice axioms.

    The Moebius numbers are checked against (-1)^rank by
    :func:`mclattice.build_lattice`, which raises on a mismatch, and the
    rank is checked here against the longest chain through the covers.
    """
    lat = mclattice.build_lattice(n)
    nodes = lat.masks.tolist()

    stored = {(int(a), int(b)) for a, b in lat.cover_edges}
    indep = _independent_covers(lat)
    if stored != indep:
        bad = next(iter(stored.symmetric_difference(indep)))
        return (False, "rank-gap covers differ from no-intermediate covers",
                nodes[bad[1]])

    # independent rank: longest chain through the covers
    longest = [0] * len(nodes)
    order = sorted(range(len(nodes)), key=lambda i: int(lat.rank[i]))
    ups: dict[int, list[int]] = {}
    for a, b in stored:
        ups.setdefault(a, []).append(b)
    for i in order:
        for j in ups.get(i, ()):
            longest[j] = max(longest[j], longest[i] + 1)
    for i, m in enumerate(nodes):
        if longest[i] != int(lat.rank[i]):
            return False, (f"longest-chain rank {longest[i]} != chi-based "
                           f"rank {int(lat.rank[i])}"), m

    top = lat.top
    for m in nodes:
        s = mclattice.interval_mobius_sum(lat, m)
        want = int(lat.mobius[lat.node_index(top)]) if m == top else 0
        if s != want:
            return False, f"interval Moebius sum {s} != {want}", m

    # join/meet tables and the lattice axioms
    joins, meets, outside = _join_meet_tables(lat)
    if outside.any():
        i = int(np.argmax(outside.any(axis=1)))
        return False, "join/meet landed outside the lattice", nodes[i]
    failure = _first_axiom_failure(joins, meets)
    if failure is not None:
        message, i = failure
        return False, message, nodes[i]
    size = len(nodes)
    return True, (f"{size} nodes, {len(stored)} covers: ranks, Moebius numbers, "
                  f"interval sums and lattice axioms all verified")


def _claim_fourier(n: int) -> Outcome:
    """Elementary coefficients, constant term, Parseval, n = 2 basis change."""
    primal = bpm.primal_polynomial(n)
    fp = polyalg.to_fourier(primal)
    want = Fraction(1, 1 << (n * n - 1))
    # the primal's masks are MC_n, so the elementary graphs are the connected ones
    elem = primal.masks[_kernels.component_counts(n, primal.masks) == 1]
    bad = elem[fp.coeffs_at(elem) << (n * n - 1) != 1 << fp.shared_exponent]
    if bad.size:
        mask = int(bad[0])
        return False, f"elementary coefficient {fp.coeff(mask)} != {want}", mask

    constant = fp.coeff(0)
    expected_constant = -2 * bpm.pm_probability(n) + 1
    if constant != expected_constant:
        return False, f"constant term {constant} != -2*Pr+1 = {expected_constant}"

    if n == 2:
        truth = bpm.bpm_truth(2)
        for neg in range(16):
            got = fp.evaluate_signs(neg)
            want_val = 1 - 2 * truth[neg]
            if got != want_val:
                return False, (f"basis change wrong at +/-1 point {neg:#x}: "
                               f"{got} != {want_val}"), neg
    # a +/-1 function has unit Fourier weight: sum (c / 2^k)^2 == 1
    squares = sum(c * c for c in fp.coeffs.tolist())
    if squares != 4 ** fp.shared_exponent:
        return False, f"Parseval sum {Fraction(squares, 4 ** fp.shared_exponent)} != 1"
    return True, (f"all {elem.size} elementary graphs have coefficient 2^-(n^2-1); "
                  f"constant term matches -2*Pr+1")


def _claim_parity(n: int) -> Outcome:
    """Odd counts of matchable and matching-covered graphs."""
    ones = bpm.bpm_truth(n).popcount()
    mc = len(bpm.primal_polynomial(n))  # Theorem 1: one term per MC graph
    ok = ones % 2 == 1 and mc % 2 == 1
    return ok, (f"{ones} graphs with a matching (odd: {ones % 2 == 1}), "
                f"|MC_{n}| = {mc} (odd: {mc % 2 == 1})")


def _claim_probability(n: int) -> Outcome:
    """Exact matching probability, two routes."""
    value = bpm.pm_probability(n)  # raises internally on route disagreement
    if n == 2 and value != Fraction(7, 16):
        return False, f"Pr = {value} != 7/16"
    return True, f"Pr[matching] = {value} (signed dyadic sum == direct count)"


def _claim_dual_spot(n: int) -> Outcome:
    """Spot coefficients: K_{n-1,n-1} -> (n-2)^2, Hall violators -> 1,
    matching-covered non-top -> 0."""
    dual = _dualized(n)
    little = BipartiteGraph.from_edges(
        n, [(i, j) for i in range(1, n) for j in range(1, n)])
    want = (n - 2) ** 2
    if dual.coeff(little.mask) != want:
        return False, (f"K_{{{n - 1},{n - 1}}} coefficient {dual.coeff(little.mask)} "
                       f"!= {want}"), little.mask
    if bpm.dual_coefficient(little) != want:
        return (False, "automaton dual coefficient disagrees with the dualized primal",
                little.mask)
    # permuted embeddings must agree
    reversal = tuple(range(n, 0, -1))
    rotation = tuple(list(range(2, n + 1)) + [1])
    for sigma, tau in ((reversal, rotation), (rotation, reversal)):
        permuted = BipartiteGraph.from_edges(
            n, [(sigma[i - 1], tau[j - 1]) for i in range(1, n) for j in range(1, n)])
        if dual.coeff(permuted.mask) != want:
            return False, "permuted embedding changed the coefficient", permuted.mask
    violators = bpm.enumerate_hall_violators(n)
    for h in violators:
        if dual.coeff(h.mask) != 1:
            return False, f"Hall violator coefficient {dual.coeff(h.mask)} != 1", h.mask
        if not bpm.is_hvc(h):
            return False, "violator not HVC", h.mask
    full = (1 << (n * n)) - 1
    mc = bpm.primal_polynomial(n).masks
    inner = mc[mc != full]
    bad = inner[dual.coeffs_at(inner) != 0]
    if bad.size:
        return (False, "matching-covered non-top graph with nonzero coefficient",
                int(bad[0]))
    return True, (f"K_{{{n - 1},{n - 1}}} -> {want}; {len(violators)} violators -> 1; "
                  f"{len(inner)} matching-covered graphs -> 0")


def _implication_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The implication chain's per-mask flags, for every mask at once:
    (wildcard, surplus, members).

    Bit e of ``wildcard[g]`` (``surplus[g]``) is set iff e is a non-edge of g
    and a wildcard (surplus) edge of g.  Row g of ``members`` is the umbrella
    of g, ascending and padded with 0.  The scalar
    :func:`mclattice.is_wildcard_edge`, :func:`mclattice.is_surplus_edge`
    and :func:`mclattice.umbrella` are the oracles of these tables.
    """
    size = 1 << (n * n)
    masks = np.arange(size, dtype=np.int64)
    mc = bpm.primal_polynomial(n).coeffs_at(masks) != 0  # Theorem 1: the terms are MC_n

    # bit e of bad[h]: h is MC, holds e, and h - e is not MC.  OR-ed over
    # supersets, bit e of bad[g + e] says some MC supergraph of g + e needs e.
    bad = np.zeros(size, dtype=np.int64)
    for e in range(n * n):
        drop = mc & ((masks >> e) & 1 == 1) & ~mc[masks ^ (1 << e)]
        bad |= drop.astype(np.int64) << e
    _kernels.superset_or_transform(bad, n * n)
    wildcard = np.zeros(size, dtype=np.int64)
    for e in range(n * n):
        wildcard |= (~bad[masks | (1 << e)] >> e & 1) << e
    wildcard &= ~masks

    # N(X) for every left set X, one step per set as in
    # bitgraph.left_neighborhoods; a proper X with |N(X)| <= |X| that holds
    # row a rules out the surplus of (a, b) for every column b outside N(X)
    row = (1 << n) - 1
    rows = _kernels.mask_rows(n, masks).astype(np.int64)
    nb = np.zeros((size, row + 1), dtype=np.int64)
    for xs in range(1, row + 1):
        low = xs & -xs
        nb[:, xs] = nb[:, xs ^ low] | rows[:, low.bit_length() - 1]
    sets = np.arange(row + 1)
    tight = _kernels.popcount_array(nb) <= _kernels.popcount_array(sets)
    tight[:, [0, row]] = False
    blocked = np.where(tight, row ^ nb, 0)
    surplus = np.zeros(size, dtype=np.int64)
    for a in range(n):
        ruled = np.bitwise_or.reduce(blocked[:, (sets >> a) & 1 == 1], axis=1)
        surplus |= (row ^ ruled) << (n * a)
    surplus &= ~masks

    # the umbrella: the MC supergraphs of g with no MC supergraph of g
    # strictly below them
    nodes = bpm.primal_polynomial(n).masks
    sup = (masks[:, None] & ~nodes) == 0
    below = ((nodes[:, None] & ~nodes) == 0) & (nodes[:, None] != nodes)
    umb = sup & ~(sup @ below)
    first = np.argsort(~umb, axis=1, kind="stable")[:, :int(umb.sum(axis=1).max())]
    members = np.where(np.take_along_axis(umb, first, axis=1), nodes[first], 0)
    return wildcard, surplus, members


def _claim_implication_chain(n: int) -> Outcome:
    """surplus edge => wildcard edge => incomplete umbrella => zero dual
    coefficient, exhaustively, plus the umbrella inclusion-exclusion identity.

    The last link needs no check of its own: an incomplete umbrella has no
    member subset covering every edge, so the identity predicts 0 there.
    """
    wildcard, surplus, members = _implication_tables(n)
    full = (1 << (n * n)) - 1
    table = _dualized(n).coeffs_at(np.arange(full + 1))
    incomplete = np.bitwise_or.reduce(members, axis=1) != full

    # inclusion-exclusion over the umbrella reproduces the coefficient: the
    # subsets of each mask's members whose union is every edge, signed by size
    width = members.shape[1]
    subsets = np.arange(1, 1 << width)
    picks = (subsets[:, None] >> np.arange(width)) & 1 == 1
    unions = np.bitwise_or.reduce(np.where(picks, members[:, None, :], 0), axis=2)
    real = subsets < (1 << np.count_nonzero(members, axis=1))[:, None]
    signs = 2 * (_kernels.popcount_array(subsets) & 1) - 1
    total = np.where(real & (unions == full), signs, 0).sum(axis=1)
    odd = (n + _kernels.popcount_array(np.arange(full + 1))) & 1 == 1
    predicted = np.where(odd, -total, total)

    stray = surplus & ~wildcard
    failed = (predicted != table) | (stray != 0) | ((wildcard != 0) & ~incomplete)
    failed[0] = False
    if not failed.any():
        return True, ("surplus => wildcard => incomplete umbrella => zero "
                      "coefficient, and the umbrella identity, over all "
                      f"{full} nonempty graphs")
    mask = int(np.argmax(failed))
    if predicted[mask] != table[mask]:
        return False, (f"umbrella identity predicts {int(predicted[mask])}, "
                       f"coefficient is {int(table[mask])}"), mask
    edges = int(stray[mask])
    if edges:
        a, b = divmod((edges & -edges).bit_length() - 1, n)
        return False, f"surplus edge ({a + 1},{b + 1}) is not wildcard", mask
    return False, "wildcard edge with a complete umbrella", mask


def _claim_appendix_a(n: int) -> Outcome:
    """Structural zero test implies a zero coefficient, over every mask."""
    dual = _dualized(n)
    qualifying = np.setdiff1d(np.flatnonzero(_kernels.truth_table(n)),  # matchable, not MC
                              bpm.primal_polynomial(n).masks, assume_unique=True)
    flagged = qualifying[bpm.appendix_a_zero_flags(n, qualifying)]
    bad = flagged[dual.coeffs_at(flagged) != 0]
    if bad.size:
        mask = int(bad[0])
        return False, f"flagged graph has coefficient {dual.coeff(mask)}", mask
    return True, (f"exhaustive: {flagged.size}/{qualifying.size} qualifying graphs "
                  f"flagged, all with zero coefficient")


_HAND_BOUNDS = {
    2: {"and_lb": 1.0, "or_lb_mon": 2.0, "or_lb_factorial": 1.2618595071429148},
    3: {"and_lb": 3.5424874983228443, "or_lb_mon": 4.365316677288276,
        "or_lb_factorial": 3.2618595071429146},
}
_BOUNDS_TOL = 1e-12


def _claim_bounds(n: int) -> Outcome:
    """Decision-tree lower bounds match hand values."""
    report = bpm.bounds_report(n)
    if report.deg2_value != n * n or report.xor_lb != n * n:
        return False, f"GF(2) degree {report.deg2_value} != {n * n}"
    hand = _HAND_BOUNDS.get(n)
    if hand is not None:
        for field, want in hand.items():
            got = getattr(report, field)
            if abs(got - want) > _BOUNDS_TOL:
                return False, f"{field} = {got!r} differs from hand value {want!r}"
    return True, (f"deg2 = n^2 = {n * n}; and_lb = {report.and_lb:.12g}, "
                  f"or_lb = {report.or_lb_factorial:.12g} as expected")


def _claim_counting(n: int) -> Outcome:
    """Counting formula vs exhaustive classification, plus the small-number
    facts the formulas rest on."""
    formula = bpm.totally_ordered_count(n)
    exhaustive = int(np.count_nonzero(_total_order_codes(n)))
    if formula != exhaustive:
        return False, f"formula {formula} != exhaustive {exhaustive}"
    if bpm.stirling2(4, 2) != 7 or bpm.fubini(3) != 13 or not bpm.fubini(3) < 4 ** 3:
        return False, "small Stirling/Fubini values wrong"
    return True, f"{formula} totally ordered graphs by formula == exhaustive count"


def _claim_hvc_witness(n: int) -> Outcome:
    """The dense Hall-violator-covered witness and its up-set."""
    witness = bpm.hvc_lower_bound_witness(n)  # self-checks HVC and the up-set
    k = n // 2
    expected_edges = n * n - k * (k + 1)
    if witness.edge_count != expected_edges:
        return False, f"witness has {witness.edge_count} edges, expected {expected_edges}"
    upset_bits = k * (k + 1)
    return True, (f"witness with {witness.edge_count} edges pins a covered "
                  f"up-set of 2^{upset_bits} supergraphs")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    name: str
    runner: Callable[[int], Outcome]
    valid_n: tuple[int, ...]


CLAIMS: dict[str, Claim] = {
    c.name: c for c in [
        Claim("thm1", _claim_thm1, (1, 2, 3, 4, 5)),
        Claim("n2_closed_form", _claim_n2_closed_form, (2,)),
        Claim("appendix_b", _claim_appendix_b, (3,)),
        Claim("thm2_strict", _claim_thm2_strict, (2, 3, 4)),
        Claim("thm2_nonordered", _claim_thm2_nonordered, (2, 3, 4)),
        Claim("dual_count", _claim_dual_count, (2, 3, 4)),
        Claim("lattice", _claim_lattice, (1, 2, 3)),
        Claim("fourier", _claim_fourier, (2, 3)),
        Claim("parity", _claim_parity, (1, 2, 3, 4)),
        Claim("probability", _claim_probability, (2, 3, 4)),
        Claim("dual_spot", _claim_dual_spot, (2, 3, 4)),
        Claim("implication_chain", _claim_implication_chain, (2, 3)),
        Claim("appendix_a", _claim_appendix_a, (3, 4)),
        Claim("bounds", _claim_bounds, (2, 3, 4)),
        Claim("counting", _claim_counting, (1, 2, 3, 4)),
        Claim("hvc_witness", _claim_hvc_witness, (2, 4)),
    ]
}


def run_claim(name: str, n: int) -> VerificationReport:
    claim = CLAIMS.get(name)
    if claim is None:
        raise ValueError(f"unknown claim {name!r}; known: {', '.join(sorted(CLAIMS))}")
    if n not in claim.valid_n:
        raise ValueError(
            f"claim {name!r} runs at n in {claim.valid_n}, not n={n}")
    return VerificationReport(name, n, *claim.runner(n))


def run_all(n: int) -> list[VerificationReport]:
    """Every claim applicable at side size n, in registry order."""
    return [run_claim(name, n) for name, c in CLAIMS.items() if n in c.valid_n]
