"""The bipartite-perfect-matching function and its three polynomial faces.

``bpm_truth`` is the function itself; ``primal_polynomial`` is its exact
{0,1}-basis representation built straight from the matching-covered
enumeration (coefficient (-1)^chi); ``dual_polynomial`` flips the roles of
0 and 1.  Around these sit the structural classifiers that explain which dual
coefficients vanish (total order, Hall-violator covers, umbrellas), exact
counting formulas, and the decision-tree lower bounds the polynomials imply.

Both polynomials, like every per-n table here, are cached per process by
:func:`_kernels.frozen_cache`: each call at n returns the same object, and
its arrays are read-only.  The primal's terms are MC_n (Theorem 1), and its
readers include :func:`pm_probability`'s first route; ``matchcov.count_mc``
stays a stream, as counting MC_5 through the primal peaks at 244 MiB, not 56.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import _kernels
from .bitgraph import (
    MAX_SIDE,
    BipartiteGraph,
    connected_components,
    has_perfect_matching,
    union_of_perfect_matchings,
)
from .caps import require_domain, require_hard
from .matchcov import is_matching_covered
from .polyalg import MultilinearPoly, TruthTable, _integral, deg2


# ---------------------------------------------------------------------------
# Truth table and the two polynomials
# ---------------------------------------------------------------------------

def bpm_truth(n: int) -> TruthTable:
    """Truth table of "the mask's graph has a perfect matching" over all
    2^(n^2) masks; n <= 5."""
    require_hard("truth-table", n)
    return TruthTable(n, _kernels.truth_table(n))


@_kernels.frozen_cache
def primal_polynomial(n: int) -> MultilinearPoly:
    """The {0,1}-basis polynomial, built from the matching-covered graphs.

    One term per MC graph with coefficient (-1)^chi; no interpolation is
    involved, which is exactly what lets the test suite compare this against
    the interpolation of :func:`bpm_truth` as two independent routes.
    """
    require_hard("poly-primal", n)
    masks, signs = zip(*_kernels.stream_mc_signs(n))
    return MultilinearPoly(n, np.concatenate(masks), np.concatenate(signs))


@_kernels.frozen_cache
def dual_polynomial(n: int) -> MultilinearPoly:
    """Polynomial of x -> 1 - BPM(1-x), from the Ferrers orbits.

    By Theorem 2 a dual coefficient vanishes off the totally ordered graphs,
    which up to row and column permutations are the Ferrers shapes; the
    coefficient is invariant under those permutations.  So the signed
    family automaton runs once per shape and each nonzero shape's orbit is
    listed.  Built-in checks, each raising RuntimeError: every orbit has
    :func:`_orbit_size` graphs, the sizes plus 1 (the empty graph) equal
    :func:`totally_ordered_count`, and no graph is listed twice.
    """
    require_hard("poly-dual", n)
    masks, coeffs = [], []
    total = 1  # the empty graph, coefficient 1 - BPM(K_{n,n}) = 0
    for degrees, c in _ferrers_coefficients(n):
        size = _orbit_size(n, degrees)
        total += size
        if c:
            orbit = _ferrers_orbit(n, [(1 << d) - 1 for d in degrees])
            if orbit.size != size:
                raise RuntimeError(
                    f"shape {degrees}: orbit has {orbit.size} graphs, expected {size}")
            masks.append(orbit)
            coeffs.append(np.full(size, c, dtype=np.int64))
    expected = totally_ordered_count(n)
    if total != expected:
        raise RuntimeError(
            f"Ferrers orbits cover {total} graphs, totally_ordered_count gives {expected}")
    masks, coeffs = np.concatenate(masks), np.concatenate(coeffs)
    order = np.argsort(masks)
    masks = masks[order]
    repeated = np.flatnonzero(masks[1:] == masks[:-1])
    if repeated.size:
        mask = int(masks[repeated[0]])
        degrees = sorted(np.bitwise_count(_kernels.mask_rows(n, mask)).tolist(), reverse=True)
        raise RuntimeError(f"shape {tuple(degrees)}: graph {mask:#x} listed twice")
    return MultilinearPoly(n, masks, coeffs[order])


def _ferrers_coefficients(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(degrees, dual coefficient) for every nonempty Ferrers shape: the
    non-increasing degree sequences d_1 >= ... >= d_n, row i being columns
    0..d_i - 1; there are C(2n, n) - 1.  They come in trie order: depth
    first, larger degrees first.

    The shapes are walked as a trie on their row prefixes, a level at a
    time, so a shared prefix runs the automaton once.  The prefixes of one
    length are a batch of walks; their children read one row per degree,
    and the children of one degree are numbered together and stepped in
    blocks of walks (:func:`_kernels.signed_family_step`).
    """
    size = len(_kernels._family_automaton(n)[0])
    # walks per step: their table of sums, 2^16 float64 entries at most,
    # stays in cache (n = 7 on 2 cores: 0.8 s, against 1.2 s at 2^17 and
    # 1.9 s at 2^20)
    per = max(1, (1 << 16) // size)
    shapes = np.zeros((1, 0), dtype=np.int64)  # a row of degrees per prefix
    keys, weights = _kernels.FAMILY_START  # key: prefix * size + state
    for _ in range(n):
        last = shapes[:, -1] if shapes.shape[1] else np.full(1, n)
        prefix, states = np.divmod(keys, size)
        children, reached = [], []
        for d in range(n, -1, -1):  # the prefixes with a child of degree d
            has = last >= d
            parents, at = np.flatnonzero(has), np.flatnonzero(has[prefix])
            moved = (np.cumsum(has) - 1)[prefix[at]] * size + states[at]
            first = sum(map(len, children))
            for lo in range(0, len(parents), per):
                a, z = np.searchsorted(moved, [lo * size, (lo + per) * size])
                k, w = _kernels.signed_family_step(
                    n, (moved[a:z] - lo * size, weights[at[a:z]]), (1 << d) - 1)
                reached.append((k + (first + lo) * size, w))
            children.append(np.column_stack((shapes[parents], np.full(len(parents), d))))
        shapes = np.concatenate(children)
        keys = np.concatenate([k for k, _ in reached])
        weights = np.concatenate([w for _, w in reached])
    sums = np.zeros(len(shapes), dtype=np.int64)
    np.add.at(sums, keys // size, weights)
    order = np.lexsort(-shapes.T[::-1])  # by column 0 first, each descending
    for degrees, c in zip(shapes[order].tolist(), (-sums[order]).tolist()):
        if degrees[0]:
            yield tuple(degrees), c


def _orbit_size(n: int, degrees: tuple[int, ...]) -> int:
    """n!/prod(row multiplicities)! * n!/prod(column multiplicities)!: rows
    of equal degree are equal, and so are columns."""
    cols = tuple(sum(d > j for d in degrees) for j in range(n))
    size = 1
    for seq in (degrees, cols):
        size *= math.factorial(n) // math.prod(
            math.factorial(seq.count(v)) for v in set(seq))
    return size


@_kernels.frozen_cache
def _orbit_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(images, shifts): images[tau, r] (uint8, n <= 8) is row r under
    column permutation tau, and shifts[sigma, i] = n * sigma(i) moves row i
    to row sigma(i)."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.uint8)
    rows = np.arange(1 << n, dtype=np.uint8)
    images = np.zeros((len(perms), 1 << n), dtype=np.uint8)
    for j in range(n):  # bit j of every row moves to bit tau(j)
        images |= ((rows >> np.uint8(j)) & np.uint8(1)) << perms[:, j, None]
    return images, n * perms.astype(np.int64)


def _ferrers_orbit(n: int, rows: list[int]) -> np.ndarray:
    """Every graph reached from the Ferrers shape ``rows`` (non-increasing)
    by permuting rows and columns, each once, in no particular order.

    A graph of the orbit is fixed by the shape's column image and the
    placement of its rows.  Permutations that differ only inside a block of
    equal columns (equal rows) give the same image (placement), so one per
    coset is kept: tau ascending on each block of equal columns, sigma on
    each block of equal rows.  Their outer sum lists n!/prod(row
    multiplicities)! * n!/prod(column multiplicities)! distinct graphs."""
    images, shifts = _orbit_tables(n)
    cols = [sum(r >> j & 1 for r in rows) for j in range(n)]  # nested: equal counts, equal columns
    ascending = shifts[:, 1:] > shifts[:, :-1]  # [perm, j]: perm(j) < perm(j + 1)
    taus = np.all(ascending | (np.diff(cols) != 0), axis=1)
    sigmas = np.all(ascending | (np.diff(rows) != 0), axis=1)
    permuted = images[taus][:, rows]  # (column images, n): the rows under each tau
    return (permuted[:, None, :] << shifts[sigmas][None, :, :]).sum(axis=-1).ravel()


# ---------------------------------------------------------------------------
# Total-order classification
# ---------------------------------------------------------------------------

class TotalOrderClass(Enum):
    NOT_TOTALLY_ORDERED = "NotTotallyOrdered"
    STRICTLY_TOTALLY_ORDERED = "StrictlyTotallyOrdered"
    TOTALLY_ORDERED_NON_STRICT = "TotallyOrderedNonStrict"

    def __str__(self) -> str:
        return self.value


def classify_total_order(g: BipartiteGraph) -> TotalOrderClass:
    """Do the left neighbourhoods form a containment chain?

    Sorting by degree descending is enough: any valid chain ordering is
    degree-sorted, and equal degrees inside a chain force equal sets.  Strict
    means every containment is proper and the smallest set is nonempty.
    """
    rows = sorted((g.row(i) for i in range(1, g.n + 1)),
                  key=lambda r: -r.bit_count())
    strict = rows[-1] != 0
    for hi, lo in zip(rows, rows[1:]):
        if lo & ~hi:
            return TotalOrderClass.NOT_TOTALLY_ORDERED
        if lo == hi:
            strict = False
    return (TotalOrderClass.STRICTLY_TOTALLY_ORDERED if strict
            else TotalOrderClass.TOTALLY_ORDERED_NON_STRICT)


def total_order_codes(n: int, masks: np.ndarray) -> np.ndarray:
    """:func:`classify_total_order` over a vector of masks, n <= 8, as int8
    codes in :class:`TotalOrderClass` order: 0 not totally ordered,
    1 strict, 2 non-strict.

    Rows are sorted by their integer value, descending.  A subset is never
    larger as an integer, so a chain sorts into containment order and equal
    neighbours are equal sets; the chain test then runs on neighbouring rows.
    """
    rows = np.sort(_kernels.mask_rows(n, masks), axis=-1)[..., ::-1]
    hi, lo = rows[..., :-1], rows[..., 1:]
    chain = ~np.any(lo & ~hi, axis=-1)
    strict = (rows[..., -1] != 0) & ~np.any(lo == hi, axis=-1)
    return np.where(chain, np.where(strict, np.int8(1), np.int8(2)), np.int8(0))


# ---------------------------------------------------------------------------
# Dual coefficients, one graph at a time
# ---------------------------------------------------------------------------

def dual_coefficient(g: BipartiteGraph) -> int:
    """Exact dual coefficient of a nonempty graph S, n <= 7.

    c(S) = -sum over T subseteq S of (-1)^{|S \\ T|} BPM(K_{n,n} \\ T), from
    one run of the signed family automaton over the rows of S, so no dense
    dual polynomial is ever materialized.
    """
    n = g.n
    if g.is_empty:
        raise ValueError("dual coefficients are defined for nonempty graphs")
    require_hard("dual-coefficient", n)
    return -_kernels.signed_matchable_sum(n, (g.row(i) for i in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Hall violators and their covers
# ---------------------------------------------------------------------------

def enumerate_hall_violators(n: int) -> list[BipartiteGraph]:
    """All complete bipartite K_{X,Y} with |X| + |Y| = n + 1, ascending by
    mask.  Their presence in the complement is what blocks a matching."""
    require_domain("hall-violators", n)
    if n < 2:
        raise ValueError("Hall violators need n >= 2")
    if n > MAX_SIDE:
        raise ValueError(f"side size must be in 1..{MAX_SIDE}, got {n}")
    # uint64: at n = 8 the last row fills bit 63
    ys = np.arange(1, 1 << n, dtype=np.uint64)
    blocks = _kernels.subset_fold(ys[:, None] << np.uint64(n) * np.arange(n, dtype=np.uint64),
                                  np.bitwise_or, 0)  # [Y - 1, X]: K_{X,Y}
    sizes = _kernels.popcount_array(np.arange(1 << n))
    masks = np.sort(blocks[sizes[1:, None] + sizes == n + 1])
    return [BipartiteGraph(n, m) for m in masks.tolist()]


def is_hvc(g: BipartiteGraph) -> bool:
    """Is g a union of Hall violators it contains?

    For each nonempty column set Y let X(Y) be the rows containing Y.  When
    |X(Y)| + |Y| >= n + 1 the block X(Y) x Y is a union of contained
    violators, and every contained violator X x Y lies in its block.  So g is
    HVC iff those blocks cover it.
    """
    if g.is_empty:
        raise ValueError("HVC membership is defined for nonempty graphs")
    n = g.n
    rows = [g.row(i) for i in range(1, n + 1)]
    covered = 0
    for ys in range(1, 1 << n):
        xs = [i for i, r in enumerate(rows) if r & ys == ys]
        if len(xs) + ys.bit_count() >= n + 1:
            for i in xs:
                covered |= ys << (n * i)
    return covered == g.mask


def hvc_lower_bound_witness(n: int) -> BipartiteGraph:
    """The dense Hall-violator-covered graph whose whole up-set stays covered.

    For n = 2k: all edges from the first k left vertices, plus all edges into
    the first k-1 right vertices.  Missing edges each extend to a violator,
    so every supergraph is covered too; that up-set check runs exhaustively
    for n <= 4 before the witness is returned.  Odd n is rejected.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError("the witness construction is defined for even n >= 2")
    k = n // 2
    full_row = (1 << n) - 1
    low_cols = (1 << (k - 1)) - 1
    mask = 0
    for i in range(k):
        mask |= full_row << (n * i)
    for i in range(k, n):
        mask |= low_cols << (n * i)
    witness = BipartiteGraph(n, mask)
    if not is_hvc(witness):
        raise RuntimeError("witness construction failed its own HVC membership")
    if n <= 4:
        free = n * n - witness.edge_count
        for sup in _kernels.supergraph_masks(n, mask, 0, 1 << free).tolist():
            if not is_hvc(BipartiteGraph(n, sup)):
                raise RuntimeError(f"supergraph {sup:#x} of the witness left HVC_{n}")
    return witness


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------

def stirling2(m: int, k: int) -> int:
    """Stirling number of the second kind, S(m, k) = k*S(m-1, k) + S(m-1, k-1)."""
    if k < 0 or m < 0 or k > m:
        raise ValueError("need 0 <= k <= m")
    row = [1] + [0] * k  # row for m = 0
    for i in range(1, m + 1):
        new = [0] * (k + 1)
        for j in range(1, min(i, k) + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def fubini(m: int) -> int:
    """Ordered Bell number: sum over k of k! * S(m, k)."""
    return sum(math.factorial(k) * stirling2(m, k) for k in range(m + 1))


def totally_ordered_count(n: int) -> int:
    """Number of totally ordered graphs in K_{n,n}:
    sum over k of ((k-1)! * S(n+1, k))^2."""
    require_domain("totally-ordered", n)
    return sum((math.factorial(k - 1) * stirling2(n + 1, k)) ** 2
               for k in range(1, n + 2))


def pm_probability(n: int) -> Fraction:
    """Probability a uniform subgraph of K_{n,n} has a perfect matching.

    Evaluated as the exact dyadic sum of (-1)^chi / 2^|E| over the primal's
    terms (the MC graphs), then cross-checked against the direct truth-table
    count (two genuinely different computations; a mismatch raises)."""
    require_hard("truth-table", n)
    nn = n * n
    primal = primal_polynomial(n)
    # exact in int64: each term is at most 2^(nn-n), |MC_5| < 2^23
    shifts = nn - _kernels.popcount_array(primal.masks)
    value = Fraction(int((primal.coeffs << shifts).sum()), 1 << nn)
    direct = Fraction(int(_kernels.truth_table(n).sum()), 1 << nn)
    if value != direct:
        raise RuntimeError(
            f"matching-covered sum gives {value}, truth table gives {direct}")
    return value


# ---------------------------------------------------------------------------
# Decision-tree lower bounds
# ---------------------------------------------------------------------------

def _log3(x: int) -> float:
    return math.log(x) / math.log(3)


@dataclass(frozen=True)
class BoundsReport:
    """Query-complexity lower bounds extracted from the two polynomials.

    Count-based fields are None above n = 4, where only the factorial bound
    2*log3(n!) stays cheap to state.
    """

    n: int
    deg2_value: int | None
    xor_lb: int | None
    and_lb: float | None
    or_lb_mon: float | None
    or_lb_factorial: float
    monomial_count_primal: int | None
    monomial_count_dual: int | None

    def to_json_dict(self) -> dict:
        def fmt(x):
            if isinstance(x, float):
                return float(f"{x:.12g}")
            return x
        return {
            "n": self.n,
            "deg2": self.deg2_value,
            "xor_lb": self.xor_lb,
            "and_lb": fmt(self.and_lb),
            "or_lb_mon": fmt(self.or_lb_mon),
            "or_lb_factorial": fmt(self.or_lb_factorial),
            "monomials_primal": self.monomial_count_primal,
            "monomials_dual": self.monomial_count_dual,
        }


def bounds_report(n: int) -> BoundsReport:
    """XOR/AND/OR decision-tree lower bounds at side size n.

    xor = the GF(2) degree (evasiveness number), and = log3 of the primal
    monomial count, or = log3 of the dual monomial count plus the closed-form
    2*log3(n!) that needs no enumeration.
    """
    require_domain("bounds", n)
    or_factorial = 2 * _log3(math.factorial(n))
    if n > 4:
        return BoundsReport(n, None, None, None, None, or_factorial, None, None)
    primal = primal_polynomial(n)
    dual = dual_polynomial(n)
    d2 = deg2(primal)
    return BoundsReport(
        n=n,
        deg2_value=d2,
        xor_lb=d2,
        and_lb=_log3(len(primal)),
        or_lb_mon=_log3(len(dual)),
        or_lb_factorial=or_factorial,
        monomial_count_primal=len(primal),
        monomial_count_dual=len(dual),
    )


# ---------------------------------------------------------------------------
# Structure of graphs with a matching outside MC_n
# ---------------------------------------------------------------------------

def appendix_a_zero_test(g: BipartiteGraph) -> bool:
    """Structural certificate that a matchable non-MC graph has dual
    coefficient zero.

    Looks at the union of all perfect matchings of g: either some component
    of that union is not a complete bipartite graph, or all are and some
    ordered component pair has a partially-filled slice of cross edges in g.
    Either pattern yields a wildcard edge, hence the zero coefficient.
    """
    if not has_perfect_matching(g):
        raise ValueError("test requires a graph with a perfect matching")
    if is_matching_covered(g):
        raise ValueError("test requires a graph outside MC_n")
    n = g.n
    union = union_of_perfect_matchings(g)
    comps = _nontrivial_components(union)
    for lefts, rights in comps:
        want = _bits(rights)
        for i in lefts:
            if union.row(i) != want:
                return True  # component is not complete bipartite
    for l1, r1 in comps:
        for l2, r2 in comps:
            if (l1, r1) == (l2, r2):
                continue
            slice_bits = _bits(r2)
            total = len(l1) * len(r2)
            present = sum((g.row(i) & slice_bits).bit_count() for i in l1)
            if 0 < present < total:
                return True  # proper nonempty cross slice
    return False


def appendix_a_zero_flags(n: int, masks: np.ndarray) -> np.ndarray:
    """:func:`appendix_a_zero_test` over a vector of masks, n <= 5.

    Every vertex of the union U of all perfect matchings lies on one, so
    the components of U are complete bipartite iff every two U-rows are
    equal or disjoint; the rows of U are then the right sides of the
    components.  A cross slice L1 x R2 is all or nothing iff every left i
    meets each U-row R disjoint from its own in nothing or all of R, and
    the lefts sharing a U-row agree.
    """
    masks = np.asarray(masks).astype(np.uint32, copy=False)
    union = _kernels.allowed_edge_masks(n, masks)
    if np.any(union == 0):
        raise ValueError("test requires a graph with a perfect matching")
    if np.any(union == masks):
        raise ValueError("test requires a graph outside MC_n")
    u = _kernels.mask_rows(n, union)
    g = _kernels.mask_rows(n, masks)
    flags = np.zeros(masks.shape, dtype=bool)
    for i in range(n):
        for k in range(n):
            r = u[..., k]
            if k > i:  # overlapping but unequal U-rows
                flags |= (u[..., i] != r) & ((u[..., i] & r) != 0)
            cross = (u[..., i] & r) == 0
            part = g[..., i] & r
            flags |= cross & (part != 0) & (part != r)
            for i2 in range(i + 1, n):
                flags |= cross & (u[..., i2] == u[..., i]) & ((g[..., i2] & r) != part)
    return flags


def _nontrivial_components(g: BipartiteGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(ls, rs) for ls, rs in connected_components(g) if ls and rs]


def _bits(indices: tuple[int, ...]) -> int:
    m = 0
    for j in indices:
        m |= 1 << (j - 1)
    return m


# ---------------------------------------------------------------------------
# Coefficient-grouped monomial summaries
# ---------------------------------------------------------------------------

def canonical_forms(n: int, masks) -> np.ndarray:
    """:func:`canonical_form` of each mask, as uint64; n <= 8.

    Row n-1 is the most significant, so under a fixed column permutation
    the smallest mask has its rows sorted descending from row 0: only the
    2*n! column permutations and side swaps are searched, a block of masks
    against all of them at once.
    """
    images = _orbit_tables(n)[0]
    rows = _kernels.mask_rows(n, np.asarray(masks, dtype=np.uint64))
    bits = np.unpackbits(rows[..., None], axis=-1, count=n, bitorder="little")
    transposed = np.packbits(bits.swapaxes(-1, -2), axis=-1, bitorder="little")[..., 0]
    sides = np.stack((rows, transposed), axis=1)  # (m, 2, n): both orientations
    forms = np.empty(len(rows), dtype=np.uint64)
    # block * 2 * n! = 2^16 candidates stay in cache; 2^14 and 2^20 ran slower at n=5
    block = max(1, (1 << 15) // len(images))
    for lo in range(0, len(rows), block):
        forms[lo:lo + block] = _smallest_candidates(n, images, sides[lo:lo + block])
    return forms


def _smallest_candidates(n: int, images: np.ndarray, sides: np.ndarray) -> np.ndarray:
    """Per mask of the (m, 2, n) ``sides``, the least candidate over both
    orientations and all column permutations; n <= 8 rows fit in uint64."""
    cols = [images[:, c] for c in np.moveaxis(sides, -1, 0)]  # n times (n!, m, 2)
    for top in range(n - 1, 0, -1):
        for j in range(top):
            lo, hi = cols[j], cols[j + 1]
            cols[j], cols[j + 1] = np.minimum(lo, hi), np.maximum(lo, hi)
    packed = cols[0].astype(np.uint64)
    for c in cols[1:]:
        packed = packed << np.uint64(n) | c
    return packed.min(axis=(0, 2))


def canonical_form(g: BipartiteGraph) -> int:
    """Smallest mask reachable by permuting the two sides independently and
    optionally swapping them: a full isomorphism invariant for subgraphs of
    K_{n,n}."""
    return int(canonical_forms(g.n, [g.mask])[0])


def monomial_summary(p: MultilinearPoly) -> list[dict]:
    """Group a polynomial's monomials by integer coefficient value.

    One row per distinct coefficient, ascending, with the number of monomials
    carrying it and the number of isomorphism classes (independent side
    permutations plus side swap) among their graphs.  Coefficients are
    isomorphism-invariant here, so the classes partition each group.
    """
    forms = canonical_forms(p.n, _integral(p).masks)
    return [{"coeff": c, "monomials": int((p.coeffs == c).sum()),
             "isomorphism_classes": len(_kernels.distinct_sorted(forms[p.coeffs == c]))}
            for c in _kernels.distinct_sorted(p.coeffs).tolist()]
