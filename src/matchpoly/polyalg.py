"""Exact sparse multilinear polynomial algebra over the n^2 edge variables.

One type, ``MultilinearPoly``, holds all three coefficient bases:

* the {0,1} basis (signed integer coefficients),
* its dual with 0 and 1 swapped (also integer coefficients),
* the {1,-1} basis: every coefficient is an integer numerator over one
  shared power-of-two denominator 2^``shared_exponent``, which is exact
  because the basis change only ever divides by two.

The functions that read coefficients as integers (evaluation on the 0/1 cube
and the transforms built on it, ``deg2``, ``l1_norm``) reject a positive
exponent with ``ValueError``.

Monomials are keyed by edge-set bitmask (layout of :mod:`matchpoly.bitgraph`),
so a polynomial's term mask doubles as the mask of the graph its monomial
corresponds to.  Transforms run as one in-place dense pass per variable;
coefficients stay in the int64 fast path, guarded by an l1-norm headroom check
(an overflow would need an l1 norm of 2^62, far beyond any n <= 5 object).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Mapping

import numpy as np

from . import _kernels
from .bitgraph import BipartiteGraph
from .caps import require_hard


def _as_readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _input_mask(n: int, mask: int) -> int:
    if not 0 <= mask < 1 << (n * n):
        raise ValueError(f"input mask {mask:#x} outside the variable range")
    return mask


class TruthTable:
    """Dense Boolean function table over all 2^(n^2) edge masks."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: np.ndarray):
        vals = np.asarray(bits)
        if vals.shape != (1 << (n * n),):
            raise ValueError(f"truth table for n={n} needs 2^{n * n} bits, got {vals.shape}")
        if vals.size and not np.all((vals == 0) | (vals == 1)):
            raise ValueError("truth table entries must be 0 or 1")
        self.n = n
        self.bits = _as_readonly(vals.astype(np.uint8, copy=False))

    def __getitem__(self, mask: int) -> int:
        return int(self.bits[mask])

    def popcount(self) -> int:
        return int(self.bits.sum())

    def dual(self) -> "TruthTable":
        """Table of x -> 1 - f(1 - x): reverse the index, flip the output."""
        return TruthTable(self.n, 1 - self.bits[::-1])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TruthTable) and self.n == other.n
                and np.array_equal(self.bits, other.bits))

    __hash__ = None  # type: ignore[assignment]


class MultilinearPoly:
    """Sparse multilinear polynomial with exact dyadic coefficients.

    Stored as parallel arrays (masks ascending, numerators nonzero) and one
    shared exponent k: the coefficient at ``masks[i]`` is ``coeffs[i] / 2^k``.
    k is 0 in the {0,1} bases and is normalized so that some numerator is odd
    (or k = 0).  Two polynomials that agree as functions on the cube are
    identical here, which is what makes term-for-term comparisons meaningful.
    """

    __slots__ = ("n", "masks", "coeffs", "shared_exponent")

    def __init__(self, n: int, masks: np.ndarray, coeffs: np.ndarray,
                 shared_exponent: int = 0):
        masks = np.asarray(masks, dtype=np.int64)
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if masks.shape != coeffs.shape or masks.ndim != 1:
            raise ValueError("masks and coeffs must be parallel 1-d arrays")
        if shared_exponent < 0:
            raise ValueError("shared exponent must be nonnegative")
        if masks.size:
            if masks.min() < 0 or masks.max() >= 1 << (n * n):
                raise ValueError("term mask outside the variable range")
            if np.any(np.diff(masks) <= 0):
                raise ValueError("term masks must be strictly ascending")
            if np.any(coeffs == 0):
                raise ValueError("zero coefficients may not be stored")
            if shared_exponent:  # pull common powers of two into the exponent
                low = int(np.bitwise_or.reduce(coeffs))
                shift = min(shared_exponent, (low & -low).bit_length() - 1)
                coeffs, shared_exponent = coeffs >> shift, shared_exponent - shift
        else:
            shared_exponent = 0
        self.n = n
        self.masks = _as_readonly(masks)
        self.coeffs = _as_readonly(coeffs)
        self.shared_exponent = shared_exponent

    @classmethod
    def from_terms(cls, n: int, terms: Mapping[int, int]) -> "MultilinearPoly":
        items = sorted((m, c) for m, c in terms.items() if c != 0)
        masks = np.fromiter((m for m, _ in items), dtype=np.int64, count=len(items))
        coeffs = np.fromiter((c for _, c in items), dtype=np.int64, count=len(items))
        return cls(n, masks, coeffs)

    @classmethod
    def zero(cls, n: int) -> "MultilinearPoly":
        return cls(n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    @property
    def nvars(self) -> int:
        return self.n * self.n

    @property
    def terms(self) -> dict[int, int]:
        """Numerators by mask."""
        return {int(m): int(c) for m, c in zip(self.masks, self.coeffs)}

    def coeffs_at(self, masks) -> np.ndarray:
        """The int64 numerators at ``masks``, 0 where no term sits."""
        idx, found = _kernels.sorted_lookup(self.masks, masks)
        out = np.zeros(found.shape, dtype=np.int64)
        out[found] = self.coeffs[idx[found]]
        return out

    def coeff(self, mask: int) -> int | Fraction:
        """The coefficient at ``mask``: an int when the exponent is 0."""
        c = int(self.coeffs_at([mask])[0])
        return Fraction(c, 1 << self.shared_exponent) if self.shared_exponent else c

    def evaluate_signs(self, negative_mask: int) -> Fraction:
        """Exact value at the +/-1 point whose -1 coordinates are the set bits
        of ``negative_mask``."""
        parity = _kernels.popcount_array(self.masks & _input_mask(self.n, negative_mask)) & 1
        total = int(np.where(parity == 1, -self.coeffs, self.coeffs).sum())
        return Fraction(total, 1 << self.shared_exponent)

    def __len__(self) -> int:
        return len(self.masks)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MultilinearPoly) and self.n == other.n
                and self.shared_exponent == other.shared_exponent
                and np.array_equal(self.masks, other.masks)
                and np.array_equal(self.coeffs, other.coeffs))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        scale = f", /2^{self.shared_exponent}" if self.shared_exponent else ""
        return f"MultilinearPoly(n={self.n}, terms={len(self)}{scale})"


def _integral(p: MultilinearPoly) -> MultilinearPoly:
    """p itself, or ValueError when its coefficients are not integers."""
    if p.shared_exponent:
        raise ValueError(f"needs integer coefficients; this polynomial has a "
                         f"denominator of 2^{p.shared_exponent}")
    return p


# ---------------------------------------------------------------------------
# Transforms
# ---------------------------------------------------------------------------

def interpolate(table: TruthTable) -> MultilinearPoly:
    """The unique multilinear polynomial representing the table.

    Signed subset (Moebius) transform, one in-place pass per variable:
    a_S = sum over T subseteq S of (-1)^{|S minus T|} f(T).
    """
    n = table.n
    require_hard("interpolate", n)
    buf = table.bits.astype(np.int64)
    _kernels.check_transform_headroom(buf)
    _kernels.mobius_transform(buf, n * n)
    nz = np.nonzero(buf)[0]
    return MultilinearPoly(n, nz.astype(np.int64), buf[nz])


def evaluate_all(p: MultilinearPoly) -> np.ndarray:
    """Dense vector of p's values on every 0/1 input, by subset-sum."""
    require_hard("interpolate", p.n)
    buf = np.zeros(1 << p.nvars, dtype=np.int64)
    buf[p.masks] = _integral(p).coeffs
    _kernels.check_transform_headroom(buf)
    _kernels.zeta_transform(buf, p.nvars)
    return buf


def _boolean_values(p: MultilinearPoly) -> np.ndarray:
    """:func:`evaluate_all`, rejecting polynomials that are not 0/1-valued."""
    vals = evaluate_all(p)
    if vals.size and (vals.min() < 0 or vals.max() > 1):
        bad = int(np.nonzero((vals < 0) | (vals > 1))[0][0])
        raise ValueError(
            f"polynomial is not 0/1-valued (value {int(vals[bad])} at mask {bad:#x})")
    return vals


def to_truth_table(p: MultilinearPoly) -> TruthTable:
    """Evaluate everywhere and repackage; rejects non-0/1-valued polynomials."""
    return TruthTable(p.n, _boolean_values(p).astype(np.uint8))


def evaluate(p: MultilinearPoly, g: BipartiteGraph | int) -> int:
    """Exact value of p on the 0/1 input given by a graph (or raw mask)."""
    if isinstance(g, BipartiteGraph) and g.n != p.n:
        raise ValueError(f"graph has n={g.n}, polynomial has n={p.n}")
    mask = g.mask if isinstance(g, BipartiteGraph) else _input_mask(p.n, int(g))
    inside = (p.masks & ~mask) == 0
    return int(_integral(p).coeffs[inside].sum())


def _signed_superset_sums(p: MultilinearPoly, weights: np.ndarray,
                          constant: int) -> tuple[np.ndarray, np.ndarray]:
    """The one dense transform behind :func:`dualize` and :func:`to_fourier`.

    With w_T = ``weights`` at p's masks (zero elsewhere), returns the nonzero
    c_S ascending by S: c_S = (-1)^{|S|+1} * sum over T supseteq S of w_T for
    nonempty S, and c_0 = ``constant`` - sum of all w_T.  p must be
    0/1-valued; that is checked first, on a buffer freed before the
    transform buffer is made.
    """
    _boolean_values(p)
    buf = np.zeros(1 << p.nvars, dtype=np.int64)
    buf[p.masks] = weights
    _kernels.check_transform_headroom(buf)
    _kernels.superset_sum_transform(buf, p.nvars)
    buf[0] = constant - buf[0]
    nz = np.nonzero(buf)[0]
    vals = buf[nz]
    parity = _kernels.popcount_array(nz) & 1
    signed = np.where(parity == 1, vals, -vals)
    if nz.size and nz[0] == 0:
        signed[0] = vals[0]  # constant term already final
    return nz.astype(np.int64), signed


def dualize(p: MultilinearPoly) -> MultilinearPoly:
    """Polynomial of the dual function x -> 1 - f(1-x) of a 0/1-valued p.

    The dual coefficient at S is (-1)^{|S|+1} * sum over T supseteq S of
    a_T, plus 1 on the constant term.
    """
    require_hard("interpolate", p.n)
    return MultilinearPoly(p.n, *_signed_superset_sums(p, p.coeffs, 1))


def to_fourier(p: MultilinearPoly) -> MultilinearPoly:
    """Fourier expansion of the Boolean function represented by ``p``.

    In the {1,-1} basis with 1 encoding False, the coefficient at S is
    (-1)^{|S|-1} * sum over T supseteq S of a_T / 2^{|T|-1}, plus 1 on the
    constant term.  Everything is scaled by 2^{n^2-1} so the superset sums
    stay integral; the shared exponent is then reduced to normal form.
    """
    require_hard("poly-fourier", p.n)
    nvars = p.nvars
    weights = p.coeffs << (nvars - _kernels.popcount_array(p.masks))
    return MultilinearPoly(p.n, *_signed_superset_sums(p, weights, 1 << (nvars - 1)),
                           shared_exponent=nvars - 1)


# ---------------------------------------------------------------------------
# Degrees and norms
# ---------------------------------------------------------------------------

def deg(p: MultilinearPoly) -> int | None:
    """Real degree: largest monomial size, None for the zero polynomial."""
    if not len(p):
        return None
    return int(_kernels.popcount_array(p.masks).max())


def deg2(p: MultilinearPoly) -> int | None:
    """Degree over GF(2): largest monomial with an odd coefficient.

    Reducing the integer coefficients mod 2 gives the GF(2) representation,
    so only parity matters.  None when every coefficient is even.
    """
    odd = (_integral(p).coeffs & 1) == 1
    if not np.any(odd):
        return None
    return int(_kernels.popcount_array(p.masks[odd]).max())


def monomial_count(p: MultilinearPoly) -> int:
    return len(p)


def l1_norm(p: MultilinearPoly) -> int:
    return int(np.abs(_integral(p).coeffs).sum()) if len(p) else 0


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _row_edges(n: int) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
    """table[i][r] = the 1-based edges (i+1, j+1) of 0-based row i holding
    the n-bit neighbour set r, ascending by column."""
    return tuple(tuple(tuple((i + 1, j + 1) for j in range(n) if (r >> j) & 1)
                       for r in range(1 << n))
                 for i in range(n))


@lru_cache(maxsize=None)
def _row_vars(n: int) -> tuple[tuple[str, ...], ...]:
    """table[i][r] = the variable names of row i's edges, each followed by a
    space, so a term's variables are the join of its rows minus the last
    character."""
    return tuple(tuple("".join(f"x_{{{a},{b}}} " for a, b in edges) for edges in row)
                 for row in _row_edges(n))


def _text_order(masks: np.ndarray) -> np.ndarray:
    degrees = _kernels.popcount_array(masks)
    return np.lexsort((masks, degrees))


def to_text(p: MultilinearPoly) -> str:
    """One term per line, sorted by (degree, mask); coefficient magnitude 1 is
    left implicit, other coefficients print as reduced fractions."""
    if not len(p):
        return "0\n"
    den = 1 << p.shared_exponent
    n = p.n
    table = _row_vars(n)
    full = (1 << n) - 1
    lines = []
    order = _text_order(p.masks)
    for mask, c in zip(p.masks[order].tolist(), p.coeffs[order].tolist()):
        sign = "-" if c < 0 else "+"
        mag = abs(c) if den == 1 else Fraction(abs(c), den)
        coeff_str = "" if mag == 1 else str(mag)
        vars_str = "".join([table[i][(mask >> (n * i)) & full] for i in range(n)])[:-1]
        if not mask:
            body = coeff_str or "1"
        elif coeff_str:
            body = f"{coeff_str} {vars_str}"
        else:
            body = vars_str
        lines.append(f"{sign} {body}")
    return "\n".join(lines) + "\n"


def to_json_dict(p: MultilinearPoly, basis: str) -> dict:
    """JSON-ready document; terms ascending by mask.  Fourier documents carry
    the shared exponent, and each ``coeff`` is the integer numerator at that
    scale."""
    n = p.n
    doc: dict = {"n": n, "basis": basis}
    if basis == "fourier":
        doc["shared_exponent"] = p.shared_exponent
    full = (1 << n) - 1
    # [i, j] lists made once per document and shared by its terms
    rows = [[[list(e) for e in edges] for edges in row] for row in _row_edges(n)]
    doc["terms"] = [
        {
            "mask": f"{m:#x}",
            "edges": [e for i in range(n) for e in rows[i][(m >> (n * i)) & full]],
            "coeff": c,
        }
        for m, c in zip(p.masks.tolist(), p.coeffs.tolist())
    ]
    return doc
