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

import json
from fractions import Fraction
from typing import Mapping

import numpy as np

from . import _kernels
from .bitgraph import BipartiteGraph
from .caps import require_hard


def _input_mask(n: int, mask: int) -> int:
    if not 0 <= mask < 1 << (n * n):
        raise ValueError(f"input mask {mask:#x} outside the variable range")
    return mask


class TruthTable:
    """Dense Boolean function table over all 2^(n^2) edge masks.

    ``bits`` is kept read-only, with no copy when it is a contiguous uint8
    array already: the caller's own array is then frozen too, so a write
    through it raises instead of changing the table."""

    __slots__ = ("n", "bits")

    def __init__(self, n: int, bits: np.ndarray):
        vals = np.asarray(bits)
        if vals.shape != (1 << (n * n),):
            raise ValueError(f"truth table for n={n} needs 2^{n * n} bits, got {vals.shape}")
        if vals.size and not np.all((vals == 0) | (vals == 1)):
            raise ValueError("truth table entries must be 0 or 1")
        self.n = n
        self.bits = _kernels.frozen(vals.astype(np.uint8, copy=False))

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

    ``masks`` and ``coeffs`` are kept read-only, with no copy when they are
    contiguous int64 arrays already (the n = 5 primal has 6.1M terms): the
    caller's own arrays are then frozen too (``coeffs`` unless a power of
    two moves into the exponent), so a write through them raises instead of
    changing the polynomial.
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
        self.masks = _kernels.frozen(masks)
        self.coeffs = _kernels.frozen(coeffs)
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

# JSON elements (terms, lattice nodes or covers) rendered per write.
# Measured on 2 Xeon cores, write_json to a discarding sink in a fresh
# process, median of 9: the n = 4 Fourier document took 32 to 54 ms at
# 1,024, 34 to 50 ms at 256 and 75 ms at 64, and 4,096 raised peak RSS by
# 6 MiB and 16,384 by 22 MiB.  The n = 5 dual (1 MB of text per 1,024
# terms) took 98 to 121 ms at 1,024 and 55 to 95 ms at 256 or 512; no
# benchmark workload writes it.
_BATCH = 1024

# Text terms rendered per write, each batch one gather from its block's
# index and one join (write_text).  On the same 2 cores, under load from
# other processes, the n = 5 dual (95,161 terms) renders warm in 14 ms at
# 1,024, 15.5 ms at 256, 16.6 ms at 128 and 19 ms at 64 (median of 9, two
# runs each).  The benchmark pass of `poly --n 5 --basis dual` peaked at
# 71.0 to 71.2 MiB at 128, against 70.7 at 64, 71.9 at 256 and 72.1 at
# 1,024 (3 fresh processes each).
_TEXT_BATCH = 128


def _write_batches(write, count: int, render, sep: str, size: int) -> None:
    """Write ``render(lo, hi)`` for consecutive slices of ``range(count)``,
    ``size`` at a time, with ``sep`` between them."""
    lead = ""
    for lo in range(0, count, size):
        write(lead + render(lo, min(lo + size, count)))
        lead = sep


def _write_document(write, head: dict, lists: dict) -> None:
    r"""Write ``json.dumps(doc, indent=2) + "\n"`` for the dict holding the
    scalars of ``head`` and then the lists of ``lists``.  A list is given as
    ``(count, render)``: ``render(lo, hi)`` returns its elements lo to hi - 1
    at indent 4, joined by ",\n"."""
    text = "{" + "".join(f"\n  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items())
    for key, (count, render) in lists.items():
        write(f"{text}\n  {json.dumps(key)}: [" + ("\n" if count else ""))
        _write_batches(write, count, render, ",\n", _BATCH)
        text = "\n  ]," if count else "],"
    write(text[:-1] + "\n}\n")


@_kernels.frozen_cache
def _row_edges(n: int) -> np.ndarray:
    """Read-only ``(n, 2^(n+1))`` object table of a term's ``edges`` list,
    row by row.  ``[i, r]`` is the JSON ``[a, b]`` at indent 8, each followed
    by ",\\n", of the 1-based edges (a, b) of 0-based row i holding the n-bit
    neighbour set r, ascending by column.  ``[i, 2^n + r]`` is the same text
    for the term's last nonempty row: no separator after its last edge, and
    the list's closing bracket; empty for r = 0, which only the zero mask
    reads there."""
    form = "        [\n          {},\n          {}\n        ],\n"
    table = np.empty((n, 2 << n), dtype=object)
    for i in range(n):
        for r in range(1 << n):
            text = "".join(form.format(i + 1, j + 1) for j in range(n) if r >> j & 1)
            table[i, r] = text
            table[i, (1 << n) + r] = text and text[:-2] + "\n      ]"
    return table


# a term's JSON around its mask, edges and coefficient: _TERM_HEAD is
# indexed by whether the term has an edge, and _TERM_SEP closes a term and
# opens the next
_TERM_OPEN = '    {\n      "mask": "'
_TERM_HEAD = np.array(['",\n      "edges": []', '",\n      "edges": [\n'], dtype=object)
_TERM_COEFF = ',\n      "coeff": '
_TERM_CLOSE = "\n    }"
_TERM_SEP = _TERM_CLOSE + ",\n" + _TERM_OPEN


@_kernels.frozen_cache
def _text_groups(n: int) -> tuple[np.ndarray, ...]:
    """Read-only object tables of a term's variables, a group of rows at a
    time: rows 2k and 2k + 1 at n <= 5, single rows above, so no table has
    more than 2^10 entries.  Entry v of a group's table is ``" x_{i,j}"``
    for each set bit of the group's bits v, ascending; the last table's
    entries end in ``"\\n"``."""
    per = 2 if n <= 5 else 1
    tables = []
    for first in range(0, n, per):
        words = [f" x_{{{first + b // n + 1},{b % n + 1}}}"
                 for b in range(n * min(per, n - first))]
        table = [""] * (1 << len(words))
        for v in range(1, len(table)):  # lowest bit first, then the rest
            low = v & -v
            table[v] = words[low.bit_length() - 1] + table[v ^ low]
        tables.append(np.array(table, dtype=object))
    tables[-1] += "\n"
    return tuple(tables)


def _text_heads(p: MultilinearPoly) -> tuple[np.ndarray, np.ndarray]:
    """The line heads (sign and magnitude) of a nonzero ``p``'s terms, as
    ``(values, heads)``.  ``values`` are the distinct numerators, ascending.
    Entry k of the object array ``heads`` is the head of a term with
    numerator ``values[k]``: ``"-"``, ``"+ 3"`` or ``"- 15/256"``, magnitude
    1 left implicit.  Entry ``len(values) + k`` is the head of a constant
    term, where magnitude 1 prints: ``"- 1"``."""
    den = 1 << p.shared_exponent
    values = _kernels.distinct_sorted(p.coeffs)
    heads = []
    for c in values.tolist():
        mag = abs(c) if den == 1 else Fraction(abs(c), den)
        heads.append(("-" if c < 0 else "+") + ("" if mag == 1 else f" {mag}"))
    heads += [h if len(h) > 1 else h + " 1" for h in heads]
    return values, np.array(heads, dtype=object)


def write_text(p: MultilinearPoly, write) -> None:
    """Write ``p`` to ``write``, one term per line, sorted by (degree, mask);
    coefficient magnitude 1 is left implicit, other coefficients print as
    reduced fractions.

    Every piece of a line is an entry of one object table: the heads, then
    each :func:`_text_groups` table, the last ending the line.  A block of
    batches is one integer index into it, a row per term: its head and one
    entry per group of rows.  Each batch of :data:`_TEXT_BATCH` terms is
    then one gather and one join."""
    if not len(p):
        write("0\n")
        return
    values, heads = _text_heads(p)
    groups = _text_groups(p.n)
    pieces = np.concatenate((heads,) + groups)
    # the masks ascend, so a stable sort by degree orders by (degree, mask)
    order = np.argsort(np.bitwise_count(p.masks), kind="stable")
    block = 64 * _TEXT_BATCH
    for lo in range(0, len(p), block):
        idx = order[lo:lo + block]
        masks = p.masks[idx]
        index = np.empty((len(idx), 1 + len(groups)), dtype=np.intp)
        index[:, 0] = np.searchsorted(values, p.coeffs[idx]) + len(values) * (masks == 0)
        start, shift = len(heads), 0
        for g, table in enumerate(groups, 1):  # a table of 2^b entries reads the next b bits
            index[:, g] = start + ((masks >> shift) & (len(table) - 1))
            start += len(table)
            shift += len(table).bit_length() - 1
        for a in range(0, len(idx), _TEXT_BATCH):
            write("".join(pieces.take(index[a:a + _TEXT_BATCH].ravel()).tolist()))


def to_text(p: MultilinearPoly) -> str:
    """:func:`write_text` as one string."""
    chunks: list[str] = []
    write_text(p, chunks.append)
    return "".join(chunks)


def write_json(p: MultilinearPoly, basis: str, write) -> None:
    """Write ``p``'s JSON document to ``write`` at indent 2, terms ascending
    by mask.  Fourier documents carry the shared exponent, and each
    ``coeff`` is the integer numerator at that scale.

    Each batch is one object array, a row per term: its hex mask, the
    ``edges`` head, one :func:`_row_edges` entry per row (the last nonempty
    row from the table's second half), the ``coeff`` key, the coefficient
    and the separator to the next term.  The batch's text is the join of
    the array after the first term's opening."""
    n = p.n
    head: dict = {"n": n, "basis": basis}
    if basis == "fourier":
        head["shared_exponent"] = p.shared_exponent
    table = _row_edges(n)

    def render(lo: int, hi: int) -> str:
        masks = p.masks[lo:hi]
        rows = _kernels.mask_rows(n, masks).astype(np.intp)
        top = n - 1 - np.argmax(rows[:, ::-1] != 0, axis=1)
        rows[np.arange(hi - lo), top] += 1 << n
        flat = np.empty(1 + (hi - lo) * (n + 5), dtype=object)
        flat[0] = _TERM_OPEN
        pcs = flat[1:].reshape(hi - lo, n + 5)
        pcs[:, 0] = list(map(hex, masks.tolist()))
        pcs[:, 1] = _TERM_HEAD[(masks != 0).view(np.int8)]
        for i in range(n):
            pcs[:, 2 + i] = table[i, rows[:, i]]
        pcs[:, -3] = _TERM_COEFF
        pcs[:, -2] = list(map(str, p.coeffs[lo:hi].tolist()))
        pcs[:, -1] = _TERM_SEP
        pcs[-1, -1] = _TERM_CLOSE
        return "".join(flat.tolist())

    _write_document(write, head, {"terms": (len(p), render)})


def to_json_dict(p: MultilinearPoly, basis: str) -> dict:
    """:func:`write_json`'s document, parsed."""
    chunks: list[str] = []
    write_json(p, basis, chunks.append)
    return json.loads("".join(chunks))
