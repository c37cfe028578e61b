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
from typing import Callable, Iterator, Mapping

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
        integral = vals.dtype.kind in "biu"  # two reductions, no table-sized temporaries
        if vals.size and not (vals.min() >= 0 and vals.max() <= 1 if integral
                              else np.all((vals == 0) | (vals == 1))):
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

# List elements (text terms, JSON terms, lattice nodes or covers) rendered
# per write.  Measured on 2 Xeon cores, warm medians of 15 interleaved
# rounds to a discarding sink, two runs: at 256 the n = 5 dual text
# (95,161 terms) takes 10.6 to 10.9 ms against 11.0 to 12.4 at 128 and
# 9.9 to 11.0 at 1,024; the n = 4 Fourier JSON 17.3 to 18.5 ms against
# 17.8 to 19.1 at 1,024; the n = 5 dual JSON 28.4 to 30.9 ms against 39.1
# to 42.4 at 1,024; the n = 4 lattice JSON 6.7 to 7.7 ms at every size.
# The benchmark pass of `poly --n 5 --basis dual` peaks at 70.6 to 70.7
# MiB, against 70.6 at 128, 71.8 at 512 and 73.0 at 1,024 (4 fresh
# processes each).
_BATCH = 256

# elements whose index rows are computed at once, in whole batches.  At
# 65,536 (the n = 4 Fourier document in one block) `poly --n 4 --basis
# fourier --format json` peaked at 37.3 MiB against 35.6 at 8,192, and
# wrote in 14.5 ms against 13.0 to 13.4 (same host, fresh processes)
_BLOCK = 8192


def _joined_batches(pieces: np.ndarray, count: int,
                    rows: Callable[[int, int], np.ndarray],
                    masks: np.ndarray | None = None) -> Iterator[str]:
    """The text of elements 0 to ``count`` - 1, :data:`_BATCH` elements per
    batch, each batch one gather from the object table ``pieces`` and one
    join.

    ``rows(lo, hi)`` returns the integer index of elements lo to hi - 1, a
    row each, for blocks of whole batches of about :data:`_BLOCK` elements.
    Element k's text is the entries of ``pieces`` at its row; with
    ``masks``, they follow the opening of a JSON object and its ``mask``
    key, ``hex(masks[k])``."""
    block = _BATCH * max(1, _BLOCK // _BATCH)
    for lo in range(0, count, block):
        index = rows(lo, min(lo + block, count))
        for a in range(0, len(index), _BATCH):
            take = pieces.take(index[a:a + _BATCH])
            if masks is None:
                yield "".join(take.ravel().tolist())
                continue
            flat = np.empty((len(take), 2 + take.shape[1]), dtype=object)
            flat[:, 0] = _MASK_OPEN
            flat[:, 1] = list(map(hex, masks[lo + a:lo + a + len(take)].tolist()))
            flat[:, 2:] = take
            yield "".join(flat.ravel().tolist())


def _write_document(write, head: dict, lists: dict) -> None:
    r"""Write ``json.dumps(doc, indent=2) + "\n"`` for the dict holding the
    scalars of ``head`` and then the lists of ``lists``.

    A list is given as ``(pieces, count, rows, masks)``, its elements at
    indent 4 rendered by :func:`_joined_batches`.  Every element's last
    piece ends it with ",\n", but for the last element's, which ``pieces``
    holds as its last entry."""
    text = "{" + "".join(f"\n  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items())
    for key, (pieces, count, rows, masks) in lists.items():
        def closed(lo: int, hi: int) -> np.ndarray:
            index = rows(lo, hi)
            if hi == count:
                index[-1, -1] = len(pieces) - 1
            return index

        write(f"{text}\n  {json.dumps(key)}: [" + ("\n" if count else ""))
        for batch in _joined_batches(pieces, count, closed, masks):
            write(batch)
        text = "\n  ]," if count else "],"
    write(text[:-1] + "\n}\n")


def _row_groups(n: int, word: str) -> list[np.ndarray]:
    """A term's variables, a group of rows at a time: rows 2k and 2k + 1 at
    n <= 5, single rows above, so no group has more than 2^10 entries.
    Entry v of a group's object array joins ``word.format(i, j)`` over the
    1-based edges (i, j) of the set bits of the group's bits v, ascending."""
    per = 2 if n <= 5 else 1
    groups = []
    for first in range(0, n, per):
        words = np.array([word.format(first + b // n + 1, b % n + 1)
                          for b in range(n * min(per, n - first))], dtype=object)
        groups.append(_kernels.subset_fold(words, np.add, ""))
    return groups


@_kernels.frozen_cache
def _text_groups(n: int) -> tuple[np.ndarray, ...]:
    """Read-only object tables of :func:`_row_groups`' ``" x_{i,j}"`` words;
    the last table's entries end in ``"\\n"``."""
    tables = _row_groups(n, " x_{{{},{}}}")
    tables[-1] += "\n"
    return tuple(tables)


# a JSON term or lattice node opens with _MASK_OPEN and its hex mask, and
# ends with _OBJECT_SEP, or with _OBJECT_CLOSE when it is its list's last
_MASK_OPEN = '    {\n      "mask": "'
_OBJECT_SEP = "\n    },\n"
_OBJECT_CLOSE = "\n    }"
_EDGES_OPEN = '",\n      "edges": [\n'


def _json_groups(n: int) -> tuple[np.ndarray, ...]:
    """Object tables of a term's ``edges`` list, one per
    :func:`_row_groups` group.  Entry v of a group of 2^b entries is the JSON
    ``[i, j]`` at indent 8 of each of its edges, each followed by ",\\n";
    entry 2^b + v, read by the group holding the term's last nonempty row,
    ends its last edge with the list's closing bracket instead.  Group 0's
    entries open with the mask's closing quote and the ``edges`` key, and
    its entry 2^b is the whole empty list, for the zero mask.  Built per
    call, not cached: the n = 4 tables held across the later commands of a
    process raised the benchmark's peak RSS by 0.4 MiB."""
    form = "        [\n          {},\n          {}\n        ],\n"
    tables = []
    for g, table in enumerate(_row_groups(n, form)):
        head = _EDGES_OPEN if g == 0 else ""
        last = [head + t[:-2] + "\n      ]" if t else "" for t in table]
        if g == 0:
            last[0] = '",\n      "edges": []'
        tables.append(np.array([head + t for t in table] + last, dtype=object))
    return tuple(tables)


def _json_tails(key: str, values: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Object table of a JSON object's last member, ``key``, and the
    object's end.  Entry i holds ``values[i]`` and ends with
    :data:`_OBJECT_SEP`; one more entry, for the list's last object, holds
    ``last[-1]`` and ends with :data:`_OBJECT_CLOSE` (none for an empty
    ``last``)."""
    return np.array([f',\n      "{key}": {v}{_OBJECT_SEP}' for v in values.tolist()]
                    + [f',\n      "{key}": {v}{_OBJECT_CLOSE}' for v in last[-1:].tolist()],
                    dtype=object)


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
    entry per group of rows.  Each batch of :data:`_BATCH` terms is then
    one gather and one join (:func:`_joined_batches`)."""
    if not len(p):
        write("0\n")
        return
    values, heads = _text_heads(p)
    groups = _text_groups(p.n)
    pieces = np.concatenate((heads,) + groups)
    # the masks ascend, so a stable sort by degree orders by (degree, mask)
    order = np.argsort(np.bitwise_count(p.masks), kind="stable")

    def rows(lo: int, hi: int) -> np.ndarray:
        idx = order[lo:hi]
        masks = p.masks[idx]
        index = np.empty((hi - lo, 1 + len(groups)), dtype=np.intp)
        index[:, 0] = np.searchsorted(values, p.coeffs[idx]) + len(values) * (masks == 0)
        start, shift = len(heads), 0
        for g, table in enumerate(groups, 1):  # a table of 2^b entries reads the next b bits
            index[:, g] = start + ((masks >> shift) & (len(table) - 1))
            start += len(table)
            shift += len(table).bit_length() - 1
        return index

    for text in _joined_batches(pieces, len(p), rows):
        write(text)


def to_text(p: MultilinearPoly) -> str:
    """:func:`write_text` as one string."""
    chunks: list[str] = []
    write_text(p, chunks.append)
    return "".join(chunks)


def write_json(p: MultilinearPoly, basis: str, write) -> None:
    """Write ``p``'s JSON document to ``write`` at indent 2, terms ascending
    by mask.  Fourier documents carry the shared exponent, and each
    ``coeff`` is the integer numerator at that scale.

    A term is its hex mask, then entries of one object table: one
    :func:`_json_groups` entry per group of rows, and its coefficient with
    the separator to the next term (or, for the last term, the closing
    brace), from a table of the distinct numerators.  A block of batches is
    one integer index into the table, a row per term, and each batch of
    :data:`_BATCH` terms is one gather and one join
    (:func:`_joined_batches`)."""
    n = p.n
    head: dict = {"n": n, "basis": basis}
    if basis == "fourier":
        head["shared_exponent"] = p.shared_exponent
    groups = _json_groups(n)
    values = _kernels.distinct_sorted(p.coeffs)
    pieces = np.concatenate(groups + (_json_tails("coeff", values, p.coeffs),))
    bits = (len(groups[0]) // 2).bit_length() - 1  # of every group but the last

    def rows(lo: int, hi: int) -> np.ndarray:
        masks = p.masks[lo:hi]
        index = np.empty((hi - lo, len(groups) + 1), dtype=np.intp)
        # the group of the last nonempty row, 0 for the zero mask
        top = np.maximum(np.frexp(masks)[1] - 1, 0) // bits
        start = 0
        for g, table in enumerate(groups):
            half = len(table) // 2
            index[:, g] = start + ((masks >> (g * bits)) & (half - 1)) + half * (top == g)
            start += len(table)
        index[:, -1] = start + np.searchsorted(values, p.coeffs[lo:hi])
        return index

    _write_document(write, head, {"terms": (pieces, len(p), rows, p.masks)})


def to_json_dict(p: MultilinearPoly, basis: str) -> dict:
    """:func:`write_json`'s document, parsed."""
    chunks: list[str] = []
    write_json(p, basis, chunks.append)
    return json.loads("".join(chunks))
