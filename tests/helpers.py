"""Brute-force oracles, deliberately independent of the package internals.

Everything here works from first principles (permutation scans, union-find,
subset enumeration) so that agreement with the package is evidence, not
circularity.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from functools import lru_cache

import numpy as np
from hypothesis import strategies as st

from matchpoly import BipartiteGraph


def clear_caches():
    """Empty every lru cache of the loaded ``matchpoly`` modules, so the next
    call builds its tables and polynomials from nothing."""
    for name, module in list(sys.modules.items()):
        if name == "matchpoly" or name.startswith("matchpoly."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def graphs(n: int):
    for mask in range(1 << (n * n)):
        yield BipartiteGraph(n, mask)


def nonempty_graphs(n: int):
    for mask in range(1, 1 << (n * n)):
        yield BipartiteGraph(n, mask)


def oracle_has_pm(n: int, mask: int) -> bool:
    rows = [(mask >> (n * i)) & ((1 << n) - 1) for i in range(n)]
    return any(all((rows[i] >> perm[i]) & 1 for i in range(n))
               for perm in itertools.permutations(range(n)))


@lru_cache(maxsize=None)
def perm_masks(n: int) -> tuple[int, ...]:
    """Masks of all perfect matchings of K_{n,n}."""
    out = []
    for perm in itertools.permutations(range(n)):
        m = 0
        for i, j in enumerate(perm):
            m |= 1 << (n * i + j)
        out.append(m)
    return tuple(out)


def oracle_pm_union(n: int, mask: int) -> int:
    """Union of all perfect matchings contained in the graph."""
    out = 0
    for pm in perm_masks(n):
        if pm & ~mask == 0:
            out |= pm
    return out


def hall_violating_subset(g: BipartiteGraph):
    """A left subset X with |N(X)| < |X| if one exists, else None: the
    brute-force witness for Hall's condition."""
    n = g.n
    rows = [(g.mask >> (n * i)) & ((1 << n) - 1) for i in range(n)]
    for xs in range(1, 1 << n):
        members = [i for i in range(n) if (xs >> i) & 1]
        nb = 0
        for i in members:
            nb |= rows[i]
        if nb.bit_count() < len(members):
            return frozenset(i + 1 for i in members)
    return None


def oracle_is_mc_by_subsets(n: int, mask: int) -> bool:
    """Literal definition: some nonempty subset of the graph's matchings
    unions to the whole edge set."""
    pms = [pm for pm in perm_masks(n) if pm & ~mask == 0]
    for r in range(1, 1 << len(pms)):
        union = 0
        rr = r
        while rr:
            low = rr & -rr
            union |= pms[low.bit_length() - 1]
            rr ^= low
        if union == mask:
            return True
    return False


def oracle_chi(n: int, mask: int) -> int:
    """Cyclomatic number via union-find over all 2n vertices."""
    parent = list(range(2 * n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = 0
    for i in range(n):
        for j in range(n):
            if (mask >> (n * i + j)) & 1:
                edges += 1
                a, b = find(i), find(n + j)
                if a != b:
                    parent[a] = b
    comps = len({find(x) for x in range(2 * n)})
    return edges - 2 * n + comps


def oracle_canonical_form(n: int, mask: int) -> int:
    """Smallest mask over every row permutation, column permutation and
    side swap, by trying all 2*(n!)^2 of them."""
    rowfull = (1 << n) - 1
    transposed = 0
    for i in range(n):
        for j in range(n):
            if (mask >> (n * i + j)) & 1:
                transposed |= 1 << (n * j + i)
    best = mask
    for m in (mask, transposed):
        rows = [(m >> (n * i)) & rowfull for i in range(n)]
        for sigma in itertools.permutations(range(n)):
            for tau in itertools.permutations(range(n)):
                cand = 0
                for i in range(n):
                    for j in range(n):
                        if (rows[sigma[i]] >> j) & 1:
                            cand |= 1 << (n * i + tau[j])
                best = min(best, cand)
    return best


def oracle_ferrers_orbit(n: int, rows: list[int]) -> list[int]:
    """Every graph reached from the graph with ``rows`` by permuting its rows
    and its columns, ascending: the distinct entries of the (n!, n!) array
    of masks, one per pair of a column and a row permutation."""
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    images = np.zeros((len(perms), n), dtype=np.int64)  # [tau, i]: row i under tau
    for i, r in enumerate(rows):
        for j in range(n):
            if (r >> j) & 1:
                images[:, i] |= np.int64(1) << perms[:, j]
    masks = (images[:, None, :] << (n * perms)[None, :, :]).sum(axis=-1)
    return np.unique(masks).tolist()


def oracle_row_automaton(n: int, start, successors):
    """A queue-driven breadth-first row automaton from ``start``: (T, states).

    ``successors(state)`` lists the state after each of the 2^n rows, and
    states are numbered in the order the search meets them, so ``start`` is
    state 0.  ``T[state, row]`` is a table of the smallest unsigned dtype
    that holds every state number."""
    states = [start]
    index = {start: 0}
    trans: list[int] = []
    for state in states:  # grows while it is read: a breadth-first search
        for nxt in successors(state):
            if nxt not in index:
                index[nxt] = len(states)
                states.append(nxt)
            trans.append(index[nxt])
    t = np.array(trans, dtype=np.min_scalar_type(len(states) - 1)).reshape(-1, 1 << n)
    return t, tuple(states)


@lru_cache(maxsize=None)
def _without_column(n: int) -> tuple[int, ...]:
    """Word c has bit S set iff column c is not in subset S."""
    return tuple(sum(1 << s for s in range(1 << n) if not (s >> c) & 1) for c in range(n))


def _grown(n: int, family: int) -> list[int]:
    """Word c has bit S | {c} for every set S of ``family`` that misses c."""
    return [(family & w) << (1 << c) for c, w in enumerate(_without_column(n))]


def family_words(members) -> tuple[int, ...]:
    """Each boolean member row of ``_family_automaton`` as the int with bit S
    for each set S the row holds."""
    packed = np.packbits(members, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in packed)


def oracle_family_automaton(n: int):
    """The matchable-family automaton as (T, words), one family at a time:
    a family is the 2^n-bit int of its column sets (bit S for set S), and
    row r steps it to S | {c} for every S in it and every c in r \\ S."""
    def successors(family: int) -> list[int]:
        added = _grown(n, family)
        nxt = [0] * (1 << n)
        for row in range(1, 1 << n):
            low = row & -row
            nxt[row] = nxt[row ^ low] | added[low.bit_length() - 1]
        return nxt
    return oracle_row_automaton(n, 1, successors)


def oracle_reach_table(n: int) -> np.ndarray:
    """The reach table from the families as words, n <= 6: bit j of
    R[p, q] is set iff family q holds full ^ (S | {j}) for some S of family
    p that misses j.  Word j of :func:`_grown` holds S | {j} for each such
    S, and family q's sets are flipped to full ^ S, so one AND per pair and
    column decides the bit (a (states, states, n) uint64 temporary)."""
    words = oracle_family_automaton(n)[1]
    full = (1 << n) - 1
    flipped = np.array([sum(1 << (full ^ s) for s in range(full + 1) if (w >> s) & 1)
                        for w in words], dtype=np.uint64)
    grown = np.array([_grown(n, w) for w in words], dtype=np.uint64)
    hit = (grown[:, None, :] & flipped[None, :, None]) != 0
    return np.packbits(hit, axis=2, bitorder="little")[:, :, 0]


def oracle_component_automaton(n: int):
    """The component automaton as (T, states, F), one state at a time: a
    state is (blocks, zeros), the sorted blocks of touched columns and the
    zero rows read (capped at n); a nonzero row merges the blocks it meets
    with its columns, and F counts blocks, untouched columns and zeros."""
    @lru_cache(maxsize=None)  # shared by the n + 1 zero-row counts
    def merged(blocks: tuple[int, ...]) -> list[tuple[int, ...]]:
        # the blocks are disjoint, so their sum is their union
        return [tuple(sorted([b for b in blocks if not b & row]
                             + [row | sum(b for b in blocks if b & row)]))
                for row in range(1, 1 << n)]

    def successors(state: tuple) -> list[tuple]:
        blocks, zeros = state
        return [(blocks, min(zeros + 1, n))] + [(b, zeros) for b in merged(blocks)]
    trans, states = oracle_row_automaton(n, ((), 0), successors)
    f = np.array([len(blocks) + n - sum(blocks).bit_count() + zeros
                  for blocks, zeros in states], dtype=np.int64)
    return trans, states, f


def oracle_evaluate(terms: dict[int, int], mask: int) -> int:
    return sum(c for s, c in terms.items() if s & ~mask == 0)


def n5_uniform_or_dense():
    """Hypothesis strategy of n = 5 masks: uniform (each edge with
    probability 1/2) or dense (the union of two uniform masks, 3/4)."""
    uniform = st.integers(0, (1 << 25) - 1)
    return uniform | st.tuples(uniform, uniform).map(lambda ab: ab[0] | ab[1])


def oracle_text(p) -> str:
    """The text rendering of a ``MultilinearPoly``, one term at a time: terms
    sorted by (degree, mask), each line the sign, then the magnitude as a
    reduced fraction unless it is 1 (a constant prints its 1), then the
    variables ``x_{i,j}`` ascending by bit."""
    if not len(p):
        return "0\n"
    n, den = p.n, 1 << p.shared_exponent
    terms = sorted(zip(p.masks.tolist(), p.coeffs.tolist()),
                   key=lambda t: (t[0].bit_count(), t[0]))
    lines = []
    for mask, c in terms:
        mag = Fraction(abs(c), den)
        words = ([] if mag == 1 else [str(mag)]) + [
            f"x_{{{v // n + 1},{v % n + 1}}}" for v in range(n * n) if (mask >> v) & 1]
        lines.append(("-" if c < 0 else "+") + " " + (" ".join(words) or "1") + "\n")
    return "".join(lines)


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, reporting the first differing line and the line
    counts.  pytest's own report of two long unequal strings runs difflib
    over both, which takes minutes on a rendered polynomial."""
    if got == want:
        return
    a, b = got.splitlines(True), want.splitlines(True)
    bad = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    raise AssertionError(f"line {bad}: got {a[bad:bad + 1]!r}, want {b[bad:bad + 1]!r} "
                         f"({len(a)} lines, want {len(b)})")
