"""Dense numpy kernels over the 2^(n^2) cube of edge masks.

Bit layout matches :mod:`matchpoly.bitgraph`: masks are integers whose bit
``(i-1)*n + (j-1)`` is edge ``(i, j)``, so a mask indexes the cached truth and
chi tables below; MC membership has no table, as the primal's terms are MC_n.
n = 5 sweeps (33.5M masks) are chunked: ``count --n 5 --what mc`` peaks at 56 MiB.
Each per-n table is built once per process under :func:`frozen_cache`, the
package's one decorator for per-n caches: it freezes the arrays a builder
returns, so every caller shares one read-only copy.

Two row automata come from one breadth-first builder, an array search
over int64 state keys: a state sums up the rows read so far, and a row
step is one lookup in T[state, row].  The matchable-family automaton's
state is the family of column sets those rows can be matched onto, one
row of a boolean member matrix over the 2^n sets; the component
automaton's is the partition of the columns they touch, plus the count of
zero rows.  A dense kernel is one gather through an automaton's
per-prefix state codes: the truth table (the member column of the full
set), the MC filter (through one reach table over the family states of
the rows before and after each row, built from the member rows a column
at a time) and the component counts behind chi.  Row steps, like every
table over the subsets of k parts in the package, come from one doubling
kernel, :func:`subset_fold`.

The signed walk at the end steps (key, weight) arrays of the family
automaton, for one graph or a batch of walks that read the same row, and
gives dual coefficients with no 2^(n^2) buffer at all; it needs no dense
table, so it also runs at n = 6 and 7.

Sweeps take their thread count from :func:`default_threads`: the count
scoped by :func:`thread_default` (the CLI's ``--threads``), else
MATCHPOLY_THREADS, else 1.
Sweeps run in windows of one chunk per thread and yield in index order, so
results never depend on scheduling and memory stays bounded by the window.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache, wraps
from typing import Callable, Iterable, Iterator

import numpy as np

# 1M masks per chunk: no slower than 4M, and the filter and chi temporaries
# each pool thread holds stay small enough to keep n = 5 peak RSS down
CHUNK_BITS = 20


_scoped_threads: ContextVar[int | None] = ContextVar("threads", default=None)


@contextmanager
def thread_default(threads: int) -> Iterator[None]:
    """Make :func:`default_threads` return ``threads`` inside the block."""
    token = _scoped_threads.set(threads)
    try:
        yield
    finally:
        _scoped_threads.reset(token)


def default_threads() -> int:
    scoped = _scoped_threads.get()
    if scoped is not None:
        return scoped
    env = os.environ.get("MATCHPOLY_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def map_chunks(fn: Callable[[int, int], object], total: int, threads: int) -> list:
    """Apply ``fn(lo, hi)`` over [0, total) in chunks of 2^CHUNK_BITS masks,
    on a pool of ``threads`` threads; results in index order."""
    chunk = 1 << CHUNK_BITS
    ranges = [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
    if threads <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    # imported here: concurrent.futures pulls in logging and queue, several
    # ms of every start of a command that never starts a pool
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))


def _stream_chunks(fn: Callable[[int, int], object], total: int) -> Iterator:
    """Yield ``fn(lo, hi)`` over [0, total) chunk by chunk, in index order.

    Each window of :func:`default_threads` chunks is one :func:`map_chunks`
    call, so no more than that many chunk results are held at once.
    """
    t = max(1, default_threads())
    window = t << CHUNK_BITS
    for start in range(0, total, window):
        yield from map_chunks(lambda lo, hi: fn(start + lo, start + hi),
                              min(window, total - start), t)


def frozen(arr: np.ndarray) -> np.ndarray:
    """``arr`` as a contiguous read-only array; no copy when it is
    contiguous already."""
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def frozen_cache(fn: Callable) -> Callable:
    """``lru_cache(maxsize=None)`` for a builder whose result every caller
    shares: a returned array, or each array in a returned tuple, is frozen
    (:func:`frozen`) once, when it is built.  Other values pass through."""
    @wraps(fn)
    def build(*args, **kwargs):
        out = fn(*args, **kwargs)
        if isinstance(out, tuple):
            return tuple(frozen(x) if isinstance(x, np.ndarray) else x for x in out)
        return frozen(out) if isinstance(out, np.ndarray) else out
    return lru_cache(maxsize=None)(build)


def popcount_array(arr: np.ndarray) -> np.ndarray:
    return np.bitwise_count(arr).astype(np.int64)


def sorted_lookup(keys: np.ndarray, queries) -> tuple[np.ndarray, np.ndarray]:
    """Where each of ``queries`` sits in the strictly ascending ``keys``:
    (idx, found), with keys[idx] == query wherever found.  Elsewhere idx is
    meaningless and may be len(keys)."""
    queries = np.asarray(queries)
    idx = np.searchsorted(keys, queries)
    found = idx < len(keys)
    found[found] = keys[idx[found]] == queries[found]
    return idx, found


def distinct_sorted(values) -> np.ndarray:
    """The distinct entries of ``values``, ascending.  A sort and a neighbour
    compare, not ``np.unique``: its first call in a process imports
    ``numpy.ma`` (13 ms)."""
    ordered = np.sort(np.asarray(values).ravel())
    keep = np.ones(ordered.shape, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def subset_fold(parts: np.ndarray, op: np.ufunc, empty) -> np.ndarray:
    """The table over every subset S of the k parts on the last axis (leading
    axes are a batch): entry S folds ``op`` over the parts in S, ascending,
    from ``empty``.  Built by doubling, one ``op`` per part:
    table[S | {j}] = op(table[S], parts[..., j]) for the 2^j sets S below j."""
    parts = np.asarray(parts)
    table = np.empty(parts.shape[:-1] + (1 << parts.shape[-1],), dtype=parts.dtype)
    table[..., 0] = empty
    for j in range(parts.shape[-1]):
        op(table[..., :1 << j], parts[..., j, None], out=table[..., 1 << j:2 << j])
    return table


# ---------------------------------------------------------------------------
# Row automata and the prefix codes read from them
# ---------------------------------------------------------------------------

def _row_automaton(n: int, start: int, step: Callable[[np.ndarray], np.ndarray]
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Breadth-first row automaton from the state key ``start``: (T, keys).

    A state is an int64 key, and ``step(keys)`` is the (len(keys), 2^n)
    matrix of the keys after each row.  The search steps its queue a block
    of states at a time, 2^20 transitions at most, and numbers the keys met
    for the first time in (state, row) order.  So states are numbered level
    by level, as a search that steps one state at a time numbers them, and
    ``start`` is state 0.  ``keys[state]`` is each state's key;
    ``T[state, row]`` is a table of the smallest unsigned dtype that holds
    every state number.
    """
    keys = np.array([start], dtype=np.int64)
    block, stepped, trans = max(1, (1 << 20) >> n), 0, []
    while stepped < len(keys):
        # stable sorts, so the first of equal keys is the one met first
        by_key = np.argsort(keys, kind="stable")  # the states numbered so far
        reached = step(keys[stepped:stepped + block]).ravel()
        stepped = min(stepped + block, len(keys))
        order = np.argsort(reached, kind="stable")
        reached = reached[order]
        first = np.ones(reached.shape, dtype=bool)
        np.not_equal(reached[1:], reached[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        distinct, met = reached[starts], order[starts]
        idx, found = sorted_lookup(keys[by_key], distinct)
        ids = np.where(found, by_key[np.minimum(idx, len(keys) - 1)], 0)
        new = np.flatnonzero(~found)
        new = new[np.argsort(met[new], kind="stable")]  # in the order the search meets them
        ids[new] = len(keys) + np.arange(len(new))
        step_ids = np.empty(order.shape, dtype=np.int32)
        step_ids[order] = np.repeat(ids, np.diff(starts, append=len(order)))
        trans.append(step_ids)
        keys = np.concatenate((keys, distinct[new]))
    dtype = np.min_scalar_type(len(keys) - 1)
    t = np.concatenate(trans, dtype=dtype, casting="unsafe").reshape(-1, 1 << n)
    return t, keys


@frozen_cache
def _family_automaton(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row automaton of the matchable column sets: (T, members); n <= 7.

    A state is the family of column sets that the rows read so far can be
    matched onto, held as the boolean row ``members[state]`` of length 2^n,
    True at each set S of the family; at state 0 only the empty set is.
    ``T[state, row]`` reads one more left vertex with neighbour row ``row``:
    S -> S | {c} for every S in the family and every c in row \\ S.  The empty family (no matching left)
    is state :data:`EMPTY_FAMILY` and absorbing.  The families are the bases
    of a transversal matroid, so few occur: 407 states at n = 5.

    After i rows every set of a nonempty family has i columns, so states
    are numbered level by level, and the search keys a family by its level i
    (above bit 4 * nibbles) over the bits of the C(n, i) sets of size i,
    ascending: 35 bits at most, at n = 7.  The empty family is key 0 at
    every level.  A step reads the key 4 bits at a time, each through a
    table of the sets they grow into per added column.  The member rows are
    the keys' bits spread out at the end.
    """
    if n > 7:
        raise ValueError(f"families pack into 64-bit keys only for n <= 7, got n={n}")
    sizes = [[s for s in range(1 << n) if s.bit_count() == i] for i in range(n + 1)]
    nibbles = (max(map(len, sizes)) + 3) // 4
    shift = 4 * nibbles  # the level sits above the set bits
    # grown[i, p, v, c]: the key of the sets S | {c}, c not in S, for the sets
    # S of level i whose bits are v in nibble p of the key
    grown = np.zeros((n + 1, nibbles, 16, n), dtype=np.int64)
    for i in range(n):
        rank = {s: k for k, s in enumerate(sizes[i + 1])}
        for k, s in enumerate(sizes[i]):
            p, b = divmod(k, 4)
            bit = [0 if s >> c & 1 else 1 << rank[s | 1 << c] | (i + 1) << shift
                   for c in range(n)]
            grown[i, p, 1 << b:2 << b] = grown[i, p, :1 << b] | np.array(bit)

    def step(keys: np.ndarray) -> np.ndarray:
        level = keys >> shift
        added = np.zeros((len(keys), n), dtype=np.int64)
        for p in range(nibbles):
            added |= grown[level, p, (keys >> 4 * p) & 15]
        return subset_fold(added, np.bitwise_or, 0)  # a row adds each of its columns

    trans, keys = _row_automaton(n, 1, step)
    level = keys >> shift
    members = np.zeros((len(keys), 1 << n), dtype=bool)
    for i, sets in enumerate(sizes):
        at = np.flatnonzero(level == i)  # the empty family, key 0, holds no set
        members[at[:, None], sets] = (keys[at, None] >> np.arange(len(sets))) & 1
    return trans, members


@frozen_cache
def _prefix_codes(n: int, automaton: Callable = _family_automaton) -> tuple[np.ndarray, ...]:
    """State codes C_0 .. C_{n-1} of a row automaton: C_k[p] is the state
    after the rows in the low k*n bits p of a mask, so every dense table
    below is one gather through them.  Row k is the high part of the next
    index, so C_{k+1} is T[C_k] transposed."""
    if n > 5:
        raise ValueError("dense tables stop at n=5")
    trans = automaton(n)[0]
    codes = [np.zeros(1, dtype=trans.dtype)]
    for _ in range(n - 1):
        codes.append(trans[codes[-1]].T.ravel())
    return tuple(codes)


@frozen_cache
def truth_table(n: int) -> np.ndarray:
    """uint8 array of length 2^(n^2): 1 iff the mask's graph has a perfect
    matching, i.e. iff the last row steps the state of the first n - 1 rows
    to a family holding the full set (the last column of its member row).
    """
    codes = _prefix_codes(n)[-1]
    trans, members = _family_automaton(n)
    matched = members[:, -1].astype(np.uint8)
    return np.take(matched[trans].T, codes, axis=1).reshape(-1)  # (last row, prefix)


# ---------------------------------------------------------------------------
# Matching-covered membership
# ---------------------------------------------------------------------------

@frozen_cache
def _reach_table(n: int) -> np.ndarray:
    """uint8 table R over pairs of automaton states: bit j of R[p, q] is set
    iff some column set S of family p avoids column j and family q holds the
    rest, full ^ (S | {j}).

    With p the state of the rows before row i and q that of the rows after
    it, bit j says that edge (i, j), present or not, lies on a perfect
    matching of the graph with that edge added.

    Per column j, the 2^(n-1) sets S that avoid j are packed twice into one
    uint64 word per state, from the member rows: bit k of ``ours[p]`` is
    whether family p holds the k-th such S, of ``theirs[q]`` whether family q
    holds its rest.  Bit j of R[p, q] is then ``ours[p] & theirs[q] != 0``.
    """
    members = _family_automaton(n)[1]
    full = (1 << n) - 1
    sets = np.arange(full + 1)
    weights = np.uint64(1) << np.arange(len(sets) // 2, dtype=np.uint64)  # bit k: the k-th S
    reach = np.zeros((len(members),) * 2, dtype=np.uint8)
    for j in range(n):
        avoid = sets[(sets >> j) & 1 == 0]
        ours = (members[:, avoid] * weights).sum(axis=1, dtype=np.uint64)
        theirs = (members[:, full ^ avoid ^ 1 << j] * weights).sum(axis=1, dtype=np.uint64)
        reach |= ((ours[:, None] & theirs) != 0).view(np.uint8) << np.uint8(j)
    return reach


def _row_reach(n: int, i: int, masks: np.ndarray) -> np.ndarray:
    """The uint8 word of columns j for which edge (i, j), present or not,
    lies on a perfect matching of mask + (i, j), for 0-based row i.

    The column sets a block of rows can be matched onto depend only on the
    rows' neighbourhoods, so the rows after i are coded like a prefix."""
    codes = _prefix_codes(n)
    before = codes[i][masks & np.uint32((1 << (n * i)) - 1)]
    after = codes[n - 1 - i][masks >> np.uint32(n * (i + 1))]
    return _reach_table(n)[before, after]


def _row_allowed(n: int, i: int, masks: np.ndarray) -> np.ndarray:
    """True where every present edge in 0-based row i is allowed."""
    row = (masks >> np.uint32(n * i)) & np.uint32((1 << n) - 1)
    return (row & ~_row_reach(n, i, masks)) == 0


def mc_flags_for_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """Boolean MC membership for an arbitrary vector of masks, n <= 5.

    MC == nonempty and every present edge is allowed (lies on a perfect
    matching).  Edges are decided row by row from the automaton states of
    the rows before and after each row.  The last row goes first: a nonempty
    last row whose edges are all allowed already certifies a perfect
    matching, so only its survivors are compressed and tested on the other
    rows.
    """
    masks = np.asarray(masks).astype(np.uint32, copy=False)
    last = n - 1
    flags = (masks >> np.uint32(n * last)) != 0
    flags &= _row_allowed(n, last, masks)
    idx = np.flatnonzero(flags)
    live = masks[idx]
    for i in range(last):
        keep = _row_allowed(n, i, live)
        idx, live = idx[keep], live[keep]
    out = np.zeros(masks.shape, dtype=bool)
    out[idx] = True
    return out


def allowed_edge_masks(n: int, masks: np.ndarray) -> np.ndarray:
    """The union of all perfect matchings of each mask (its allowed edges),
    0 where the mask has none, as uint32; n <= 5."""
    masks = np.asarray(masks).astype(np.uint32, copy=False)
    out = np.zeros(masks.shape, dtype=np.uint32)
    for i in range(n):
        out |= _row_reach(n, i, masks).astype(np.uint32) << np.uint32(n * i)
    out &= masks
    return out


def mask_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """The (m, n) uint8 matrix of rows: column i holds row i of each mask."""
    masks = np.asarray(masks)
    full = masks.dtype.type((1 << n) - 1)
    rows = np.empty(masks.shape + (n,), dtype=np.uint8)
    for i in range(n):
        rows[..., i] = (masks >> masks.dtype.type(n * i)) & full
    return rows


def mask_bits(n: int, masks: np.ndarray) -> np.ndarray:
    """The (m, n^2) uint8 matrix of edge bits: column v holds bit v of each
    mask."""
    mask_bytes = np.asarray(masks).astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    return np.unpackbits(mask_bytes, axis=1, count=n * n, bitorder="little")


def mc_flags_for_range(n: int, lo: int, hi: int) -> np.ndarray:
    """Boolean MC membership for the contiguous mask range [lo, hi)."""
    return mc_flags_for_masks(n, np.arange(lo, hi, dtype=np.uint32))


def _mc_chunk(n: int, lo: int, hi: int) -> np.ndarray:
    return np.flatnonzero(mc_flags_for_range(n, lo, hi)) + lo


def stream_mc_masks(n: int) -> Iterator[np.ndarray]:
    """Yield sorted int64 arrays of MC_n masks, chunk by chunk."""
    return _stream_chunks(lambda lo, hi: _mc_chunk(n, lo, hi), 1 << (n * n))


# ---------------------------------------------------------------------------
# Component counts / cyclomatic numbers on vectors of masks
# ---------------------------------------------------------------------------

@frozen_cache
def _component_automaton(n: int) -> tuple[np.ndarray, tuple, np.ndarray]:
    """Row automaton of the component count: (T, states, F).

    A state is (blocks, zeros): the partition into blocks of the columns
    the rows read so far touch, and how many of those rows are zero, capped
    at n.  A nonzero row merges every block that meets it with its columns.
    ``F[state]`` counts the blocks, the untouched columns and ``zeros``;
    there are (n + 1) * Bell(n + 1) states.

    The search keys a state by n fields of n bits, field j the block that
    holds column j (0 while j is untouched), with ``zeros`` above them.
    """
    full, zero_row = (1 << n) - 1, 1 << (n * n)
    columns = np.arange(n, dtype=np.int64)
    spread = subset_fold(1 << n * columns, np.bitwise_or, 0)  # [U]: bit n * j for each j in U

    def step(keys: np.ndarray) -> np.ndarray:
        blocks = (keys[:, None] >> n * columns) & full
        # merged[:, row]: the columns of row and of every block it meets
        merged = subset_fold(blocks | 1 << columns, np.bitwise_or, 0)
        spread_rows = spread[merged]
        out = keys[:, None] & ~(spread_rows * full) | spread_rows * merged
        out[:, 0] = keys + zero_row * (keys < n * zero_row)
        return out

    trans, keys = _row_automaton(n, 0, step)
    states = tuple((tuple(sorted({key >> (n * j) & full for j in range(n)} - {0})),
                    key >> (n * n)) for key in keys.tolist())
    f = np.array([len(blocks) + n - sum(blocks).bit_count() + zeros
                  for blocks, zeros in states], dtype=np.int64)
    return trans, states, f


def component_counts(n: int, masks: np.ndarray) -> np.ndarray:
    """|C(G)| for each mask, counting all 2n vertices, as int64; n <= 5.

    The state of :func:`_component_automaton` after the first n - 1 rows is
    one prefix-code gather, and the last row is one step.  Each block of the
    final state is one component holding left and right vertices, each
    untouched column an isolated right vertex, and each zero row an
    isolated left vertex.
    """
    trans, _, count = _component_automaton(n)
    masks = np.asarray(masks).astype(np.min_scalar_type((1 << (n * n)) - 1), copy=False)
    width = n * (n - 1)
    prefix = masks & masks.dtype.type((1 << width) - 1)
    state = _prefix_codes(n, _component_automaton)[-1][prefix]
    return count[trans[state, masks >> masks.dtype.type(width)]]


def chi_values(n: int, masks: np.ndarray) -> np.ndarray:
    """Cyclomatic numbers |E| - 2n + |C| for each mask."""
    return popcount_array(masks) - 2 * n + component_counts(n, masks)


@frozen_cache
def chi_table(n: int) -> np.ndarray:
    """Dense cyclomatic-number table for all masks, n <= 4."""
    if n > 4:
        raise ValueError("dense chi tables stop at n=4; use chi_values")
    return chi_values(n, np.arange(1 << (n * n), dtype=np.int64)).astype(np.int8)


# ---------------------------------------------------------------------------
# Matching-covered masks with their primal signs
# ---------------------------------------------------------------------------

def stream_mc_signs(n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`stream_mc_masks` with the primal coefficients (-1)^chi (int8);
    the chunk worker runs both the filter and chi, so on the pool threads."""
    def chunk(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        mc = _mc_chunk(n, lo, hi)
        return mc, (1 - 2 * (chi_values(n, mc) & 1)).astype(np.int8)
    return _stream_chunks(chunk, 1 << (n * n))


# ---------------------------------------------------------------------------
# In-place subset transforms (one pass per variable)
# ---------------------------------------------------------------------------

def _passes(values: np.ndarray, nvars: int, op: Callable[[np.ndarray, np.ndarray], None]) -> None:
    for v in range(nvars):
        step = 1 << v
        view = values.reshape(-1, 2 * step)
        op(view[:, step:], view[:, :step])


def mobius_transform(values: np.ndarray, nvars: int) -> None:
    """In place: values[S] <- sum_{T subseteq S} (-1)^{|S \\ T|} values[T]."""
    def op(hi, lo):
        hi -= lo
    _passes(values, nvars, op)


def zeta_transform(values: np.ndarray, nvars: int) -> None:
    """In place: values[S] <- sum_{T subseteq S} values[T]."""
    def op(hi, lo):
        hi += lo
    _passes(values, nvars, op)


def superset_sum_transform(values: np.ndarray, nvars: int) -> None:
    """In place: values[S] <- sum_{T supseteq S} values[T]."""
    def op(hi, lo):
        lo += hi
    _passes(values, nvars, op)


def superset_or_transform(values: np.ndarray, nvars: int) -> None:
    """In place: values[S] <- OR over T supseteq S of values[T]."""
    def op(hi, lo):
        lo |= hi
    _passes(values, nvars, op)


def check_transform_headroom(values: np.ndarray) -> None:
    """Guard against int64 overflow: every intermediate of the transforms is
    a +/-1 combination of distinct inputs, so the l1 norm bounds everything.

    The norm is summed in fixed slices, so no full-size temporary is made."""
    flat = values.reshape(-1)
    step = 1 << 20
    l1 = sum(int(np.abs(flat[lo:lo + step].astype(np.int64, copy=False)).sum())
             for lo in range(0, flat.size, step))
    if l1 >= 1 << 62:
        raise OverflowError("transform values exceed the int64 fast path")


# ---------------------------------------------------------------------------
# Signed matchable-family automaton
# ---------------------------------------------------------------------------

# every walk starts at state 0, where only the empty column set is matchable
FAMILY_START = (np.zeros(1, dtype=np.int64), np.ones(1, dtype=np.int64))
EMPTY_FAMILY = 1  # the first state that row 0 reaches from state 0


@frozen_cache
def _subset_steps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row steps of the signed walk as a CSR table (offsets, rows,
    signs): for the row s, ``rows[offsets[s]:offsets[s + 1]]`` is
    ``full ^ T`` for every T subseteq s and ``signs`` the matching
    (-1)^{|s \\ T|}, float64 as the walk sums in float64; 3^n entries in
    all."""
    subsets = np.arange(1 << n)
    inside = (subsets[:, None] & subsets[None, :]) == subsets[None, :]  # [s, T]: T subseteq s
    owner, sub = np.nonzero(inside)
    offsets = np.zeros((1 << n) + 1, dtype=np.int64)
    np.cumsum(inside.sum(axis=1), out=offsets[1:])
    signs = (1 - 2 * (popcount_array(owner ^ sub) & 1)).astype(np.float64)
    return offsets, ((1 << n) - 1) ^ sub, signs


def signed_family_step(n: int, walk: tuple[np.ndarray, np.ndarray], s: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """One row S_i of the signed family automaton, for a batch of walks.

    ``walk`` is (keys, weights), two int64 arrays, keys ascending: key
    g * len(T) + state is a state of walk g = 0, 1, ..., so a lone walk's
    keys are its states.  Every state steps on the row ``full ^ T_i`` for
    each T_i subseteq S_i, with weight (-1)^{|S_i \\ T_i|}, read from
    :func:`_subset_steps`.  Returns the (keys, weights) reached, ascending,
    without the empty family (no matching left) or zero weights.

    The weights are summed in one dense float64 table of len(T) entries per
    walk, up to the last walk, so callers step a few walks at a time.  The
    automaton numbers states level by level, and the states of a walk share
    a level, so every state a walk reaches (but the empty family) is
    numbered after its states: the table is read from walk 0's first state
    on.  After i rows every partial sum is at most 2^(n*i) in magnitude, so
    the sums are exact for n <= 7, and larger n is rejected.
    """
    if n > 7:
        raise ValueError(f"the signed walk is exact only for n <= 7, got n={n}")
    trans = _family_automaton(n)[0]
    offsets, rows, signs = _subset_steps(n)
    lo, hi = offsets[s], offsets[s + 1]
    keys, weights = walk
    if not len(keys):
        return walk
    states = keys % len(trans)
    index = trans.take(states, axis=0).take(rows[lo:hi], axis=1) + (keys - states)[:, None]
    sums = np.bincount(index.ravel(), (weights[:, None] * signs[lo:hi]).ravel())
    sums[EMPTY_FAMILY::len(trans)] = 0
    first = int(states[0]) + 1
    live = sums[first:].nonzero()[0] + first
    return live, sums[live].astype(np.int64)


def signed_matchable_sum(n: int, rows: Iterable[int]) -> int:
    """sum over T subseteq S of (-1)^{|S \\ T|} BPM(K_{n,n} \\ T), where S is
    the graph with the given rows; n <= 7.

    Each row picks its own T_i subseteq S_i, so the sum runs the family
    automaton with signed weights (:func:`signed_family_step`).  After all n
    rows a nonempty family holds only the full set, so the total weight left
    is the sum.
    """
    walk = FAMILY_START
    for s in rows:
        walk = signed_family_step(n, walk, s)
    return int(walk[1].sum())


def supergraph_masks(n: int, base: int, lo: int, hi: int) -> np.ndarray:
    """Masks base | spread(k) for k in [lo, hi), spreading counter bits over
    the zero bits of ``base`` in ascending bit order."""
    free = [b for b in range(n * n) if not (base >> b) & 1]
    ks = np.arange(lo, hi, dtype=np.int64)
    out = np.full(hi - lo, base, dtype=np.int64)
    for pos, b in enumerate(free):
        out |= ((ks >> pos) & 1) << b
    return out
