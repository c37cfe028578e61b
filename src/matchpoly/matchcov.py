"""Matching-covered and elementary graphs: recognition, the five classical
equivalent characterizations, ear decompositions, and bulk enumeration.

A graph is matching-covered when its edge set is a union of perfect matchings
of K_{n,n}; a connected matching-covered graph (on all 2n vertices) is
elementary.  The membership test used everywhere is "has a perfect matching
and every edge is allowed" -- n^2+1 matching queries instead of enumerating
matching subsets, which matters because the enumerators push 2^(n^2) graphs
through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from . import _kernels
from .bitgraph import (
    BipartiteGraph,
    allowed_edges,
    delete_vertex_pair,
    has_pm_mask,
    has_perfect_matching,
    is_connected_spanning,
)
from .caps import require_hard


def is_matching_covered(g: BipartiteGraph) -> bool:
    """True iff g is a union of perfect matchings of K_{n,n}.

    The empty graph is rejected here; it only exists as the lattice bottom.
    """
    if g.is_empty:
        raise ValueError("the empty graph is not in the matching-covered domain")
    return has_perfect_matching(g) and allowed_edges(g) == g.mask


def is_elementary(g: BipartiteGraph) -> bool:
    """Connected (all 2n vertices in one component) and matching-covered."""
    if g.is_empty:
        return False
    return is_connected_spanning(g) and is_matching_covered(g)


# ---------------------------------------------------------------------------
# The five equivalent elementarity conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HetyeiReport:
    """One flag per classical elementarity condition, evaluated independently."""

    elementary: bool
    two_minimum_vertex_covers: bool
    neighborhood_surplus: bool
    deleted_pair_matching: bool
    connected_all_edges_allowed: bool

    def as_tuple(self) -> tuple[bool, bool, bool, bool, bool]:
        return (self.elementary, self.two_minimum_vertex_covers,
                self.neighborhood_surplus, self.deleted_pair_matching,
                self.connected_all_edges_allowed)

    def all_agree(self) -> bool:
        return len(set(self.as_tuple())) == 1


def _minimum_vertex_covers(g: BipartiteGraph) -> set[tuple[int, int]]:
    """All minimum vertex covers as (left-set, right-set) bit pairs.

    For a fixed left part X the unique minimal completion is the set of right
    endpoints of edges X fails to cover, so scanning the 2^n left parts finds
    every minimum cover.
    """
    n = g.n
    rows = [g.row(i) for i in range(1, n + 1)]
    best = 2 * n + 1
    covers: set[tuple[int, int]] = set()
    for xs in range(1 << n):
        needed = 0
        for i in range(n):
            if not (xs >> i) & 1:
                needed |= rows[i]
        size = xs.bit_count() + needed.bit_count()
        if size < best:
            best = size
            covers = {(xs, needed)}
        elif size == best:
            covers.add((xs, needed))
    return covers


def hetyei_check(g: BipartiteGraph) -> HetyeiReport:
    """Evaluate the five equivalent elementarity conditions separately.

    Each flag is computed from its own definition rather than from
    :func:`is_elementary`, so their agreement is a checkable fact, not a
    tautology.
    """
    n = g.n
    full_right = (1 << n) - 1

    cond_elementary = is_elementary(g)

    covers = _minimum_vertex_covers(g)
    cond_covers = covers == {(full_right, 0), (0, full_right)}

    cond_surplus = True
    rows = [g.row(i) for i in range(1, n + 1)]
    for xs in range(1, (1 << n) - 1):
        nb = 0
        for i in range(n):
            if (xs >> i) & 1:
                nb |= rows[i]
        if nb.bit_count() < xs.bit_count() + 1:
            cond_surplus = False
            break

    if n == 1:
        cond_deleted = g.mask == 1  # the graph is literally K_2
    else:
        cond_deleted = all(
            has_pm_mask(n - 1, delete_vertex_pair(n, g.mask, i, j))
            for i in range(1, n + 1) for j in range(1, n + 1))

    cond_connected_allowed = (is_connected_spanning(g)
                              and allowed_edges(g) == g.mask and not g.is_empty)

    return HetyeiReport(cond_elementary, cond_covers, cond_surplus,
                        cond_deleted, cond_connected_allowed)


# ---------------------------------------------------------------------------
# Bipartite ear decompositions
# ---------------------------------------------------------------------------

Path = list[str]


def _vertex(n: int, label: str) -> tuple[bool, int]:
    """Parse 'a3' / 'b1' into (is_left, 0-based index)."""
    if len(label) < 2 or label[0] not in "ab":
        raise ValueError(f"bad vertex label {label!r}")
    idx = int(label[1:])
    if not (1 <= idx <= n):
        raise ValueError(f"vertex label {label!r} out of range for n={n}")
    return label[0] == "a", idx - 1


def _label(is_left: bool, idx: int) -> str:
    return f"{'a' if is_left else 'b'}{idx + 1}"


def _path_edge_bit(n: int, u: tuple[bool, int], v: tuple[bool, int]) -> int | None:
    """Bit of the edge between two vertices, None if same side."""
    if u[0] == v[0]:
        return None
    left = u if u[0] else v
    right = v if u[0] else u
    return left[1] * n + right[1]


def check_ear_decomposition(g: BipartiteGraph, ears: Sequence[Sequence[str]]) -> bool:
    """Validate a proposed decomposition e + P_1 + ... + P_k of ``g``.

    Accepts iff the first entry is a single edge of g, every later entry is an
    odd-length alternating path of edges of g whose endpoints already exist
    and whose interior vertices are fresh, and the union of everything is
    exactly g.  Redundant ears that re-add existing edges are harmless under
    the union reading and are accepted; :func:`ear_decomposition` itself never
    produces them.
    """
    n = g.n
    if not ears:
        return False
    try:
        parsed = [[_vertex(n, lab) for lab in path] for path in ears]
    except (ValueError, TypeError):
        return False

    base = parsed[0]
    if len(base) != 2:
        return False
    bit = _path_edge_bit(n, base[0], base[1])
    if bit is None or not (g.mask >> bit) & 1:
        return False
    acc_edges = 1 << bit
    acc_verts = set(base)

    for path in parsed[1:]:
        if len(path) < 2 or len(path) % 2 != 0:  # odd edge count = even vertex count
            return False
        if len(set(path)) != len(path):
            return False
        if path[0] not in acc_verts or path[-1] not in acc_verts:
            return False
        if any(v in acc_verts for v in path[1:-1]):
            return False
        for u, v in zip(path, path[1:]):
            b = _path_edge_bit(n, u, v)
            if b is None:
                return False  # two consecutive same-side vertices
            if not (g.mask >> b) & 1:
                return False
            acc_edges |= 1 << b
        acc_verts.update(path)
    return acc_edges == g.mask


def _compact_elementary(n: int, mask: int) -> bool:
    """Elementarity of the graph induced on the vertices ``mask`` touches."""
    if mask == 0:
        return False
    rows = [(mask >> (n * i)) & ((1 << n) - 1) for i in range(n)]
    lefts = [i for i in range(n) if rows[i]]
    rights_mask = 0
    for r in rows:
        rights_mask |= r
    rights = [j for j in range(n) if (rights_mask >> j) & 1]
    if len(lefts) != len(rights):
        return False
    k = len(lefts)
    col_of = {j: c for c, j in enumerate(rights)}
    reduced = 0
    for r_new, i in enumerate(lefts):
        row = rows[i]
        for j in rights:
            if (row >> j) & 1:
                reduced |= 1 << (r_new * k + col_of[j])
    return is_elementary(BipartiteGraph(k, reduced))


def _last_ear_candidates(n: int, mask: int) -> Iterator[tuple[Path, int]]:
    """Possible last ears of ``mask``: (path labels, remaining mask).

    A removable last ear is a path whose interior vertices have degree exactly
    2 (they vanish with it) and whose endpoints keep at least one other edge.
    """
    rows = [(mask >> (n * i)) & ((1 << n) - 1) for i in range(n)]
    cols = [0] * n
    for i in range(n):
        for j in range(n):
            if (rows[i] >> j) & 1:
                cols[j] |= 1 << i

    def degree(v: tuple[bool, int]) -> int:
        return (rows[v[1]] if v[0] else cols[v[1]]).bit_count()

    def neighbors(v: tuple[bool, int]) -> list[tuple[bool, int]]:
        bits = rows[v[1]] if v[0] else cols[v[1]]
        return [(not v[0], j) for j in range(n) if (bits >> j) & 1]

    def edge_bit(u, v) -> int:
        left, right = (u, v) if u[0] else (v, u)
        return left[1] * n + right[1]

    verts = [(True, i) for i in range(n) if rows[i]] + \
            [(False, j) for j in range(n) if cols[j]]

    # single-edge ears: both endpoints must survive
    for u in verts:
        if not u[0]:
            continue
        for v in neighbors(u):
            if degree(u) >= 2 and degree(v) >= 2:
                b = edge_bit(u, v)
                yield [_label(*u), _label(*v)], mask ^ (1 << b)

    # longer ears: forced walks through degree-2 interiors
    for s in verts:
        if degree(s) < 2:
            continue
        for first in neighbors(s):
            path = [s, first]
            used = 1 << edge_bit(s, first)
            prev, cur = s, first
            while True:
                edges_in_path = len(path) - 1
                if edges_in_path >= 3 and edges_in_path % 2 == 1 and \
                        cur != s and degree(cur) >= 2:
                    yield [_label(*v) for v in path], mask & ~used
                if degree(cur) != 2:
                    break
                nxt = next((w for w in neighbors(cur) if w != prev), None)
                if nxt is None or nxt in path:
                    break
                used |= 1 << edge_bit(cur, nxt)
                path.append(nxt)
                prev, cur = cur, nxt


def ear_decomposition(g: BipartiteGraph) -> list[Path] | None:
    """A bipartite ear decomposition of ``g``, or None if g is not elementary.

    Peels candidate last ears, keeping every intermediate graph elementary on
    its own vertex span (always possible for elementary graphs),
    with backtracking and a failure memo.  Output order is base edge first;
    any output is certified by :func:`check_ear_decomposition`.
    """
    if not is_elementary(g):
        return None
    n = g.n
    failed: set[int] = set()

    def peel(mask: int) -> list[Path] | None:
        if mask.bit_count() == 1:
            b = mask.bit_length() - 1
            return [[_label(True, b // n), _label(False, b % n)]]
        if mask in failed:
            return None
        for path, remaining in _last_ear_candidates(n, mask):
            if not _compact_elementary(n, remaining):
                continue
            rest = peel(remaining)
            if rest is not None:
                rest.append(path)
                return rest
        failed.add(mask)
        return None

    ears = peel(g.mask)
    if ears is None:  # cannot happen for elementary inputs
        raise RuntimeError(f"no ear decomposition found for elementary {g}")
    return ears


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_mc(n: int) -> Iterator[BipartiteGraph]:
    """Stream every matching-covered graph in K_{n,n}, ascending by bitmask;
    n = 5 yields about 6.1 million graphs."""
    require_hard("enumerate-mc", n)
    for block in _kernels.stream_mc_masks(n):
        for m in block.tolist():
            yield BipartiteGraph(n, m)


def count_mc(n: int, threads: int | None = None) -> int:
    """|MC_n| without materializing the graphs."""
    require_hard("enumerate-mc", n)
    return sum(len(block) for block in _kernels.stream_mc_masks(n, threads))
