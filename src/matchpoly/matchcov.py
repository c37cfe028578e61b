"""Matching-covered and elementary graphs: recognition, the five classical
equivalent characterizations, ear decompositions, and bulk enumeration.

A graph is matching-covered when its edge set is a union of perfect matchings
of K_{n,n}; a connected matching-covered graph (on all 2n vertices) is
elementary.  The membership test is "has a perfect matching and every edge
is allowed" -- n^2+1 matching queries instead of enumerating matching
subsets.  ``is_matching_covered`` runs it on one graph; the enumerators
stream all 2^(n^2) masks through its array form,
``_kernels.mc_flags_for_masks``.
"""

from __future__ import annotations

from collections import deque
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
    iter_perfect_matchings,
    left_neighborhoods,
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

    For a fixed left part X the unique minimal completion is N(complement of
    X), the right endpoints of edges X fails to cover, so scanning the 2^n
    left parts finds every minimum cover.
    """
    n = g.n
    full = (1 << n) - 1
    nb = left_neighborhoods(n, g.mask)
    best = 2 * n + 1
    covers: set[tuple[int, int]] = set()
    for xs in range(1 << n):
        needed = nb[full ^ xs]
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

    nb = left_neighborhoods(n, g.mask)
    # n = 1 has no nonempty proper subset; both conditions then read "g is K_2"
    cond_surplus = (n > 1 or g.mask == 1) and all(
        nb[xs].bit_count() > xs.bit_count() for xs in range(1, full_right))

    if n == 1:
        cond_deleted = g.mask == 1
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
Vertex = tuple[bool, int]  # (is_left, 0-based index)


def _vertex(n: int, label: str) -> Vertex:
    """Parse 'a3' / 'b1' into (is_left, 0-based index)."""
    if len(label) < 2 or label[0] not in "ab":
        raise ValueError(f"bad vertex label {label!r}")
    idx = int(label[1:])
    if not (1 <= idx <= n):
        raise ValueError(f"vertex label {label!r} out of range for n={n}")
    return label[0] == "a", idx - 1


def _label(is_left: bool, idx: int) -> str:
    return f"{'a' if is_left else 'b'}{idx + 1}"


def _path_edge_bit(n: int, u: Vertex, v: Vertex) -> int | None:
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


def ear_decomposition(g: BipartiteGraph) -> list[Path] | None:
    """A bipartite ear decomposition of ``g``, or None if g is not elementary.

    Built forward around one perfect matching M, as in the constructive proof
    (Lovász & Plummer, *Matching Theory*).  The base is the M-edge at a1.  An
    unused edge joining two reached vertices is a one-edge ear; otherwise an
    unused edge x-y leaving the reached set is followed by a breadth-first
    search over M-alternating paths y, M(y), w, M(w), ... back to the reached
    set.  Such a path exists because g is elementary: x-y lies in a perfect
    matching N, and the M/N alternating cycle through it re-enters the reached
    set, which is closed under M, through a non-M edge.  Every ear keeps the
    reached graph elementary with M perfect on it, so nothing is undone.

    Each ear raises the cyclomatic number by one, so the output has
    ``cyclomatic_number(g) + 1`` entries, base edge first, with no redundant
    ears; :func:`check_ear_decomposition` certifies it.
    """
    if not is_elementary(g):
        return None
    n = g.n
    mate: dict[Vertex, Vertex] = {}
    for i, j in next(iter_perfect_matchings(g)).pairs:
        mate[(True, i - 1)], mate[(False, j - 1)] = (False, j - 1), (True, i - 1)

    def neighbors(v: Vertex) -> list[Vertex]:
        return [w for w in ((not v[0], k) for k in range(n))
                if (g.mask >> _path_edge_bit(n, v, w)) & 1]

    def alternating_path(y: Vertex) -> list[Vertex]:
        """y, M(y), w, M(w), ..., z with z the first reached vertex."""
        came_from: dict[Vertex, Vertex | None] = {y: None}
        queue = deque([y])
        while queue:
            u = queue.popleft()
            for w in neighbors(mate[u]):
                if w in reached:
                    path = [w]
                    while u is not None:
                        path += [mate[u], u]
                        u = came_from[u]
                    return path[::-1]
                if w not in came_from:
                    came_from[w] = u
                    queue.append(w)
        raise RuntimeError(f"no alternating path back from {_label(*y)} in elementary {g}")

    base = [(True, 0), mate[(True, 0)]]
    reached = set(base)
    used = 1 << _path_edge_bit(n, *base)
    ears = [base]
    while used != g.mask:
        touching = []  # unused edges with a reached endpoint, that endpoint first
        for b in range(n * n):
            u, v = (True, b // n), (False, b % n)
            if (g.mask & ~used) >> b & 1 and (u in reached or v in reached):
                touching.append((u, v) if u in reached else (v, u))
        if not touching:
            raise RuntimeError(f"no unused edge touches the reached set of elementary {g}")
        x, y = min(touching, key=lambda e: e[1] not in reached)  # one-edge ears first
        ear = [x, y] if y in reached else [x] + alternating_path(y)
        for u, v in zip(ear, ear[1:]):
            used |= 1 << _path_edge_bit(n, u, v)
        reached.update(ear)
        ears.append(ear)
    return [[_label(*v) for v in ear] for ear in ears]


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


def count_mc(n: int) -> int:
    """|MC_n| without materializing the graphs."""
    require_hard("enumerate-mc", n)
    return sum(len(block) for block in _kernels.stream_mc_masks(n))
