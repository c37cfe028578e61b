"""Balanced bipartite graphs on the vertices of K_{n,n}, stored as bitmasks.

A graph with side size ``n`` (1 <= n <= 8) lives in a single machine word:
edge ``(i, j)`` (both 1-based) occupies bit ``(i-1)*n + (j-1)``, so the
least-significant bit is edge ``(1, 1)`` and row ``i`` is a contiguous block
of ``n`` bits.  The vertex set is always all ``2n`` vertices; isolated
vertices are allowed and count as their own connected components.

All values are immutable and every operation is a pure function, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

MAX_SIDE = 8

Edge = tuple[int, int]


def edge_bit(n: int, i: int, j: int) -> int:
    """Bit index of edge (i, j), 1-based coordinates."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"edge ({i},{j}) out of range for n={n}")
    return (i - 1) * n + (j - 1)


@dataclass(frozen=True)
class BipartiteGraph:
    """An edge subset of K_{n,n} with the fixed row-major bit layout."""

    n: int
    mask: int

    def __post_init__(self) -> None:
        if not (1 <= self.n <= MAX_SIDE):
            raise ValueError(f"side size must be in 1..{MAX_SIDE}, got {self.n}")
        if not (0 <= self.mask < 1 << (self.n * self.n)):
            raise ValueError(f"mask {self.mask:#x} has bits outside K_{{{self.n},{self.n}}}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "BipartiteGraph":
        mask = 0
        for i, j in edges:
            mask |= 1 << edge_bit(n, i, j)
        return cls(n, mask)

    @classmethod
    def empty(cls, n: int) -> "BipartiteGraph":
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> "BipartiteGraph":
        return cls(n, (1 << (n * n)) - 1)

    @property
    def edges(self) -> tuple[Edge, ...]:
        n = self.n
        return tuple((b // n + 1, b % n + 1)
                     for b in range(n * n) if (self.mask >> b) & 1)

    @property
    def edge_count(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def row(self, i: int) -> int:
        """Right-neighbour bitmask of left vertex ``i`` (1-based)."""
        return (self.mask >> ((i - 1) * self.n)) & ((1 << self.n) - 1)

    def neighbors(self, i: int) -> frozenset[int]:
        """Right neighbours of left vertex ``i`` as 1-based indices."""
        r = self.row(i)
        return frozenset(j + 1 for j in range(self.n) if (r >> j) & 1)

    def has_edge(self, i: int, j: int) -> bool:
        return bool((self.mask >> edge_bit(self.n, i, j)) & 1)

    def to_text(self) -> str:
        """Comma-separated ``i-j`` edge list; empty graph renders as ``0x0``."""
        if self.mask == 0:
            return "0x0"
        return ",".join(f"{i}-{j}" for i, j in self.edges)

    def to_hex(self) -> str:
        return f"{self.mask:#x}"

    def __str__(self) -> str:
        return f"K{self.n}{self.n} subgraph {self.to_hex()}"


@dataclass(frozen=True)
class Matching:
    """A perfect matching: n edges forming a bijection of the two sides."""

    n: int
    pairs: tuple[Edge, ...]

    def __post_init__(self) -> None:
        lefts = [i for i, _ in self.pairs]
        rights = [j for _, j in self.pairs]
        if sorted(lefts) != list(range(1, self.n + 1)) or sorted(rights) != list(range(1, self.n + 1)):
            raise ValueError(f"pairs {self.pairs} are not a bijection on [1..{self.n}]")

    @property
    def mask(self) -> int:
        m = 0
        for i, j in self.pairs:
            m |= 1 << edge_bit(self.n, i, j)
        return m


def parse_graph(n: int, text: str) -> BipartiteGraph:
    """Parse either a ``0x..`` bitmask or a ``1-1,2-2`` edge list."""
    s = text.strip()
    if not s:
        raise ValueError("empty graph specification")
    if s.lower().startswith("0x"):
        try:
            mask = int(s, 16)
        except ValueError:
            raise ValueError(f"bad hex bitmask {text!r}") from None
        if mask < 0 or mask >= 1 << (n * n):
            raise ValueError(f"bitmask {s} out of range for n={n}")
        return BipartiteGraph(n, mask)
    edges = []
    for part in s.split(","):
        part = part.strip()
        fields = part.split("-")
        if len(fields) != 2:
            raise ValueError(f"bad edge {part!r}; expected i-j")
        try:
            i, j = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"bad edge {part!r}; expected integers i-j") from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"edge {part!r} out of range for n={n}")
        edges.append((i, j))
    return BipartiteGraph.from_edges(n, edges)


def _rows(n: int, mask: int) -> list[int]:
    full = (1 << n) - 1
    return [(mask >> (n * i)) & full for i in range(n)]


def has_pm_mask(n: int, mask: int) -> bool:
    """Perfect-matching existence for a raw mask.

    Subset DP over right-vertex sets: ``f[S]`` says rows ``1..|S|`` can be
    matched onto exactly ``S``.  O(2^n * n), branch-free enough to sit in the
    inner loop of whole-cube scans.
    """
    rows = _rows(n, mask)
    size = 1 << n
    f = bytearray(size)
    f[0] = 1
    for s in range(1, size):
        k = s.bit_count() - 1  # next left vertex to place (0-based)
        r = rows[k] & s
        while r:
            c = r & -r
            if f[s ^ c]:
                f[s] = 1
                break
            r ^= c
    return bool(f[size - 1])


def has_perfect_matching(g: BipartiteGraph) -> bool:
    return has_pm_mask(g.n, g.mask)


def iter_perfect_matchings(g: BipartiteGraph) -> Iterator[Matching]:
    """Perfect matchings one at a time, lexicographically by (pi(1), ..., pi(n))."""
    n = g.n
    rows = _rows(n, g.mask)
    pick: list[int] = []

    def rec(i: int, used: int) -> Iterator[Matching]:
        if i == n:
            yield Matching(n, tuple((k + 1, pick[k] + 1) for k in range(n)))
            return
        r = rows[i] & ~used
        while r:
            c = r & -r
            pick.append(c.bit_length() - 1)
            yield from rec(i + 1, used | c)
            pick.pop()
            r ^= c
    return rec(0, 0)


def enumerate_perfect_matchings(g: BipartiteGraph) -> list[Matching]:
    """All perfect matchings, ordered lexicographically by (pi(1), ..., pi(n))."""
    return list(iter_perfect_matchings(g))


def delete_vertex_pair(n: int, mask: int, i: int, j: int) -> int:
    """Mask of ``g - a_i - b_j`` relabelled onto K_{n-1,n-1} (i, j 1-based)."""
    rows = _rows(n, mask)
    del rows[i - 1]
    low = (1 << (j - 1)) - 1
    out = 0
    for k, row in enumerate(rows):
        newrow = (row & low) | ((row >> 1) & ~low)
        out |= newrow << (k * (n - 1))
    return out


def allowed_edges(g: BipartiteGraph) -> int:
    """Bitmask of the edges of ``g`` that appear in some perfect matching."""
    n = g.n
    out = 0
    for b in range(n * n):
        if not (g.mask >> b) & 1:
            continue
        i, j = b // n + 1, b % n + 1
        if has_pm_mask(n - 1, delete_vertex_pair(n, g.mask, i, j)):
            out |= 1 << b
    return out


def union_of_perfect_matchings(g: BipartiteGraph) -> BipartiteGraph:
    """The graph formed by the union of all perfect matchings of ``g``.

    Equals :func:`allowed_edges` (an edge is in some matching exactly when it
    is allowed), so no enumeration is needed; the empty graph when ``g`` has
    no matching.
    """
    return BipartiteGraph(g.n, allowed_edges(g))


def connected_components(g: BipartiteGraph) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Partition of all 2n vertices into components, as (lefts, rights) pairs.

    Each row merges every column block it meets into one block with its left
    vertex (a zero row stays an isolated left vertex); the untouched columns
    are isolated right vertices.  Components are ordered by their smallest
    vertex, left side first.
    """
    n = g.n
    blocks: list[tuple[int, int]] = []  # (left bits, right bits)
    covered = 0
    for i, row in enumerate(_rows(n, g.mask)):
        lefts, rights = 1 << i, row
        rest = []
        for bl, br in blocks:
            if br & row:
                lefts, rights = lefts | bl, rights | br
            else:
                rest.append((bl, br))
        blocks = rest + [(lefts, rights)]
        covered |= row
    blocks += [(0, 1 << j) for j in range(n) if not (covered >> j) & 1]

    def members(bits: int) -> tuple[int, ...]:
        return tuple(k + 1 for k in range(n) if (bits >> k) & 1)

    comps = [(members(bl), members(br)) for bl, br in blocks]
    return sorted(comps, key=lambda c: c[0][0] if c[0] else n + c[1][0])


def cyclomatic_number(g: BipartiteGraph) -> int:
    """|E| - |V| + |C| with |V| fixed at 2n by the spanning convention."""
    return g.edge_count - 2 * g.n + len(connected_components(g))


def is_connected_spanning(g: BipartiteGraph) -> bool:
    """True when the graph is a single component covering all 2n vertices."""
    return len(connected_components(g)) == 1


def left_neighborhoods(n: int, mask: int) -> list[int]:
    """N(X) for every left set X (bit i is left vertex i+1), indexed by X.

    One step per set: N(X) = N(X - low) | row(low), with low the lowest
    vertex of X.
    """
    rows = _rows(n, mask)
    nb = [0] * (1 << n)
    for xs in range(1, 1 << n):
        low = xs & -xs
        nb[xs] = nb[xs ^ low] | rows[low.bit_length() - 1]
    return nb
