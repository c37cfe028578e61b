"""The lattice of matching-covered graphs (MC_n plus the empty bottom).

Ordered by edge-set containment this is a bounded graded lattice; node ranks
are cyclomatic number + 1, Moebius numbers alternate as (-1)^rank, and the
join/meet are edge union and the union of common contained perfect matchings.
Construction double-checks the rank/Moebius structure: one zeta transform
checks that (-1)^rank solves the defining Moebius recursion, so building the
lattice is itself a test of the theory.  Covers are read off the allowed
edges of each node less one edge, not found by a containment scan.

Beyond the lattice object this module hosts the machinery for reasoning about
arbitrary graphs through their minimal matching-covered supergraphs: umbrellas
and the wildcard / surplus edge conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels, bpm, polyalg
from .bitgraph import BipartiteGraph, left_neighborhoods, union_of_perfect_matchings
from .caps import require_hard
from .matchcov import is_matching_covered


# nodes whose (node, edge) pairs are looked up at once.  At n = 4 a block
# holds about 10,000 of the 79,232 pairs; in a fresh process (2 Xeon
# cores, two runs each) `lattice --n 4 --format json` peaks at 34.0 MiB RSS
# with blocks of 1,024 nodes, 34.4 with 256, 35.4 with 4,096 and 37.1 with
# all 7,444 at once, and build_lattice(4) takes 10 ms at 1,024, 4,096 or
# all, 11 to 12 ms at 256 (median of 9)
_COVER_NODES = 1024


# a cover [a, b] at indent 4 around its node ids, then the separator to the
# next cover, or the closing bracket of the last
_COVER_PIECES = ["    [\n      ", ",\n      ", "\n    ],\n", "\n    ]"]


@dataclass(frozen=True, eq=False)
class McLattice:
    """Immutable lattice: nodes ascending by mask (bottom first, top last)."""

    n: int
    masks: np.ndarray        # int64, strictly ascending, masks[0] == 0
    rank: np.ndarray         # int16 per node
    mobius: np.ndarray       # int64 per node
    cover_edges: np.ndarray  # int32 (k, 2): node indices (lower, upper)

    def __len__(self) -> int:
        return len(self.masks)

    def node_index(self, mask: int) -> int:
        idx, found = _kernels.sorted_lookup(self.masks, [mask])
        if not found[0]:
            raise ValueError(f"mask {mask:#x} is not a lattice node")
        return int(idx[0])

    @property
    def top(self) -> int:
        return int(self.masks[-1])

    def graphs(self) -> Iterator[BipartiteGraph]:
        for m in self.masks.tolist():
            yield BipartiteGraph(self.n, m)

    def write_json(self, write) -> None:
        """The JSON document at indent 2: ``n``, the nodes with their rank and
        Moebius number, and the covering pairs as node indices.

        Both lists render as :func:`polyalg.write_json`'s terms do.  A node
        is its hex mask, then its rank and its Moebius number (with the
        separator to the next node) from tables of their distinct values.  A
        cover (a, b) is a and b from one table of the ids up to the largest
        node or cover index, around :data:`_COVER_PIECES`; one table of short
        strings, not one per position, keeps the n = 4 peak RSS down."""
        ranks = _kernels.distinct_sorted(self.rank)
        mobius = _kernels.distinct_sorted(self.mobius)
        node_pieces = np.concatenate((
            np.array([f'",\n      "rank": {r}' for r in ranks.tolist()], dtype=object),
            polyalg._json_tails("mobius", mobius, self.mobius)))

        def node_rows(lo: int, hi: int) -> np.ndarray:
            index = np.empty((hi - lo, 2), dtype=np.intp)
            index[:, 0] = np.searchsorted(ranks, self.rank[lo:hi])
            index[:, 1] = len(ranks) + np.searchsorted(mobius, self.mobius[lo:hi])
            return index

        covers = self.cover_edges
        ids = max(len(self), int(covers.max(initial=-1)) + 1)
        cover_pieces = np.array(list(map(str, range(ids))) + _COVER_PIECES, dtype=object)

        def cover_rows(lo: int, hi: int) -> np.ndarray:
            index = np.empty((hi - lo, 5), dtype=np.intp)
            index[:, ::2] = ids + np.arange(3)
            index[:, 1::2] = covers[lo:hi]
            return index

        polyalg._write_document(write, {"n": self.n}, {
            "nodes": (node_pieces, len(self), node_rows, self.masks),
            "cover_edges": (cover_pieces, len(covers), cover_rows, None)})

    def to_json_dict(self) -> dict:
        """:meth:`write_json`'s document, parsed."""
        chunks: list[str] = []
        self.write_json(chunks.append)
        return json.loads("".join(chunks))

    def to_dot(self) -> str:
        """Hasse diagram in DOT, one layer per rank, bottom at the bottom."""
        lines = [f"digraph mc_lattice_n{self.n} {{",
                 "  rankdir=BT;",
                 "  node [shape=box, fontname=\"monospace\"];"]
        for r in range(int(self.rank.max()) + 1):
            layer = np.nonzero(self.rank == r)[0]
            decls = " ".join(
                f"\"{int(self.masks[i]):#x}\" [label=\"{int(self.masks[i]):#x}\\nrk {r}\"];"
                for i in layer)
            lines.append(f"  {{ rank=same; {decls} }}")
        for a, b in self.cover_edges:
            lines.append(f"  \"{int(self.masks[a]):#x}\" -> \"{int(self.masks[b]):#x}\";")
        lines.append("}")
        return "\n".join(lines) + "\n"


def build_lattice(n: int) -> McLattice:
    """Materialize (MC_n + bottom, containment) with ranks, Moebius numbers
    and covering edges; n <= 4.

    Moebius numbers are checked to be (-1)^rank by one zeta transform of
    (-1)^rank placed at the nodes: it must read 1 at the bottom and 0 at
    every other node.  That is the defining recursion mu(x) = -sum over z
    strictly below x of mu(z), whose triangular system has one solution.  A
    failure would falsify the Eulerian structure and raises, naming the
    failing node of fewest edges, which the recursion reaches first, with
    the value the recursion gives it.

    Covers come from allowed edges: for a node x and an edge e of x, the
    union U(x - e) of the perfect matchings of x - e is a node below x.  If
    z is covered by x and e lies in x but not in z, then z is a union of
    perfect matchings of x - e, so z <= U(x - e) < x and z = U(x - e).  So
    the covers of x are the distinct U(x - e) one rank below x.
    """
    require_hard("lattice", n)
    masks = np.concatenate([np.zeros(1, dtype=np.int64), bpm.primal_polynomial(n).masks])
    rank = np.zeros(len(masks), dtype=np.int16)
    rank[1:] = _kernels.chi_values(n, masks[1:]) + 1
    mobius = np.where(rank % 2 == 0, 1, -1).astype(np.int64)

    sums = np.zeros(1 << (n * n), dtype=np.int64)
    sums[masks] = mobius
    _kernels.zeta_transform(sums, n * n)
    sums = sums[masks]
    sums[0] -= 1
    if np.any(sums):
        bad = np.flatnonzero(sums)
        bad = int(bad[np.argmin(_kernels.popcount_array(masks[bad]))])
        raise RuntimeError(
            f"Moebius number at node {int(masks[bad]):#x} is "
            f"{int(mobius[bad] - sums[bad])}, not (-1)^rank; the lattice is not "
            f"behaving as an Eulerian one")

    # each mask's node index, -1 off the lattice; (lower, upper) pairs as
    # lower * len(masks) + upper, so that sorting them sorts the pairs
    node_of = np.full(1 << (n * n), -1, dtype=np.int32)
    node_of[masks] = np.arange(len(masks), dtype=np.int32)
    keys = []
    for start in range(0, len(masks), _COVER_NODES):
        upper = start + np.arange(min(_COVER_NODES, len(masks) - start))
        node, edge = np.nonzero(_kernels.mask_bits(n, masks[upper]))
        upper = upper[node]
        less = masks[upper] ^ (1 << edge)
        below = _kernels.allowed_edge_masks(n, less)
        lower = node_of[below]
        if lower.min(initial=0) < 0:
            bad = int(np.argmin(lower))
            raise RuntimeError(
                f"the perfect matchings of {int(less[bad]):#x} (node "
                f"{int(masks[upper[bad]]):#x} less an edge) cover {int(below[bad]):#x}, "
                f"which is not a lattice node")
        cover = rank[lower] == rank[upper] - 1
        keys.append(lower[cover].astype(np.int64) * len(masks) + upper[cover])
    keys = _kernels.distinct_sorted(np.concatenate(keys))
    cover_edges = np.stack(np.divmod(keys, len(masks)), axis=1).astype(np.int32)

    return McLattice(n, *map(_kernels.frozen, (masks, rank, mobius, cover_edges)))


def _require_node(g: BipartiteGraph) -> None:
    if not g.is_empty and not is_matching_covered(g):
        raise ValueError(f"{g} is not a lattice node (neither empty nor matching-covered)")


def join(g1: BipartiteGraph, g2: BipartiteGraph) -> BipartiteGraph:
    """Least upper bound: the edge-set union."""
    if g1.n != g2.n:
        raise ValueError("join needs graphs of the same side size")
    _require_node(g1)
    _require_node(g2)
    return BipartiteGraph(g1.n, g1.mask | g2.mask)


def meet(g1: BipartiteGraph, g2: BipartiteGraph) -> BipartiteGraph:
    """Greatest lower bound: the union of all perfect matchings lying in both
    graphs, i.e. of the matchings of their edge intersection."""
    if g1.n != g2.n:
        raise ValueError("meet needs graphs of the same side size")
    _require_node(g1)
    _require_node(g2)
    return union_of_perfect_matchings(BipartiteGraph(g1.n, g1.mask & g2.mask))


def interval_mobius_sum(lat: McLattice, g: BipartiteGraph | int) -> int:
    """Sum of Moebius numbers over all nodes above (and including) ``g``.

    Zero for every node except the top: the signature fact of an Eulerian
    lattice, and the engine behind the vanishing dual coefficients.
    """
    if isinstance(g, BipartiteGraph) and g.n != lat.n:
        raise ValueError(f"graph has n={g.n}, lattice has n={lat.n}")
    mask = g.mask if isinstance(g, BipartiteGraph) else int(g)
    lat.node_index(mask)
    above = (mask & ~lat.masks) == 0
    return int(lat.mobius[above].sum())


# ---------------------------------------------------------------------------
# Umbrellas, wildcard and surplus edges
# ---------------------------------------------------------------------------

def _mc_supergraph_masks(g: BipartiteGraph) -> np.ndarray:
    """The primal polynomial's terms (MC_n, Theorem 1) holding every edge of g."""
    require_hard("umbrella", g.n)
    nodes = bpm.primal_polynomial(g.n).masks
    return nodes[(g.mask & ~nodes) == 0]


def umbrella(g: BipartiteGraph) -> list[BipartiteGraph]:
    """Minimal matching-covered supergraphs of ``g`` (an antichain); n <= 4.

    The oracle of the umbrella table that the ``implication_chain`` claim of
    :mod:`matchpoly.verify` builds for every mask at once.
    """
    if g.is_empty:
        raise ValueError("umbrellas are defined for nonempty graphs")
    sups = _mc_supergraph_masks(g)
    order = np.argsort(_kernels.popcount_array(sups), kind="stable")
    minimal: list[int] = []
    for m in sups[order].tolist():
        if not any((u & ~m) == 0 for u in minimal):
            minimal.append(m)
    return [BipartiteGraph(g.n, m) for m in sorted(minimal)]


def has_incomplete_umbrella(g: BipartiteGraph) -> bool:
    """True iff some edge of K_{n,n} appears in no umbrella member.

    An empty umbrella (no matching-covered supergraph at all) counts as
    incomplete, which keeps the implication toward vanishing dual
    coefficients valid in the vacuous case.
    """
    if g.is_empty:
        raise ValueError("umbrellas are defined for nonempty graphs")
    union = 0
    for h in umbrella(g):
        union |= h.mask
    return union != (1 << (g.n * g.n)) - 1


def is_wildcard_edge(g: BipartiteGraph, a: int, b: int) -> bool:
    """True iff dropping (a, b) from any matching-covered supergraph of
    g + (a, b) lands back in MC_n; vacuously true with no such supergraph.

    (a, b) must be a non-edge of g.  MC_n is read as the primal polynomial's
    nonzero coefficients, so n <= 4.  The oracle of the wildcard table of
    the ``implication_chain`` claim in :mod:`matchpoly.verify`.
    """
    if g.has_edge(a, b):
        raise ValueError(f"({a},{b}) is an edge of the graph; wildcard edges are non-edges")
    ebit = 1 << ((a - 1) * g.n + (b - 1))
    covered = _mc_supergraph_masks(BipartiteGraph(g.n, g.mask | ebit))
    return bool(np.all(bpm.primal_polynomial(g.n).coeffs_at(covered ^ ebit) != 0))


def is_surplus_edge(g: BipartiteGraph, a: int, b: int) -> bool:
    """Hall-with-surplus on the left sets that pin down (a, b).

    True iff every proper left subset X containing a with b outside N(X)
    has |N(X)| > |X|; a non-edge-only notion like wildcard edges.  The
    oracle of the surplus table of the ``implication_chain`` claim in
    :mod:`matchpoly.verify`.
    """
    if g.has_edge(a, b):
        raise ValueError(f"({a},{b}) is an edge of the graph; surplus edges are non-edges")
    n = g.n
    nb = left_neighborhoods(n, g.mask)
    abit = 1 << (a - 1)
    bbit = 1 << (b - 1)
    return not any(xs & abit and not nb[xs] & bbit and nb[xs].bit_count() <= xs.bit_count()
                   for xs in range(1, (1 << n) - 1))
