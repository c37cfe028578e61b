"""The lattice of matching-covered graphs (MC_n plus the empty bottom).

Ordered by edge-set containment this is a bounded graded lattice; node ranks
are cyclomatic number + 1, Moebius numbers alternate as (-1)^rank, and the
join/meet are edge union and the union of common contained perfect matchings.
Construction double-checks the rank/Moebius structure: Moebius numbers are
computed from the defining recursion and then verified against the sign
pattern, so building the lattice is itself a test of the theory.

Beyond the lattice object this module hosts the machinery for reasoning about
arbitrary graphs through their minimal matching-covered supergraphs: umbrellas
and the wildcard / surplus edge conditions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels, bpm
from .bitgraph import BipartiteGraph, left_neighborhoods, union_of_perfect_matchings
from .caps import require_hard
from .matchcov import is_matching_covered
from .polyalg import _write_document


# rows of a rank layer tested against the next layer at once: at n = 4 the
# largest block is 64 x 2,176, a 1.1 MB int64 temporary
_COVER_ROWS = 64


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
        Moebius number, and the covering pairs as node indices."""
        def nodes(lo: int, hi: int) -> str:
            return ",\n".join([
                f'    {{\n      "mask": "{m:#x}",\n      "rank": {r},'
                f'\n      "mobius": {mu}\n    }}'
                for m, r, mu in zip(self.masks[lo:hi].tolist(), self.rank[lo:hi].tolist(),
                                    self.mobius[lo:hi].tolist())])

        def covers(lo: int, hi: int) -> str:
            return ",\n".join([f"    [\n      {a},\n      {b}\n    ]"
                                for a, b in self.cover_edges[lo:hi].tolist()])

        _write_document(write, {"n": self.n}, {"nodes": (len(self), nodes),
                                               "cover_edges": (len(self.cover_edges), covers)})

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
            if layer.size == 0:
                continue
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

    Covers are containment pairs one rank apart (validated against the
    no-intermediate definition by the test suite at n <= 3).  Moebius numbers
    come from the bottom-up recursion and are then checked against
    (-1)^rank; a mismatch would falsify the Eulerian structure and raises.
    """
    require_hard("lattice", n)
    masks = np.concatenate([np.zeros(1, dtype=np.int64), bpm.primal_polynomial(n).masks])
    chi = _kernels.chi_table(n)
    rank = np.zeros(len(masks), dtype=np.int16)
    rank[1:] = chi[masks[1:]].astype(np.int16) + 1

    # Moebius recursion in popcount order, one layer at a time:
    # mu(x) = -sum_{z strictly below x} mu(z), and every node strictly below x
    # has fewer edges, so a zeta transform of the lower layers' mu gives it
    mobius = np.zeros(len(masks), dtype=np.int64)
    mobius[0] = 1
    pop = _kernels.popcount_array(masks)
    lower = np.zeros(1 << (n * n), dtype=np.int64)
    lower[0] = 1
    for p in range(1, n * n + 1):
        layer = np.flatnonzero(pop == p)
        if layer.size:
            sums = lower.copy()
            _kernels.zeta_transform(sums, n * n)
            mobius[layer] = -sums[masks[layer]]
            lower[masks[layer]] = mobius[layer]
    expected = np.where(rank % 2 == 0, 1, -1).astype(np.int64)
    if not np.array_equal(mobius, expected):
        bad = int(np.nonzero(mobius != expected)[0][0])
        raise RuntimeError(
            f"Moebius number at node {int(masks[bad]):#x} is {int(mobius[bad])}, "
            f"not (-1)^rank; the lattice is not behaving as an Eulerian one")

    # covers: containment + rank gap one, each rank layer against the next in
    # blocks of rows
    by_rank = [np.flatnonzero(rank == r) for r in range(int(rank.max()) + 1)]
    pairs = []
    for lows, highs in zip(by_rank, by_rank[1:]):
        outside = ~masks[highs]
        for start in range(0, lows.size, _COVER_ROWS):
            block = lows[start:start + _COVER_ROWS]
            lo, hi = np.nonzero((masks[block][:, None] & outside) == 0)
            pairs.append(np.stack([block[lo], highs[hi]], axis=1))
    pairs = np.concatenate(pairs)
    cover_edges = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].astype(np.int32)

    for arr in (masks, rank, mobius, cover_edges):
        arr.flags.writeable = False
    return McLattice(n, masks, rank, mobius, cover_edges)


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
