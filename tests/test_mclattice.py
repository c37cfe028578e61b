import json

import numpy as np
import pytest

from matchpoly import (
    BipartiteGraph,
    ResourceLimitError,
    build_lattice,
    enumerate_mc,
    enumerate_perfect_matchings,
    has_incomplete_umbrella,
    interval_mobius_sum,
    is_matching_covered,
    is_surplus_edge,
    is_wildcard_edge,
    join,
    meet,
    umbrella,
    union_of_perfect_matchings,
)
from matchpoly import _kernels, bpm

from helpers import nonempty_graphs

N3_NODES = 50          # |MC_3| + bottom
N3_COVERS = 135
N3_RANK_SIZES = [1, 6, 15, 18, 9, 1]


def G(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


class TestBuildLattice:
    def test_n1(self):
        lat = build_lattice(1)
        assert lat.masks.tolist() == [0, 1]
        assert lat.rank.tolist() == [0, 1]
        assert lat.mobius.tolist() == [1, -1]
        assert lat.cover_edges.tolist() == [[0, 1]]

    def test_n2(self):
        lat = build_lattice(2)
        assert lat.masks.tolist() == [0, 0b0110, 0b1001, 0b1111]
        assert lat.rank.tolist() == [0, 1, 1, 2]
        assert lat.mobius.tolist() == [1, -1, -1, 1]

    def test_n3_frozen_shape(self):
        lat = build_lattice(3)
        assert len(lat) == N3_NODES
        assert len(lat.cover_edges) == N3_COVERS
        sizes = [int((lat.rank == r).sum()) for r in range(int(lat.rank.max()) + 1)]
        assert sizes == N3_RANK_SIZES
        assert lat.top == 0b111111111

    def test_covers_raise_rank_by_one(self):
        lat = build_lattice(3)
        for a, b in lat.cover_edges.tolist():
            assert lat.rank[b] - lat.rank[a] == 1
            assert lat.masks[a] & ~lat.masks[b] == 0

    def test_n4_frozen_shape(self):
        lat = build_lattice(4)
        assert len(lat) == 7444
        assert len(lat.cover_edges) == 42352
        sizes = [int((lat.rank == r).sum()) for r in range(int(lat.rank.max()) + 1)]
        # 24 vertices down to 16 facets: the face counts of the 9-dimensional
        # polytope whose face lattice this is
        assert sizes == [1, 24, 240, 978, 1968, 2176, 1392, 528, 120, 16, 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_node_by_node_construction(self, n):
        # the Moebius recursion one node at a time in popcount order, and the
        # covers one upper node at a time
        lat = build_lattice(n)
        masks = lat.masks
        order = np.argsort(np.bitwise_count(masks), kind="stable")
        mobius = np.zeros(len(masks), dtype=np.int64)
        mobius[0] = 1
        for count in range(1, len(order)):
            done, i = order[:count], order[count]
            mobius[i] = -mobius[done[(masks[done] & ~masks[i]) == 0]].sum()
        assert np.array_equal(lat.mobius, mobius)
        covers = [(int(lo), j) for j in range(len(masks))
                  for lo in np.flatnonzero((lat.rank == lat.rank[j] - 1)
                                           & ((masks & ~masks[j]) == 0))]
        assert lat.cover_edges.tolist() == [list(c) for c in sorted(covers)]

    @pytest.mark.parametrize("n, index", [(1, 1), (2, 3), (3, 1), (3, 20), (4, 4000),
                                          (4, -1)])
    def test_shifted_rank_fails_the_moebius_check(self, monkeypatch, n, index):
        # one node's chi one off flips its sign; the recursion still gives
        # it the Moebius number of its true rank
        lat = build_lattice(n)
        node, mu = int(lat.masks[index]), int(lat.mobius[index])
        bpm.primal_polynomial(n)  # cached, so the patch reaches only the lattice
        chi_values = _kernels.chi_values
        monkeypatch.setattr(_kernels, "chi_values",
                            lambda n, masks: chi_values(n, masks) + (masks == node))
        with pytest.raises(RuntimeError, match=f"^Moebius number at node {node:#x} is {mu}, "
                                               r"not \(-1\)\^rank;"):
            build_lattice(n)

    def test_cover_outside_the_lattice_fails(self, monkeypatch):
        # the bare graph in place of its allowed edges: a perfect matching
        # less an edge is no node
        monkeypatch.setattr(_kernels, "allowed_edge_masks", lambda n, m: m)
        with pytest.raises(RuntimeError, match=r"^the perfect matchings of 0x4 \(node 0x6 "
                                               r"less an edge\) cover 0x4, which is not"):
            build_lattice(2)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            build_lattice(5)

    def test_node_index(self):
        lat = build_lattice(2)
        assert lat.node_index(0b1111) == 3
        with pytest.raises(ValueError):
            lat.node_index(0b0001)

    def test_node_index_every_mask_n3(self):
        lat = build_lattice(3)
        nodes = {m: i for i, m in enumerate(lat.masks.tolist())}
        for mask in range(1 << 9):
            if mask in nodes:
                assert lat.node_index(mask) == nodes[mask]
            else:
                with pytest.raises(ValueError, match=f"^mask {mask:#x} is not a lattice node$"):
                    lat.node_index(mask)


class TestJoinMeet:
    def test_join_of_matchings_is_k22(self):
        pm1, pm2 = G(2, (1, 1), (2, 2)), G(2, (1, 2), (2, 1))
        assert join(pm1, pm2) == BipartiteGraph.full(2)

    def test_join_with_bottom(self):
        g = G(2, (1, 1), (2, 2))
        assert join(g, BipartiteGraph.empty(2)) == g
        assert join(g, g) == g

    def test_meet_of_disjoint_matchings_is_bottom(self):
        pm1, pm2 = G(2, (1, 1), (2, 2)), G(2, (1, 2), (2, 1))
        assert meet(pm1, pm2).is_empty

    def test_meet_with_top(self):
        pm1 = G(2, (1, 1), (2, 2))
        assert meet(BipartiteGraph.full(2), pm1) == pm1

    @pytest.mark.parametrize("op", [join, meet])
    def test_different_n_rejected(self, op):
        with pytest.raises(ValueError, match="same side size"):
            op(BipartiteGraph.full(2), BipartiteGraph.full(3))

    def test_non_node_rejected(self):
        bad = G(2, (1, 1), (1, 2), (2, 2))
        with pytest.raises(ValueError):
            join(bad, BipartiteGraph.full(2))
        with pytest.raises(ValueError):
            meet(bad, BipartiteGraph.full(2))

    def test_meet_below_both_exhaustive_mc3(self):
        nodes = list(enumerate_mc(3))
        for i in range(0, len(nodes), 3):
            for j in range(0, len(nodes), 3):
                m = meet(nodes[i], nodes[j])
                assert m.mask & ~nodes[i].mask == 0
                assert m.mask & ~nodes[j].mask == 0
                assert m.is_empty or is_matching_covered(m)


class TestIntervalMobiusSum:
    def test_top_is_signed_unit(self):
        lat = build_lattice(3)
        assert interval_mobius_sum(lat, lat.top) == -1  # (-1)^(chi+1), chi=4

    def test_bottom_n2_cancels(self):
        lat = build_lattice(2)
        assert interval_mobius_sum(lat, 0) == 0

    def test_all_non_top_vanish_n3(self):
        lat = build_lattice(3)
        for m in lat.masks.tolist():
            expected = -1 if m == lat.top else 0
            assert interval_mobius_sum(lat, m) == expected, hex(m)

    def test_non_node_rejected(self):
        lat = build_lattice(2)
        with pytest.raises(ValueError):
            interval_mobius_sum(lat, 0b0001)

    def test_other_side_size_rejected(self):
        # the n = 4 star {(1,1), (2,1), (3,1)} has the mask of the n = 3
        # identity matching, a node of the n = 3 lattice
        with pytest.raises(ValueError, match="graph has n=4, lattice has n=3"):
            interval_mobius_sum(build_lattice(3), BipartiteGraph(4, 0x111))


class TestUmbrella:
    def test_mc_graph_is_its_own_umbrella(self):
        for g in enumerate_mc(3):
            assert umbrella(g) == [g]
            break

    def test_triangle_n2(self):
        assert umbrella(G(2, (1, 1), (1, 2), (2, 2))) == [BipartiteGraph.full(2)]

    def test_single_edge_n3_gives_matchings_through_it(self):
        umb = umbrella(G(3, (1, 1)))
        pm_through = sorted(
            m.mask for m in enumerate_perfect_matchings(BipartiteGraph.full(3))
            if m.mask & 1)
        assert [h.mask for h in umb] == pm_through
        assert len(umb) == 2  # (n-1)!

    def test_antichain_and_domination_exhaustive_n3(self):
        mc3 = [g.mask for g in enumerate_mc(3)]
        for g in nonempty_graphs(3):
            umb = [h.mask for h in umbrella(g)]
            for x in umb:
                for y in umb:
                    assert x == y or x & ~y != 0
            for mask in mc3:
                if g.mask & ~mask == 0:
                    assert any(u & ~mask == 0 for u in umb), (g, hex(mask))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            umbrella(BipartiteGraph.empty(3))


class TestIncompleteUmbrella:
    def test_full_graph_complete(self):
        assert not has_incomplete_umbrella(BipartiteGraph.full(3))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            has_incomplete_umbrella(BipartiteGraph.empty(3))

    def test_mc_below_top_incomplete(self):
        for g in enumerate_mc(3):
            if g.mask != BipartiteGraph.full(3).mask:
                assert has_incomplete_umbrella(g), g

    def test_single_edge_n3_incomplete(self):
        # the two matchings through (1,1) miss the rest of row 1 and column 1
        assert has_incomplete_umbrella(G(3, (1, 1)))


class TestWildcardEdges:
    def test_not_wildcard_for_single_matching_n2(self):
        g = G(2, (1, 1), (2, 2))
        assert not is_wildcard_edge(g, 1, 2)

    def test_edge_present_rejected(self):
        with pytest.raises(ValueError):
            is_wildcard_edge(G(2, (1, 1), (2, 2)), 1, 1)

    def test_noncomplete_matching_union_component_gives_wildcards(self):
        # a six-cycle plus a pendant piece reached by one unallowed edge: the
        # matching union keeps the cycle component, which is not complete, so
        # the cycle's missing chords are wildcard edges
        g = G(4, (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1), (4, 4), (4, 1))
        assert enumerate_perfect_matchings(g)
        assert not is_matching_covered(g)
        union = union_of_perfect_matchings(g)
        assert union.mask == G(4, (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1),
                               (4, 4)).mask
        for a, b in ((1, 3), (2, 1), (3, 2)):
            assert not g.has_edge(a, b)
            assert is_wildcard_edge(g, a, b), (a, b)


class TestSurplusEdges:
    def test_tight_set_blocks_surplus(self):
        g = G(2, (1, 1), (2, 1))
        assert not is_surplus_edge(g, 1, 2)

    def test_edge_present_rejected(self):
        with pytest.raises(ValueError):
            is_surplus_edge(G(2, (1, 1)), 1, 1)

    def test_surplus_implies_wildcard_exhaustive_n3(self):
        for g in nonempty_graphs(3):
            for a in range(1, 4):
                for b in range(1, 4):
                    if g.has_edge(a, b):
                        continue
                    if is_surplus_edge(g, a, b):
                        assert is_wildcard_edge(g, a, b), (g, a, b)


class TestExports:
    def test_json_schema(self):
        lat = build_lattice(2)
        doc = lat.to_json_dict()
        json.dumps(doc)  # serializable
        assert doc["n"] == 2
        assert doc["nodes"] == [
            {"mask": "0x0", "rank": 0, "mobius": 1},
            {"mask": "0x6", "rank": 1, "mobius": -1},
            {"mask": "0x9", "rank": 1, "mobius": -1},
            {"mask": "0xf", "rank": 2, "mobius": 1},
        ]
        assert doc["cover_edges"] == [[0, 1], [0, 2], [1, 3], [2, 3]]

    def test_dot_layers(self):
        dot = build_lattice(3).to_dot()
        assert dot.count("rank=same") == len(N3_RANK_SIZES)
        assert dot.count(" -> ") == N3_COVERS
        assert dot.startswith("digraph")

    def test_dot_deterministic(self):
        assert build_lattice(2).to_dot() == build_lattice(2).to_dot()
