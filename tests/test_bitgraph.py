from itertools import islice, permutations

import pytest

from matchpoly import (
    BipartiteGraph,
    allowed_edges,
    connected_components,
    cyclomatic_number,
    enumerate_perfect_matchings,
    has_perfect_matching,
    parse_graph,
    union_of_perfect_matchings,
)
from matchpoly.bitgraph import hall_violating_subset, iter_perfect_matchings, left_neighborhoods

from helpers import graphs, oracle_chi, oracle_has_pm, oracle_pm_union


def G(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


class TestConstruction:
    def test_bit_layout_is_row_major(self):
        g = G(3, (1, 1), (2, 3), (3, 1))
        assert g.mask == (1 << 0) | (1 << 5) | (1 << 6)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            BipartiteGraph(0, 0)
        with pytest.raises(ValueError):
            BipartiteGraph(9, 0)
        with pytest.raises(ValueError):
            BipartiteGraph(2, 1 << 4)
        with pytest.raises(ValueError):
            G(2, (1, 3))

    def test_edges_roundtrip(self):
        g = G(4, (2, 3), (1, 1), (4, 4))
        assert g.edges == ((1, 1), (2, 3), (4, 4))
        assert BipartiteGraph.from_edges(4, g.edges) == g

    def test_neighbors(self):
        g = G(3, (1, 1), (1, 3), (2, 2))
        assert g.neighbors(1) == {1, 3}
        assert g.neighbors(3) == frozenset()


class TestParsing:
    def test_edge_list(self):
        assert parse_graph(2, "1-1,2-2").mask == 0b1001

    def test_hex(self):
        assert parse_graph(3, "0x1FF").mask == 511
        assert parse_graph(2, "0x0").is_empty

    def test_whitespace_tolerated(self):
        assert parse_graph(2, " 1-1 , 2-2 ").mask == 0b1001

    @pytest.mark.parametrize("bad", ["1-", "1", "a-b", "1-1,", "0x10000", "", "3-1"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_graph(2, bad)

    def test_text_roundtrip(self):
        g = G(2, (1, 1), (2, 2))
        assert parse_graph(2, g.to_text()) == g
        assert parse_graph(2, g.to_hex()) == g


class TestHasPerfectMatching:
    def test_single_matching(self):
        assert has_perfect_matching(G(2, (1, 1), (2, 2)))

    def test_triangle_graph(self):
        assert has_perfect_matching(G(2, (1, 1), (1, 2), (2, 2)))

    def test_isolated_left_vertex(self):
        assert not has_perfect_matching(G(2, (1, 1), (1, 2)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_permutation_scan(self, n):
        for g in graphs(n):
            assert has_perfect_matching(g) == oracle_has_pm(n, g.mask), g

    def test_hall_equivalence_exhaustive_n3(self):
        for g in graphs(3):
            assert has_perfect_matching(g) == (hall_violating_subset(g) is None), g

    def test_larger_sides(self):
        assert has_perfect_matching(BipartiteGraph.full(8))
        missing_row = BipartiteGraph(8, BipartiteGraph.full(8).mask & ~(0xFF << 8))
        assert not has_perfect_matching(missing_row)


class TestEnumerateMatchings:
    def test_k22(self):
        ms = enumerate_perfect_matchings(BipartiteGraph.full(2))
        assert [m.pairs for m in ms] == [((1, 1), (2, 2)), ((1, 2), (2, 1))]

    def test_single(self):
        ms = enumerate_perfect_matchings(G(2, (1, 1), (2, 2)))
        assert len(ms) == 1

    def test_k33_has_six(self):
        assert len(enumerate_perfect_matchings(BipartiteGraph.full(3))) == 6

    def test_lexicographic_order(self):
        ms = enumerate_perfect_matchings(BipartiteGraph.full(3))
        seqs = [tuple(j for _, j in m.pairs) for m in ms]
        assert seqs == sorted(seqs)

    def test_consistent_with_existence(self):
        for g in graphs(3):
            assert has_perfect_matching(g) == bool(enumerate_perfect_matchings(g))

    def test_lazy_search_in_lexicographic_order(self):
        first = islice(iter_perfect_matchings(BipartiteGraph.full(8)), 3)
        assert [tuple(j for _, j in m.pairs) for m in first] == list(
            islice(permutations(range(1, 9)), 3))


class TestLeftNeighborhoods:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_union_of_rows_exhaustive(self, n):
        for g in graphs(n):
            want = [0] * (1 << n)
            for xs in range(1 << n):
                for i in range(1, n + 1):
                    if (xs >> (i - 1)) & 1:
                        want[xs] |= g.row(i)
            assert left_neighborhoods(n, g.mask) == want, g


class TestAllowedEdges:
    def test_triangle(self):
        g = G(2, (1, 1), (1, 2), (2, 2))
        assert allowed_edges(g) == G(2, (1, 1), (2, 2)).mask

    def test_k22_all_allowed(self):
        g = BipartiteGraph.full(2)
        assert allowed_edges(g) == g.mask

    def test_n1(self):
        # deleting the only vertex pair leaves K_{0,0}: its empty matching is perfect
        assert [allowed_edges(BipartiteGraph(1, m)) for m in (0, 1)] == [0, 1]

    def test_subset_of_edges(self):
        for g in graphs(3):
            assert allowed_edges(g) & ~g.mask == 0

    def test_oracle_union_per_edge(self):
        g = G(3, (1, 1), (2, 2), (3, 3), (1, 2))
        union = 0
        for m in enumerate_perfect_matchings(g):
            union |= m.mask
        assert allowed_edges(g) == union


class TestUnionOfPerfectMatchings:
    def test_triangle(self):
        g = G(2, (1, 1), (1, 2), (2, 2))
        assert union_of_perfect_matchings(g) == G(2, (1, 1), (2, 2))

    def test_k22(self):
        g = BipartiteGraph.full(2)
        assert union_of_perfect_matchings(g) == g

    def test_no_matching_gives_empty(self):
        g = G(2, (1, 1), (1, 2))
        assert union_of_perfect_matchings(g).is_empty

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_equivalence_exhaustive(self, n):
        for g in graphs(n):
            assert union_of_perfect_matchings(g).mask == oracle_pm_union(n, g.mask), g


class TestComponents:
    def test_two_components(self):
        assert len(connected_components(G(2, (1, 1), (2, 2)))) == 2

    def test_k22_connected(self):
        assert len(connected_components(BipartiteGraph.full(2))) == 1

    def test_empty_graph_singletons(self):
        comps = connected_components(BipartiteGraph.empty(3))
        assert len(comps) == 6
        assert all(len(ls) + len(rs) == 1 for ls, rs in comps)

    def test_ordered_by_smallest_vertex_left_first(self):
        assert connected_components(G(3, (3, 1), (1, 1), (2, 3))) == [
            ((1, 3), (1,)), ((2,), (3,)), ((), (2,))]
        assert connected_components(G(3, (3, 1), (1, 2))) == [
            ((1,), (2,)), ((2,), ()), ((3,), (1,)), ((), (3,))]

    def test_partition_covers_everything(self):
        for g in graphs(3):
            comps = connected_components(g)
            lefts = sorted(v for ls, _ in comps for v in ls)
            rights = sorted(v for _, rs in comps for v in rs)
            assert lefts == [1, 2, 3] and rights == [1, 2, 3]


class TestCyclomaticNumber:
    def test_single_matching_zero(self):
        assert cyclomatic_number(G(2, (1, 1), (2, 2))) == 0

    def test_k22_one(self):
        assert cyclomatic_number(BipartiteGraph.full(2)) == 1

    def test_k33_four(self):
        assert cyclomatic_number(BipartiteGraph.full(3)) == 4

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_exhaustive(self, n):
        for g in graphs(n):
            assert cyclomatic_number(g) == oracle_chi(n, g.mask), g

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
    def test_complete_graph_formula(self, n):
        assert cyclomatic_number(BipartiteGraph.full(n)) == (n - 1) ** 2

    def test_additive_over_components(self):
        # disjoint K_{2,2} on {1,2} and an edge on {3}
        g = G(3, (1, 1), (1, 2), (2, 1), (2, 2), (3, 3))
        k22 = BipartiteGraph.full(2)
        edge = BipartiteGraph.from_edges(1, [(1, 1)])
        assert cyclomatic_number(g) == cyclomatic_number(k22) + cyclomatic_number(edge)
