import math
from fractions import Fraction

import numpy as np
import pytest

from matchpoly import (
    BipartiteGraph,
    ResourceLimitError,
    _kernels,
    check_ear_decomposition,
    connected_components,
    count_mc,
    cyclomatic_number,
    ear_decomposition,
    enumerate_mc,
    hetyei_check,
    is_elementary,
    is_matching_covered,
    matchcov,
)

from helpers import graphs, nonempty_graphs, oracle_is_mc_by_subsets

MC_COUNTS = {1: 1, 2: 3, 3: 49, 4: 7443}
MC_COUNT_5 = 6092721
# labelled elementary graphs of K_{n,n}: MC masks with one component
ELEMENTARY_COUNTS = {1: 1, 2: 1, 3: 34, 4: 6785, 5: 5911726}


def seeded_elementary(n, seed):
    """The first elementary graph among seeded random half-dense masks."""
    rng = np.random.default_rng(seed)
    while True:
        g = BipartiteGraph(n, sum(1 << b for b in np.flatnonzero(rng.random(n * n) < 0.5).tolist()))
        if is_elementary(g):
            return g


def G(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


def C6():
    return G(3, (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 1))


class TestMatchingCovered:
    def test_triangle_not_covered(self):
        assert not is_matching_covered(G(2, (1, 1), (1, 2), (2, 2)))

    def test_k22_covered(self):
        assert is_matching_covered(BipartiteGraph.full(2))

    def test_single_matching_covered(self):
        assert is_matching_covered(G(2, (1, 1), (2, 2)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_matching_covered(BipartiteGraph.empty(2))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_subset_union_oracle_exhaustive(self, n):
        for g in nonempty_graphs(n):
            assert is_matching_covered(g) == oracle_is_mc_by_subsets(n, g.mask), g


class TestElementary:
    def test_k22(self):
        assert is_elementary(BipartiteGraph.full(2))

    def test_single_matching_is_disconnected(self):
        assert not is_elementary(G(2, (1, 1), (2, 2)))

    def test_six_cycle(self):
        g = C6()
        assert is_elementary(g)
        assert is_matching_covered(g)

    def test_k11(self):
        assert is_elementary(BipartiteGraph.full(1))

    def test_empty_is_not(self):
        assert not is_elementary(BipartiteGraph.empty(2))

    @pytest.mark.parametrize("n", [3, 4])
    def test_mc_components_are_elementary(self, n):
        for g in enumerate_mc(n):
            for lefts, rights in connected_components(g):
                sub = BipartiteGraph.from_edges(
                    len(lefts),
                    [(li + 1, ri + 1)
                     for li, l in enumerate(lefts)
                     for ri, r in enumerate(rights) if g.has_edge(l, r)])
                assert is_elementary(sub), (g, lefts, rights)


class TestHetyei:
    def test_k22_all_true(self):
        assert hetyei_check(BipartiteGraph.full(2)).as_tuple() == (True,) * 5

    def test_single_matching_all_false(self):
        assert hetyei_check(G(2, (1, 1), (2, 2))).as_tuple() == (False,) * 5

    def test_k11_all_true(self):
        assert hetyei_check(BipartiteGraph.full(1)).as_tuple() == (True,) * 5

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_all_five_agree_exhaustive(self, n):
        for g in graphs(n):
            report = hetyei_check(g)
            assert report.all_agree(), (g, report)

    def test_agrees_with_is_elementary_sampled_n4(self):
        rng = np.random.default_rng(23)
        for mask in rng.integers(0, 1 << 16, size=300).tolist():
            g = BipartiteGraph(4, int(mask))
            report = hetyei_check(g)
            assert report.all_agree(), (g, report)
            assert report.elementary == is_elementary(g)


# K_{2,2} on a1, a2, b1, b2 inside K_{3,3}, and an ear decomposition of it
CORNER = BipartiteGraph.from_edges(3, [(1, 1), (1, 2), (2, 1), (2, 2)])
CORNER_EARS = [["a1", "b1"], ["a1", "b2", "a2", "b1"], ["a2", "b2"]]


class TestEarDecomposition:
    def test_corner_accepted(self):
        assert check_ear_decomposition(CORNER, CORNER_EARS)

    @pytest.mark.parametrize("ears", [
        pytest.param([["c1", "b1"]] + CORNER_EARS[1:], id="bad-label"),
        pytest.param([["a4", "b1"]] + CORNER_EARS[1:], id="label-out-of-range"),
        pytest.param([], id="no-ears"),
        pytest.param([["a1", "b1", "a2"]] + CORNER_EARS[1:], id="base-of-two-edges"),
        pytest.param([["a3", "b3"]] + CORNER_EARS[1:], id="base-not-an-edge"),
        pytest.param(CORNER_EARS[:1] + [["a1", "b2", "a2"]] + CORNER_EARS[2:],
                     id="odd-vertex-count"),
        pytest.param(CORNER_EARS[:1] + [["a1", "b2", "a1", "b1"]], id="repeated-vertex"),
        pytest.param(CORNER_EARS[:1] + [["a2", "b2"]] + CORNER_EARS[1:2],
                     id="unreached-endpoint"),
        pytest.param(CORNER_EARS + [["a1", "b2", "a2", "b1"]], id="reached-interior"),
        pytest.param(CORNER_EARS[:1] + [["a1", "a2", "b2", "b1"]], id="same-side-step"),
        pytest.param(CORNER_EARS + [["a1", "b3", "a3", "b1"]], id="non-edge-step"),
    ])
    def test_malformed_rejected(self, ears):
        assert not check_ear_decomposition(CORNER, ears)

    def test_k22_example(self):
        g = BipartiteGraph.full(2)
        ears = [["a1", "b1"], ["a1", "b2", "a2", "b1"], ["a2", "b2"]]
        assert check_ear_decomposition(g, ears)

    def test_k11_single_edge(self):
        g = BipartiteGraph.full(1)
        assert ear_decomposition(g) == [["a1", "b1"]]
        assert check_ear_decomposition(g, [["a1", "b1"]])

    def test_non_elementary_has_none(self):
        assert ear_decomposition(G(2, (1, 1), (2, 2))) is None
        assert ear_decomposition(G(2, (1, 1), (1, 2), (2, 2))) is None

    @pytest.mark.parametrize("g", [G(2, (1, 1), (1, 2), (2, 2)),  # no way back
                                   G(2, (1, 1), (2, 2))])  # nothing touches a1-b1
    def test_search_running_dry_raises(self, g, monkeypatch):
        monkeypatch.setattr(matchcov, "is_elementary", lambda g: True)
        with pytest.raises(RuntimeError):
            matchcov.ear_decomposition(g)

    def test_even_length_path_rejected(self):
        g = BipartiteGraph.full(2)
        ears = [["a1", "b1"], ["b1", "a2", "b2"], ["a1", "b2"], ["a2", "b1"]]
        assert not check_ear_decomposition(g, ears)

    def test_wrong_union_rejected(self):
        g = BipartiteGraph.full(2)
        assert not check_ear_decomposition(g, [["a1", "b1"]])  # covers one edge

    def test_stale_interior_rejected(self):
        g = BipartiteGraph.full(2)
        # a2 appears before the path that claims it as fresh interior
        ears = [["a1", "b1"], ["a2", "b2"], ["a1", "b2", "a2", "b1"]]
        assert not check_ear_decomposition(g, ears)

    def test_redundant_single_edge_accepted(self):
        # re-adding an existing edge changes nothing under the union reading
        g = BipartiteGraph.full(2)
        ears = [["a1", "b1"], ["a1", "b2", "a2", "b1"], ["a2", "b2"]]
        assert check_ear_decomposition(g, ears)
        assert check_ear_decomposition(g, ears[:2])

    def test_dangling_endpoint_rejected(self):
        g = BipartiteGraph.full(2)
        ears = [["a1", "b1"], ["a2", "b2"], ["a1", "b2", "a2", "b1"]]
        assert not check_ear_decomposition(g, ears)

    def test_six_cycle(self):
        g = C6()
        ears = ear_decomposition(g)
        assert ears is not None
        assert check_ear_decomposition(g, ears)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_elementary(self, n):
        found = 0
        for g in nonempty_graphs(n):
            ears = ear_decomposition(g)
            if is_elementary(g):
                found += 1
                assert ears is not None
                assert check_ear_decomposition(g, ears), g
                assert len(ears) == cyclomatic_number(g) + 1, g
                # edge bookkeeping: |E| = 1 + sum of ear lengths
                assert g.edge_count == 1 + sum(len(p) - 1 for p in ears[1:])
            else:
                assert ears is None
        assert found > 0

    @pytest.mark.parametrize("g", [BipartiteGraph.full(4), BipartiteGraph.full(5)]
                             + [BipartiteGraph.full(n) for n in (1, 2, 3, 6, 7, 8)]
                             + [seeded_elementary(n, seed=n) for n in (5, 6, 7, 8)])
    def test_complete_graphs(self, g):
        ears = ear_decomposition(g)
        assert ears is not None
        assert check_ear_decomposition(g, ears)
        assert len(ears) == cyclomatic_number(g) + 1

    def test_every_elementary_n4(self):
        masks = np.arange(1 << 16)
        elementary = np.flatnonzero(_kernels.mc_flags_for_range(4, 0, 1 << 16)
                                    & (_kernels.component_counts(4, masks) == 1))
        assert len(elementary) == ELEMENTARY_COUNTS[4]
        for mask in elementary.tolist():
            g = BipartiteGraph(4, mask)
            ears = ear_decomposition(g)
            assert ears is not None and check_ear_decomposition(g, ears), g
            assert len(ears) == cyclomatic_number(g) + 1, g


class TestExponentialFormula:
    """An MC graph is a vertex-disjoint union of elementary graphs (Lovász &
    Plummer, *Matching Theory*), so the two-sided exponential formula
    sum |MC_n| t^n/(n!)^2 = exp(sum e_m t^m/(m!)^2) holds term by term."""

    MC = {**MC_COUNTS, 5: MC_COUNT_5}

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_direct_counts(self, n):
        mc = elementary = 0
        with _kernels.thread_default(2):
            for block in _kernels.stream_mc_masks(n):
                mc += len(block)
                elementary += int((_kernels.component_counts(n, block) == 1).sum())
        assert (mc, elementary) == (self.MC[n], ELEMENTARY_COUNTS[n])

    def test_counts_satisfy_the_identity(self):
        e = [Fraction(0)] + [Fraction(ELEMENTARY_COUNTS[m], math.factorial(m) ** 2)
                             for m in range(1, 6)]
        # b = exp(e) from b' = e' b: n b_n = sum_k k e_k b_(n-k), b_0 = 1
        b = [Fraction(1)]
        for n in range(1, 6):
            b.append(sum(k * e[k] * b[n - k] for k in range(1, n + 1)) / n)
        assert [b[n] * math.factorial(n) ** 2 for n in range(1, 6)] == [
            self.MC[n] for n in range(1, 6)]


class TestOrderLemmas:
    def test_proper_mc_subgraphs_drop_chi(self):
        # every matching-covered proper subgraph of an elementary graph has a
        # strictly smaller cyclomatic number
        for g in nonempty_graphs(3):
            if not is_elementary(g):
                continue
            chi_g = cyclomatic_number(g)
            for h in nonempty_graphs(3):
                if h.mask != g.mask and h.mask & ~g.mask == 0 and is_matching_covered(h):
                    assert cyclomatic_number(h) < chi_g, (g, h)

    def test_chi_descends_in_unit_steps(self):
        # every non-matching MC graph has an MC subgraph one chi lower
        from matchpoly import enumerate_perfect_matchings
        pm_masks = {m.mask for m in enumerate_perfect_matchings(BipartiteGraph.full(3))}
        for g in enumerate_mc(3):
            if g.mask in pm_masks:
                continue
            chi_g = cyclomatic_number(g)
            assert any(
                h.mask != g.mask and h.mask & ~g.mask == 0
                and cyclomatic_number(h) == chi_g - 1
                for h in enumerate_mc(3)), g


class TestEnumeration:
    def test_n2_exact(self):
        masks = [g.mask for g in enumerate_mc(2)]
        assert masks == [0b0110, 0b1001, 0b1111]

    @pytest.mark.parametrize("n,count", sorted(MC_COUNTS.items()))
    def test_counts_frozen(self, n, count):
        assert count_mc(n) == count
        assert count % 2 == 1

    def test_stream_matches_count(self):
        assert sum(1 for _ in enumerate_mc(3)) == MC_COUNTS[3]

    def test_ascending_order(self):
        masks = [g.mask for g in enumerate_mc(3)]
        assert masks == sorted(masks)

    def test_stream_agrees_with_membership(self):
        streamed = {g.mask for g in enumerate_mc(3)}
        direct = {g.mask for g in nonempty_graphs(3) if is_matching_covered(g)}
        assert streamed == direct

    def test_n4_lower_bound(self):
        assert count_mc(4) >= math.factorial(4) ** 2

    def test_huge_requires_flag(self):
        with pytest.raises(ResourceLimitError):
            next(iter(enumerate_mc(6)))
        with pytest.raises(ResourceLimitError):
            count_mc(6)
