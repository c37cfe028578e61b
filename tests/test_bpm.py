import hashlib
import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchpoly import (
    BipartiteGraph,
    ResourceLimitError,
    TotalOrderClass,
    _kernels,
    appendix_a_zero_test,
    bounds_report,
    bpm_truth,
    classify_total_order,
    connected_components,
    count_mc,
    dual_coefficient,
    dual_polynomial,
    dualize,
    enumerate_hall_violators,
    enumerate_mc,
    fubini,
    has_perfect_matching,
    hvc_lower_bound_witness,
    interpolate,
    is_hvc,
    is_matching_covered,
    pm_probability,
    primal_polynomial,
    stirling2,
    to_fourier,
    to_text,
    totally_ordered_count,
)
from matchpoly import bpm
from matchpoly.bpm import appendix_a_zero_flags, total_order_codes
from matchpoly.verify import run_claim

from helpers import (
    clear_caches,
    n5_uniform_or_dense,
    nonempty_graphs,
    oracle_canonical_form,
    oracle_ferrers_orbit,
)

# n = 5 examples build the state-code and reach tables on first use; keep runs repeatable
PROPERTY = settings(deadline=None, derandomize=True)

TRUTH_ONES = {1: 1, 2: 7, 3: 247, 4: 37823}
DUAL_MONOMIALS = {2: 9, 3: 121, 4: 2721}
TOTALLY_ORDERED = {1: 2, 2: 14, 3: 230, 4: 6902}


def G(n, *edges):
    return BipartiteGraph.from_edges(n, edges)


def dense_dual(n):
    """Every dual coefficient by the dense route, which does not assume
    Theorem 2 (the orbit route of dual_polynomial does)."""
    d = dualize(primal_polynomial(n))
    table = np.zeros(1 << (n * n), dtype=np.int64)
    table[d.masks] = d.coeffs
    return table


def mc_superset_coefficient(g):
    """Dual coefficient by the MC-superset signed sum: (-1)^(|E|+1) times
    the sum of (-1)^chi over the matching-covered supergraphs of g."""
    n, free = g.n, g.n * g.n - g.edge_count
    sups = _kernels.supergraph_masks(n, g.mask, 0, 1 << free)
    chi = _kernels.chi_values(n, sups[_kernels.mc_flags_for_masks(n, sups)])
    return (-1) ** (g.edge_count + 1) * int((1 - 2 * (chi & 1)).sum())


def submask_mobius_coefficient(n, mask):
    """sum over T subseteq S of (-1)^{|S \\ T|} (1 - BPM(K_{n,n} \\ T)), read
    from the truth table."""
    bits = [b for b in range(n * n) if (mask >> b) & 1]
    ks = np.arange(1 << len(bits), dtype=np.int64)
    subs = np.zeros(ks.size, dtype=np.int64)
    for pos, b in enumerate(bits):
        subs |= ((ks >> pos) & 1) << b
    values = 1 - _kernels.truth_table(n)[((1 << (n * n)) - 1) ^ subs].astype(np.int64)
    signs = 1 - 2 * ((len(bits) - _kernels.popcount_array(subs)) & 1)
    return int((signs * values).sum())


# frozen from the dense route: `poly --n 5 --basis dual` text and histogram
N5_DUAL_TEXT_SHA256 = "76e052c51438226b9cb82a60c53cd2c905f9a769a51146403100a5bfc92fb1d7"
N5_DUAL_HISTOGRAM = {-4: 500, -3: 700, -2: 2400, -1: 44175, 1: 42411,
                     2: 4800, 4: 30, 6: 120, 9: 25}


class TestTruth:
    @pytest.mark.parametrize("n,ones", sorted(TRUTH_ONES.items()))
    def test_popcounts_frozen_and_odd(self, n, ones):
        assert bpm_truth(n).popcount() == ones
        assert ones % 2 == 1

    def test_n1(self):
        t = bpm_truth(1)
        assert t[0] == 0 and t[1] == 1

    def test_seven_ones_by_inclusion_exclusion(self):
        # |contains PM1| + |contains PM2| - |contains both| = 4 + 4 - 1
        assert bpm_truth(2).popcount() == 7

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            bpm_truth(6)


class TestPrimalPolynomial:
    def test_n2_closed_form(self):
        assert primal_polynomial(2).terms == {0b1001: 1, 0b0110: 1, 0b1111: -1}

    def test_full_graph_coefficient(self):
        p = primal_polynomial(3)
        assert p.coeff((1 << 9) - 1) == 1  # chi = 4, even

    def test_matching_coefficients(self):
        p = primal_polynomial(3)
        assert p.coeff(G(3, (1, 1), (2, 2), (3, 3)).mask) == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_interpolation(self, n):
        assert primal_polynomial(n) == interpolate(bpm_truth(n))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            primal_polynomial(6)


class TestClassification:
    def test_disjoint_matching_not_ordered(self):
        assert classify_total_order(G(2, (1, 1), (2, 2))) \
            is TotalOrderClass.NOT_TOTALLY_ORDERED

    def test_nested_chain_strict(self):
        g = G(3, (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
        assert classify_total_order(g) is TotalOrderClass.STRICTLY_TOTALLY_ORDERED

    def test_complete_graph_non_strict(self):
        assert classify_total_order(BipartiteGraph.full(3)) \
            is TotalOrderClass.TOTALLY_ORDERED_NON_STRICT

    def test_empty_graph_non_strict(self):
        assert classify_total_order(BipartiteGraph.empty(2)) \
            is TotalOrderClass.TOTALLY_ORDERED_NON_STRICT

    def test_strict_count_is_factorial_squared(self):
        for n in (2, 3):
            count = sum(
                1 for g in nonempty_graphs(n)
                if classify_total_order(g) is TotalOrderClass.STRICTLY_TOTALLY_ORDERED)
            assert count == math.factorial(n) ** 2


def scalar_codes(n, masks):
    order = list(TotalOrderClass)
    return [order.index(classify_total_order(BipartiteGraph(n, m))) for m in masks]


@st.composite
def chains(draw, n):
    """Totally ordered masks: nested rows (a column order and a degree per
    row), strict or not, with the rows shuffled."""
    cols = draw(st.permutations(range(n)))
    degrees = draw(st.lists(st.integers(0, n), min_size=n, max_size=n))
    rows = [sum(1 << c for c in cols[:d]) for d in degrees]
    return sum(r << (n * i) for i, r in enumerate(rows))


class TestTotalOrderCodes:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_n(self, n):
        codes = total_order_codes(n, np.arange(1 << (n * n)))
        assert codes.dtype == np.int8
        assert codes.tolist() == scalar_codes(n, range(1 << (n * n)))

    @given(st.lists(n5_uniform_or_dense() | chains(5), min_size=1, max_size=100))
    @PROPERTY
    def test_n5_uniform_dense_and_chains(self, masks):
        codes = total_order_codes(5, np.array(masks, dtype=np.int64))
        assert codes.tolist() == scalar_codes(5, masks)

    @pytest.mark.parametrize("n", [6, 7, 8])
    @given(data=st.data())
    @PROPERTY
    def test_chains_up_to_max_side(self, n, data):
        # at n = 6, 7 a sort key of (degree << n) | row no longer fits a uint8
        masks = data.draw(st.lists(chains(n) | st.integers(0, (1 << (n * n)) - 1),
                                   min_size=1, max_size=100))
        codes = total_order_codes(n, np.array(masks, dtype=np.uint64))
        assert codes.tolist() == scalar_codes(n, masks)


class TestDualPolynomial:
    @pytest.mark.parametrize("n,count", sorted(DUAL_MONOMIALS.items()))
    def test_monomial_counts_frozen(self, n, count):
        assert len(dual_polynomial(n)) == count

    def test_equals_interpolated_dual_truth(self):
        for n in (1, 2, 3, 4):
            assert dual_polynomial(n) == interpolate(bpm_truth(n).dual())

    def test_equals_dualized_primal(self):
        for n in (1, 2, 3, 4):
            assert dual_polynomial(n) == dualize(primal_polynomial(n))

    def test_n5_frozen(self):
        d = dual_polynomial(5)
        assert len(d) == 95_161
        assert Counter(d.coeffs.tolist()) == N5_DUAL_HISTOGRAM
        assert hashlib.sha256(to_text(d).encode()).hexdigest() == N5_DUAL_TEXT_SHA256

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbit_sizes_cover_the_totally_ordered_graphs(self, n):
        shapes = [d for d, _ in bpm._ferrers_coefficients(n)]
        assert len(shapes) == math.comb(2 * n, n) - 1
        sizes = [bpm._orbit_size(n, d) for d in shapes]
        assert sum(sizes) + 1 == totally_ordered_count(n)
        orbits = [bpm._ferrers_orbit(n, [(1 << d) - 1 for d in degrees])
                  for degrees in shapes]
        assert [o.size for o in orbits] == sizes
        members = np.concatenate(orbits)
        assert np.unique(members).size == members.size
        assert np.all(total_order_codes(n, members) != 0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_orbits_match_the_oracle(self, n):
        for degrees, _ in bpm._ferrers_coefficients(n):
            rows = [(1 << d) - 1 for d in degrees]
            orbit = bpm._ferrers_orbit(n, rows)
            assert np.sort(orbit).tolist() == oracle_ferrers_orbit(n, rows), degrees

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_level_walk_matches_one_walk_per_shape(self, n):
        """Every shape in trie order (depth first, larger degrees first:
        lexicographically descending), each coefficient that of one walk
        over its rows; every shape at n <= 5, a seeded sample at n = 6."""
        got = list(bpm._ferrers_coefficients(n))
        shapes = [d for d in itertools.product(range(n, -1, -1), repeat=n)
                  if d[0] and all(a >= b for a, b in zip(d, d[1:]))]
        assert [d for d, _ in got] == shapes
        picked = range(len(got)) if n <= 5 else np.random.default_rng(67).choice(
            len(got), size=60, replace=False).tolist()
        for i in picked:
            degrees, c = got[i]
            rows = [(1 << d) - 1 for d in degrees]
            assert c == -_kernels.signed_matchable_sum(n, rows), degrees

    def test_orbit_count_mismatch_raises(self, monkeypatch):
        clear_caches()
        real = totally_ordered_count(3)
        monkeypatch.setattr(bpm, "totally_ordered_count", lambda n: real + 1)
        with pytest.raises(RuntimeError, match="Ferrers orbits cover 230"):
            dual_polynomial(3)

    def test_short_orbit_raises(self, monkeypatch):
        clear_caches()
        real = bpm._ferrers_orbit

        def short(n, rows):
            orbit = real(n, rows)
            return orbit[1:] if rows == [7, 7, 0] else orbit
        monkeypatch.setattr(bpm, "_ferrers_orbit", short)
        with pytest.raises(RuntimeError,
                           match=r"shape \(3, 3, 0\): orbit has 2 graphs, expected 3"):
            dual_polynomial(3)

    def test_repeated_graph_raises(self, monkeypatch):
        clear_caches()
        real = bpm._ferrers_orbit

        def repeating(n, rows):
            orbit = real(n, rows).copy()
            if rows == [3, 3, 1]:
                orbit[1] = orbit[0]
            return orbit
        monkeypatch.setattr(bpm, "_ferrers_orbit", repeating)
        with pytest.raises(RuntimeError,
                           match=r"shape \(2, 2, 1\): graph 0x[0-9a-f]+ listed twice"):
            dual_polynomial(3)

    def test_strictly_ordered_coefficient_n2(self):
        assert dense_dual(2)[G(2, (1, 1), (1, 2), (2, 1)).mask] == -1

    def test_k22_coefficient_n2(self):
        assert dense_dual(2)[BipartiteGraph.full(2).mask] == 1

    def test_coefficient_bounds(self):
        for n in (2, 3, 4):
            d = dual_polynomial(n)
            assert math.factorial(n) ** 2 <= len(d) < (n + 2) ** (2 * n + 2)


class TestDualCoefficient:
    def test_matches_dense_table_n3(self):
        table = dense_dual(3)
        rng = np.random.default_rng(31)
        for mask in rng.integers(1, 512, size=60).tolist():
            assert dual_coefficient(BipartiteGraph(3, int(mask))) == table[mask]

    def test_mc_graphs_vanish(self):
        full = BipartiteGraph.full(3)
        for g in enumerate_mc(3):
            if g != full:
                assert dual_coefficient(g) == 0, g

    def test_embedded_biclique(self):
        little = G(3, (1, 1), (1, 2), (2, 1), (2, 2))
        assert dual_coefficient(little) == 1  # (n-2)^2 at n=3

    def test_violators_are_minterms(self):
        for h in enumerate_hall_violators(3):
            assert dual_coefficient(h) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dual_coefficient(BipartiteGraph.empty(3))

    def test_many_chunks_match_dense_table_n4(self):
        table = dense_dual(4)
        small = np.flatnonzero((table != 0) & (_kernels.popcount_array(np.arange(1 << 16)) <= 7))
        rng = np.random.default_rng(37)
        sparse = [sum(1 << b for b in rng.choice(16, size=k, replace=False).tolist())
                  for k in rng.integers(1, 8, size=40).tolist()]
        assert len(small) == 8 + 48 + 112
        for mask in small.tolist() + sparse:
            assert dual_coefficient(BipartiteGraph(4, mask)) == table[mask], hex(mask)

    def test_every_mask_matches_dense_table_n4(self):
        table = dense_dual(4)
        got = [dual_coefficient(BipartiteGraph(4, m)) for m in range(1, 1 << 16)]
        assert np.array_equal(np.array(got), table[1:])

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_mask_matches_mc_superset_sum(self, n):
        for mask in range(1, 1 << (n * n)):
            g = BipartiteGraph(n, mask)
            assert dual_coefficient(g) == mc_superset_coefficient(g), hex(mask)

    def test_sparse_n4_match_mc_superset_sum(self):
        rng = np.random.default_rng(43)
        for k in range(1, 17):
            for _ in range(4):
                mask = sum(1 << b for b in rng.choice(16, size=k, replace=False).tolist())
                g = BipartiteGraph(4, mask)
                assert dual_coefficient(g) == mc_superset_coefficient(g), hex(mask)

    def test_n5_matches_submask_mobius_sum(self):
        """Random graphs (almost all coefficient 0) and permuted Ferrers
        shapes (the nonzero ones) with 7..16 edges."""
        rng = np.random.default_rng(47)
        shapes = [d for d, _ in bpm._ferrers_coefficients(5)]
        masks = []
        for k in range(7, 17):
            for _ in range(4):
                masks.append(sum(1 << b for b in rng.choice(25, size=k, replace=False).tolist()))
            for i in rng.choice([i for i, d in enumerate(shapes) if sum(d) == k], size=3):
                rows, cols = rng.permutation(5), rng.permutation(5)
                masks.append(sum(1 << (5 * int(rows[r]) + int(cols[c]))
                                 for r, d in enumerate(shapes[i]) for c in range(d)))
        coeffs = [dual_coefficient(BipartiteGraph(5, m)) for m in masks]
        assert coeffs == [submask_mobius_coefficient(5, m) for m in masks]
        assert sum(c != 0 for c in coeffs) >= 10

    def test_n6_staircase_nonordered_and_permuted_ferrers(self):
        n = 6
        staircase = sum(((1 << (n - i)) - 1) << (n * i) for i in range(n))
        assert dual_coefficient(BipartiteGraph(n, staircase)) == (-1) ** (n + 1)
        assert dual_coefficient(G(n, (1, 1), (1, 2), (2, 2), (2, 3))) == 0
        shapes = dict(bpm._ferrers_coefficients(n))
        zero = [d for d, c in shapes.items() if c == 0]
        nonzero = [d for d, c in shapes.items() if c]
        rng = np.random.default_rng(59)
        picked = ([nonzero[i] for i in rng.choice(len(nonzero), size=6, replace=False)]
                  + [zero[i] for i in rng.choice(len(zero), size=2, replace=False)])
        for degrees in picked:
            rows, cols = rng.permutation(n), rng.permutation(n)
            mask = sum(1 << (n * int(rows[r]) + int(cols[c]))
                       for r, d in enumerate(degrees) for c in range(d))
            assert dual_coefficient(BipartiteGraph(n, mask)) == shapes[degrees], degrees

    def test_hard_cap_is_7(self):
        with pytest.raises(ResourceLimitError, match="hard cap n<=7"):
            dual_coefficient(BipartiteGraph.full(8))

    @pytest.mark.large
    def test_n7_staircase_and_biclique(self):
        n = 7
        staircase = sum(((1 << (n - i)) - 1) << (n * i) for i in range(n))
        assert dual_coefficient(BipartiteGraph(n, staircase)) == (-1) ** (n + 1)
        k66 = sum(0b111111 << (n * i) for i in range(6))
        assert dual_coefficient(BipartiteGraph(n, k66)) == (n - 2) ** 2

    @pytest.mark.large
    def test_n5_matches_mc_superset_sum(self):
        rng = np.random.default_rng(53)
        for k in range(7, 17):
            for _ in range(4):
                mask = sum(1 << b for b in rng.choice(25, size=k, replace=False).tolist())
                g = BipartiteGraph(5, mask)
                assert dual_coefficient(g) == mc_superset_coefficient(g), hex(mask)


class TestHallViolators:
    def test_counts(self):
        assert len(enumerate_hall_violators(2)) == 4
        assert len(enumerate_hall_violators(3)) == 15
        assert len(enumerate_hall_violators(4)) == 56

    def test_shape(self):
        for h in enumerate_hall_violators(3):
            comps = [c for c in connected_components(h) if c[0] and c[1]]
            assert len(comps) == 1
            lefts, rights = comps[0]
            assert len(lefts) + len(rights) == 4  # n + 1
            assert h.edge_count == len(lefts) * len(rights)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            enumerate_hall_violators(1)

    def test_n_above_max_side_rejected(self):
        with pytest.raises(ValueError, match="side size must be in 1..8"):
            enumerate_hall_violators(9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_masks_match_scalar_enumeration(self, n):
        want = sorted(sum(1 << (n * i + j) for i in range(n) if xs >> i & 1
                          for j in range(n) if ys >> j & 1)
                      for xs in range(1, 1 << n) for ys in range(1, 1 << n)
                      if xs.bit_count() + ys.bit_count() == n + 1)
        got = [h.mask for h in enumerate_hall_violators(n)]
        assert got == want
        assert (max(got) >> 63 == 1) == (n == 8)  # row 8 holds bit 63

    @pytest.mark.parametrize("n", range(2, 9))
    def test_count_is_vandermonde(self, n):
        # sum over |X| of C(n, |X|) C(n, n + 1 - |X|) = C(2n, n + 1)
        assert len(enumerate_hall_violators(n)) == math.comb(2 * n, n + 1)


class TestIsHvc:
    def test_violators_are_hvc(self):
        for h in enumerate_hall_violators(3):
            assert is_hvc(h)

    def test_single_matching_is_not(self):
        assert not is_hvc(G(2, (1, 1), (2, 2)))

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            is_hvc(BipartiteGraph.empty(3))

    def test_nonzero_dual_implies_hvc_exhaustive_n3(self):
        table = dense_dual(3)
        for g in nonempty_graphs(3):
            if table[g.mask] != 0:
                assert is_hvc(g), g

    @staticmethod
    def check_union_oracle(n, distinct):
        unions = {0}
        for h in enumerate_hall_violators(n):
            unions |= {u | h.mask for u in unions}
        unions.discard(0)
        assert len(unions) == distinct
        for g in nonempty_graphs(n):
            assert is_hvc(g) == (g.mask in unions), g

    def test_hvc_matches_union_oracle_n2(self):
        self.check_union_oracle(2, 9)

    def test_hvc_matches_union_oracle_n3(self):
        self.check_union_oracle(3, 148)  # 15 violators


class TestHvcWitness:
    def test_n4(self):
        w = hvc_lower_bound_witness(4)
        assert w.edge_count == 10
        assert is_hvc(w)

    def test_n2_degenerate(self):
        w = hvc_lower_bound_witness(2)
        assert w.edge_count == 2
        assert is_hvc(w)

    def test_n6_structure(self):
        w = hvc_lower_bound_witness(6)
        assert w.edge_count == 36 - 3 * 4
        assert is_hvc(w)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            hvc_lower_bound_witness(3)


class TestCounting:
    @pytest.mark.parametrize("n,count", sorted(TOTALLY_ORDERED.items()))
    def test_totally_ordered_formula_frozen(self, n, count):
        assert totally_ordered_count(n) == count

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_totally_ordered_exhaustive(self, n):
        exhaustive = sum(
            1 for m in range(1 << (n * n))
            if classify_total_order(BipartiteGraph(n, m))
            is not TotalOrderClass.NOT_TOTALLY_ORDERED)
        assert totally_ordered_count(n) == exhaustive

    def test_bounds_dual_monomials(self):
        for n in (2, 3, 4):
            assert totally_ordered_count(n) >= DUAL_MONOMIALS[n]

    def test_stirling_edges(self):
        assert stirling2(0, 0) == 1
        assert stirling2(5, 5) == 1
        assert stirling2(5, 1) == 1
        assert stirling2(4, 2) == 7
        with pytest.raises(ValueError):
            stirling2(2, 3)

    def test_fubini(self):
        assert [fubini(m) for m in range(5)] == [1, 1, 3, 13, 75]
        for m in range(1, 8):
            assert fubini(m) < (m + 1) ** m


class TestProbability:
    def test_n2_value(self):
        assert pm_probability(2) == Fraction(7, 16)

    def test_n1(self):
        assert pm_probability(1) == Fraction(1, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_truth_density(self, n):
        assert pm_probability(n) == Fraction(TRUTH_ONES[n], 1 << (n * n))


class TestBounds:
    def test_n2(self):
        rep = bounds_report(2)
        assert rep.deg2_value == 4 and rep.xor_lb == 4
        assert rep.and_lb == pytest.approx(1.0, abs=1e-12)
        assert rep.or_lb_factorial == pytest.approx(1.2618595071429148, abs=1e-12)
        assert rep.monomial_count_primal == 3

    def test_n3(self):
        rep = bounds_report(3)
        assert rep.xor_lb == 9
        assert rep.monomial_count_primal == 49
        assert rep.monomial_count_dual == 121

    def test_n5_counts_unavailable(self):
        rep = bounds_report(5)
        assert rep.deg2_value is None
        assert rep.monomial_count_primal is None
        assert rep.or_lb_factorial == pytest.approx(2 * math.log(120) / math.log(3))

    def test_consistency_invariants(self):
        rep = bounds_report(3)
        assert rep.xor_lb == rep.deg2_value
        assert rep.and_lb == pytest.approx(
            math.log(rep.monomial_count_primal) / math.log(3))


class TestAppendixA:
    def test_requires_matching(self):
        with pytest.raises(ValueError):
            appendix_a_zero_test(G(2, (1, 1)))

    def test_requires_non_mc(self):
        with pytest.raises(ValueError):
            appendix_a_zero_test(BipartiteGraph.full(2))

    def test_cross_edge_witness(self):
        # matching union splits into K11 + K22 joined by one slice edge
        g = G(3, (1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (1, 2))
        assert appendix_a_zero_test(g)
        assert dual_coefficient(g) == 0

    def test_flagged_implies_zero_exhaustive_n3(self):
        from matchpoly import has_perfect_matching, is_matching_covered
        table = dense_dual(3)
        flagged = 0
        for g in nonempty_graphs(3):
            if not has_perfect_matching(g) or is_matching_covered(g):
                continue
            if appendix_a_zero_test(g):
                flagged += 1
                assert table[g.mask] == 0, g
        assert flagged > 0


def appendix_a_candidates(n, masks):
    """The matchable masks outside MC_n: the domain of the Appendix-A test."""
    masks = np.asarray(masks, dtype=np.int64)
    mc = _kernels.mc_flags_for_range(n, 0, 1 << (n * n))
    return masks[(_kernels.truth_table(n)[masks] != 0) & ~mc[masks]]


class TestAppendixAFlags:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_small_n(self, n):
        masks = appendix_a_candidates(n, np.arange(1 << (n * n)))
        flags = appendix_a_zero_flags(n, masks)
        assert flags.dtype == bool
        assert flags.tolist() == [appendix_a_zero_test(BipartiteGraph(n, int(m)))
                                  for m in masks]

    @given(st.lists(n5_uniform_or_dense(), min_size=1, max_size=100))
    @PROPERTY
    def test_n5_uniform_and_dense(self, masks):
        graphs = [BipartiteGraph(5, m) for m in masks]
        kept = [g for g in graphs if has_perfect_matching(g) and not is_matching_covered(g)]
        flags = appendix_a_zero_flags(5, np.array([g.mask for g in kept], dtype=np.int64))
        assert flags.tolist() == [appendix_a_zero_test(g) for g in kept]

    @pytest.mark.parametrize("bad, message", [
        (G(3, (1, 1), (2, 1), (3, 3)).mask, "perfect matching"),  # no matching
        (BipartiteGraph.full(3).mask, "outside MC_n"),             # matching-covered
    ])
    def test_rejects_like_the_scalar_test(self, bad, message):
        good = G(3, (1, 1), (2, 2), (3, 3), (1, 2)).mask
        with pytest.raises(ValueError, match=message):
            appendix_a_zero_test(BipartiteGraph(3, bad))
        with pytest.raises(ValueError, match=message):
            appendix_a_zero_flags(3, np.array([good, bad]))


class TestSingleNontrivialComponent:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_nonzero_dual_coefficients_have_one_real_component(self, n):
        table = dense_dual(n)
        for mask in np.nonzero(table)[0].tolist():
            comps = connected_components(BipartiteGraph(n, int(mask)))
            real = [c for c in comps if len(c[0]) + len(c[1]) > 1]
            assert len(real) == 1, hex(mask)


class TestMonomialSummary:
    def test_primal_n2(self):
        from matchpoly.bpm import monomial_summary
        assert monomial_summary(primal_polynomial(2)) == [
            {"coeff": -1, "monomials": 1, "isomorphism_classes": 1},
            {"coeff": 1, "monomials": 2, "isomorphism_classes": 1},
        ]

    def test_dual_n3_frozen(self):
        from matchpoly.bpm import monomial_summary
        assert monomial_summary(dual_polynomial(3)) == [
            {"coeff": -1, "monomials": 63, "isomorphism_classes": 3},
            {"coeff": 1, "monomials": 52, "isomorphism_classes": 4},
            {"coeff": 2, "monomials": 6, "isomorphism_classes": 1},
        ]

    def test_dual_n4_frozen(self):
        from matchpoly.bpm import monomial_summary
        groups = monomial_summary(dual_polynomial(4))
        assert groups == [
            {"coeff": -2, "monomials": 144, "isomorphism_classes": 2},
            {"coeff": -1, "monomials": 1188, "isomorphism_classes": 8},
            {"coeff": 1, "monomials": 1353, "isomorphism_classes": 7},
            {"coeff": 3, "monomials": 20, "isomorphism_classes": 2},
            {"coeff": 4, "monomials": 16, "isomorphism_classes": 1},
        ]
        # the coefficient-4 class: the 4*4 embeddings of the 3x3 biclique
        assert sum(g["monomials"] for g in groups) == DUAL_MONOMIALS[4]

    @pytest.mark.large
    def test_primal_n5_frozen(self):
        try:
            groups = bpm.monomial_summary(primal_polynomial(5))
        finally:
            clear_caches()
        assert groups == [
            {"coeff": -1, "monomials": 3_046_360, "isomorphism_classes": 271},
            {"coeff": 1, "monomials": 3_046_361, "isomorphism_classes": 263},
        ]

    def test_fourier_coefficients_rejected(self):
        # the numerators of -3/8 and 3/8 are not the coefficients
        with pytest.raises(ValueError, match="denominator of 2\\^3"):
            bpm.monomial_summary(to_fourier(primal_polynomial(2)))

    def test_canonical_form_invariance(self):
        from matchpoly.bpm import canonical_form
        g = G(3, (1, 1), (1, 2), (2, 3))
        relabeled = G(3, (3, 2), (3, 1), (1, 3))  # swap lefts 1<->3, rights 1<->2
        assert canonical_form(g) == canonical_form(relabeled)
        transposed = G(3, (1, 1), (2, 1), (3, 2))
        assert canonical_form(g) == canonical_form(transposed)


class TestCanonicalForm:
    """Sorted rows per column permutation against the full search over row
    permutations, column permutations and side swaps."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small_n_matches_oracle(self, n):
        from matchpoly.bpm import canonical_form
        for mask in range(1 << (n * n)):
            assert canonical_form(BipartiteGraph(n, mask)) == oracle_canonical_form(n, mask)

    @given(st.integers(0, (1 << 16) - 1))
    @settings(deadline=None, derandomize=True, max_examples=60)
    def test_n4_matches_oracle(self, mask):
        from matchpoly.bpm import canonical_form
        assert canonical_form(BipartiteGraph(4, mask)) == oracle_canonical_form(4, mask)

    # repeated and nested rows make ties between column permutations
    @given(st.lists(st.integers(0, 31) | st.sampled_from([0, 3, 7, 31]),
                    min_size=5, max_size=5))
    @settings(deadline=None, derandomize=True, max_examples=15)
    def test_n5_matches_oracle(self, rows):
        from matchpoly.bpm import canonical_form
        mask = sum(r << (5 * i) for i, r in enumerate(rows))
        assert canonical_form(BipartiteGraph(5, mask)) == oracle_canonical_form(5, mask)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_array_kernel_matches_oracle(self, n):
        forms = bpm.canonical_forms(n, np.arange(1 << (n * n)))
        assert forms.dtype == np.uint64
        assert np.array_equal(forms, [oracle_canonical_form(n, m) for m in range(1 << (n * n))])

    def test_domain_reaches_n8(self):
        # values of the scalar search over column permutations; at n = 8 a
        # form takes all 64 bits
        for n, form in ((6, 0x3f7ffffff), (7, 0x7f7fffffffff)):
            mask = 2 ** (n * n) - 1 - 2 ** (n * n - 1) - 3
            assert bpm.canonical_form(BipartiteGraph(n, mask)) == form
        assert bpm.canonical_form(BipartiteGraph.full(8)) == 2 ** 64 - 1


class TestVerifyTheorem:
    def test_thm1_passes(self):
        report = run_claim("thm1", 3)
        assert report.passed and report.claim == "thm1"

    def test_appendix_b_passes(self):
        assert run_claim("appendix_b", 3).passed

    def test_thm2_strict_passes(self):
        assert run_claim("thm2_strict", 3).passed

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            run_claim("no_such_claim", 3)

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            run_claim("thm1", 9)
