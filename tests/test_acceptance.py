"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` for the live lines; the
n=5 run is opt-in via ``-m large``.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

import matchpoly
from matchpoly import verify
from matchpoly import (
    BipartiteGraph,
    bpm_truth,
    bounds_report,
    count_mc,
    dual_polynomial,
    dualize,
    fubini,
    interpolate,
    pm_probability,
    primal_polynomial,
    to_text,
)

from helpers import assert_same_text, clear_caches


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} {title}: PASS")


def _assert_claim(name: str, n: int):
    report = verify.run_claim(name, n)
    assert report.passed, report.line()
    return report


def test_criterion_01_closed_form_equals_interpolation():
    with criterion(1, "primal closed form == interpolation oracle (n <= 4)"):
        clear_caches()
        start = time.perf_counter()
        for n in (1, 2, 3):
            assert primal_polynomial(n) == interpolate(bpm_truth(n))
        small_elapsed = time.perf_counter() - start
        assert small_elapsed < 1.0, f"n <= 3 took {small_elapsed:.2f}s (budget 1s)"
        start = time.perf_counter()
        assert primal_polynomial(4) == interpolate(bpm_truth(4))
        big_elapsed = time.perf_counter() - start
        assert big_elapsed < 30.0, f"n = 4 took {big_elapsed:.2f}s (budget 30s)"


def test_criterion_02_reference_n2_polynomial():
    with criterion(2, "n=2 primal polynomial matches the reference form"):
        assert primal_polynomial(2).terms == {0b1001: 1, 0b0110: 1, 0b1111: -1}
        _assert_claim("n2_closed_form", 2)


def test_criterion_03_n3_dual_golden_file():
    with criterion(3, "n=3 dual polynomial is byte-identical to the golden file"):
        assert_same_text(to_text(dual_polynomial(3)), verify.golden_dual3_text())
        # the six coefficient-2 terms are present, everything else is +/-1
        coeffs = sorted(dual_polynomial(3).coeffs.tolist())
        assert coeffs.count(2) == 6
        assert set(coeffs) == {-1, 1, 2}
        _assert_claim("appendix_b", 3)


def test_criterion_04_total_order_dichotomy():
    with criterion(4, "dual coefficients by total-order class (n = 2, 3, 4)"):
        for n in (2, 3):
            _assert_claim("thm2_strict", n)
            _assert_claim("thm2_nonordered", n)
        start = time.perf_counter()
        _assert_claim("thm2_strict", 4)
        _assert_claim("thm2_nonordered", 4)
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"n = 4 took {elapsed:.2f}s (budget 120s)"


def test_criterion_05_dual_monomial_counts():
    with criterion(5, "(n!)^2 <= dual monomials < (n+2)^(2n+2), strict count exact"):
        for n in (2, 3, 4):
            _assert_claim("dual_count", n)
            count = sum(
                1 for mask in range(1, 1 << (n * n))
                if matchpoly.classify_total_order(BipartiteGraph(n, mask))
                is matchpoly.TotalOrderClass.STRICTLY_TOTALLY_ORDERED)
            assert count == math.factorial(n) ** 2


def test_criterion_06_eulerian_lattice_suite():
    with criterion(6, "Eulerian lattice: ranks, Moebius, intervals, axioms (n = 3)"):
        _assert_claim("lattice", 3)


def test_criterion_07_fourier():
    with criterion(7, "Fourier: elementary coefficients, basis change, constant"):
        for n in (2, 3):
            _assert_claim("fourier", n)
        constant = matchpoly.to_fourier(primal_polynomial(2)).coeff(0)
        assert constant == -2 * pm_probability(2) + 1 == Fraction(1, 8)


def test_criterion_08_parity_and_probability():
    with criterion(8, "odd counts and the exact matching probability"):
        for n in (1, 2, 3, 4):
            assert bpm_truth(n).popcount() % 2 == 1
            assert count_mc(n) % 2 == 1
        assert pm_probability(2) == Fraction(7, 16)
        for n in (2, 3, 4):
            _assert_claim("probability", n)


def test_criterion_09_dual_spot_values():
    with criterion(9, "spot dual coefficients: biclique, violators, MC graphs"):
        for n in (3, 4):
            _assert_claim("dual_spot", n)


def test_criterion_10_implication_chain_and_structure_tests():
    with criterion(10, "surplus => wildcard => incomplete umbrella => zero; "
                       "structural zero certificates"):
        _assert_claim("implication_chain", 3)
        _assert_claim("appendix_a", 3)
        _assert_claim("appendix_a", 4)


def test_criterion_11_lower_bounds():
    with criterion(11, "GF(2) degree and log3 lower bounds at 1e-12"):
        for n in (1, 2, 3, 4):
            p = primal_polynomial(n)
            assert matchpoly.deg2(p) == n * n
        for n in (2, 3):
            _assert_claim("bounds", n)
        rep = bounds_report(2)
        assert abs(rep.and_lb - 1.0) <= 1e-12
        assert abs(rep.or_lb_factorial - 2 * math.log(2) / math.log(3)) <= 1e-12


def test_criterion_12_counting_formulas_and_witness():
    with criterion(12, "counting formulas and the covered-up-set witness"):
        for n in (1, 2, 3, 4):
            _assert_claim("counting", n)
        assert matchpoly.totally_ordered_count(2) == 14
        assert fubini(3) == 13 and fubini(3) < 4 ** 3
        _assert_claim("hvc_witness", 4)
        witness = matchpoly.hvc_lower_bound_witness(4)
        assert 1 << (16 - witness.edge_count) == 64  # the checked up-set size


@pytest.mark.large
def test_large_n5_dual_pipeline():
    # not an acceptance criterion, but the n=5 dual path is a supported
    # surface (poly --n 5 --basis dual --allow-large) and deserves exercise
    dual = dual_polynomial(5)
    assert dual == dualize(primal_polynomial(5))  # orbit route == dense route
    assert math.factorial(5) ** 2 <= len(dual) < 7 ** 12
    table = np.zeros(1 << 25, dtype=np.int64)
    table[dual.masks] = dual.coeffs
    flag = BipartiteGraph.from_edges(
        5, [(i, j) for i in range(1, 6) for j in range(1, i + 1)])
    assert matchpoly.classify_total_order(flag) \
        is matchpoly.TotalOrderClass.STRICTLY_TOTALLY_ORDERED
    assert table[flag.mask] == 1  # (-1)^(n+1) at n = 5
    rng = np.random.default_rng(41)
    strict = not_ordered = 0
    for mask in rng.integers(1, 1 << 25, size=4000).tolist():
        g = BipartiteGraph(5, int(mask))
        cls = matchpoly.classify_total_order(g)
        if cls is matchpoly.TotalOrderClass.NOT_TOTALLY_ORDERED:
            not_ordered += 1
            assert table[mask] == 0, hex(mask)
        elif cls is matchpoly.TotalOrderClass.STRICTLY_TOTALLY_ORDERED:
            strict += 1
            assert table[mask] == 1, hex(mask)
    assert not_ordered > 3000  # almost everything is unordered out here


@pytest.mark.large
def test_criterion_01_large_n5():
    import resource
    with criterion(1, "primal closed form == interpolation oracle (n = 5 opt-in)"):
        start = time.perf_counter()
        direct = primal_polynomial(5)
        oracle = interpolate(bpm_truth(5))
        assert direct == oracle
        assert len(direct) == 6_092_721
        assert len(direct) % 2 == 1
        # the density lower bound 2^(n^2) (1 - 2 n^4 / 2^n) is vacuous here
        assert 1 - 2 * 5 ** 4 / 2 ** 5 < 0
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, f"n = 5 took {elapsed:.1f}s (budget 600s)"
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < 2 * 1024 * 1024, f"peak RSS {peak_kb} kB over 2 GB"
