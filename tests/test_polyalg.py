from fractions import Fraction
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchpoly import (
    BipartiteGraph,
    MultilinearPoly,
    ResourceLimitError,
    TruthTable,
    deg,
    deg2,
    dualize,
    evaluate,
    interpolate,
    l1_norm,
    monomial_count,
    to_fourier,
    to_json_dict,
    to_text,
    to_truth_table,
)

from matchpoly import _kernels, polyalg
from matchpoly.polyalg import evaluate_all

from helpers import assert_same_text, oracle_evaluate, oracle_has_pm, oracle_text

BPM2_TERMS = {0b1001: 1, 0b0110: 1, 0b1111: -1}


def bpm2_table() -> TruthTable:
    bits = [1 if oracle_has_pm(2, m) else 0 for m in range(16)]
    return TruthTable(2, np.array(bits, dtype=np.uint8))


def every_function_n2():
    """All 65,536 Boolean functions of the 4 edge variables at n = 2, one
    int64 row each: row v holds the bits of v."""
    values = np.arange(1 << 16)
    return (values[:, None] >> np.arange(16)) & 1


# functions also checked one at a time through the library
SAMPLE_N2 = np.random.default_rng(29).choice(1 << 16, size=300, replace=False).tolist()


def dense(p):
    """p's coefficients as a dense row indexed by mask."""
    row = np.zeros(1 << p.nvars, dtype=np.int64)
    row[p.masks] = p.coeffs
    return row


def dense_interpolate(bits):
    """:func:`interpolate` of every row at once.  A transform over the low
    nvars bits of the index acts on each row of a C-contiguous stack of
    2^nvars-wide rows on its own."""
    coeffs = bits.astype(np.int64)
    _kernels.mobius_transform(coeffs, 4)
    return coeffs


def dense_dualize(coeffs):
    """:func:`dualize` of every dense n = 2 coefficient row at once: superset
    sums, 1 minus the constant, and (-1)^(|S|+1) on the other terms."""
    out = coeffs.copy()
    _kernels.superset_sum_transform(out, 4)
    out[:, 0] = 1 - out[:, 0]
    out[:, 1:] *= 2 * (_kernels.popcount_array(np.arange(1, 16)) & 1) - 1
    return out


def table_from_bits(n, value):
    """TruthTable whose bit at mask m is bit m of the integer ``value``."""
    size = 1 << (n * n)
    return TruthTable(n, np.array([(value >> m) & 1 for m in range(size)],
                                  dtype=np.uint8))


class TestTruthTable:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            TruthTable(2, np.zeros(8, dtype=np.uint8))

    def test_accepts_a_list(self):
        bits = [int(b) for b in bpm2_table().bits]
        assert TruthTable(2, bits) == bpm2_table()
        with pytest.raises(ValueError):
            TruthTable(2, bits[:-1])

    def test_values_enforced(self):
        with pytest.raises(ValueError, match="0 or 1"):
            TruthTable(1, np.array([0, 2], dtype=np.uint8))

    @pytest.mark.parametrize("bits", [[0, 0.5], [0, 256], np.array([0, 257]),
                                      np.array([1, -1], dtype=np.int64)])
    def test_values_checked_before_the_uint8_cast(self, bits):
        with pytest.raises(ValueError, match="0 or 1"):
            TruthTable(1, bits)

    def test_bool_table_accepted(self):
        t = TruthTable(1, np.array([False, True]))
        assert t.bits.dtype == np.uint8 and t.bits.tolist() == [0, 1]

    def test_uint8_check_makes_no_table_sized_temporary(self):
        bits = np.ones(1 << 16, dtype=np.uint8)
        tracemalloc.start()
        try:
            TruthTable(4, bits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 12  # one bool temporary would be 2^16 bytes

    def test_dual_swaps_roles(self):
        t = bpm2_table()
        d = t.dual()
        assert all(d[m] == 1 - t[15 ^ m] for m in range(16))


class TestInterpolate:
    def test_bpm2_polynomial(self):
        p = interpolate(bpm2_table())
        assert p.terms == BPM2_TERMS

    def test_all_zeros(self):
        p = interpolate(table_from_bits(2, 0))
        assert len(p) == 0

    def test_and_of_all_bits(self):
        t = table_from_bits(2, 1 << 15)  # 1 only on the full mask
        p = interpolate(t)
        assert p.terms == {0b1111: 1}

    def test_roundtrip_exhaustive_n2(self):
        bits = every_function_n2()
        coeffs = dense_interpolate(bits)
        values = coeffs.copy()
        _kernels.zeta_transform(values, 4)
        assert np.array_equal(values, bits)
        for value in SAMPLE_N2:
            t = TruthTable(2, bits[value].astype(np.uint8))
            p = interpolate(t)
            assert np.array_equal(dense(p), coeffs[value]), value
            assert to_truth_table(p) == t, value

    def test_roundtrip_api_sampled(self):
        rng = np.random.default_rng(7)
        for n, count in ((2, 300), (3, 40), (4, 6)):
            size = 1 << (n * n)
            for _ in range(count):
                bits = rng.integers(0, 2, size=size).astype(np.uint8)
                t = TruthTable(n, bits)
                assert to_truth_table(interpolate(t)) == t

    def test_uniqueness(self):
        # identical functions yield identical term maps
        t = bpm2_table()
        assert interpolate(t) == interpolate(TruthTable(2, t.bits.copy()))


class TestEvaluate:
    def test_bpm2_at_k22(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        assert evaluate(p, BipartiteGraph.full(2)) == 1

    def test_constant_at_empty(self):
        p = MultilinearPoly.from_terms(2, {0: 7, 0b11: 2})
        assert evaluate(p, BipartiteGraph.empty(2)) == 7

    def test_full_agreement_with_truth_table(self):
        t = table_from_bits(3, 0x1234_5678_9ABC_DEF0_1122_3344_5566_7788_99AA_BBCC_DDEE_FF00_1234_5678_9ABC_DEF5)
        p = interpolate(t)
        for m in range(0, 512, 7):
            assert evaluate(p, m) == t[m]

    def test_oracle_random_terms(self):
        rng = np.random.default_rng(11)
        terms = {int(m): int(c) for m, c in
                 zip(rng.choice(512, size=40, replace=False),
                     rng.integers(-5, 6, size=40)) if c}
        p = MultilinearPoly.from_terms(3, terms)
        for m in list(rng.integers(0, 512, size=50)):
            assert evaluate(p, int(m)) == oracle_evaluate(terms, int(m))

    def test_mismatched_n_rejected(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        with pytest.raises(ValueError):
            evaluate(p, BipartiteGraph.empty(3))

    @pytest.mark.parametrize("mask", [-1, 16, 1 << 70])
    def test_masks_outside_the_variables_rejected(self, mask):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        with pytest.raises(ValueError, match="outside the variable range"):
            evaluate(p, mask)
        with pytest.raises(ValueError, match="outside the variable range"):
            p.evaluate_signs(mask)


class TestDualize:
    def test_dual_agrees_pointwise(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        d = dualize(p)
        for m in range(16):
            assert evaluate(d, m) == 1 - evaluate(p, 15 ^ m)

    def test_involution_sampled_api(self):
        rng = np.random.default_rng(13)
        for n, count in ((2, 256), (3, 40)):
            size = 1 << (n * n)
            for _ in range(count):
                t = TruthTable(n, rng.integers(0, 2, size=size).astype(np.uint8))
                p = interpolate(t)
                assert dualize(dualize(p)) == p

    def test_involution_exhaustive_n2(self):
        bits = every_function_n2()
        coeffs = dense_interpolate(bits)
        duals = dense_dualize(coeffs)
        assert np.array_equal(dense_dualize(duals), coeffs)
        for value in SAMPLE_N2:
            p = interpolate(TruthTable(2, bits[value].astype(np.uint8)))
            assert np.array_equal(dense(dualize(p)), duals[value]), value
            assert dualize(dualize(p)) == p, value

    def test_constant_one_dualizes_to_zero(self):
        p = MultilinearPoly.from_terms(2, {0: 1})
        assert len(dualize(p)) == 0

    def test_rejects_non_boolean(self):
        p = MultilinearPoly.from_terms(2, {0b1: 2})
        with pytest.raises(ValueError):
            dualize(p)


class TestFourier:
    def test_bpm2_constant_term(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        f = to_fourier(p)
        assert f.coeff(0) == Fraction(1, 8)

    def test_bpm2_full_set(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        assert to_fourier(p).coeff(0b1111) == Fraction(1, 8)

    def test_constant_zero_function(self):
        f = to_fourier(MultilinearPoly.zero(2))
        assert f.coeff(0) == 1 and len(f) == 1

    def test_constant_one_function(self):
        f = to_fourier(MultilinearPoly.from_terms(2, {0: 1}))
        assert f.coeff(0) == -1 and len(f) == 1

    def test_pointwise_exhaustive_n2(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        f = to_fourier(p)
        for neg in range(16):
            assert f.evaluate_signs(neg) == 1 - 2 * evaluate(p, neg)

    def test_parseval_n2(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            t = TruthTable(2, rng.integers(0, 2, size=16).astype(np.uint8))
            f = to_fourier(interpolate(t))
            total = sum(Fraction(num, 1 << f.shared_exponent) ** 2
                        for num in f.coeffs.tolist())
            assert total == 1

    def test_capped_at_4(self):
        with pytest.raises(ResourceLimitError):
            to_fourier(MultilinearPoly.from_terms(5, {0: 1}))

    def test_shared_exponent_normalized(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        f = to_fourier(p)
        assert f.shared_exponent <= 3
        assert any(num % 2 for num in f.coeffs.tolist()) or f.shared_exponent == 0


class TestDegrees:
    def test_bpm2_full_degree(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        assert deg(p) == 4
        assert deg2(p) == 4

    def test_even_coefficient_invisible_mod_2(self):
        p = MultilinearPoly.from_terms(2, {0b11: 2})
        assert deg(p) == 2
        assert deg2(p) is None

    def test_empty(self):
        assert deg(MultilinearPoly.zero(2)) is None
        assert deg2(MultilinearPoly.zero(2)) is None

    def test_deg2_full_iff_odd_support_exhaustive_n2(self):
        for value in range(0, 1 << 16, 257):  # every 257th table, incl. 0
            t = table_from_bits(2, value)
            p = interpolate(t)
            full = deg2(p) == 4
            assert full == (bin(value).count("1") % 2 == 1), value

    def test_deg2_full_iff_odd_support_random_n3(self):
        rng = np.random.default_rng(19)
        for _ in range(30):
            bits = rng.integers(0, 2, size=512).astype(np.uint8)
            p = interpolate(TruthTable(3, bits))
            assert (deg2(p) == 9) == (int(bits.sum()) % 2 == 1)


class TestCountsNorms:
    def test_bpm2(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        assert monomial_count(p) == 3
        assert l1_norm(p) == 3

    def test_empty(self):
        assert monomial_count(MultilinearPoly.zero(2)) == 0
        assert l1_norm(MultilinearPoly.zero(2)) == 0

    def test_mixed(self):
        p = MultilinearPoly.from_terms(2, {0: -2, 3: 5})
        assert monomial_count(p) == 2
        assert l1_norm(p) == 7


class TestRendering:
    def test_text_is_degree_then_mask_sorted(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        assert_same_text(to_text(p), "+ x_{1,2} x_{2,1}\n"
                                     "+ x_{1,1} x_{2,2}\n"
                                     "- x_{1,1} x_{1,2} x_{2,1} x_{2,2}\n")

    def test_text_zero(self):
        assert_same_text(to_text(MultilinearPoly.zero(2)), "0\n")

    def test_text_magnitudes_and_constant(self):
        p = MultilinearPoly.from_terms(2, {0: -3, 0b1: 2})
        assert_same_text(to_text(p), "- 3\n+ 2 x_{1,1}\n")

    def test_dyadic_text(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        lines = to_text(to_fourier(p)).splitlines()
        assert lines[0] == "+ 1/8"

    def test_json_shape(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        doc = to_json_dict(p, "primal")
        assert doc["n"] == 2 and doc["basis"] == "primal"
        assert [t["mask"] for t in doc["terms"]] == ["0x6", "0x9", "0xf"]
        assert doc["terms"][1]["edges"] == [[1, 1], [2, 2]]
        assert "shared_exponent" not in doc

    def test_json_fourier_shape(self):
        f = to_fourier(MultilinearPoly.from_terms(2, BPM2_TERMS))
        doc = to_json_dict(f, "fourier")
        assert doc["shared_exponent"] == f.shared_exponent
        assert doc["terms"][0]["mask"] == "0x0"


@st.composite
def text_polys(draw):
    """Hypothesis strategy of polynomials at n = 1..7 for the text renderer:
    masks leaning to the constant, the top variable and the full mask;
    numerators leaning to magnitude 1 at the drawn exponent, and to dyadic
    heads longer than one 8-byte word."""
    n = draw(st.integers(1, 7))
    nvars = n * n
    masks = (st.integers(0, (1 << nvars) - 1)
             | st.sampled_from([0, 1 << (nvars - 1), (1 << nvars) - 1]))
    chosen = sorted(draw(st.sets(masks, max_size=30)))
    k = draw(st.integers(0, 24))
    numerators = (st.integers(-(1 << 30), 1 << 30).filter(bool)
                  | st.sampled_from([1, -1, 1 << k, -(1 << k), 3 << k, -(1 << 24) + 1]))
    coeffs = draw(st.lists(numerators, min_size=len(chosen), max_size=len(chosen)))
    return MultilinearPoly(n, np.array(chosen, dtype=np.int64),
                           np.array(coeffs, dtype=np.int64), k)


def random_poly(n: int, length: int, seed: int) -> MultilinearPoly:
    """``length`` distinct random masks at n with assorted numerators."""
    rng = np.random.default_rng(seed)
    space = 1 << (n * n)
    masks = (rng.permutation(space)[:length] if space <= 1 << 16
             else rng.integers(0, space, length, dtype=np.int64))
    masks = np.unique(masks)
    assert len(masks) == length
    coeffs = rng.choice([-(1 << 10), -3, -1, 1, 2, 7], size=length)
    return MultilinearPoly(n, masks, coeffs, seed % 3)


def assert_text_matches_oracle(p: MultilinearPoly, batch: int):
    """``write_text`` writes the oracle's text, one write per batch of
    ``batch`` terms (one write for the zero polynomial)."""
    chunks: list[str] = []
    polyalg.write_text(p, chunks.append)
    assert_same_text("".join(chunks), oracle_text(p))
    assert len(chunks) == max(1, -(-len(p) // batch))
    assert all(chunk.count("\n") <= batch for chunk in chunks)


BATCH = polyalg._BATCH
EDGE_BATCH = 256  # a multiple of BATCH: its multiples are batch edges of both


class TestTextMatrix:
    """The batch word-matrix renderer against the per-term oracle."""

    @given(text_polys(), st.integers(1, 8))
    @settings(deadline=None, derandomize=True, max_examples=300)
    def test_matches_the_per_term_oracle(self, p, batch):
        with mock.patch.object(polyalg, "_BATCH", batch):
            assert_text_matches_oracle(p, batch)

    @pytest.mark.parametrize("p, first", [
        (MultilinearPoly(1, np.array([0]), np.array([1])), "+ 1"),
        (MultilinearPoly(2, np.array([0, 3]), np.array([-1, 1])), "- 1"),
        (MultilinearPoly(2, np.array([0, 3]), np.array([7, 1])), "+ 7"),
        (MultilinearPoly(3, np.array([0, 3]), np.array([-12, 1])), "- 12"),
        (MultilinearPoly(2, np.array([0, 5]), np.array([4, 1]), 2), "+ 1"),
        (MultilinearPoly(2, np.array([0, 5]), np.array([-4, 1]), 2), "- 1"),
        (MultilinearPoly(3, np.array([0, 7]), np.array([-12345, 1]), 20),
         "- 12345/1048576"),
        (MultilinearPoly(3, np.array([7]), np.array([-12345]), 20),
         "- 12345/1048576 x_{1,1} x_{1,2} x_{1,3}"),
        (MultilinearPoly(7, np.array([1 << 48, (1 << 49) - 1]), np.array([3, -1])),
         "+ 3 x_{7,7}"),
    ], ids=["+1", "-1", "+k", "-k", "+1 dyadic", "-1 dyadic", "long head constant",
            "long head", "bit 48"])
    def test_heads_and_top_bit(self, p, first):
        assert to_text(p).splitlines()[0] == first
        assert_text_matches_oracle(p, BATCH)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_zero_polynomial(self, n):
        assert_text_matches_oracle(MultilinearPoly.zero(n), BATCH)

    @pytest.mark.parametrize("n, length", [
        (n, k * EDGE_BATCH + d) for n in range(3, 8) for k in (1, 2) for d in (-1, 0, 1)
        if k * EDGE_BATCH + d <= 1 << (n * n)])
    def test_lengths_at_batch_edges(self, n, length):
        """Lengths next to multiples of ``EDGE_BATCH`` sit at the batch edges of
        the production batch and of a batch of ``EDGE_BATCH``; both are checked."""
        assert EDGE_BATCH % BATCH == 0
        p = random_poly(n, length, seed=n * length)
        assert_text_matches_oracle(p, BATCH)
        with mock.patch.object(polyalg, "_BATCH", EDGE_BATCH):
            assert_text_matches_oracle(p, EDGE_BATCH)


class TestValidation:
    def test_zero_coefficients_rejected(self):
        with pytest.raises(ValueError):
            MultilinearPoly(2, np.array([1]), np.array([0]))

    def test_unsorted_masks_rejected(self):
        with pytest.raises(ValueError):
            MultilinearPoly(2, np.array([3, 1]), np.array([1, 1]))

    def test_out_of_range_mask_rejected(self):
        with pytest.raises(ValueError):
            MultilinearPoly(2, np.array([16]), np.array([1]))

    @pytest.mark.parametrize("k", [0, 1, 3, 20])
    @pytest.mark.parametrize("mask", [-1, 16, 1 << 20])
    def test_out_of_range_mask_rejected_at_every_exponent(self, k, mask):
        with pytest.raises(ValueError, match="outside the variable range"):
            MultilinearPoly(2, np.array([mask]), np.array([1]), k)

    @pytest.mark.parametrize("masks, coeffs", [([1, 2], [1]), ([[1]], [[1]])])
    def test_non_parallel_arrays_rejected(self, masks, coeffs):
        with pytest.raises(ValueError, match="parallel 1-d arrays"):
            MultilinearPoly(2, np.array(masks), np.array(coeffs))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            MultilinearPoly(2, np.array([1]), np.array([1]), -1)

    def test_constructors_freeze_the_callers_arrays(self):
        """No copy is made of contiguous arrays of the stored dtype, so the
        caller's arrays become read-only and cannot change the object."""
        masks, coeffs = np.array([1, 2], dtype=np.int64), np.array([3, 4], dtype=np.int64)
        bits = np.zeros(16, dtype=np.uint8)
        p, t = MultilinearPoly(2, masks, coeffs), TruthTable(2, bits)
        assert p.masks is masks and p.coeffs is coeffs and t.bits is bits
        for arr in (masks, coeffs, bits):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert p.terms == {1: 3, 2: 4} and t.popcount() == 0


    def test_from_terms_drops_zeros(self):
        p = MultilinearPoly.from_terms(2, {1: 0, 2: 5})
        assert p.terms == {2: 5}


def lookup_polys():
    """Hypothesis strategy of n = 3 polynomials: the zero polynomial, random
    integer term maps, and Fourier expansions of one monomial, whose
    numerators sit on the monomial's subsets only."""
    masks = st.integers(0, 511)
    terms = st.dictionaries(masks, st.integers(-9, 9).filter(bool), max_size=40)
    return (st.just(MultilinearPoly.zero(3))
            | terms.map(lambda t: MultilinearPoly.from_terms(3, t))
            | masks.map(lambda m: to_fourier(MultilinearPoly.from_terms(3, {m: 1}))))


class TestCoeffsAt:
    @given(lookup_polys(), st.lists(st.integers(0, 511), max_size=30), st.data())
    @settings(deadline=None, derandomize=True, max_examples=100)
    def test_matches_the_term_map(self, p, absent, data):
        present = data.draw(st.lists(st.sampled_from(p.masks.tolist()), max_size=10)
                            if len(p) else st.just([]))
        queries = absent + present
        terms = p.terms
        got = p.coeffs_at(queries)
        assert got.dtype == np.int64
        assert got.tolist() == [terms.get(m, 0) for m in queries]
        den = 1 << p.shared_exponent
        assert [p.coeff(m) for m in queries] == [
            Fraction(terms.get(m, 0), den) if den > 1 else terms.get(m, 0) for m in queries]

    def test_keeps_the_query_shape(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        queries = np.arange(16).reshape(4, 4)
        assert p.coeffs_at(queries).tolist() == [
            [BPM2_TERMS.get(int(m), 0) for m in row] for row in queries]


class TestSharedExponent:
    def test_common_powers_of_two_move_into_the_exponent(self):
        p = MultilinearPoly(2, np.array([1, 2]), np.array([4, -12]), 3)
        assert p.shared_exponent == 1
        assert p.coeffs.tolist() == [1, -3]
        assert p.coeff(2) == Fraction(-3, 2)

    def test_exponent_stops_at_zero(self):
        p = MultilinearPoly(2, np.array([1, 2]), np.array([8, 24]), 2)
        assert p.shared_exponent == 0
        assert p.coeffs.tolist() == [2, 6]
        assert p == MultilinearPoly.from_terms(2, {1: 2, 2: 6})

    def test_integer_coefficients_stay_unscaled(self):
        p = MultilinearPoly.from_terms(2, {1: 4, 2: 8})
        assert p.shared_exponent == 0 and p.coeffs.tolist() == [4, 8]

    def test_zero_polynomial_has_exponent_0(self):
        p = MultilinearPoly(2, np.empty(0), np.empty(0), 5)
        assert p.shared_exponent == 0 and p == MultilinearPoly.zero(2)

    def test_coeff_type_follows_the_exponent(self):
        p = MultilinearPoly.from_terms(2, BPM2_TERMS)
        assert type(p.coeff(0b1001)) is int and type(p.coeff(0)) is int
        f = to_fourier(p)
        assert type(f) is MultilinearPoly and f.shared_exponent == 3
        assert f.coeff(0) == Fraction(1, 8) and f.coeff(0b0001) == Fraction(3, 8)
        absent = MultilinearPoly(2, np.array([1]), np.array([3]), 2).coeff(2)
        assert type(absent) is Fraction and absent == 0

    def test_equality_reads_the_exponent(self):
        a = MultilinearPoly(2, np.array([1]), np.array([1]), 1)
        b = MultilinearPoly(2, np.array([1]), np.array([1]))
        assert a != b and a == MultilinearPoly(2, np.array([1]), np.array([2]), 2)

    @pytest.mark.parametrize("fn", [evaluate_all, dualize, to_fourier, to_truth_table,
                                    lambda p: evaluate(p, 0b1111), deg2, l1_norm],
                             ids=["evaluate_all", "dualize", "to_fourier", "to_truth_table",
                                  "evaluate", "deg2", "l1_norm"])
    def test_integer_only_functions_reject_fourier(self, fn):
        f = to_fourier(MultilinearPoly.from_terms(2, BPM2_TERMS))
        with pytest.raises(ValueError, match="integer coefficients"):
            fn(f)
