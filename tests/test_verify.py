"""The verify claims on their failure paths, their frozen CLI output, the
array tables the lattice claim checks against the scalar join and meet, and
the implication-chain tables against the scalar umbrella, wildcard and
surplus functions."""

import dataclasses
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchpoly import (BipartiteGraph, bpm, build_lattice, join, meet, mclattice, polyalg,
                       verify)
from matchpoly.bpm import TotalOrderClass, appendix_a_zero_test, classify_total_order
from matchpoly.cli import main

from helpers import clear_caches

# sha256 of `verify --n k --claim all` stdout
VERIFY_ALL_SHA256 = {
    1: "17f1263684e28dfcbb91eb65ba7195ad2f58e12081ecdb0bf871ddd9b9201814",
    2: "40ead04c55d77581f45d1dc249a694b65e6059a01ad5345e912b40f6d9633804",
    3: "5324e04c5727181421ff63bb6de5eaf700b21cda082faea08bb14650fe7e14a9",
    4: "84759d21c89bd66184e954ec796492412d56b32f7029c680cff914441ba27252",
}
# sha256 of `--allow-large verify --n 5` stdout
VERIFY_N5_SHA256 = "aa76cf396e5af8001a2b5a20d8633964edf9acb52c3cc0aaee282ef1ff606462"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_verify_all_stdout_frozen(capsys, n):
    assert main(["verify", "--n", str(n)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256[n]


@pytest.mark.large
def test_verify_n5_stdout_frozen(capsys):
    assert main(["--allow-large", "verify", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_N5_SHA256


def test_claims_share_one_build_per_n(capsys, monkeypatch):
    """From cold caches, verify --n 4 and then --n 3 run the MC filter over
    each cube once (the primal polynomial, which every MC reader reads) and
    walk the Ferrers shapes once per n (the dual polynomial)."""
    clear_caches()
    scanned, walked = [], []
    flags, walk = verify._kernels.mc_flags_for_masks, bpm._ferrers_coefficients

    def count_masks(n, masks):
        scanned.append(len(masks))
        return flags(n, masks)

    def count_walks(n):
        walked.append(n)
        return walk(n)
    monkeypatch.setattr(verify._kernels, "mc_flags_for_masks", count_masks)
    monkeypatch.setattr(bpm, "_ferrers_coefficients", count_walks)
    for n in (4, 3):
        assert main(["verify", "--n", str(n)]) == 0
    capsys.readouterr()
    assert sum(scanned) == (1 << 16) + (1 << 9) == 66_048
    assert walked == [4, 3]


def of_class(n, cls):
    return [m for m in range(1, 1 << (n * n))
            if classify_total_order(BipartiteGraph(n, m)) is cls]


def appendix_a_flagged(n, limit=50):
    """The first ``limit`` masks the appendix_a claim tests and the scalar
    test flags."""
    truth = verify._kernels.truth_table(n)
    mc = set(bpm.primal_polynomial(n).masks.tolist())
    return list(itertools.islice(
        (m for m in range(1, 1 << (n * n)) if truth[m] and m not in mc
         and appendix_a_zero_test(BipartiteGraph(n, m))), limit))


@pytest.fixture
def corrupt(monkeypatch):
    """Set coefficients of the dualized primal: corrupt({mask: value, ...});
    a value of 0 deletes the term."""
    def apply(values):
        real = verify._dualized

        def fake(n):
            terms = real(n).terms
            terms.update(values)
            return polyalg.MultilinearPoly.from_terms(n, terms)
        monkeypatch.setattr(verify, "_dualized", fake)
    return apply


class TestClaimFailures:
    """Two corrupted coefficients: the smaller mask is the counterexample."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_thm2_strict(self, corrupt, n):
        strict = of_class(n, TotalOrderClass.STRICTLY_TOTALLY_ORDERED)
        small, large = strict[len(strict) // 3], strict[-2]
        corrupt({large: 7, small: 5})
        report = verify.run_claim("thm2_strict", n)
        want = (-1) ** (n + 1)
        assert not report.passed
        assert report.counterexample == small
        assert report.detail == f"strictly ordered graph with coefficient 5 != {want}"

    @pytest.mark.parametrize("n", [3, 4])
    def test_thm2_nonordered(self, corrupt, n):
        nonordered = of_class(n, TotalOrderClass.NOT_TOTALLY_ORDERED)
        small, large = nonordered[len(nonordered) // 2], nonordered[-1]
        corrupt({small: 3, large: 4})
        report = verify.run_claim("thm2_nonordered", n)
        assert not report.passed
        assert report.counterexample == small
        assert report.detail == "non-ordered graph with coefficient 3"

    @pytest.mark.parametrize("n", [3, 4])
    def test_appendix_a(self, corrupt, n):
        flagged = appendix_a_flagged(n)
        small, large = flagged[len(flagged) // 2], flagged[-1]
        corrupt({large: 2, small: -1})
        report = verify.run_claim("appendix_a", n)
        assert not report.passed
        assert report.counterexample == small
        assert report.detail == "flagged graph has coefficient -1"

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counting(self, monkeypatch, n):
        real = bpm.totally_ordered_count(n)
        monkeypatch.setattr(bpm, "totally_ordered_count", lambda k: real + 1)
        report = verify.run_claim("counting", n)
        assert not report.passed
        assert report.detail == f"formula {real + 1} != exhaustive {real}"


class TestReportLines:
    """Each remaining failure report, reached by breaking one input."""

    def test_appendix_b_first_difference(self, monkeypatch):
        lines = verify.golden_dual3_text().splitlines(keepends=True)
        got, lines[4] = lines[4], "+ x_{9,9}\n"
        monkeypatch.setattr(verify, "golden_dual3_text", lambda: "".join(lines))
        assert failure("appendix_b", 3) == (
            f"first difference at line 5: {got.rstrip()!r} != '+ x_{{9,9}}'", None)

    def test_appendix_b_term_counts(self, monkeypatch):
        lines = verify.golden_dual3_text().splitlines(keepends=True)
        monkeypatch.setattr(verify, "golden_dual3_text", lambda: "".join(lines[:-1]))
        assert failure("appendix_b", 3) == ("term counts differ: 121 rendered vs 120 golden",
                                            None)

    @pytest.mark.parametrize("n", [2, 3])
    def test_thm2_strict_count(self, monkeypatch, n):
        # one strictly ordered graph dropped: every coefficient still checks
        real = verify._nonempty_of_class
        monkeypatch.setattr(verify, "_nonempty_of_class", lambda k, cls: real(k, cls)[1:])
        count = math.factorial(n) ** 2
        assert failure("thm2_strict", n) == (
            f"{count - 1} strictly ordered graphs, expected {count}", None)

    def test_probability_value(self, monkeypatch):
        monkeypatch.setattr(bpm, "pm_probability", lambda k: Fraction(1, 2))
        assert failure("probability", 2) == ("Pr = 1/2 != 7/16", None)

    @pytest.mark.parametrize("n", [2, 3])
    def test_probability_routes_disagree(self, monkeypatch, n):
        # one graph without a matching counted as matchable by the direct route
        real = verify._kernels.truth_table

        def fake(k):
            table = real(k).copy()
            table[0] = 1
            return table
        monkeypatch.setattr(verify._kernels, "truth_table", fake)
        value = Fraction(int(real(n).sum()), 1 << (n * n))
        direct = value + Fraction(1, 1 << (n * n))
        with pytest.raises(RuntimeError) as info:
            verify.run_claim("probability", n)
        assert str(info.value) == (
            f"matching-covered sum gives {value}, truth table gives {direct}")

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_bounds_gf2_degree(self, monkeypatch, n):
        real = bpm.bounds_report
        monkeypatch.setattr(bpm, "bounds_report",
                            lambda k: dataclasses.replace(real(k), deg2_value=k * k - 1))
        assert failure("bounds", n) == (f"GF(2) degree {n * n - 1} != {n * n}", None)

    @pytest.mark.parametrize("n", [2, 3])
    def test_bounds_hand_value(self, monkeypatch, n):
        real = bpm.bounds_report
        report = real(n)
        off = report.or_lb_mon + 1e-9
        monkeypatch.setattr(bpm, "bounds_report",
                            lambda k: dataclasses.replace(real(k), or_lb_mon=off))
        assert failure("bounds", n) == (
            f"or_lb_mon = {off!r} differs from hand value {report.or_lb_mon!r}", None)

    def test_counting_small_numbers(self, monkeypatch):
        monkeypatch.setattr(bpm, "fubini", lambda m: 14)
        assert failure("counting", 3) == ("small Stirling/Fubini values wrong", None)

    @pytest.mark.parametrize("n", [2, 4])
    def test_hvc_witness_edges(self, monkeypatch, n):
        monkeypatch.setattr(bpm, "hvc_lower_bound_witness", BipartiteGraph.full)
        k = n // 2
        assert failure("hvc_witness", n) == (
            f"witness has {n * n} edges, expected {n * n - k * (k + 1)}", None)

    def test_witness_outside_hvc(self, monkeypatch):
        monkeypatch.setattr(bpm, "is_hvc", lambda g: False)
        with pytest.raises(RuntimeError, match="^witness construction failed its own HVC "
                                               "membership$"):
            verify.run_claim("hvc_witness", 4)

    def test_witness_upset_leaves_hvc(self, monkeypatch):
        witness = bpm.hvc_lower_bound_witness(4).mask
        monkeypatch.setattr(bpm, "is_hvc", lambda g: g.mask == witness)
        first = int(verify._kernels.supergraph_masks(4, witness, 0, 2)[1])
        with pytest.raises(RuntimeError) as info:
            verify.run_claim("hvc_witness", 4)
        assert str(info.value) == f"supergraph {first:#x} of the witness left HVC_4"


def failure(name, n):
    """(detail, counterexample) of a claim that must fail."""
    report = verify.run_claim(name, n)
    assert not report.passed
    return report.detail, report.counterexample


def with_coeffs(p, positions, factor):
    """``p`` with the coefficients at ``positions`` multiplied by ``factor``."""
    coeffs = p.coeffs.copy()
    coeffs[positions] *= factor
    return polyalg.MultilinearPoly(p.n, p.masks, coeffs, p.shared_exponent)


class TestThm1Failures:
    @pytest.mark.parametrize("n", [2, 3])
    def test_term_maps_differ(self, monkeypatch, n):
        real = polyalg.interpolate
        dropped = int(real(bpm.bpm_truth(n)).masks[1])

        def fake(table):
            p = real(table)
            keep = p.masks != dropped
            return polyalg.MultilinearPoly(p.n, p.masks[keep], p.coeffs[keep])
        monkeypatch.setattr(polyalg, "interpolate", fake)
        assert failure("thm1", n) == ("term maps differ", dropped)

    @pytest.mark.parametrize("n", [2, 3])
    def test_coefficients_differ(self, monkeypatch, n):
        real = polyalg.interpolate
        monkeypatch.setattr(polyalg, "interpolate",
                            lambda table: with_coeffs(real(table), [-1, 1], 3))
        masks = bpm.primal_polynomial(n).masks
        assert failure("thm1", n) == ("coefficients differ", int(masks[1]))


@pytest.fixture
def lattice_with(monkeypatch):
    """Make build_lattice return the real lattice with fields replaced:
    lattice_with(n, field=lambda lat: value, ...); returns the real one."""
    def apply(n, **fields):
        lat = build_lattice(n)
        changed = dataclasses.replace(lat, **{k: f(lat) for k, f in fields.items()})
        monkeypatch.setattr(mclattice, "build_lattice", lambda k: changed)
        return lat
    return apply


class TestLatticeFailures:
    @pytest.mark.parametrize("n", [2, 3])
    def test_rank_gap_covers(self, lattice_with, n):
        lat = lattice_with(n, cover_edges=lambda lat: lat.cover_edges[1:])
        upper = int(lat.masks[lat.cover_edges[0][1]])
        assert failure("lattice", n) == (
            "rank-gap covers differ from no-intermediate covers", upper)

    @pytest.mark.parametrize("n", [2, 3])
    def test_longest_chain_rank(self, lattice_with, n):
        def raised(lat):
            rank = lat.rank.copy()
            rank[len(rank) // 2] += 1
            return rank
        lat = lattice_with(n, rank=raised)
        i = len(lat) // 2
        r = int(lat.rank[i])
        assert failure("lattice", n) == (
            f"longest-chain rank {r} != chi-based rank {r + 1}", int(lat.masks[i]))

    @pytest.mark.parametrize("n", [2, 3])
    def test_interval_mobius_sum(self, monkeypatch, n):
        nodes = build_lattice(n).masks.tolist()
        small, large = nodes[len(nodes) // 3], nodes[-2]
        real = mclattice.interval_mobius_sum
        monkeypatch.setattr(mclattice, "interval_mobius_sum",
                            lambda lat, m: real(lat, m) + (m in (small, large)))
        assert failure("lattice", n) == ("interval Moebius sum 1 != 0", small)


class TestAxiomFailure:
    @pytest.mark.parametrize("n", [2, 3])
    def test_names_the_node(self, monkeypatch, n):
        # one meet sent to node 0; the loop oracle finds the first failure
        real = verify._join_meet_tables
        lat = build_lattice(n)
        i = len(lat) // 2

        def fake(lat):
            joins, meets, outside = real(lat)
            meets = meets.copy()
            meets[i, i] = 0
            return joins, meets, outside
        monkeypatch.setattr(verify, "_join_meet_tables", fake)
        message, node = loop_axiom_failure(*fake(lat)[:2])
        assert failure("lattice", n) == (message, int(lat.masks[node]))


class TestFourierFailures:
    @pytest.mark.parametrize("n", [2, 3])
    def test_elementary_coefficient(self, monkeypatch, n):
        masks = np.arange(1 << (n * n))
        elem = np.flatnonzero(verify._kernels.mc_flags_for_range(n, 0, 1 << (n * n))
                              & (verify._kernels.component_counts(n, masks) == 1))
        small, large = int(elem[len(elem) // 2]), int(elem[-1])
        real = polyalg.to_fourier

        def fake(p):
            fp = real(p)
            return with_coeffs(fp, np.searchsorted(fp.masks, [small, large]), 3)
        monkeypatch.setattr(polyalg, "to_fourier", fake)
        want = Fraction(1, 1 << (n * n - 1))
        assert failure("fourier", n) == (f"elementary coefficient {3 * want} != {want}", small)

    def test_basis_change(self, monkeypatch):
        # the empty graph read as matchable: +1 at the all-(+1) point, want -1
        real = bpm.bpm_truth

        def fake(k):
            bits = real(k).bits.copy()
            bits[0] = 1
            return polyalg.TruthTable(k, bits)
        monkeypatch.setattr(bpm, "bpm_truth", fake)
        assert failure("fourier", 2) == ("basis change wrong at +/-1 point 0x0: 1 != -1", 0)

    def test_parseval(self, monkeypatch):
        # doubling a coefficient off the elementary graphs and the constant
        # term leaves every check but Parseval passing
        masks = np.arange(1 << 9)
        elem = (verify._kernels.mc_flags_for_range(3, 0, 1 << 9)
                & (verify._kernels.component_counts(3, masks) == 1))
        fp = polyalg.to_fourier(bpm.primal_polynomial(3))
        pos = next(i for i, m in enumerate(fp.masks.tolist()) if m and not elem[m])
        real = polyalg.to_fourier
        monkeypatch.setattr(polyalg, "to_fourier", lambda p: with_coeffs(real(p), [pos], 2))
        c = Fraction(int(fp.coeffs[pos]), 1 << fp.shared_exponent)
        assert failure("fourier", 3) == (f"Parseval sum {1 + 3 * c * c} != 1", None)

    @pytest.mark.parametrize("n", [2, 3])
    def test_constant_term(self, monkeypatch, n):
        constant = 1 - 2 * bpm.pm_probability(n)
        monkeypatch.setattr(bpm, "pm_probability", lambda k: Fraction(1, 3))
        assert failure("fourier", n) == (
            f"constant term {constant} != -2*Pr+1 = 1/3", None)


class TestDualSpotFailures:
    @pytest.mark.parametrize("n", [3, 4])
    def test_biclique(self, corrupt, n):
        little = BipartiteGraph.from_edges(
            n, [(i, j) for i in range(1, n) for j in range(1, n)]).mask
        corrupt({little: 5})
        assert failure("dual_spot", n) == (
            f"K_{{{n - 1},{n - 1}}} coefficient 5 != {(n - 2) ** 2}", little)

    @pytest.mark.parametrize("n", [3, 4])
    def test_automaton(self, monkeypatch, n):
        want = (n - 2) ** 2
        monkeypatch.setattr(bpm, "dual_coefficient", lambda g: want + 1)
        little = BipartiteGraph.from_edges(
            n, [(i, j) for i in range(1, n) for j in range(1, n)]).mask
        assert failure("dual_spot", n) == (
            "automaton dual coefficient disagrees with the dualized primal", little)

    @pytest.mark.parametrize("n", [3, 4])
    def test_permuted_embedding(self, corrupt, n):
        # K_{n-1,n-1} on rows 2..n and columns 2..n: the reversal of the rows
        # and the rotation of the columns
        moved = BipartiteGraph.from_edges(
            n, [(i, j) for i in range(2, n + 1) for j in range(2, n + 1)]).mask
        corrupt({moved: (n - 2) ** 2 + 1})
        assert failure("dual_spot", n) == ("permuted embedding changed the coefficient", moved)

    def test_violator_not_hvc(self, monkeypatch):
        monkeypatch.setattr(bpm, "is_hvc", lambda g: False)
        first = bpm.enumerate_hall_violators(3)[0].mask
        assert failure("dual_spot", 3) == ("violator not HVC", first)

    def test_violator(self, corrupt):
        violators = [h.mask for h in bpm.enumerate_hall_violators(4)]
        small, large = violators[len(violators) // 2], violators[-1]
        corrupt({large: 0, small: 2})
        assert failure("dual_spot", 4) == ("Hall violator coefficient 2 != 1", small)

    @pytest.mark.parametrize("n", [3, 4])
    def test_matching_covered_non_top(self, corrupt, n):
        mc = bpm.primal_polynomial(n).masks
        small, large = int(mc[len(mc) // 3]), int(mc[-2])
        corrupt({large: 2, small: -1})
        assert failure("dual_spot", n) == (
            "matching-covered non-top graph with nonzero coefficient", small)


class TestImplicationTables:
    @pytest.mark.parametrize("n", [2, 3])
    def test_match_scalar_oracles(self, n):
        wildcard, surplus, members = verify._implication_tables(n)
        full = (1 << (n * n)) - 1
        for mask in range(1, full + 1):
            g = BipartiteGraph(n, mask)
            umbrella = [h.mask for h in mclattice.umbrella(g)]
            row = members[mask].tolist()
            assert row == umbrella + [0] * (len(row) - len(umbrella)), mask
            incomplete = int(np.bitwise_or.reduce(members[mask])) != full
            assert incomplete == mclattice.has_incomplete_umbrella(g), mask
            for e in range(n * n):
                a, b = divmod(e, n)
                flags = (int(wildcard[mask]) >> e & 1, int(surplus[mask]) >> e & 1)
                if g.has_edge(a + 1, b + 1):
                    assert flags == (0, 0), (mask, e)
                else:
                    assert flags == (mclattice.is_wildcard_edge(g, a + 1, b + 1),
                                     mclattice.is_surplus_edge(g, a + 1, b + 1)), (mask, e)


@pytest.fixture
def tamper(monkeypatch):
    """Edit the implication tables of one mask: tamper(mask, wildcard=...)."""
    def apply(mask, wildcard):
        real = verify._implication_tables

        def fake(n):
            tables = [t.copy() for t in real(n)]
            tables[0][mask] = wildcard
            return tuple(tables)
        monkeypatch.setattr(verify, "_implication_tables", fake)
    return apply


class TestImplicationChainFailures:
    def test_umbrella_identity(self, corrupt):
        strict = of_class(3, TotalOrderClass.STRICTLY_TOTALLY_ORDERED)
        small, large = strict[len(strict) // 3], strict[-2]
        corrupt({large: 7, small: 5})
        report = verify.run_claim("implication_chain", 3)
        assert not report.passed
        assert report.counterexample == small
        assert report.detail == "umbrella identity predicts 1, coefficient is 5"

    def test_incomplete_umbrella_fails_through_the_identity(self, corrupt):
        # an incomplete umbrella predicts 0, so a nonzero coefficient there
        # already breaks the identity, the check before the last link
        _, _, members = verify._implication_tables(3)
        incomplete = np.flatnonzero(np.bitwise_or.reduce(members, axis=1) != 511)
        small, large = int(incomplete[40]), int(incomplete[-1])
        corrupt({large: 2, small: -3})
        report = verify.run_claim("implication_chain", 3)
        assert not report.passed
        assert report.counterexample == small
        assert report.detail == "umbrella identity predicts 0, coefficient is -3"

    def test_surplus_edge_not_wildcard(self, tamper):
        _, surplus, _ = verify._implication_tables(3)
        mask = int(np.flatnonzero(surplus)[10])
        low = int(surplus[mask]) & -int(surplus[mask])
        tamper(mask, wildcard=0)
        report = verify.run_claim("implication_chain", 3)
        a, b = divmod(low.bit_length() - 1, 3)
        assert not report.passed
        assert report.counterexample == mask
        assert report.detail == f"surplus edge ({a + 1},{b + 1}) is not wildcard"

    def test_wildcard_edge_with_complete_umbrella(self, tamper):
        wildcard, _, members = verify._implication_tables(3)
        complete = np.flatnonzero(np.bitwise_or.reduce(members, axis=1) == 511)
        mask = int(complete[complete < 511][5])
        free = 511 & ~mask
        tamper(mask, wildcard=int(wildcard[mask]) | (free & -free))
        report = verify.run_claim("implication_chain", 3)
        assert not report.passed
        assert report.counterexample == mask
        assert report.detail == "wildcard edge with a complete umbrella"


class TestLatticeTables:
    def test_tables_match_scalar_join_and_meet_n3(self):
        lat = build_lattice(3)
        joins, meets, outside = verify._join_meet_tables(lat)
        assert not outside.any()
        graphs = list(lat.graphs())
        for i, a in enumerate(graphs):
            for j, b in enumerate(graphs):
                assert lat.masks[joins[i, j]] == join(a, b).mask
                assert lat.masks[meets[i, j]] == meet(a, b).mask

    def test_meet_outside_the_lattice_fails(self, monkeypatch):
        # with the bare intersection as verify's meet, some meets are not
        # nodes; the shared kernel stays, as build_lattice reads covers from it
        kernels = verify._kernels

        class KernelsView:
            allowed_edge_masks = staticmethod(lambda n, m: m)

            def __getattr__(self, name):
                return getattr(kernels, name)
        monkeypatch.setattr(verify, "_kernels", KernelsView())
        nodes = build_lattice(3).masks.tolist()
        first = next(a for i, a in enumerate(nodes)
                     if any(a & b not in nodes for b in nodes[i:]))
        report = verify.run_claim("lattice", 3)
        assert not report.passed
        assert report.detail == "join/meet landed outside the lattice"
        assert report.counterexample == first


def loop_axiom_failure(joins, meets):
    """The lattice axioms checked one node triple at a time."""
    size = len(joins)
    for i in range(size):
        if joins[i][i] != i or meets[i][i] != i:
            return "idempotence fails", i
        for j in range(size):
            if joins[i][meets[i][j]] != i or meets[i][joins[i][j]] != i:
                return "absorption fails", i
            for k in range(size):
                if joins[joins[i][j]][k] != joins[i][joins[j][k]]:
                    return "join associativity fails", i
                if meets[meets[i][j]][k] != meets[i][meets[j][k]]:
                    return "meet associativity fails", i
    return None


class TestAxiomFailureOrder:
    @given(st.data())
    @settings(deadline=None, derandomize=True, max_examples=60)
    def test_matches_loop_order(self, data):
        joins, meets, _ = verify._join_meet_tables(build_lattice(2))
        joins, meets = joins.copy(), meets.copy()
        size = len(joins)
        cells = st.tuples(st.booleans(), st.integers(0, size - 1),
                          st.integers(0, size - 1), st.integers(0, size - 1))
        for in_joins, i, j, value in data.draw(st.lists(cells, max_size=3)):
            (joins if in_joins else meets)[i, j] = value
        assert verify._first_axiom_failure(joins, meets) == loop_axiom_failure(joins, meets)

    def test_real_tables_pass(self):
        joins, meets, _ = verify._join_meet_tables(build_lattice(3))
        assert verify._first_axiom_failure(joins, meets) is None
