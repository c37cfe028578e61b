"""Vector kernels against the scalar oracles of bitgraph and matchcov.

The MC filter decides every edge from the automaton states of the rows
before and after it, through one reach table; the scalar oracles decide each edge by deleting its two endpoints and running a
fresh matching DP, so agreement here is not circular.
"""

import ast
import importlib
import inspect
import itertools
import operator
import os
import pathlib
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matchpoly
from matchpoly import (BipartiteGraph, MultilinearPoly, _kernels, count_mc, is_matching_covered,
                       pm_probability)
from matchpoly.bitgraph import (
    allowed_edges,
    connected_components,
    cyclomatic_number,
    has_perfect_matching,
    has_pm_mask,
)

from helpers import (clear_caches, family_words, n5_uniform_or_dense, oracle_component_automaton,
                     oracle_family_automaton, oracle_reach_table)

# n = 5 examples build the state-code and reach tables on first use; keep runs repeatable
PROPERTY = settings(deadline=None, derandomize=True)


def oracle_mc(n: int, mask: int) -> bool:
    g = BipartiteGraph(n, mask)
    return mask != 0 and has_perfect_matching(g) and allowed_edges(g) == mask


def scalar_subset_fold(parts: list, op, empty) -> list:
    """Entry S: ``empty`` folded with ``op`` over parts[j], j in S ascending."""
    table = []
    for s in range(1 << len(parts)):
        acc = empty
        for j, part in enumerate(parts):
            if s >> j & 1:
                acc = op(acc, part)
        table.append(acc)
    return table


def batches(elements):
    """1 to 3 lists of k elements each, k = 0..6."""
    return st.integers(0, 6).flatmap(
        lambda k: st.lists(st.lists(elements, min_size=k, max_size=k), min_size=1, max_size=3))


def perm_mask(n: int, perm) -> int:
    return sum(1 << (n * i + j) for i, j in enumerate(perm))


@st.composite
def n5_masks(draw):
    """Uniform masks (mostly not MC) or unions of perfect matchings (always
    MC) with a few edges toggled, which lands near the MC boundary."""
    if draw(st.booleans()):
        return draw(st.integers(0, (1 << 25) - 1))
    perms = draw(st.lists(st.permutations(range(5)), min_size=1, max_size=4))
    mask = 0
    for perm in perms:
        mask |= perm_mask(5, perm)
    for bit in draw(st.lists(st.integers(0, 24), max_size=2)):
        mask ^= 1 << bit
    return mask


class TestMcFilter:
    @given(st.lists(n5_masks(), min_size=1, max_size=40))
    @settings(PROPERTY, max_examples=60)
    def test_n5_masks_match_scalar_oracle(self, masks):
        flags = _kernels.mc_flags_for_masks(5, np.array(masks, dtype=np.int64))
        assert flags.dtype == bool
        assert flags.tolist() == [oracle_mc(5, m) for m in masks]

    @given(st.data())
    @settings(PROPERTY, max_examples=60)
    def test_range_with_offset_matches_scalar_oracle(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        total = 1 << (n * n)
        lo = data.draw(st.integers(1, total - 1), label="lo")
        hi = data.draw(st.integers(lo, min(total, lo + 300)), label="hi")
        flags = _kernels.mc_flags_for_range(n, lo, hi)
        assert flags.tolist() == [oracle_mc(n, m) for m in range(lo, hi)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_small_n_matches_matchcov(self, n):
        flags = _kernels.mc_flags_for_range(n, 0, 1 << (n * n))
        assert not flags[0]
        expected = [is_matching_covered(BipartiteGraph(n, m)) for m in range(1, 1 << (n * n))]
        assert flags[1:].tolist() == expected


class TestAllowedEdgeMasks:
    """The union of all perfect matchings, row by row from the reach table,
    against the scalar deletion test."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_n(self, n):
        union = _kernels.allowed_edge_masks(n, np.arange(1 << (n * n)))
        assert union.dtype == np.uint32
        assert union.tolist() == [allowed_edges(BipartiteGraph(n, m))
                                  for m in range(1 << (n * n))]

    @given(st.lists(n5_uniform_or_dense() | n5_masks(), min_size=1, max_size=100))
    @PROPERTY
    def test_n5_uniform_and_dense(self, masks):
        union = _kernels.allowed_edge_masks(5, np.array(masks, dtype=np.int64))
        assert union.tolist() == [allowed_edges(BipartiteGraph(5, m)) for m in masks]

    @given(st.lists(n5_uniform_or_dense(), min_size=1, max_size=50))
    @PROPERTY
    def test_mask_rows(self, masks):
        rows = _kernels.mask_rows(5, np.array(masks, dtype=np.int64))
        assert rows.dtype == np.uint8 and rows.shape == (len(masks), 5)
        assert rows.tolist() == [[BipartiteGraph(5, m).row(i) for i in range(1, 6)]
                                 for m in masks]


class TestComponentCounts:
    """The row automaton against the scalar union of bitgraph."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_automaton_has_bell_many_states(self, n):
        # every partition of the touched columns, each with 0..n zero rows
        bell = {1: 2, 2: 5, 3: 15, 4: 52, 5: 203}[n]  # Bell(n+1)
        trans, states, counts = _kernels._component_automaton(n)
        assert len({blocks for blocks, _ in states}) == bell
        assert sorted(states) == sorted({(blocks, z) for blocks, _ in states
                                         for z in range(n + 1)})
        assert trans.shape == ((n + 1) * bell, 1 << n) and not trans.flags.writeable
        assert int(trans.max()) == (n + 1) * bell - 1 and states[0] == ((), 0)
        assert counts.tolist() == [len(b) + n - sum(b).bit_count() + z for b, z in states]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small_n(self, n):
        masks = np.arange(1 << (n * n), dtype=np.int64)
        counts = _kernels.component_counts(n, masks)
        chi = _kernels.chi_values(n, masks)
        assert counts.dtype == chi.dtype == np.int64
        assert counts.tolist() == [len(connected_components(BipartiteGraph(n, m)))
                                   for m in range(len(masks))]
        assert chi.tolist() == [cyclomatic_number(BipartiteGraph(n, m))
                                for m in range(len(masks))]

    @given(st.lists(n5_masks(), min_size=1, max_size=200))
    @PROPERTY
    def test_n5_uniform_and_mc_masks(self, masks):
        arr = np.array(masks, dtype=np.int64)
        assert _kernels.component_counts(5, arr).tolist() == [
            len(connected_components(BipartiteGraph(5, m))) for m in masks]
        assert _kernels.chi_values(5, arr).tolist() == [
            cyclomatic_number(BipartiteGraph(5, m)) for m in masks]


class TestMcSigns:
    @given(st.lists(n5_masks(), min_size=1, max_size=40))
    @PROPERTY
    def test_n5_masks_match_scalar_oracle(self, masks):
        arr = np.array(masks, dtype=np.int64)
        mc = arr[_kernels.mc_flags_for_masks(5, arr)]
        kept = [m for m in masks if oracle_mc(5, m)]
        assert mc.tolist() == kept
        assert ((-1) ** _kernels.chi_values(5, mc)).tolist() == [
            (-1) ** cyclomatic_number(BipartiteGraph(5, m)) for m in kept]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stream_matches_masks_kernel(self, n):
        with _kernels.thread_default(2):
            (mc, signs), = _kernels.stream_mc_signs(n)
        assert np.array_equal(mc, np.flatnonzero(_kernels.mc_flags_for_range(n, 0, 1 << (n * n))))
        assert signs.dtype == np.int8
        assert np.array_equal(signs, (-1) ** (_kernels.chi_table(n)[mc] & 1))


class TestChunkDriver:
    """The window driver with 16-mask chunks: n = 3 spans 32 chunks."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(_kernels, "CHUNK_BITS", 4)

    def test_streams_independent_of_threads(self):
        with _kernels.thread_default(1):
            masks = list(_kernels.stream_mc_masks(3))
            signs = list(_kernels.stream_mc_signs(3))
        assert len(masks) == len(signs) == 32
        assert np.array_equal(np.concatenate(masks),
                              np.flatnonzero(_kernels.mc_flags_for_range(3, 0, 1 << 9)))
        for threads in (2, 3):
            with _kernels.thread_default(threads):
                for got, want in zip(_kernels.stream_mc_masks(3), masks, strict=True):
                    assert np.array_equal(got, want)
                for (got_m, got_s), (want_m, want_s) in zip(
                        _kernels.stream_mc_signs(3), signs, strict=True):
                    assert np.array_equal(got_m, want_m) and np.array_equal(got_s, want_s)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_unaligned_total(self, threads):
        want = [(lo, min(lo + 16, 100)) for lo in range(0, 100, 16)]
        with _kernels.thread_default(threads):
            assert list(_kernels._stream_chunks(lambda lo, hi: (lo, hi), 100)) == want

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_holds_at_most_threads_results(self, threads):
        consumed = 0
        ahead = []  # chunk index minus results consumed, as each chunk starts

        def fn(lo, hi):
            ahead.append(lo // 16 - consumed)
            return lo
        with _kernels.thread_default(threads):
            for _ in _kernels._stream_chunks(fn, 200):
                consumed += 1
        assert consumed == len(ahead) == 13
        assert max(ahead) <= threads


class TestExhaustiveN5:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_count_mc(self, threads):
        with _kernels.thread_default(threads):
            assert count_mc(5) == 6_092_721

    def test_stream_independent_of_threads(self):
        def masks_and_signs(threads):
            with _kernels.thread_default(threads):
                blocks = list(_kernels.stream_mc_signs(5))
            return (np.concatenate([m for m, _ in blocks]),
                    np.concatenate([s for _, s in blocks]))

        def masks_only(threads):
            with _kernels.thread_default(threads):
                return np.concatenate(list(_kernels.stream_mc_masks(5)))

        one, two = masks_only(1), masks_only(2)
        assert len(one) == 6_092_721
        assert np.array_equal(one, two)
        assert np.all(np.diff(one) > 0)
        for threads in (1, 2):
            masks, signs = masks_and_signs(threads)
            assert np.array_equal(masks, one)
            assert signs.dtype == np.int8
            assert np.array_equal(signs, (-1) ** (_kernels.chi_values(5, one) & 1))

    def test_pm_probability_sign_sum_equals_truth_table_count(self):
        # pm_probability raises unless the signed MC sum equals the direct count
        try:
            with _kernels.thread_default(2):
                assert pm_probability(5) * (1 << 25) == int(_kernels.truth_table(5).sum())
        finally:
            clear_caches()  # the cached n = 5 primal holds about 93 MiB


class TestRowProfile:
    @given(st.lists(st.integers(0, (1 << 25) - 1), min_size=1, max_size=200))
    @PROPERTY
    def test_truth_table_matches_has_pm_mask(self, masks):
        table = _kernels.truth_table(5)
        assert [bool(table[m]) for m in masks] == [has_pm_mask(5, m) for m in masks]

    @given(st.integers(0, (1 << 15) - 1))
    @PROPERTY
    def test_levels_list_matchable_column_sets(self, prefix):
        # rows 1..3 of an n = 5 mask; bit S iff they match onto exactly S
        rows = [(prefix >> (5 * i)) & 31 for i in range(3)]
        words = family_words(_kernels._family_automaton(5)[1])
        word = words[_kernels._prefix_codes(5)[3][prefix]]
        for s in range(32):
            expected = any(all((rows[i] >> cols[i]) & 1 for i in range(3))
                           for cols in itertools.permutations(range(5), 3)
                           if sum(1 << c for c in cols) == s)
            assert bool((word >> s) & 1) == expected, (hex(prefix), s)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_reach_table_matches_definition(self, n):
        # bit j of R[p, q]: some S in family p avoids j, full ^ (S | {j}) is in q
        words = family_words(_kernels._family_automaton(n)[1])
        reach = _kernels._reach_table(n)
        assert reach.shape == (len(words), len(words)) and reach.dtype == np.uint8
        assert not reach.flags.writeable
        full = (1 << n) - 1
        families = [{s for s in range(full + 1) if (w >> s) & 1} for w in words]
        for p, before in enumerate(families):
            for q, after in enumerate(families):
                expected = sum(1 << j for j in range(n)
                               if any(not (s >> j) & 1 and full ^ s ^ (1 << j) in after
                                      for s in before))
                assert reach[p, q] == expected, (p, q)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.large)])
    def test_reach_table_matches_word_oracle(self, n):
        assert np.array_equal(_kernels._reach_table(n), oracle_reach_table(n))

    def test_dense_tables_stop_at_n5(self):
        for table in (_kernels._prefix_codes, _kernels.truth_table):
            with pytest.raises(ValueError, match="stop at n=5"):
                table(6)


# |{masks with a perfect matching}|; n = 6 is past every dense table
MATCHABLE_GRAPHS = {1: 1, 2: 7, 3: 247, 4: 37_823, 5: 23_191_071, 6: 54_812_742_655}


# state counts of _family_automaton; a walk at n = 7 still fits uint16
FAMILY_STATES = {1: 3, 2: 6, 3: 17, 4: 69, 5: 407, 6: 3_763, 7: 64_185}


class TestFamilyAutomaton:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.large)])
    def test_state_counts_and_dtypes(self, n):
        trans, members = _kernels._family_automaton(n)
        words = family_words(members)
        assert len(words) == FAMILY_STATES[n] and trans.shape == (len(words), 1 << n)
        assert trans.dtype == (np.uint8 if n <= 4 else np.uint16)
        assert words[0] == 1 and words[_kernels.EMPTY_FAMILY] == 0
        assert members.dtype == bool and members.shape == (len(words), 1 << n)
        assert not members.flags.writeable
        assert members[0].tolist() == [True] + [False] * ((1 << n) - 1)  # only the empty set
        assert not members[_kernels.EMPTY_FAMILY].any()

    def test_signed_walk_stops_at_n7(self):
        misses = _kernels._family_automaton.cache_info().misses
        with pytest.raises(ValueError, match="n <= 7"):
            _kernels.signed_matchable_sum(8, [255] * 8)
        assert _kernels._family_automaton.cache_info().misses == misses

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_subset_steps_list_every_subset_with_its_sign(self, n):
        offsets, rows, signs = _kernels._subset_steps(n)
        full = (1 << n) - 1
        assert offsets[0] == 0 and offsets[-1] == len(rows) == len(signs) == 3 ** n
        for s in range(1 << n):
            want = [(full ^ t, (-1) ** (s & ~t).bit_count())
                    for t in range(1 << n) if t & ~s == 0]
            lo, hi = offsets[s], offsets[s + 1]
            assert sorted(zip(rows[lo:hi].tolist(), signs[lo:hi].tolist())) == sorted(want)

    def test_signed_step_reads_and_returns_arrays(self):
        states, weights = _kernels.signed_family_step(2, _kernels.FAMILY_START, 0b11)
        assert states.dtype == weights.dtype == np.int64
        assert np.all(np.diff(states) > 0) and np.all(weights != 0)
        assert _kernels.EMPTY_FAMILY not in states.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_step_matches_definition(self, n):
        trans, members = _kernels._family_automaton(n)
        words = family_words(members)
        assert trans.shape == (len(words), 1 << n) and words[0] == 1
        for state, family in enumerate(words):
            sets = [s for s in range(1 << n) if (family >> s) & 1]
            for row in range(1 << n):
                want = {s | 1 << c for s in sets for c in range(n)
                        if (row >> c) & 1 and not (s >> c) & 1}
                assert words[trans[state, row]] == sum(1 << s for s in want)

    @pytest.mark.parametrize("n", sorted(MATCHABLE_GRAPHS))
    def test_unsigned_walk_counts_matchable_graphs(self, n):
        trans, members = _kernels._family_automaton(n)
        words = family_words(members)
        weights = {0: 1}
        for _ in range(n):  # every row, weight 1 each
            step: dict[int, int] = {}
            for state, w in weights.items():
                for nxt in trans[state].tolist():
                    step[nxt] = step.get(nxt, 0) + w
            weights = step
        full = (1 << n) - 1
        count = sum(w for state, w in weights.items() if (words[state] >> full) & 1)
        assert count == MATCHABLE_GRAPHS[n]
        if n <= 5:
            assert count == int(_kernels.truth_table(n).sum())

    @pytest.mark.parametrize("rows, coefficient", [
        ((31, 31, 31, 31, 31, 0), 16),     # K_{5,5} in K_{6,6}: (n - 2)^2
        ((63, 31, 15, 7, 3, 1), -1),       # the staircase
        ((15, 15, 15, 0, 0, 0), 1),        # a Hall violator
        ((3, 6, 0, 0, 0, 0), 0),           # not totally ordered
    ])
    def test_n6_dual_coefficients(self, rows, coefficient):
        assert -_kernels.signed_matchable_sum(6, rows) == coefficient


class TestArrayAutomata:
    """The array search of ``_kernels._row_automaton`` against the
    queue-driven search, one state at a time, that it replaced."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, pytest.param(7, marks=pytest.mark.large)])
    def test_family_automaton_matches_queue_search(self, n):
        trans, members = _kernels._family_automaton(n)
        words = family_words(members)
        want_trans, want_words = oracle_family_automaton(n)
        assert trans.dtype == want_trans.dtype and np.array_equal(trans, want_trans)
        assert words == want_words

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_component_automaton_matches_queue_search(self, n):
        trans, states, counts = _kernels._component_automaton(n)
        want_trans, want_states, want_counts = oracle_component_automaton(n)
        assert trans.dtype == want_trans.dtype and np.array_equal(trans, want_trans)
        assert states == want_states
        assert counts.dtype == want_counts.dtype and np.array_equal(counts, want_counts)

    def test_family_keys_stop_at_n7(self):
        with pytest.raises(ValueError, match="n <= 7"):
            _kernels._family_automaton(8)

    @pytest.mark.parametrize("n", [3, 5])
    def test_batch_steps_each_walk_alone(self, n):
        # walk g's keys are g * len(T) + state; walk 1 is left empty, and the
        # walks start from staircase rows of n, n - 1 and n - 2 columns
        size = len(_kernels._family_automaton(n)[0])
        alone = {g: _kernels.signed_family_step(n, _kernels.FAMILY_START, (1 << (n - j)) - 1)
                 for j, g in enumerate((0, 2, 3))}
        keys = np.concatenate([g * size + k for g, (k, _) in alone.items()])
        weights = np.concatenate([w for _, w in alone.values()])
        for d in range(n - 1, 0, -1):
            keys, weights = _kernels.signed_family_step(n, (keys, weights), (1 << d) - 1)
            alone = {g: _kernels.signed_family_step(n, walk, (1 << d) - 1)
                     for g, walk in alone.items()}
            assert keys.dtype == weights.dtype == np.int64 and np.all(np.diff(keys) > 0)
            assert set((keys // size).tolist()) == {g for g, (k, _) in alone.items() if k.size}
            for g, (k, w) in alone.items():
                mine = keys // size == g
                assert (keys[mine] - g * size).tolist() == k.tolist()
                assert weights[mine].tolist() == w.tolist()


class TestSmallKernels:
    @given(st.lists(st.integers(0, (1 << 62) - 1), max_size=50))
    @PROPERTY
    def test_popcount_array(self, values):
        arr = np.array(values, dtype=np.int64)
        out = _kernels.popcount_array(arr)
        assert out.dtype == np.int64
        assert out.tolist() == [v.bit_count() for v in values]

    @given(st.lists(st.integers(-(1 << 62), (1 << 62) - 1), max_size=50))
    @PROPERTY
    def test_distinct_sorted(self, values):
        out = _kernels.distinct_sorted(np.array(values, dtype=np.int64))
        assert out.dtype == np.int64
        assert out.tolist() == sorted(set(values))

    @given(st.lists(st.integers(0, (1 << 25) - 1), max_size=50))
    @PROPERTY
    def test_mask_bits(self, values):
        bits = _kernels.mask_bits(5, np.array(values, dtype=np.int64))
        assert bits.dtype == np.uint8 and bits.shape == (len(values), 25)
        assert bits.tolist() == [[(v >> b) & 1 for b in range(25)] for v in values]

    @given(batches(st.integers(0, (1 << 64) - 1)))
    @example([[1 << 63, 1, (1 << 64) - 1], [1 << 63, 0, 1 << 62]])
    @PROPERTY
    def test_subset_fold_or(self, rows):
        table = _kernels.subset_fold(np.array(rows, dtype=np.uint64), np.bitwise_or, 0)
        assert table.dtype == np.uint64 and table.shape == (len(rows), 1 << len(rows[0]))
        assert table.tolist() == [scalar_subset_fold(r, operator.or_, 0) for r in rows]
        one = _kernels.subset_fold(np.array(rows[0], dtype=np.uint64), np.bitwise_or, 0)
        assert one.tolist() == scalar_subset_fold(rows[0], operator.or_, 0)

    @given(batches(st.text(max_size=3)))
    @PROPERTY
    def test_subset_fold_concatenates_strings(self, rows):
        table = _kernels.subset_fold(np.array(rows, dtype=object), np.add, "")
        assert table.shape == (len(rows), 1 << len(rows[0]))
        assert table.tolist() == [scalar_subset_fold(r, operator.add, "") for r in rows]

    def test_chi_table_stops_at_n4(self):
        with pytest.raises(ValueError, match="dense chi tables stop at n=4"):
            _kernels.chi_table(5)

    def test_frozen_copies_only_what_is_not_contiguous(self):
        arr = np.arange(6)
        assert _kernels.frozen(arr) is arr and not arr.flags.writeable
        strided = np.arange(6)[::2]
        out = _kernels.frozen(strided)
        assert out.flags.c_contiguous and not out.flags.writeable and strided.flags.writeable
        assert out.tolist() == [0, 2, 4]

    def test_frozen_cache_freezes_each_array_once(self):
        built = []

        @_kernels.frozen_cache
        def tables(n: int):
            built.append(np.arange(n))
            return built[-1], [n], "label"

        arr, listed, label = tables(3)
        assert arr is built[0] and not arr.flags.writeable
        assert (listed, label) == ([3], "label")
        assert tables(3)[0] is arr and len(built) == 1
        assert tables.__qualname__.endswith("tables") and "n" in inspect.signature(tables).parameters
        tables.cache_clear()
        assert tables(3)[0] is not arr

    def test_headroom_sums_across_slices(self):
        values = np.zeros(3 << 20, dtype=np.int64)
        values[0] = 1 << 61
        values[-1] = -(1 << 61) + 1
        _kernels.check_transform_headroom(values)
        values[-1] -= 1
        with pytest.raises(OverflowError):
            _kernels.check_transform_headroom(values)


def per_n_caches():
    """Every lru cache of a ``matchpoly`` module that is callable with n
    alone, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(matchpoly.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"matchpoly.{info.name}")
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                params = inspect.signature(value).parameters.values()
                if [p.name for p in params if p.default is p.empty] == ["n"]:
                    found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


def arrays_in(value):
    """The arrays of a cached result: bare, in a tuple or list, or the
    term arrays of a MultilinearPoly."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, MultilinearPoly):
        yield from (value.masks, value.coeffs)
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from arrays_in(item)


def test_only_kernels_freezes_arrays_or_imports_lru_cache():
    """The rule that a shared array is read-only lives in ``_kernels``
    alone: no other module sets an array's ``writeable`` flag or builds its
    own ``lru_cache``; per-n caches use ``_kernels.frozen_cache``."""
    offenders = []
    for path in sorted(pathlib.Path(matchpoly.__file__).parent.glob("*.py")):
        if path.name == "_kernels.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if (isinstance(node, ast.alias) and node.name.split(".")[-1] == "lru_cache"
                    or isinstance(node, ast.Attribute)
                    and (node.attr in ("lru_cache", "setflags")
                         or node.attr == "writeable" and isinstance(node.ctx, ast.Store))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_import_fills_no_cache():
    """Every table is built on first use: in a fresh process, importing the
    CLI leaves every cache of the package empty, so no command's set-up
    pays for a table it does not read."""
    src = str(pathlib.Path(matchpoly.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = """
import sys
import matchpoly.cli
caches = {f"{name}.{attr}": value.cache_info().currsize
          for name, module in list(sys.modules.items())
          if name == "matchpoly" or name.startswith("matchpoly.")
          for attr, value in vars(module).items()
          if callable(getattr(value, "cache_info", None))}
print(len(caches), sorted(name for name, size in caches.items() if size))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    count, filled = proc.stdout.split(" ", 1)
    assert int(count) >= 10 and filled == "[]\n"


def test_per_n_caches_hand_out_read_only_arrays():
    """A cached result is shared by every caller at that n, so no array in
    it may be writeable."""
    caches = per_n_caches()
    assert {"matchpoly.bpm.primal_polynomial", "matchpoly.verify._dualized",
            "matchpoly._kernels.truth_table"} <= caches.keys()
    for name, fn in caches.items():
        for arr in arrays_in(fn(3)):
            assert not arr.flags.writeable, name
