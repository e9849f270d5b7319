"""Unit tests for repro.core.optimal — Theorem 4 scheduling and matrix costs."""

from __future__ import annotations

import pytest

from repro.cache import LRUCache
from repro.cache.stack_distance import COLD
from repro.core import (
    Permutation,
    alternating_schedule,
    best_reordering,
    matrix_traversal_costs,
    naive_schedule_total_reuse,
    optimal_reordering,
    schedule_total_reuse,
    schedule_trace,
    total_reuse,
)
from tests.oracles import stack_distances


class TestOptimalReordering:
    def test_unconstrained_optimum_is_sawtooth(self):
        assert optimal_reordering(6).is_reverse()

    def test_best_reordering_from_candidates(self):
        candidates = [Permutation.identity(4), Permutation([1, 0, 2, 3]), Permutation.reverse(4)]
        assert best_reordering(4, feasible=candidates).is_reverse()

    def test_best_reordering_empty_candidates(self):
        with pytest.raises(ValueError):
            best_reordering(4, feasible=[])

    def test_best_reordering_with_predicate(self):
        assert best_reordering(5, feasibility=lambda p: True).is_reverse()
        with pytest.raises(ValueError):
            best_reordering(5, feasibility=lambda p: p.is_identity())


class TestAlternatingSchedule:
    def test_schedule_shape(self):
        sigma = Permutation.reverse(4)
        schedule = alternating_schedule(sigma, 5)
        assert len(schedule) == 5
        assert [p.is_identity() for p in schedule] == [True, False, True, False, True]
        assert schedule[1] == sigma

    def test_schedule_trace_materialisation(self):
        sigma = Permutation.reverse(3)
        trace = schedule_trace(alternating_schedule(sigma, 2))
        assert trace.tolist() == [0, 1, 2, 2, 1, 0]

    def test_schedule_trace_with_items(self):
        sigma = Permutation.reverse(2)
        trace = schedule_trace([Permutation.identity(2), sigma], items=[7, 9])
        assert trace.tolist() == [7, 9, 9, 7]

    def test_schedule_trace_validation(self):
        with pytest.raises(ValueError):
            schedule_trace([Permutation.identity(2), Permutation.identity(3)])
        with pytest.raises(ValueError):
            schedule_trace([Permutation.identity(2)], items=[1, 2, 3])
        assert schedule_trace([]).size == 0

    def test_theorem4_alternation_beats_naive(self):
        m, passes = 32, 6
        sawtooth = Permutation.reverse(m)
        alternating = schedule_total_reuse(alternating_schedule(sawtooth, passes))
        naive = naive_schedule_total_reuse(m, passes)
        assert alternating < naive
        # the alternation achieves the sawtooth cost on every one of the
        # passes - 1 adjacent pairs
        assert alternating == (passes - 1) * total_reuse(sawtooth)

    def test_reverse_every_pass_is_not_alternation(self):
        # applying the reverse permutation on every pass after the first makes
        # consecutive passes identical (cyclic relative order) — worse than
        # alternating.  This is why Theorem 4 prescribes returning to the
        # original order between permuted passes.
        m, passes = 16, 4
        reverse = Permutation.reverse(m)
        always_reversed = [Permutation.identity(m)] + [reverse] * (passes - 1)
        alternating = alternating_schedule(reverse, passes)
        assert schedule_total_reuse(alternating) < schedule_total_reuse(always_reversed)

    def test_schedule_total_reuse_matches_trace_measurement(self):
        m, passes = 12, 4
        schedule = alternating_schedule(Permutation.reverse(m), passes)
        closed = schedule_total_reuse(schedule)
        trace = schedule_trace(schedule)
        distances = stack_distances(trace)
        measured = int(distances[distances != COLD].sum())
        assert closed == measured

    def test_alternation_improves_lru_hits(self):
        m, passes, cache = 24, 6, 12
        sawtooth = Permutation.reverse(m)
        naive_trace = schedule_trace([Permutation.identity(m)] * passes)
        alt_trace = schedule_trace(alternating_schedule(sawtooth, passes))
        naive_hits = LRUCache(cache).run(naive_trace.tolist()).hits
        alt_hits = LRUCache(cache).run(alt_trace.tolist()).hits
        assert alt_hits > naive_hits


class TestMatrixTraversalCosts:
    def test_paper_formulas(self):
        for n, m in [(2, 3), (4, 4), (8, 16)]:
            costs = matrix_traversal_costs(n, m)
            nm = n * m
            assert costs["elements"] == nm
            assert costs["cyclic"] == nm * nm
            assert costs["sawtooth"] == nm * (nm + 1) // 2
            assert costs["savings_ratio"] == pytest.approx(costs["cyclic"] / costs["sawtooth"])

    def test_savings_approach_two(self):
        ratio = matrix_traversal_costs(64, 64)["savings_ratio"]
        assert 1.9 < ratio < 2.0

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            matrix_traversal_costs(0, 4)
        with pytest.raises(TypeError):
            matrix_traversal_costs(2.5, 4)
