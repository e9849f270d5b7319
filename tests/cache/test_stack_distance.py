"""Unit tests for the trace-level stack-distance algorithms."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache import (
    COLD,
    LRUCache,
    StackDistanceStream,
    hit_counts,
    reuse_intervals,
    stack_distance_histogram,
    stack_distances,
    stack_distances_naive,
    stack_distances_vectorized,
    stack_distances_with_previous,
)
from repro.cache.stack_distance import _BASE, _count_smaller_right, _index_keys, _reuse_arcs
from repro.core import random_permutation, stack_distances as periodic_stack_distances
from repro.trace import PeriodicTrace, zipfian_trace


class TestReuseIntervals:
    def test_paper_example_abcabc(self):
        # Definition 4: in abcabc the (second) a has interval 2 distinct... the
        # count of accesses strictly between the two a's is 2 here because we
        # assign the interval to the later access: positions 0 and 3.
        intervals = reuse_intervals([0, 1, 2, 0, 1, 2])
        assert intervals.tolist()[:3] == [COLD, COLD, COLD]
        assert intervals.tolist()[3:] == [2, 2, 2]

    def test_adjacent_repeat(self):
        assert reuse_intervals([7, 7]).tolist() == [COLD, 0]

    def test_empty(self):
        assert reuse_intervals([]).size == 0

    def test_rejects_float_trace(self):
        with pytest.raises(TypeError):
            reuse_intervals(np.asarray([0.5, 1.5]))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            reuse_intervals(np.zeros((2, 2), dtype=int))


class TestStackDistances:
    def test_known_trace(self):
        # a b c c b a: stack distances of the second half are 1, 2, 3
        distances = stack_distances([0, 1, 2, 2, 1, 0])
        assert distances.tolist() == [COLD, COLD, COLD, 1, 2, 3]

    def test_abcabc(self):
        distances = stack_distances([0, 1, 2, 0, 1, 2])
        assert distances.tolist() == [COLD, COLD, COLD, 3, 3, 3]

    def test_fenwick_matches_naive_on_random_traces(self, rng):
        for _ in range(10):
            trace = rng.integers(0, 25, size=int(rng.integers(1, 300)))
            assert np.array_equal(stack_distances(trace), stack_distances_naive(trace))

    def test_matches_periodic_closed_form(self, rng):
        for _ in range(5):
            sigma = random_permutation(20, rng)
            trace = PeriodicTrace(sigma).to_trace().accesses
            measured = stack_distances(trace)[20:]
            assert np.array_equal(measured, periodic_stack_distances(sigma))

    def test_repeated_single_item(self):
        distances = stack_distances([3] * 5)
        assert distances.tolist() == [COLD, 1, 1, 1, 1]

    def test_empty(self):
        assert stack_distances([]).size == 0


class TestVectorizedStackDistances:
    """The loop-free merge-count pass must be bit-identical to the Fenwick one."""

    def test_known_traces(self):
        assert stack_distances_vectorized([0, 1, 2, 2, 1, 0]).tolist() == [COLD, COLD, COLD, 1, 2, 3]
        assert stack_distances_vectorized([0, 1, 2, 0, 1, 2]).tolist() == [COLD, COLD, COLD, 3, 3, 3]
        assert stack_distances_vectorized([3] * 5).tolist() == [COLD, 1, 1, 1, 1]
        assert stack_distances_vectorized([]).size == 0
        assert stack_distances_vectorized([9]).tolist() == [COLD]

    def test_matches_fenwick_on_random_traces(self, rng):
        for _ in range(10):
            trace = rng.integers(0, 25, size=int(rng.integers(1, 300)))
            assert np.array_equal(stack_distances_vectorized(trace), stack_distances(trace))

    def test_matches_fenwick_on_zipf_trace(self):
        trace = zipfian_trace(6000, 400, exponent=0.9, rng=4).accesses
        assert np.array_equal(stack_distances_vectorized(trace), stack_distances(trace))

    def test_matches_fenwick_on_periodic_retraversals(self, rng):
        for _ in range(5):
            sigma = random_permutation(24, rng)
            trace = PeriodicTrace(sigma).to_trace().accesses
            assert np.array_equal(stack_distances_vectorized(trace), stack_distances(trace))

    def test_all_cold_and_power_of_two_padding_edges(self):
        # no reuse arcs at all
        assert stack_distances_vectorized(np.arange(7)).tolist() == [COLD] * 7
        # lengths around powers of two exercise the sentinel padding
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33):
            trace = np.arange(n) % max(1, n // 2)
            assert np.array_equal(stack_distances_vectorized(trace), stack_distances(trace))


class TestHistogramAndHits:
    def test_histogram_counts_and_cold(self):
        hist, cold = stack_distance_histogram([0, 1, 2, 2, 1, 0])
        assert cold == 3
        assert hist.tolist() == [1, 1, 1]

    def test_histogram_max_distance_truncation(self):
        hist, cold = stack_distance_histogram([0, 1, 2, 2, 1, 0], max_distance=2)
        assert hist.tolist() == [1, 1]
        assert cold == 3

    def test_hit_counts_match_lru_simulation(self, rng):
        trace = zipfian_trace(300, 30, rng=rng).accesses
        hits = hit_counts(trace)
        for c in (1, 3, 10, 30):
            assert int(hits[c - 1]) == LRUCache(c).run(trace.tolist()).hits

    def test_hit_counts_monotone(self, rng):
        trace = zipfian_trace(200, 25, rng=rng).accesses
        hits = hit_counts(trace)
        assert np.all(np.diff(hits) >= 0)

    def test_hit_counts_custom_max_cache_size(self, rng):
        trace = zipfian_trace(100, 20, rng=rng).accesses
        hits = hit_counts(trace, max_cache_size=5)
        assert hits.size == 5

    def test_hit_counts_empty_trace(self):
        assert hit_counts([]).size == 0

    def test_all_cold_trace(self):
        hits = hit_counts(list(range(10)))
        assert hits.tolist() == [0] * 10


class TestStackDistanceStream:
    def test_single_chunk_equals_one_shot(self, rng):
        trace = zipfian_trace(400, 40, rng=rng).accesses
        assert np.array_equal(StackDistanceStream().feed(trace), stack_distances_vectorized(trace))

    def test_chunked_is_bit_identical_for_every_chunk_size(self, rng):
        trace = zipfian_trace(500, 35, rng=rng).accesses
        want = stack_distances_vectorized(trace)
        for chunk in (1, 2, 3, 7, 64, 499, 500, 1000):
            stream = StackDistanceStream()
            parts = [stream.feed(trace[s : s + chunk]) for s in range(0, trace.size, chunk)]
            assert np.array_equal(np.concatenate(parts), want), f"chunk={chunk}"

    def test_empty_chunks_are_no_ops(self):
        stream = StackDistanceStream()
        assert stream.feed([]).size == 0
        stream.feed([1, 2, 1])
        clock = stream.clock
        assert stream.feed(np.zeros(0, dtype=np.int64)).size == 0
        assert stream.clock == clock

    def test_clock_and_footprint_track_the_stream(self):
        stream = StackDistanceStream()
        stream.feed([5, 5, 6])
        stream.feed([7, 5])
        assert stream.clock == 5
        assert stream.footprint == 3

    def test_cross_chunk_reuse_gets_whole_stream_distance(self):
        stream = StackDistanceStream()
        stream.feed([1, 2])
        # [1, 2, | 2, 3, 2, 1]: distances 1, COLD, 2, 3 for the second chunk
        assert stream.feed([2, 3, 2, 1]).tolist() == [1, COLD, 2, 3]

    def test_rejects_non_integer_and_multidimensional_chunks(self):
        stream = StackDistanceStream()
        with pytest.raises(TypeError):
            stream.feed(np.asarray([1.5, 2.5]))
        with pytest.raises(ValueError):
            stream.feed(np.zeros((2, 2), dtype=np.int64))


class TestStackDistancesWithPrevious:
    def test_previous_positions(self):
        distances, previous = stack_distances_with_previous([4, 7, 4, 4, 7])
        assert previous.tolist() == [-1, -1, 0, 2, 1]
        assert distances.tolist() == [COLD, COLD, 2, 1, 2]

    def test_suffix_identity_behind_per_phase_profiles(self, rng):
        """Accesses whose previous access falls inside a suffix keep their
        whole-stream distance there; earlier reuses become cold — the
        identity the replay engine uses for free oracle profiles."""
        trace = zipfian_trace(300, 25, rng=rng).accesses
        distances, previous = stack_distances_with_previous(trace)
        for start in (0, 1, 57, 150, 299):
            suffix = stack_distances_vectorized(trace[start:])
            adjusted = np.where(previous[start:] >= start, distances[start:], np.int64(COLD))
            assert np.array_equal(adjusted, suffix), f"suffix start={start}"


def _smaller_right_oracle(values: np.ndarray) -> np.ndarray:
    return np.array([int(np.sum(values[i + 1 :] < values[i])) for i in range(values.size)], dtype=np.int64)


#: Sizes on both sides of multiples of the base width and of the merge-level
#: boundaries, where the last pair of blocks is ragged or missing.
_EDGE_SIZES = sorted({max(0, k * _BASE + d) for k in (1, 2, 3, 4, 5, 8, 9, 16, 17) for d in (-1, 0, 1)} | {0, 1, 2, 3})


class TestCountSmallerRight:
    @given(st.lists(st.integers(min_value=-6, max_value=6), max_size=70))
    def test_matches_brute_force_with_ties_and_negatives(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(_count_smaller_right(arr), _smaller_right_oracle(arr))

    @given(st.sampled_from(_EDGE_SIZES), st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_brute_force_at_block_and_level_edges(self, size, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(-3 * size - 1, 3 * size + 1, size=size)
        assert np.array_equal(_count_smaller_right(arr), _smaller_right_oracle(arr))

    @given(st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=40))
    def test_wide_values_are_rank_compressed(self, values):
        arr = np.asarray(values, dtype=np.int64)
        assert np.array_equal(_count_smaller_right(arr), _smaller_right_oracle(arr))

    def test_overflow_guard_keeps_order_and_ties(self):
        values = np.array([2**61, -(2**61), 5, 2**61, -(2**61)], dtype=np.int64)
        keys, shift = _index_keys(values, 16)
        assert (keys >> shift)[:5].tolist() == [2, 0, 1, 2, 0]  # dense ranks
        assert np.array_equal(_count_smaller_right(values), _smaller_right_oracle(values))

    def test_peak_memory_per_reference_stays_bounded(self):
        """The working set is a few arrays of the padded size (~34 B/ref).
        Padding 100k arcs to a power of two (~45 B/ref) or an all-pairs
        base-case tensor (~50 B/ref) would break this bound."""
        rng = np.random.default_rng(3)
        _starts, ends = _reuse_arcs(rng.integers(0, 40_000, size=140_000))
        ends = ends[:100_000].copy()
        tracemalloc.start()
        try:
            _count_smaller_right(ends)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / ends.size <= 40


def _chunked(trace: np.ndarray, cuts: list[int]) -> list[np.ndarray]:
    bounds = [0, *sorted(min(c, trace.size) for c in cuts), trace.size]
    return [trace[a:b] for a, b in zip(bounds, bounds[1:])]


class TestStackDistanceStreamDifferential:
    @given(
        st.lists(st.integers(min_value=0, max_value=12), max_size=80),
        st.lists(st.integers(min_value=0, max_value=80), max_size=8),
    )
    def test_any_chunking_matches_the_one_shot_pass(self, trace, cuts):
        """Cuts may repeat (empty chunks) and chunks may hold only items the
        stream already carries."""
        arr = np.asarray(trace, dtype=np.int64)
        stream = StackDistanceStream()
        parts = [stream.feed(chunk) for chunk in _chunked(arr, cuts)]
        assert np.array_equal(np.concatenate(parts), stack_distances(arr))
        assert stream.footprint == np.unique(arr).size and stream.clock == arr.size

    def test_labels_spanning_all_of_int64(self):
        """Labels too wide for the composite sort keys go through dense ranks."""
        labels = np.array([-(2**63), 2**63 - 1, 0, 2**62, -5], dtype=np.int64)
        trace = labels[np.random.default_rng(0).integers(0, labels.size, size=300)]
        stream = StackDistanceStream()
        parts = [stream.feed(trace[start : start + 37]) for start in range(0, trace.size, 37)]
        assert np.array_equal(np.concatenate(parts), stack_distances(trace))
        assert np.array_equal(stack_distances_vectorized(trace), stack_distances(trace))

    def test_chunk_of_carried_items_only(self):
        stream = StackDistanceStream()
        stream.feed([1, 2, 3, 4])
        again = stream.feed([3, 1, 4, 1])
        assert again.tolist() == stack_distances([1, 2, 3, 4, 3, 1, 4, 1])[4:].tolist()

    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=60), max_size=6),
    )
    def test_state_round_trip_at_every_chunk_boundary(self, trace, cuts):
        arr = np.asarray(trace, dtype=np.int64)
        chunks = _chunked(arr, cuts)
        stream = StackDistanceStream()
        for boundary, chunk in enumerate(chunks):
            resumed = StackDistanceStream()
            resumed.load_state_dict(stream.state_dict())
            for later in chunks[boundary:]:
                start = resumed.clock
                assert np.array_equal(resumed.feed(later), stack_distances(arr[: start + later.size])[start:])
            stream.feed(chunk)

    def test_loads_label_sorted_state(self):
        """States saved with labels in sorted order (the earlier layout) load
        and continue bit-identically."""
        stream = StackDistanceStream()
        stream.feed([9, 3, 7, 3, 5, 9])
        state = stream.state_dict()
        by_label = np.argsort(state["labels"])
        legacy = {key: state[key][by_label] for key in ("labels", "positions")} | {"clock": state["clock"]}
        assert legacy["labels"].tolist() == [3, 5, 7, 9]
        resumed = StackDistanceStream()
        resumed.load_state_dict(legacy)
        tail = [7, 3, 1, 9, 5]
        assert np.array_equal(resumed.feed(tail), stack_distances([9, 3, 7, 3, 5, 9, *tail])[6:])
        assert np.array_equal(stream.feed(tail), stack_distances([9, 3, 7, 3, 5, 9, *tail])[6:])
