"""Footprint and timescale locality metrics.

Section VI (Problem 3) reports that the authors tried to build edge labelings
out of other locality metrics — *timescale locality* (the relational theory of
locality, Yuan et al., the paper's reference [1]) and *data movement
complexity* (Smith et al., reference [10]).  To make those attempts
reproducible this module implements the trace-level metrics they are built on:

``footprint``
    The average working-set size over all time windows of a given length
    (Xiang's average footprint), computed for every window length in one
    ``O(N log N + N)`` pass from reuse intervals — the standard
    all-window-lengths formula.
``footprint_curve`` / ``miss_ratio_from_footprint``
    The full footprint curve and Xiang's conversion from footprint to miss
    ratio (``mr(c) ≈ fp(w+1) - fp(w)`` evaluated where ``fp(w) = c``), which is
    the "timescale" view of locality.
``data_movement_distance``
    The data-movement cost of a trace: each access is charged the square root
    of its stack distance (the paper's reference [10] charges movement over a
    √c × √c mesh), with cold accesses charged √m.  Lower is better.

The corresponding ChainFind edge labelings live in
:mod:`repro.core.timescale_labelings`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .stack_distance import COLD, reuse_intervals, stack_distances_vectorized

__all__ = [
    "footprint_curve",
    "footprint",
    "miss_ratio_from_footprint",
    "data_movement_distance",
]


def footprint_curve(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Average footprint ``fp(w)`` for every window length ``w = 0 .. N``.

    ``fp(w)`` is the mean number of distinct items accessed in a length-``w``
    window, averaged over all ``N - w + 1`` windows.  Computed with Xiang's
    closed-form decomposition: a window of length ``w`` misses an item only if
    the item's reuse interval covers the window or the item's first/last
    access lies outside it, so the whole curve follows from the histogram of
    reuse intervals plus the first/last access positions in ``O(N)`` after the
    interval computation.

    Returns an array ``fp`` of length ``N + 1`` with ``fp[0] = 0`` and
    ``fp[N]`` equal to the number of distinct items.
    """
    arr = np.asarray(trace)
    n = arr.size
    if n == 0:
        return np.zeros(1, dtype=np.float64)

    # reuse-interval histogram (intervals measured as gaps: accesses strictly between)
    intervals = reuse_intervals(arr)
    finite = intervals[intervals != COLD] + 1  # convert to "distance in accesses" between the pair

    first_seen: dict[int, int] = {}
    last_seen: dict[int, int] = {}
    for pos in range(n):
        item = int(arr[pos])
        if item not in first_seen:
            first_seen[item] = pos
        last_seen[item] = pos
    distinct = len(first_seen)

    # Xiang's formula: the total "absence" of items from windows of length w is
    #   sum over reuse intervals r > w of (r - w)
    # + sum over items of (first access position f): windows ending before f
    #   -> contributes (f - w)+ ... symmetric for the tail after the last access.
    # We accumulate, for each window length w, the number of (item, window)
    # pairs where the item is absent, then fp(w) = distinct - absence(w) / (n - w + 1).
    max_w = n

    def window_deficit(gap_lengths: np.ndarray) -> np.ndarray:
        """For each window length ``w``, the number of (gap, window) pairs where a
        length-``w`` window fits entirely inside a gap: sum of ``max(g - w + 1, 0)``.

        Computed from the gap-length histogram with suffix sums, ``O(n)``.
        """
        result = np.zeros(max_w + 1, dtype=np.float64)
        gaps = gap_lengths[gap_lengths > 0]
        if gaps.size == 0:
            return result
        hist = np.bincount(gaps, minlength=max_w + 2).astype(np.float64)
        count_ge = np.cumsum(hist[::-1])[::-1]  # count_ge[w] = #gaps with g >= w
        sum_ge = np.cumsum((hist * np.arange(hist.size))[::-1])[::-1]
        w = np.arange(max_w + 1, dtype=np.float64)
        # sum over gaps g >= w of (g - w + 1)
        result = sum_ge[: max_w + 1] - w * count_ge[: max_w + 1] + count_ge[: max_w + 1]
        return result

    # gaps between consecutive accesses of the same item (positions strictly between)
    between_gaps = (finite - 1).astype(np.int64)
    # gap before the first access and after the last access of each item
    heads = np.asarray([first_seen[item] for item in first_seen], dtype=np.int64)
    tails = np.asarray([n - 1 - last_seen[item] for item in last_seen], dtype=np.int64)

    absence = window_deficit(between_gaps) + window_deficit(heads) + window_deficit(tails)

    fp = np.empty(max_w + 1, dtype=np.float64)
    fp[0] = 0.0
    w = np.arange(1, max_w + 1)
    fp[1:] = distinct - absence[1:] / (n - w + 1)
    fp = np.clip(fp, 0.0, distinct)
    # the footprint is non-decreasing in the window length by definition;
    # enforce it to absorb floating-point round-off
    np.maximum.accumulate(fp, out=fp)
    return fp


def footprint(trace: Sequence[int] | np.ndarray, window: int) -> float:
    """Average footprint of windows of length ``window`` (see :func:`footprint_curve`)."""
    curve = footprint_curve(trace)
    if window < 0:
        raise ValueError(f"window must be non-negative, got {window}")
    index = min(window, curve.size - 1)
    return float(curve[index])


def miss_ratio_from_footprint(trace: Sequence[int] | np.ndarray, cache_size: int) -> float:
    """Estimate the LRU miss ratio at ``cache_size`` from the footprint curve.

    Xiang's conversion: find the window length ``w`` whose average footprint
    fills the cache (``fp(w) = c``); the miss ratio is approximated by the
    footprint growth rate at that window, ``fp(w+1) - fp(w)``.  This is the
    "timescale" route to the miss ratio used by the relational theory of
    locality; the tests compare it against the exact stack-distance MRC.
    """
    if cache_size < 1:
        raise ValueError(f"cache_size must be >= 1, got {cache_size}")
    curve = footprint_curve(trace)
    if curve.size <= 1:
        return 0.0
    if cache_size >= curve[-1]:
        return 0.0
    w = int(np.searchsorted(curve, cache_size))
    if w >= curve.size - 1:
        return 0.0
    return float(max(curve[w + 1] - curve[w], 0.0))


def data_movement_distance(trace: Sequence[int] | np.ndarray) -> float:
    """Total data-movement distance of a trace (√-of-stack-distance cost model).

    Following the data-movement-complexity view (the paper's reference [10]),
    an access whose reuse occupies ``d`` distinct items is charged ``√d`` —
    the distance data travels on a √d × √d mesh of that capacity; cold
    accesses are charged ``√M`` for the full footprint ``M``.  Lower totals
    mean less data movement.  For re-traversals this induces the same ranking
    as the inversion number (both are monotone in the stack-distance
    multiset), which is why the paper considered it as a labeling ingredient.
    """
    arr = np.asarray(trace)
    if arr.size == 0:
        return 0.0
    distances = stack_distances_vectorized(arr)
    footprint_size = int(np.unique(arr).size)
    finite = distances[distances != COLD].astype(np.float64)
    cold = distances.size - finite.size
    return float(np.sqrt(finite).sum() + cold * np.sqrt(footprint_size))
