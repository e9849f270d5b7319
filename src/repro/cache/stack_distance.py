"""Reuse-interval and LRU stack-distance algorithms for arbitrary traces.

The closed-form results of :mod:`repro.core.hits` apply to periodic traces
``A σ(A)``; general program traces reuse data arbitrarily often (the
limitation discussed in Section VI-D/E).  This module provides the classic
trace-processing algorithms so that arbitrary traces can be analysed and the
periodic special case can be cross-validated:

* :func:`reuse_intervals` — the time (access count) between consecutive uses
  of the same item (Definition 4).
* :func:`stack_distances_vectorized` — exact LRU stack distances without a
  per-access Python loop: each reuse pair becomes an *arc* ``(j, next(j))``,
  the distance is ``next(j) - j`` minus the number of arcs strictly nested
  inside, and nested-arc counting is "count smaller elements to the right"
  of the arc-end sequence.  Both steps sort composite ``value << shift |
  index`` keys: one sort finds the arcs, and a bottom-up merge counts the
  nesting in ``log2(N / 16)`` levels, each an in-place row sort of sorted
  pairs plus a few linear NumPy passes — no Python-level per-access steps.
  This is the fast path behind :func:`stack_distance_histogram` and the
  single-pass LRU capacity sweep in :mod:`repro.sim`.
* :func:`stack_distance_histogram` and :func:`hit_counts` — aggregate forms
  used by the miss-ratio-curve construction in :mod:`repro.cache.mrc`.
* :class:`StackDistanceStream` — the *chunked* form of the vectorised
  algorithm: exact distances for a trace delivered in segments, carrying
  ``O(footprint)`` state between segments so arbitrarily long (for example
  ``numpy.memmap``-backed) traces are processed in bounded memory, at one
  vectorised pass over ``footprint + segment`` accesses per segment.  This is
  the distance source of the batch partitioned-LRU replay data plane in
  :mod:`repro.sim.partitioned`.

Distances use the same convention as the rest of the library: the *stack
distance* of an access is ``1 +`` the number of distinct items referenced since
the previous access to the same item; first-ever accesses (cold misses) have
no finite distance and are reported as ``0`` sentinel in the histogram's
overflow slot or ``numpy.iinfo(np.int64).max`` in per-access arrays.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "COLD",
    "reuse_intervals",
    "stack_distances_vectorized",
    "stack_distances_with_previous",
    "stack_distance_histogram",
    "hit_counts",
    "StackDistanceStream",
]

#: Sentinel distance assigned to cold (first-ever) accesses.
COLD: int = int(np.iinfo(np.int64).max)


def _as_trace(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(trace)
    if arr.ndim != 1:
        raise ValueError(f"trace must be one-dimensional, got shape {arr.shape}")
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise TypeError(f"trace items must be integers, got dtype {arr.dtype}")
    return arr.astype(np.int64, copy=False)


def reuse_intervals(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Reuse interval of each access: accesses since the previous use of the same item.

    The first access of an item has no previous use and is reported as
    :data:`COLD`.  (The paper's Definition 4 assigns the interval to the
    *earlier* access of the pair; assigning it to the later access, as done
    here, is the standard trace-processing convention and carries the same
    multiset of finite values.)
    """
    arr = _as_trace(trace)
    out = np.full(arr.size, COLD, dtype=np.int64)
    last_seen: dict[int, int] = {}
    for pos in range(arr.size):
        item = int(arr[pos])
        if item in last_seen:
            out[pos] = pos - last_seen[item] - 1
        last_seen[item] = pos
    return out


#: Width of the blocks the nested-arc counter handles pairwise before merging.
_BASE = 16


def _index_keys(values: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Sort keys ``value << shift | index`` for ``size >= values.size`` slots.

    The keys are distinct and order like ``(value, index)``: one plain (fast,
    unstable) sort of them is a stable sort of ``values`` that carries each
    index along.  Slots past the values hold a sentinel one above the
    largest value, so they sort last.  Values too wide to sit beside
    ``shift`` index bits in 62 bits are replaced by their dense ranks.
    """
    shift = max(size - 1, 1).bit_length()
    low = int(values.min())
    span = int(values.max()) - low + 1
    if span.bit_length() + shift > 62:
        values = np.unique(values, return_inverse=True)[1]
        low, span = 0, int(values.max()) + 1
    keys = np.arange(size, dtype=np.int64)
    keys[: values.size] |= (values - low) << shift
    keys[values.size :] |= np.int64(span) << shift
    return keys, shift


def _count_smaller_right(values: np.ndarray) -> np.ndarray:
    """For each element, the number of *strictly smaller* elements to its right.

    Bottom-up merge counting on :func:`_index_keys`: for ``i < j`` the key
    of ``j`` is smaller exactly when ``values[j] < values[i]``, so ties need
    no special case.  Blocks of :data:`_BASE` keys are counted pairwise and
    sorted; every wider level sorts each pair of sibling blocks in place,
    and a left-half key's count for that level is the number of right-half
    keys before it in the sorted pair — a flat ``cumsum`` of "the index bit
    says right half" minus the pair's base, added at the key's index.  The
    working set is a few arrays padded only to a multiple of :data:`_BASE`
    (sentinel keys sort last); a ragged last pair is sorted on its own.
    """
    n = values.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    size = -(-n // _BASE) * _BASE
    keys, shift = _index_keys(values, size)

    # Base case: all pairs inside each block, one diagonal offset at a time.
    rows = keys.reshape(-1, _BASE)
    smaller = np.zeros(rows.shape, dtype=np.uint8)
    for offset in range(1, _BASE):
        smaller[:, :-offset] += rows[:, :-offset] > rows[:, offset:]
    counts = smaller.reshape(-1).astype(np.int64)
    rows.sort(axis=1)

    index = np.empty(size, dtype=np.int64)
    right = np.empty(size, dtype=np.int64)
    left = np.empty(size, dtype=bool)
    width, level = _BASE, _BASE.bit_length() - 1  # width == 1 << level
    while width < size:
        pair = 2 * width
        blocks = size // pair
        full = blocks * pair
        keys[:full].reshape(blocks, pair).sort(axis=1)
        if size - full > width:
            keys[full:].sort()
        np.right_shift(keys, level, out=right)  # the index bit that marks the right half
        right &= 1
        np.equal(right, 0, out=left)
        np.cumsum(right, out=right)
        # Each full pair before this one holds `width` right-half keys.
        right[:full].reshape(blocks, pair)[:] -= (np.arange(blocks, dtype=np.int64) * width)[:, None]
        right[full:] -= blocks * width
        right *= left
        np.bitwise_and(keys, (1 << shift) - 1, out=index)
        np.add.at(counts, index, right)
        width, level = pair, level + 1
    return counts[:n]


def _item_runs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Positions grouped by item, each group in access order.

    Returns ``(order, same)``: sorting :func:`_index_keys` lists the
    positions of each item together and in access order, and
    ``same[i]`` says ``order[i]`` and ``order[i + 1]`` access one item.
    """
    keys, shift = _index_keys(arr, arr.size)
    keys.sort()
    order = keys & np.int64((1 << shift) - 1)
    keys >>= shift
    return order, keys[1:] == keys[:-1]


def _reuse_arcs(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reuse arcs ``(start, end)`` of a trace, sorted by start position.

    Consecutive accesses of one item are an arc; a scatter of arc ends to
    their starts lists the arcs in start order.
    """
    order, same = _item_runs(arr)
    following = np.full(arr.size, -1, dtype=np.int64)
    following[order[:-1][same]] = order[1:][same]
    starts = np.flatnonzero(following >= 0)
    return starts, following[starts]


def stack_distances_vectorized(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Exact LRU stack distances with no per-access Python loop.

    Identity: write each reuse as an *arc* from a position to the next access
    of the same item.  For the access closing arc ``(p, t)`` the stack
    distance is ``1 +`` the number of distinct items in ``(p, t)``; a position
    ``j`` in that window contributes a distinct item iff its own next access
    falls at or after ``t``, so the non-contributing positions are exactly the
    arcs strictly nested inside ``(p, t)`` and

    ``distance(t) = t - p - #{arcs (j, next(j)) : p < j, next(j) < t}``.

    Arc starts are increasing, so the nested count per arc is "count smaller
    elements to the right" over the arc-end sequence.  Bit-identical to
    Mattson's stack simulation and the Olken / Bennett–Kruskal Fenwick-tree
    loop (both kept as oracles in the test-suite).
    """
    return stack_distances_with_previous(trace)[0]


def stack_distances_with_previous(trace: Sequence[int] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stack distances plus each access's previous-access position.

    Returns ``(distances, previous)`` where ``previous[t]`` is the position
    of the preceding access to the same item (``-1`` for a first-ever
    access).  The pair is what makes whole-stream distances reusable for
    *subtrace* analyses: an access whose previous access falls inside a
    suffix ``[s, ...)`` has the same stack distance in that suffix as in the
    whole stream (the distinct items between the two accesses all lie inside
    it), and an access with ``previous < s`` is simply cold there — the
    identity behind the free per-phase oracle profiles in
    :mod:`repro.online.replay`.
    """
    arr = _as_trace(trace)
    n = arr.size
    out = np.full(n, COLD, dtype=np.int64)
    previous = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return out, previous
    arc_start, arc_end = _reuse_arcs(arr)
    nested = _count_smaller_right(arc_end)
    out[arc_end] = arc_end - arc_start - nested
    previous[arc_end] = arc_start
    return out, previous


class StackDistanceStream:
    """Exact LRU stack distances for a trace consumed chunk by chunk.

    :meth:`feed` returns the stack distances of a chunk's accesses measured
    over the *whole* stream consumed so far — bit-identical to running
    :func:`stack_distances_vectorized` over the concatenation of every chunk
    — while carrying only ``O(footprint)`` state between chunks: each item
    seen so far with its last access position, in recency order.  Long
    (``numpy.memmap``-backed) traces therefore stream through in bounded
    memory, at one kernel call over ``footprint + chunk`` accesses per chunk.

    The carried items go in front of the chunk as virtual accesses in order
    of last access.  A chunk access whose previous access lies in an earlier
    chunk then closes an arc from its item's virtual access, and the
    distinct items inside that arc are exactly those touched between the two
    real accesses: carried items used more recently, plus chunk items before
    it — so the one-shot arc identity gives its whole-stream distance, and
    items new to the stream stay :data:`COLD`.  The virtual accesses'
    outputs are dropped; the accesses no later access points back to are
    the new carried state, already in recency order.

    Examples
    --------
    >>> stream = StackDistanceStream()
    >>> stream.feed([1, 2]).tolist() == [COLD, COLD]
    True
    >>> stream.feed([2, 3, 2, 1]).tolist()  # == stack_distances_vectorized([1,2,2,3,2,1])[2:]
    [1, 9223372036854775807, 2, 3]
    """

    def __init__(self) -> None:
        self._labels = np.zeros(0, dtype=np.int64)  # distinct items, least recently used first
        self._positions = np.zeros(0, dtype=np.int64)  # last global access position, aligned to _labels
        self._clock = 0

    @property
    def clock(self) -> int:
        """Number of accesses consumed so far."""
        return self._clock

    @property
    def footprint(self) -> int:
        """Number of distinct items seen so far."""
        return int(self._labels.size)

    def state_dict(self) -> dict:
        """Picklable snapshot of the carried state (for checkpoint/resume).

        The whole carried state is the labels, their aligned last-access
        positions, and the clock — restoring it and continuing to
        :meth:`feed` is bit-identical to never having stopped.
        """
        return {
            "labels": self._labels.copy(),
            "positions": self._positions.copy(),
            "clock": int(self._clock),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore carried state captured by :meth:`state_dict`.

        The pairs are put in recency order, so states saved in any order of
        labels (such as label-sorted) load too.
        """
        positions = np.asarray(state["positions"], dtype=np.int64)
        order = np.argsort(positions, kind="stable")
        self._labels = np.asarray(state["labels"], dtype=np.int64)[order]
        self._positions = positions[order]
        self._clock = int(state["clock"])

    def feed(self, chunk: Sequence[int] | np.ndarray) -> np.ndarray:
        """Consume one chunk; return its whole-stream stack distances.

        Cold accesses (first-ever across *all* chunks) report :data:`COLD`.
        """
        arr = _as_trace(chunk)
        if arr.size == 0:
            return np.zeros(0, dtype=np.int64)
        carried = self._labels.size
        joined = np.concatenate([self._labels, arr])
        distances, previous = stack_distances_with_previous(joined)
        last = np.ones(joined.size, dtype=bool)
        last[previous[previous >= 0]] = False
        ends = np.flatnonzero(last)
        still_carried = int(np.searchsorted(ends, carried))
        self._labels = joined[ends]
        fresh = ends[still_carried:] + (self._clock - carried)
        self._positions = np.concatenate([self._positions[ends[:still_carried]], fresh])
        self._clock += int(arr.size)
        return distances[carried:]


def stack_distance_histogram(
    trace: Sequence[int] | np.ndarray, *, max_distance: int | None = None
) -> tuple[np.ndarray, int]:
    """Histogram of finite stack distances plus the count of cold accesses.

    Returns ``(hist, cold)`` where ``hist[d - 1]`` counts accesses at stack
    distance ``d`` (1-based, up to ``max_distance`` or the number of distinct
    items) and ``cold`` counts first-ever accesses.  Uses the vectorised
    distance pass, so histogram construction never loops per access.
    """
    arr = _as_trace(trace)
    distances = stack_distances_vectorized(arr)
    finite = distances[distances != COLD]
    cold = int(arr.size - finite.size)
    limit = int(max_distance) if max_distance is not None else (int(finite.max()) if finite.size else 0)
    hist = np.zeros(max(limit, 0), dtype=np.int64)
    if finite.size:
        clipped = finite[finite <= limit] if limit else finite[:0]
        np.add.at(hist, clipped - 1, 1)
    return hist, cold


def hit_counts(trace: Sequence[int] | np.ndarray, *, max_cache_size: int | None = None) -> np.ndarray:
    """``hits_c`` for ``c = 1 .. max_cache_size`` on an arbitrary trace.

    An access hits in a fully-associative LRU cache of size ``c`` exactly when
    its stack distance is ≤ ``c``; the hit-count vector is therefore the
    cumulative sum of the stack-distance histogram.  The default cache-size
    range extends to the number of distinct items in the trace.
    """
    arr = _as_trace(trace)
    distinct = int(np.unique(arr).size) if arr.size else 0
    limit = int(max_cache_size) if max_cache_size is not None else distinct
    hist, _cold = stack_distance_histogram(arr, max_distance=limit)
    if hist.size < limit:
        hist = np.concatenate([hist, np.zeros(limit - hist.size, dtype=np.int64)])
    return np.cumsum(hist)
