"""Slow reference implementations the fast paths are checked against.

Each oracle here computes what a vectorised path in ``src/repro`` computes,
the plain way: one Python step per access, one cache replay per capacity, or
one from-scratch profile per stream.  None is used by the package itself;
the tests and ``benchmarks/`` import them from here, as ``tests.oracles``
(the repository root is on ``sys.path`` under ``python -m pytest``).

* :func:`stack_distances_naive` — Mattson's explicit LRU stack, ``O(N·M)``.
* :func:`stack_distances` — the Olken / Bennett–Kruskal Fenwick-tree loop,
  ``O(N log N)``, one Python step per access.
* :func:`exact_discretized_curve` — an exact discretized MRC re-profiled from
  the raw stream.
* :func:`naive_sweep_hits` — one cache replay per capacity.
* :class:`PartitionedLRU` — per-tenant ``OrderedDict`` partitions stepped one
  access at a time, resizable online.
* :func:`lane_schedule`, :func:`drive_lanes` and :func:`per_event_lane_misses`
  — re-drive the capacity schedules a recorded online replay ran, through
  any lane simulators.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Sequence

import numpy as np

from repro.alloc.curves import discretize_curve
from repro.cache.fifo import FIFOCache
from repro.cache.lru import LRUCache
from repro.cache.mrc import mrc_from_trace
from repro.cache.stack_distance import COLD
from repro.core.inversions import FenwickTree
from repro.engine.columnar import idle_curve
from repro.sim.kernels import check_capacities

LANES = ("static", "adaptive", "oracle")


def _as_trace(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    arr = np.asarray(trace)
    if arr.ndim != 1:
        raise ValueError(f"trace must be one-dimensional, got shape {arr.shape}")
    return arr.astype(np.int64, copy=False)


# --------------------------------------------------------------------------- #
# Stack distances
# --------------------------------------------------------------------------- #
def stack_distances_naive(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU stack distances by direct stack simulation (``O(N·M)``).

    The distance of an access is the 1-based depth of its item in the
    explicit LRU stack, or :data:`~repro.cache.stack_distance.COLD` if absent.
    """
    arr = _as_trace(trace)
    stack: list[int] = []  # most recently used at the end
    out = np.full(arr.size, COLD, dtype=np.int64)
    for pos in range(arr.size):
        item = int(arr[pos])
        try:
            out[pos] = len(stack) - stack.index(item)
            stack.remove(item)
        except ValueError:
            pass
        stack.append(item)
    return out


def stack_distances(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """LRU stack distances via the Olken / Bennett–Kruskal Fenwick-tree algorithm.

    A Fenwick tree holds a 1 at the position of every item's most recent
    access, so the distinct items touched since an item's previous access
    are a range sum.  Each access does ``O(log N)`` work.
    """
    arr = _as_trace(trace)
    n = arr.size
    out = np.full(n, COLD, dtype=np.int64)
    if n == 0:
        return out
    tree = FenwickTree(n)
    last_pos: dict[int, int] = {}
    for pos in range(n):
        item = int(arr[pos])
        prev = last_pos.get(item)
        if prev is not None:
            out[pos] = tree.range_sum(prev + 1, pos - 1) + 1
            tree.add(prev, -1)
        tree.add(pos, 1)
        last_pos[item] = pos
    return out


# --------------------------------------------------------------------------- #
# Profiles and sweeps
# --------------------------------------------------------------------------- #
def exact_discretized_curve(stream: np.ndarray, budget: int, unit: int):
    """Exact MRC of one tenant stream up to ``budget``, discretized to ``unit``.

    Re-profiles ``stream`` from scratch through
    :func:`~repro.cache.mrc.mrc_from_trace`; an empty stream maps to
    :func:`~repro.engine.columnar.idle_curve`.
    """
    stream = np.asarray(stream)
    if stream.size == 0:
        return idle_curve(unit)
    curve = mrc_from_trace(stream, max_cache_size=budget)
    return discretize_curve(curve, budget, unit=unit)


def naive_sweep_hits(
    trace: Sequence[int] | np.ndarray, capacities: Sequence[int] | np.ndarray, *, policy: str = "lru"
) -> np.ndarray:
    """Hits at each capacity, replaying the trace once per capacity.

    ``len(capacities)`` full pure-Python replays through a fresh
    :class:`~repro.cache.lru.LRUCache` or :class:`~repro.cache.fifo.FIFOCache`:
    the cost the single-pass sweep kernels remove.
    """
    models = {"lru": LRUCache, "fifo": FIFOCache}
    if policy not in models:
        raise ValueError(f"naive replay supports {sorted(models)}, got {policy!r}")
    caps = check_capacities(capacities)
    arr = np.asarray(trace).tolist()
    hits = np.zeros(caps.size, dtype=np.int64)
    for k, capacity in enumerate(caps):
        hits[k] = models[policy](int(capacity)).run(arr).hits
    return hits


# --------------------------------------------------------------------------- #
# Partitioned LRU, one access at a time
# --------------------------------------------------------------------------- #
class PartitionedLRU:
    """Per-tenant LRU partitions of one shared cache, resizable online.

    Each tenant owns an isolated LRU partition of ``capacities[t]`` blocks.
    :meth:`resize` applies a new split immediately: a shrunk partition evicts
    from its least-recently-used end, a grown one simply gains headroom.  A
    capacity of 0 bypasses the cache entirely (every access misses).
    """

    def __init__(self, capacities: Sequence[int]):
        self._capacities = [int(c) for c in capacities]
        if any(c < 0 for c in self._capacities):
            raise ValueError("partition capacities must be >= 0")
        self._entries: list[OrderedDict[int, None]] = [OrderedDict() for _ in self._capacities]
        self.hits = 0
        self.misses = 0

    @property
    def capacities(self) -> tuple[int, ...]:
        """Current per-tenant partition sizes in blocks."""
        return tuple(self._capacities)

    @property
    def occupancies(self) -> tuple[int, ...]:
        """Resident blocks per tenant."""
        return tuple(len(entries) for entries in self._entries)

    def access(self, tenant: int, item: int) -> bool:
        """Access ``item`` in tenant ``tenant``'s partition; ``True`` on a hit."""
        capacity = self._capacities[tenant]
        entries = self._entries[tenant]
        if item in entries:
            entries.move_to_end(item)
            self.hits += 1
            return True
        self.misses += 1
        if capacity == 0:
            return False
        if len(entries) >= capacity:
            entries.popitem(last=False)
        entries[item] = None
        return False

    def resize(self, capacities: Sequence[int]) -> None:
        """Apply a new split; shrunk partitions evict their LRU blocks now."""
        capacities = [int(c) for c in capacities]
        if len(capacities) != len(self._capacities):
            raise ValueError(f"got {len(capacities)} capacities for {len(self._capacities)} partitions")
        if any(c < 0 for c in capacities):
            raise ValueError("partition capacities must be >= 0")
        for entries, capacity in zip(self._entries, capacities):
            while len(entries) > capacity:
                entries.popitem(last=False)
        self._capacities = capacities

    @property
    def miss_ratio(self) -> float:
        """Miss ratio over everything accessed so far (0 when nothing was)."""
        total = self.hits + self.misses
        return self.misses / total if total else 0.0


# --------------------------------------------------------------------------- #
# Re-driving the lane schedules of a recorded online replay
# --------------------------------------------------------------------------- #
def lane_schedule(workload, result, epoch: int):
    """The chunk stops and per-lane resize schedules one replay actually ran.

    Returns ``(stops, epoch_ends, adaptive_at, oracle_at)``: every position
    where a lane may change, the positions that close an epoch, and the
    adaptive and oracle splits in force from each position on.
    """
    n = result.accesses
    epoch_ends = set(range(epoch, n, epoch)) | {n}
    boundaries = {int(b) for b in workload.boundaries if b > 0}
    stops = sorted(epoch_ends | boundaries)
    adaptive_at = {e.end: e.adaptive_allocation for e in result.epochs}
    oracle_at = {int(workload.boundaries[p]): result.oracle_allocations[p] for p in range(1, workload.num_phases)}
    return stops, epoch_ends, adaptive_at, oracle_at


def drive_lanes(simulators, advance: Callable[[int, int], dict], schedule) -> dict[str, list[int]]:
    """Run lane simulators over a recorded schedule; per-epoch misses per lane.

    ``advance(start, stop)`` feeds events ``start .. stop`` to every lane and
    returns each lane's misses over them; resizes are applied to
    ``simulators`` at the recorded positions.
    """
    stops, epoch_ends, adaptive_at, oracle_at = schedule
    series = {lane: [] for lane in LANES}
    epoch_misses = {lane: 0 for lane in LANES}
    position = 0
    for stop in stops:
        deltas = advance(position, stop)
        for lane in LANES:
            epoch_misses[lane] += deltas[lane]
        position = stop
        if position in oracle_at:
            simulators["oracle"].resize(oracle_at[position])
        if position in epoch_ends:
            if position in adaptive_at:
                simulators["adaptive"].resize(adaptive_at[position])
            for lane in LANES:
                series[lane].append(epoch_misses[lane])
                epoch_misses[lane] = 0
    return series


def per_event_lane_misses(items: np.ndarray, ids: np.ndarray, allocations: dict, schedule) -> dict[str, list[int]]:
    """Per-epoch misses of every lane, replayed through :class:`PartitionedLRU`.

    ``allocations`` holds each lane's split at the start of the trace.
    """
    sims = {lane: PartitionedLRU(allocations[lane]) for lane in LANES}

    def advance(start: int, stop: int) -> dict:
        # Plain Python ints hash and compare much faster in the OrderedDict
        # partitions than per-event numpy scalars.
        pairs = list(zip(ids[start:stop].tolist(), items[start:stop].tolist()))
        deltas = {}
        for lane in LANES:
            sim = sims[lane]
            before = sim.misses
            access = sim.access
            for tenant, item in pairs:
                access(tenant, item)
            deltas[lane] = sim.misses - before
        return deltas

    return drive_lanes(sims, advance, schedule)
