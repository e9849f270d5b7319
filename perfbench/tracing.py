"""The traced run: spans around each layer's public entry points.

The tracer wraps a function at the attribute its callers resolve — a class
attribute (``WindowedShardsSketch.snapshot``), the importing module's name
(``repro.online.replay.curve_of_snapshot``) or a dispatch-table entry
(``repro.online.controller._ALLOCATORS``) — and restores every original on
exit, so untraced iterations run the program exactly as shipped.  Spans
(name, start, end, parent, iteration id) stay in memory and are written out
when the run ends.  A span's self time is its duration minus the time its
children cover.

:data:`PER_LAYER` is the per-layer metric table: what each metric measures,
the end-to-end metric and workload it should move, and the workload on
which no change is predicted.  Later changes cite these names.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
import weakref
from collections import defaultdict
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the prediction it carries."""

    name: str
    unit: str
    better: str
    definition: str
    layer: str
    moves: str
    mostly_on: str
    no_change_on: str


def _layer(layer: str, moves: str, mostly_on: str, no_change_on: str, *metrics: tuple[str, str, str, str]):
    return tuple(LayerMetric(*metric, layer, moves, mostly_on, no_change_on) for metric in metrics)


_ONLINE = "online-seesaw, online-checkpointed"
_OTHERS = "retraversal-mrc, memmap-stream"

#: Every per-layer metric of the traced run, in report order, grouped by
#: layer with the end-to-end metric it should move, the workloads it is
#: mostly on and the workload where no change is predicted.  Times are
#: seconds per iteration (median over traced iterations), inclusive of
#: child spans unless the name says ``self``.
PER_LAYER: tuple[LayerMetric, ...] = (
    *_layer(
        "cache.stack_distance",
        "iter_norm_s_p50, refs_per_s, iter_s_p50",
        "memmap-stream (streamed feed), retraversal-mrc (one-shot)",
        "small share on online-seesaw",
        ("kernel.calls", "count", "lower", "stack_distances_with_previous calls"),
        ("kernel.refs", "count", "lower", "references passed to the distance kernel"),
        ("kernel.self_s", "s", "lower", "self time of the kernel and of StackDistanceStream.feed"),
        ("kernel.refs_per_s", "1/s", "higher", "kernel.refs / kernel.self_s"),
        ("kernel.refs_per_trace_ref", "ratio", "lower", "kernel.refs / trace references"),
    ),
    *_layer(
        "engine.columnar",
        "iter_norm_s_p50, refs_per_s",
        _ONLINE,
        _OTHERS,
        ("columnar.pass_s", "s", "lower", "TenantDistancePasses construction (the per-tenant distance pass)"),
        ("columnar.curves_s", "s", "lower", "whole-stream and per-phase exact curves from that pass"),
    ),
    *_layer(
        "online.windowed",
        "iter_norm_s_p50, refs_per_s",
        _ONLINE,
        _OTHERS,
        ("windowed.update_s", "s", "lower", "WindowedShardsSketch.update and .advance"),
        ("windowed.snapshot_s", "s", "lower", "WindowedShardsSketch.snapshot plus curve_of_snapshot"),
        ("windowed.snapshots", "count", "lower", "snapshots taken"),
        ("windowed.snapshot_refs", "count", "lower", "sampled references held by the snapshots"),
        ("windowed.reprocess_ratio", "ratio", "lower", "snapshot refs / newly sampled refs"),
    ),
    *_layer(
        "online.phases",
        "iter_norm_s_p50, refs_per_s; miss_ratio must hold",
        _ONLINE,
        _OTHERS,
        ("detector.observe_s", "s", "lower", "PhaseChangeDetector.observe"),
        ("detector.flags", "count", "lower", "observations flagged as a phase change"),
    ),
    *_layer(
        "online.controller, alloc",
        "iter_norm_s_p50, refs_per_s; miss_ratio must hold",
        _ONLINE,
        _OTHERS,
        ("controller.propose_s", "s", "lower", "ReallocationController.propose (static, oracle and inside decide)"),
        ("controller.decide_s", "s", "lower", "ReallocationController.decide"),
        ("controller.consults", "count", "lower", "controller.evaluations counter"),
        ("controller.apply_ratio", "ratio", "higher", "controller.applications / controller.evaluations"),
        ("alloc.hull_s", "s", "lower", "lower_convex_hull"),
        ("alloc.allocate_s", "s", "lower", "the controller's allocator, hull walk and top-up included"),
        ("alloc.discretize_s", "s", "lower", "discretize_curve"),
    ),
    *_layer(
        "engine.lanes, sim.partitioned",
        "iter_norm_s_p50, refs_per_s",
        "online-* (3 lanes), memmap-stream (1 lane)",
        "retraversal-mrc",
        ("lanes.advance_s", "s", "lower", "LaneSet.advance"),
        ("lanes.lane_refs", "count", "lower", "replay.lane_refs counter"),
        ("partitioned.segment_s", "s", "lower", "BatchPartitionedLRU.run_segment"),
        ("partitioned.lane_refs_per_s", "1/s", "higher", "lanes.lane_refs / partitioned.segment_s"),
    ),
    *_layer(
        "trace.streaming",
        "iter_norm_s_p50, refs_per_s, peak_heap_mb",
        "memmap-stream",
        "others",
        ("trace.open_s", "s", "lower", "open_memmap_trace, CRC verification included"),
        ("trace.segment_read_s", "s", "lower", "time to produce each StreamingTrace.segments item"),
        ("trace.segment_bytes", "bytes", "lower", "trace.segment_bytes counter"),
    ),
    *_layer(
        "profiling",
        "iter_norm_s_p50, refs_per_s, mrc_mae",
        "retraversal-mrc",
        "others",
        ("profiling.exact_s", "s", "lower", "mrc_from_trace inside the profiling engine"),
        ("profiling.shards_s", "s", "lower", "shards_mrc inside the profiling engine"),
        ("profiling.shards_sample_ratio", "ratio", "lower", "sampled refs / offered refs over every SHARDS seed"),
    ),
    *_layer(
        "sim.sweep, sim.kernels",
        "iter_norm_s_p50, refs_per_s",
        "retraversal-mrc",
        "others",
        ("sweep.lru_s", "s", "lower", "lru_sweep_hits"),
        ("sweep.fifo_s", "s", "lower", "fifo_sweep_hits"),
        ("sweep.lane_refs_per_s", "1/s", "higher", "sweep.lane_refs counter / (sweep.lru_s + sweep.fifo_s)"),
    ),
    *_layer(
        "resilience.checkpoint",
        "iter_norm_s_p50, refs_per_s, iter_s_tail",
        "online-checkpointed",
        "online-seesaw",
        ("checkpoint.write_s", "s", "lower", "write_checkpoint"),
        ("checkpoint.writes", "count", "lower", "checkpoint.writes counter"),
        ("checkpoint.bytes", "bytes", "lower", "checkpoint.bytes counter"),
        ("checkpoint.load_s", "s", "lower", "load_checkpoint"),
    ),
    *_layer(
        "benchmark tracer",
        "none",
        "all",
        "n/a",
        ("tracing_overhead_pct", "%", "lower", "traced vs untraced median iteration time"),
        ("unattributed_share", "ratio", "lower", "share of iteration time outside every layer span"),
    ),
)


@dataclass(frozen=True)
class Probe:
    """One instrumented entry point.

    ``owner`` is ``"module"`` or ``"module:Name"`` (a class or a dict);
    ``attrs`` are the attributes (or dict keys) wrapped under span ``name``;
    ``counter`` turns a call's ``(args, result)`` into counts.
    """

    owner: str
    attrs: tuple[str, ...]
    name: str
    counter: Callable | None = None
    iterator: bool = False


def _count_kernel(tracer, args, result):
    tracer.count("kernel.calls", 1)
    tracer.count("kernel.refs", int(np.size(args[0])))


def _count_snapshot(tracer, args, snapshot):
    # Newly sampled refs: the snapshot's sampled positions past this
    # sketch's previous snapshot clock (WindowSnapshot fields are public).
    sketch = args[0]
    previous = tracer.clocks.get(sketch, 0)
    tracer.clocks[sketch] = int(snapshot.clock)
    fresh = int(snapshot.positions.size - np.searchsorted(snapshot.positions, previous))
    tracer.count("windowed.snapshots", 1)
    tracer.count("windowed.snapshot_refs", int(snapshot.sampled))
    tracer.count("windowed.new_refs", fresh)


def _count_flags(tracer, args, observation):
    tracer.count("detector.flags", int(bool(observation.changed)))


def _count_sample(tracer, args, result):
    tracer.count("profiling.offered", int(np.size(args[0])))
    tracer.count("profiling.sampled", int(np.size(result[0])))


#: Entry points wrapped in the traced run.  Frame spans (``FRAMES``) only
#: give the tree its shape; time in their own frames counts as unattributed.
PROBES: tuple[Probe, ...] = (
    Probe("repro.cache.stack_distance", ("stack_distances_with_previous",), "kernel", _count_kernel),
    Probe("repro.cache.stack_distance:StackDistanceStream", ("feed",), "kernel.feed"),
    Probe("repro.engine.columnar:TenantDistancePasses", ("__init__",), "columnar.pass"),
    Probe("repro.engine.columnar:TenantDistancePasses", ("whole_stream_curve", "window_curve"), "columnar.curves"),
    Probe("repro.engine.columnar:TenantDistanceStreams", ("feed",), "columnar.split"),
    Probe("repro.online.windowed:WindowedShardsSketch", ("update",), "windowed.update"),
    Probe("repro.online.windowed:WindowedShardsSketch", ("advance",), "windowed.advance"),
    Probe("repro.online.windowed:WindowedShardsSketch", ("snapshot",), "windowed.snapshot", _count_snapshot),
    Probe("repro.online.replay", ("curve_of_snapshot",), "windowed.curve"),
    Probe("repro.online.phases:PhaseChangeDetector", ("observe",), "detector.observe", _count_flags),
    Probe("repro.online.controller:ReallocationController", ("propose",), "controller.propose"),
    Probe("repro.online.controller:ReallocationController", ("decide",), "controller.decide"),
    Probe("repro.online.controller:_ALLOCATORS", ("greedy", "dp", "hull"), "alloc.allocate"),
    Probe("repro.alloc.allocators", ("lower_convex_hull",), "alloc.hull"),
    # columnar imports discretize_curve at call time, replay at import time.
    Probe("repro.alloc.curves", ("discretize_curve",), "alloc.discretize"),
    Probe("repro.online.replay", ("discretize_curve",), "alloc.discretize"),
    Probe("repro.engine.lanes:LaneSet", ("advance",), "lanes.advance"),
    Probe("repro.engine.lanes:LaneSet", ("resize",), "lanes.resize"),
    Probe("repro.sim.partitioned:BatchPartitionedLRU", ("run_segment",), "partitioned.segment"),
    Probe("repro.sim.partitioned", ("replay_partitioned",), "partitioned.replay"),
    Probe("repro.trace.streaming", ("open_memmap_trace",), "trace.open"),
    Probe("repro.trace.streaming:StreamingTrace", ("segments",), "trace.segment_read", iterator=True),
    Probe("repro.profiling.engine", ("run_jobs",), "profiling.run"),
    Probe("repro.profiling.engine", ("mrc_from_trace",), "profiling.exact"),
    Probe("repro.profiling.engine", ("shards_mrc",), "profiling.shards"),
    Probe("repro.profiling.shards", ("sample_trace",), "profiling.sample", _count_sample),
    Probe("repro.sim.sweep", ("run_sweep",), "sweep.run"),
    Probe("repro.sim.sweep", ("compact_trace",), "sweep.compact"),
    Probe("repro.sim.sweep", ("lru_sweep_hits",), "sweep.lru"),
    Probe("repro.sim.sweep", ("fifo_sweep_hits",), "sweep.fifo"),
    Probe("repro.online.replay", ("run_replay",), "online.replay"),
    Probe("repro.online.replay", ("replay_fingerprint",), "checkpoint.fingerprint"),
    Probe("repro.online.replay", ("latest_step",), "checkpoint.scan"),
    Probe("repro.online.replay", ("write_checkpoint",), "checkpoint.write"),
    Probe("repro.online.replay", ("load_checkpoint",), "checkpoint.load"),
)

#: Span names that frame the work without being a layer of their own.
FRAMES = frozenset({"iteration", "online.replay", "partitioned.replay", "profiling.run", "sweep.run"})

#: Program counters read from the ``repro.obs`` registry of each traced iteration.
REGISTRY_COUNTERS = (
    "controller.evaluations",
    "controller.applications",
    "checkpoint.writes",
    "checkpoint.bytes",
    "replay.lane_refs",
    "trace.segment_bytes",
    "sweep.lane_refs",
)

_DONE = object()


def _resolve(owner: str):
    module_name, _, attr = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr) if attr else module


class Tracer:
    """In-memory span recorder with wrapper installation."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float, int | None]] = []
        self.counts: dict[int | None, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        # Last snapshot clock per live sketch (weak: sketches die with their replay).
        self.clocks: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.iteration: int | None = None
        self._stack: list[int] = []
        self._next = 0
        self._epoch = time.perf_counter()

    def count(self, key: str, amount: float) -> None:
        """Add ``amount`` to this iteration's count ``key``."""
        self.counts[self.iteration][key] += amount

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around the block."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, self.iteration))

    def _wrap(self, function: Callable, probe: Probe) -> Callable:
        tracer, name, counter = self, probe.name, probe.counter
        if probe.iterator:

            @functools.wraps(function)
            def iterate(*args, **kwargs):
                iterator = iter(function(*args, **kwargs))
                while True:
                    with tracer.span(name):
                        item = next(iterator, _DONE)
                    if item is _DONE:
                        return
                    yield item

            return iterate

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = function(*args, **kwargs)
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every probe for the block; restore every original on exit."""
        restore: list[tuple[object, str, object]] = []
        try:
            for probe in PROBES:
                owner = _resolve(probe.owner)
                for attr in probe.attrs:
                    if isinstance(owner, dict):
                        original = owner[attr]
                        owner[attr] = self._wrap(original, probe)
                    else:
                        original = owner.__dict__[attr]
                        setattr(owner, attr, self._wrap(original, probe))
                    restore.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        """Write every span, one JSON object per line (times from tracer start)."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid, parent, name, start, end, iteration in sorted(self.spans):
                record = {
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "start": start - self._epoch,
                    "end": end - self._epoch,
                    "iteration": iteration,
                }
                handle.write(json.dumps(record) + "\n")


@dataclass
class IterationProfile:
    """Span times of one traced iteration, folded by name and by tree path."""

    wall: float
    inclusive: dict[str, float]
    self_time: dict[str, float]
    unattributed: float
    paths: dict[tuple[str, ...], tuple[float, float]]


def profile_iterations(tracer: Tracer) -> dict[int, IterationProfile]:
    """Fold the recorded spans into one :class:`IterationProfile` per iteration."""
    by_id = {span[0]: span for span in tracer.spans}
    children: dict[int, float] = defaultdict(float)
    for sid, parent, _name, start, end, _iteration in tracer.spans:
        if parent is not None:
            children[parent] += end - start
    profiles: dict[int, IterationProfile] = {}
    for sid, parent, name, start, end, iteration in sorted(tracer.spans):
        if iteration is None:
            continue
        ancestors = []
        cursor = parent
        while cursor is not None:
            ancestors.append(by_id[cursor][2])
            cursor = by_id[cursor][1]
        profile = profiles.get(iteration)
        if profile is None:
            profile = profiles[iteration] = IterationProfile(0.0, defaultdict(float), defaultdict(float), 0.0, {})
        duration = end - start
        own = duration - children[sid]
        if name not in ancestors:
            profile.inclusive[name] += duration
        profile.self_time[name] += own
        if parent is None:
            profile.wall += duration
        elif name not in FRAMES and all(a in FRAMES for a in ancestors):
            profile.unattributed -= duration  # an outermost layer span
        path = tuple(reversed(ancestors)) + (name,)
        total, self_total = profile.paths.get(path, (0.0, 0.0))
        profile.paths[path] = (total + duration, self_total + own)
    for profile in profiles.values():
        profile.unattributed += profile.wall
    return profiles


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_values(profile: IterationProfile, counts: dict[str, float], trace_refs: int) -> dict[str, float]:
    """Every per-layer metric except ``tracing_overhead_pct`` for one iteration."""
    inc, own = profile.inclusive, profile.self_time

    def seconds(*names: str) -> float:
        return float(sum(inc.get(name, 0.0) for name in names))

    kernel_self = own.get("kernel", 0.0) + own.get("kernel.feed", 0.0)
    lane_refs = counts.get("replay.lane_refs", 0.0)
    segment_s = seconds("partitioned.segment")
    sweep_s = seconds("sweep.lru", "sweep.fifo")
    return {
        "kernel.calls": counts.get("kernel.calls", 0.0),
        "kernel.refs": counts.get("kernel.refs", 0.0),
        "kernel.self_s": kernel_self,
        "kernel.refs_per_s": _ratio(counts.get("kernel.refs", 0.0), kernel_self),
        "kernel.refs_per_trace_ref": _ratio(counts.get("kernel.refs", 0.0), trace_refs),
        "columnar.pass_s": seconds("columnar.pass"),
        "columnar.curves_s": seconds("columnar.curves"),
        "windowed.update_s": seconds("windowed.update", "windowed.advance"),
        "windowed.snapshot_s": seconds("windowed.snapshot", "windowed.curve"),
        "windowed.snapshots": counts.get("windowed.snapshots", 0.0),
        "windowed.snapshot_refs": counts.get("windowed.snapshot_refs", 0.0),
        "windowed.reprocess_ratio": _ratio(
            counts.get("windowed.snapshot_refs", 0.0), counts.get("windowed.new_refs", 0.0)
        ),
        "detector.observe_s": seconds("detector.observe"),
        "detector.flags": counts.get("detector.flags", 0.0),
        "controller.propose_s": seconds("controller.propose"),
        "controller.decide_s": seconds("controller.decide"),
        "controller.consults": counts.get("controller.evaluations", 0.0),
        "controller.apply_ratio": _ratio(
            counts.get("controller.applications", 0.0), counts.get("controller.evaluations", 0.0)
        ),
        "alloc.hull_s": seconds("alloc.hull"),
        "alloc.allocate_s": seconds("alloc.allocate"),
        "alloc.discretize_s": seconds("alloc.discretize"),
        "lanes.advance_s": seconds("lanes.advance"),
        "lanes.lane_refs": lane_refs,
        "partitioned.segment_s": segment_s,
        "partitioned.lane_refs_per_s": _ratio(lane_refs, segment_s),
        "trace.open_s": seconds("trace.open"),
        "trace.segment_read_s": seconds("trace.segment_read"),
        "trace.segment_bytes": counts.get("trace.segment_bytes", 0.0),
        "profiling.exact_s": seconds("profiling.exact"),
        "profiling.shards_s": seconds("profiling.shards"),
        "profiling.shards_sample_ratio": _ratio(
            counts.get("profiling.sampled", 0.0), counts.get("profiling.offered", 0.0)
        ),
        "sweep.lru_s": seconds("sweep.lru"),
        "sweep.fifo_s": seconds("sweep.fifo"),
        "sweep.lane_refs_per_s": _ratio(counts.get("sweep.lane_refs", 0.0), sweep_s),
        "checkpoint.write_s": seconds("checkpoint.write"),
        "checkpoint.writes": counts.get("checkpoint.writes", 0.0),
        "checkpoint.bytes": counts.get("checkpoint.bytes", 0.0),
        "checkpoint.load_s": seconds("checkpoint.load"),
        "unattributed_share": _ratio(profile.unattributed, profile.wall),
    }


def median_values(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    """Median of every key over the traced iterations."""
    return {key: float(statistics.median(values[key] for values in per_iteration)) for key in per_iteration[0]}


def render_tree(profiles: dict[int, IterationProfile]) -> list[str]:
    """The span tree as text: mean inclusive and self ms per iteration by path."""
    count = len(profiles)
    merged: dict[tuple[str, ...], list[float]] = {}
    unattributed = 0.0
    for profile in profiles.values():
        unattributed += profile.unattributed
        for path, (total, own) in profile.paths.items():
            slot = merged.setdefault(path, [0.0, 0.0])
            slot[0] += total
            slot[1] += own
    lines = [f"{'span (mean ms per traced iteration)':<58} {'incl':>10} {'self':>10}"]
    for path, (total, own) in merged.items():
        label = "  " * (len(path) - 1) + path[-1]
        lines.append(f"{label:<58} {total / count * 1e3:>10.3f} {own / count * 1e3:>10.3f}")
    lines.append(f"{'(unattributed)':<58} {unattributed / count * 1e3:>10.3f}")
    return lines
