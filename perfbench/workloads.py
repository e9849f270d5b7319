"""The four closed-loop workloads.

Each workload is one caller in one process with ``workers=1`` that starts the
next iteration only after the previous one returns.  Inputs come from the
seed alone and reach the program only as arrays or files.  ``setup`` builds
the inputs (it is timed, and run several times), ``prepare`` computes the
per-run oracle outside timing, ``run`` is one timed iteration through the
public API, and ``verify`` returns the problems found in one output (an
empty list when it is correct).
"""

from __future__ import annotations

import shutil
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro import api
from repro.cache.stack_distance import stack_distances_vectorized
from repro.core.permutation import Permutation, random_permutation
from repro.profiling.accuracy import mean_absolute_error
from repro.sim import partitioned
from repro.trace import streaming
from repro.trace.drift import three_phase_pair
from repro.trace.generators import blocked_traversal, repeated_traversals

#: SHARDS against the exact curve on the re-traversal schedules
#: (cliffs at the item count): the largest mean absolute error accepted.
MRC_MAE_BOUND = 0.2

#: Input sizes.  ``full`` is what the benchmark measures; ``tiny`` is the
#: smoke size of the benchmark's own tests.
SIZES = {
    "full": {
        "phase_length": 12_000,
        "pair": {},
        "job": {"budget": 1150, "window": 6000, "epoch": 2000},
        "items": 8192,
        "traversals": 6,
        "block": 64,
        "shards_rate": 0.01,
        "memmap_refs": 2_000_000,
        "memmap_footprint": 50_000,
        "memmap_segment": 1 << 18,
    },
    "tiny": {
        "phase_length": 1000,
        "pair": {"large": 120, "small": 40},
        "job": {"budget": 160, "window": 1000, "epoch": 250},
        "items": 256,
        "traversals": 8,
        "block": 16,
        "shards_rate": 0.25,
        "memmap_refs": 20_000,
        "memmap_footprint": 2000,
        "memmap_segment": 4096,
    },
}

#: The ``bench-replay`` job of ``benchmarks/test_bench_replay.py`` (budget,
#: window and epoch come from the size).
JOB_KNOBS = {"method": "hull", "rate": 0.5, "move_cost": 1.0, "name": "bench-replay", "workers": 1}


def lru_misses(items, capacity: int) -> int:
    """Misses of one LRU cache of ``capacity`` items over ``items``.

    A plain dictionary simulation that shares no code with the program: the
    oracle that a wrong stack-distance kernel cannot also get wrong.
    """
    cache: OrderedDict = OrderedDict()
    misses = 0
    for item in items.tolist():
        if item in cache:
            cache.move_to_end(item)
        else:
            misses += 1
            cache[item] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return misses


class Workload:
    """Shared surface; subclasses fill in the five steps."""

    name = ""
    why = ""

    def __init__(self, size: str, seed: int, work_dir: Path):
        self.size = SIZES[size]
        self.seed = int(seed)
        self.work_dir = Path(work_dir)
        self.refs = 0

    def setup(self):
        """Generate the inputs from the seed (timed as ``setup_s``)."""
        raise NotImplementedError

    def prepare(self, inputs) -> None:
        """Per-run work outside timing: oracles and references."""

    def run(self, inputs, index: int):
        """One timed iteration."""
        raise NotImplementedError

    def after(self, index: int) -> None:
        """Untimed clean-up after iteration ``index``."""

    def verify(self, inputs, output, reference) -> list[str]:
        """Problems with ``output`` (``reference`` is the warm-up output)."""
        raise NotImplementedError

    def miss_ratio(self, output) -> float:
        """The deterministic miss ratio this workload reports."""
        raise NotImplementedError

    def extra(self, output) -> dict[str, float]:
        """Additional deterministic results reported beside the metrics."""
        return {}


def _allocation_problems(result, budget: int) -> list[str]:
    splits = [result.static_allocation, result.final_allocation, *result.oracle_allocations]
    splits += [epoch.adaptive_allocation for epoch in result.epochs]
    over = [split for split in splits if sum(split) > budget or min(split) < 0]
    return [f"allocation {over[0]} exceeds the budget {budget}"] if over else []


def _same_replay(result, reference, what: str) -> list[str]:
    if result.rows() != reference.rows() or result.summary() != reference.summary():
        return [f"{what} differs from the reference replay"]
    return []


class OnlineSeesaw(Workload):
    """The 72k-reference three-phase seesaw through the online replay."""

    name = "online-seesaw"
    why = (
        "control plane of the online replay: windowed snapshots, detector, controller and lanes over many "
        "small kernel calls"
    )

    def setup(self):
        workload = three_phase_pair(self.size["phase_length"], **self.size["pair"], seed=self.seed)
        self.refs = int(workload.composed.trace.accesses.size)
        return workload

    def _replay(self, workload, **knobs):
        return api.online(workload, **self.size["job"], **JOB_KNOBS, **knobs)

    def run(self, inputs, index: int):
        return self._replay(inputs)

    def verify(self, inputs, output, reference) -> list[str]:
        problems = _allocation_problems(output, self.size["job"]["budget"])
        return problems + _same_replay(output, reference, "replay")

    def miss_ratio(self, output) -> float:
        return float(output.adaptive_miss_ratio)


class OnlineCheckpointed(OnlineSeesaw):
    """The same replay with a checkpoint every epoch, then a resume on that store."""

    name = "online-checkpointed"
    why = (
        "same replay with a checkpoint store written every epoch and resumed, so store writes and reads show "
        "(as CPU time; time blocked on disk is reported ungated)"
    )

    def prepare(self, inputs) -> None:
        self.plain = self._replay(inputs)

    def _store(self, index: int) -> Path:
        return self.work_dir / f"checkpoints-{index}"

    def run(self, inputs, index: int):
        store = self._store(index)
        first = self._replay(inputs, checkpoint_dir=store, checkpoint_every=1)
        resumed = self._replay(inputs, checkpoint_dir=store, checkpoint_every=1, resume=True)
        return first, resumed

    def after(self, index: int) -> None:
        shutil.rmtree(self._store(index), ignore_errors=True)

    def verify(self, inputs, output, reference) -> list[str]:
        first, resumed = output
        problems = _allocation_problems(first, self.size["job"]["budget"])
        problems += _same_replay(resumed, first, "resumed replay")
        problems += _same_replay(first, self.plain, "checkpointed replay")
        return problems

    def miss_ratio(self, output) -> float:
        return float(output[0].adaptive_miss_ratio)


class RetraversalMRC(Workload):
    """The paper's input: full re-traversals of ``m`` items in seeded orders."""

    name = "retraversal-mrc"
    why = (
        "the paper's re-traversal schedules: one-shot kernel, exact and SHARDS profiles with MRC cliffs, "
        "and the LRU/FIFO sweep"
    )

    def setup(self):
        m, block = self.size["items"], self.size["block"]
        rng = np.random.default_rng(self.seed)
        kinds = np.resize(np.arange(4), self.size["traversals"])
        rng.shuffle(kinds)
        makers = (
            lambda: Permutation.identity(m),
            lambda: Permutation.reverse(m),
            lambda: blocked_traversal(m, block),
            lambda: random_permutation(m, rng),
        )
        trace = repeated_traversals([makers[kind]() for kind in kinds]).accesses
        self.refs = int(trace.size)
        # The CLI's default pow2 grid: every power of two up to the footprint.
        self.capacities = tuple(1 << k for k in range(m.bit_length()) if 1 << k <= m)
        return trace

    def prepare(self, inputs) -> None:
        self.oracle_misses = [lru_misses(inputs, capacity) for capacity in self.capacities]

    def run(self, inputs, index: int):
        exact = api.profile(inputs, mode="exact", workers=1)
        shards = api.profile(inputs, mode="shards", rate=self.size["shards_rate"], workers=1)
        sweep = api.sweep(inputs, policies=("lru", "fifo"), capacities=self.capacities, workers=1)
        return exact, shards, sweep

    def verify(self, inputs, output, reference) -> list[str]:
        exact, shards, sweep = output
        problems = []
        lru = sweep["lru"]
        # Both share the distance kernel, so each is held to the dictionary
        # simulation; the exact curve's ratios are compared as miss counts.
        if list(lru.misses) != self.oracle_misses:
            problems.append("LRU sweep misses differ from the LRU simulation")
        exact_misses = [round(exact.curve.ratios[c - 1] * exact.accesses) for c in self.capacities]
        if exact_misses != self.oracle_misses:
            problems.append("exact profile misses differ from the LRU simulation")
        mae = mean_absolute_error(shards.curve, exact.curve)
        if not mae <= MRC_MAE_BOUND:
            problems.append(f"SHARDS mrc_mae {mae:.4f} exceeds {MRC_MAE_BOUND}")
        ref_exact, ref_shards, ref_sweep = reference
        if (exact.curve, shards.curve) != (ref_exact.curve, ref_shards.curve) or sweep.rows() != ref_sweep.rows():
            problems.append("profile or sweep differs from the reference iteration")
        return problems

    def miss_ratio(self, output) -> float:
        return float(np.mean(output[2]["lru"].miss_ratios))

    def extra(self, output) -> dict[str, float]:
        return {"mrc_mae": mean_absolute_error(output[1].curve, output[0].curve)}


class MemmapStream(Workload):
    """A two-tenant uniform trace streamed from a memmap through partitioned LRU."""

    name = "memmap-stream"
    why = "streamed kernel and trace I/O in bounded memory; no controller, sketch or sweep, so it controls for them"

    def setup(self):
        refs, segment = self.size["memmap_refs"], self.size["memmap_segment"]
        footprint = self.size["memmap_footprint"]
        path = self.work_dir / "trace"
        self.capacities = [footprint // 4, footprint // 4]
        rng = np.random.default_rng(self.seed)
        writable = streaming.create_memmap_trace(path, length=refs, segment=segment)
        position = 0
        while position < refs:
            count = min(segment, refs - position)
            items = rng.integers(0, footprint, size=count)
            position = writable.fill(position, items, rng.integers(0, 2, size=count))
        writable.flush()
        del writable
        self.refs = refs
        return path

    def prepare(self, inputs) -> None:
        # Oracles: one-shot per-tenant distances through the partition kernel,
        # and a dictionary simulation per tenant that shares no program code.
        items = np.load(f"{inputs}.items.npy")
        tenants = np.load(f"{inputs}.tenants.npy")
        self.oracle_misses = self.simulated_misses = 0
        for tenant, capacity in enumerate(self.capacities):
            own = items[tenants == tenant]
            self.oracle_misses += partitioned.partitioned_lru_segment(stack_distances_vectorized(own), capacity)[0]
            self.simulated_misses += lru_misses(own, capacity)

    def run(self, inputs, index: int):
        trace = streaming.open_memmap_trace(inputs, segment=self.size["memmap_segment"])
        simulator = partitioned.replay_partitioned(trace.segments(), self.capacities)
        return simulator.hits, simulator.misses

    def verify(self, inputs, output, reference) -> list[str]:
        hits, misses = output
        problems = []
        if hits + misses != self.refs:
            problems.append(f"hits + misses = {hits + misses}, expected {self.refs} references")
        if misses != self.oracle_misses:
            problems.append(f"{misses} misses, the one-shot oracle has {self.oracle_misses}")
        if misses != self.simulated_misses:
            problems.append(f"{misses} misses, the LRU simulation has {self.simulated_misses}")
        return problems

    def miss_ratio(self, output) -> float:
        return output[1] / (output[0] + output[1])


WORKLOADS = {cls.name: cls for cls in (OnlineSeesaw, OnlineCheckpointed, RetraversalMRC, MemmapStream)}
