"""Workload benchmark for the replay, profiling and streaming pipelines.

Run from the root of a checkout::

    python3 perfbench/run.py --workload online-seesaw --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

Each run builds its inputs from ``--seed`` (timed several times as
``setup_s``), runs one untimed warm-up iteration and one untimed
``tracemalloc`` iteration (``peak_heap_mb``), then iterates closed-loop for
``--seconds``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` alternates untraced and traced iterations
and reports the per-layer metrics of :data:`perfbench.tracing.PER_LAYER`.
Every iteration's output is checked; a failed check or an exception counts
as a failed iteration.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Results, spans and
working files go under ``--out`` (default ``perfbench/out``).  ``--size tiny``
runs the smoke-test inputs of ``perfbench/test_perfbench.py``.

The program is imported from ``src/`` of the checkout, never from an
installed copy: without it the benchmark exits non-zero and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import tracemalloc
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Native thread pools pinned to one thread: the benchmark is one caller on one core.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: The end-to-end metrics of ``BENCHMARK.json``: the last stdout line of a
#: ``--trace 0`` run carries exactly these.  The two times are host-normalised
#: process CPU seconds.  Each set-up and each iteration runs between two runs
#: of :func:`yardstick`, a fixed task that shares no code with the program,
#: and its CPU seconds are scaled by ``YARDSTICK_SECONDS`` over the mean
#: yardstick CPU seconds, so they read as seconds on a host that runs the
#: yardstick in ``YARDSTICK_SECONDS``.  The gated value is the median over the
#: run.  A 2-vCPU VM changes speed by up to ~1.5x over minutes (CPU time
#: included), and the yardstick follows it: over five seeds on
#: ``online-checkpointed`` the raw CPU minimum spread 0.28 (quartile spread /
#: median) and the normalised median 0.03; over ten seeds per workload the
#: normalised median spread 0.015-0.04.  CPU time leaves out time blocked on
#: I/O (a durable checkpoint ``fsync``, memmap page-in); ``iter_s_min`` and
#: ``iter_s_p50`` report wall time, ungated.
END_TO_END_UNITS = {
    "setup_s": "s",
    "iter_norm_s_p50": "s",
    "peak_heap_mb": "MB",
}
#: End-to-end results printed and recorded beside them, not gated: their
#: spread over runs is set by the host's speed (raw times, throughput and
#: tails) or by the seed (the deterministic miss ratio and SHARDS error).
REPORTED_UNITS = {
    "yardstick_cpu_s_p50": "s",
    "iter_cpu_s_min": "s",
    "iter_s_min": "s",
    "iter_cpu_s_p50": "s",
    "iter_s_p50": "s",
    "refs_per_s": "1/s",
    "iter_s_tail": "s",
    "iter_cpu_s_tail": "s",
    "miss_ratio": "ratio",
    "error_rate": "ratio",
    "mrc_mae": "ratio",
}

#: Nominal CPU seconds of :func:`yardstick`: about what a 2.1 GHz Xeon VM
#: takes at its faster speed.  Normalised times read as seconds on that host.
YARDSTICK_SECONDS = 0.04
#: After the first set-up, set-up runs this many more times between timed
#: iterations, spread evenly over ``--seconds``, so that ``setup_s`` (the
#: median) sees the same host as the iterations do.
SETUP_REPEATS = 24
#: Timed iterations run for ``--seconds`` but never fewer than this.
MIN_ITERATIONS = 3
#: The tail percentile must leave this many samples beyond it.
TAIL_BEYOND = 10


def _use_checkout() -> None:
    """Import the program from ``src/`` of this checkout, never from an installed copy."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {ROOT / 'src'}; run from a full checkout")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def fingerprint(seed: int) -> dict:
    """The environment every result is stamped with."""
    import numpy as np

    from repro.obs import git_sha

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "threads": {variable: os.environ.get(variable) for variable in THREAD_VARIABLES},
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with ``TAIL_BEYOND`` samples beyond it.

    With too few samples for that the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def timed(function, *args):
    """``(result, (wall_s, cpu_s))`` of one call.

    CPU seconds are the process's: they leave out the time the host runs
    something else on this virtual CPU (``steal`` in ``/proc/stat``).
    """
    wall, cpu = time.perf_counter(), time.process_time()
    result = function(*args)
    return result, (time.perf_counter() - wall, time.process_time() - cpu)


@functools.cache
def _yardstick_items():
    import numpy as np

    return np.random.default_rng(0).integers(0, 50_000, size=200_000)


def yardstick() -> None:
    """A fixed task that shares no code with the program: the measure of the host's speed.

    Equal parts of the mix the workloads spend their time in: dictionary
    updates in a Python loop, a Python loop of numpy operations on small
    arrays (as in the sweeps' per-reference loops), and numpy sort, unique
    and bincount over one seeded array.  Without the small-array loop the
    normalised ``retraversal-mrc`` times still followed the host.
    """
    import numpy as np

    items = _yardstick_items()
    last = {}
    for position, item in enumerate(items[:30_000].tolist()):
        last[item] = position
    table = np.zeros((256, 14), dtype=np.int64)
    bounds = np.arange(1, 15, dtype=np.int64)
    counts = np.zeros(14, dtype=np.int64)
    totals = np.zeros(14, dtype=np.int64)
    for item in items[:2500]:
        row = table[item & 255]
        inside = row >= counts - bounds
        totals += inside
        outside = ~inside
        row[outside] = counts[outside]
        counts[outside] += 1
    np.sort(items)
    np.unique(items, return_index=True)
    np.cumsum(np.bincount(items))


def bracketed(function, *args, around=contextlib.nullcontext):
    """``(result, (wall_s, cpu_s, yardstick_cpu_s))`` of one call made between two :func:`yardstick` runs.

    The yardstick time is the mean of the two, which follows the host
    through a call seconds long better than either alone.  ``around`` is
    entered just outside the timed call.
    """
    before = timed(yardstick)[1][1]
    try:
        with around():
            result, (wall, cpu) = timed(function, *args)
    finally:
        after = timed(yardstick)[1][1]
    return result, (wall, cpu, (before + after) / 2)


def normalised(samples) -> list[float]:
    """CPU seconds of ``(wall_s, cpu_s, yardstick_cpu_s)`` samples, scaled to the nominal host."""
    return [cpu * YARDSTICK_SECONDS / yardstick_cpu for _wall, cpu, yardstick_cpu in samples]


class Runner:
    """Checked iterations of one workload, with their failure count."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def iterate(self, inputs, index: int, reference, around=contextlib.nullcontext):
        """Run, time and check one iteration: ``(output, (wall_s, cpu_s, yardstick_cpu_s))``.

        The times are ``None`` if it raised.  ``around`` is entered inside the
        yardsticks, just outside the timed call (the traced run installs its
        probes and root span there, the heap measurement ``tracemalloc``).
        """
        self.attempted += 1
        try:
            output, seconds = bracketed(self.workload.run, inputs, index, around=around)
            problems = self.workload.verify(inputs, output, output if reference is None else reference)
        except Exception as error:  # a failed iteration is counted, not fatal
            output, seconds, problems = None, None, [f"{type(error).__name__}: {error}"]
        finally:
            self.workload.after(index)
        if problems:
            self.failed += 1
            self.failures.extend(f"iteration {index}: {problem}" for problem in problems)
        return output, seconds


def measure(name: str, seed: int, seconds: float, trace: bool, out_dir: Path, size: str = "full") -> dict:
    """Run one workload and return its full result record."""
    from perfbench import tracing, workloads
    from repro.obs import MetricsRegistry, recording

    work_dir = out_dir / "work" / f"{name}-{seed}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    workload = workloads.WORKLOADS[name](size, seed, work_dir)
    env = fingerprint(seed)

    inputs, took = bracketed(workload.setup)
    setup_times = [took]
    workload.prepare(inputs)

    runner = Runner(workload)
    reference, _ = runner.iterate(inputs, 0, None)
    if reference is None:
        raise RuntimeError(f"{name}: the warm-up iteration raised: {runner.failures}")
    peaks = []

    @contextlib.contextmanager
    def heap_traced():
        tracemalloc.start()
        try:
            yield
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    runner.iterate(inputs, 1, reference, heap_traced)

    untraced: list[tuple[float, float, float]] = []
    traced: list[tuple[float, float, float]] = []
    tracer = tracing.Tracer()
    index = 2
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or index < 2 + 2 * MIN_ITERATIONS:
        elapsed_share = min((time.perf_counter() - started) / seconds, 1.0) if seconds > 0 else 1.0
        if not trace and len(setup_times) <= SETUP_REPEATS * elapsed_share:
            # The same seed rebuilds the same inputs; the first ones stay in use.
            setup_times.append(bracketed(workload.setup)[1])
        _, took = runner.iterate(inputs, index, reference)
        if took is not None:
            untraced.append(took)
        index += 1
        if not trace:
            continue
        registry = MetricsRegistry()
        tracer.iteration = index

        @contextlib.contextmanager
        def traced_call():
            with tracer.installed(), recording(registry), tracer.span("iteration"):
                yield

        _, took = runner.iterate(inputs, index, reference, traced_call)
        counts = tracer.counts[index]
        for record in registry.records():
            if record["type"] == "counter" and record["name"] in tracing.REGISTRY_COUNTERS:
                counts[record["name"]] += record["value"]
        if took is None:
            tracer.counts.pop(index, None)
        else:
            traced.append(took)
        index += 1
    shutil.rmtree(out_dir / "work" / f"{name}-{seed}", ignore_errors=True)

    if not untraced or (trace and not traced):
        raise RuntimeError(f"{name}: every timed iteration raised: {runner.failures[:5]}")
    record = {
        "workload": name,
        "size": size,
        "seconds": seconds,
        "trace": int(trace),
        "fingerprint": env,
        "refs": workload.refs,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "error_rate": runner.failed / runner.attempted,
        "failures": runner.failures[:20],
        "setup_samples": setup_times,
        "iteration_samples": untraced,
    }
    wall, cpu, yardstick_cpu = ([sample[k] for sample in untraced] for k in range(3))
    cpu_p50 = statistics.median(cpu)
    if not trace:
        percentile, tail_value = tail(wall)
        record["tail_percentile"] = percentile
        record["reported"] = {
            "yardstick_cpu_s_p50": statistics.median(yardstick_cpu),
            "iter_cpu_s_min": min(cpu),
            "iter_s_min": min(wall),
            "iter_cpu_s_p50": cpu_p50,
            "iter_s_p50": statistics.median(wall),
            "refs_per_s": workload.refs / statistics.median(wall),
            "iter_s_tail": tail_value,
            "iter_cpu_s_tail": tail(cpu)[1],
            "miss_ratio": workload.miss_ratio(reference),
            "error_rate": record["error_rate"],
            **workload.extra(reference),
        }
        values = {
            "setup_s": statistics.median(normalised(setup_times)),
            "iter_norm_s_p50": statistics.median(normalised(untraced)),
            "peak_heap_mb": peaks[0] / 1e6,
        }
        units = END_TO_END_UNITS
    else:
        profiles = tracing.profile_iterations(tracer)
        per_iteration = [
            tracing.layer_values(profiles[i], tracer.counts[i], workload.refs) for i in sorted(tracer.counts)
        ]
        values = tracing.median_values(per_iteration)
        overhead = statistics.median(normalised(traced)) / statistics.median(normalised(untraced))
        values["tracing_overhead_pct"] = 100.0 * (overhead - 1.0)
        units = {metric.name: metric.unit for metric in tracing.PER_LAYER}
        record["reported"] = {"error_rate": record["error_rate"]}
        record["predictions"] = {metric.name: asdict(metric) for metric in tracing.PER_LAYER}
        record["traced_samples"] = traced
        record["span_tree"] = tracing.render_tree({i: profiles[i] for i in tracer.counts})
        spans_path = out_dir / f"{name}-seed{seed}.spans.jsonl"
        tracer.write_jsonl(spans_path)
        record["spans_file"] = str(spans_path)
    record["metrics"] = {key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()}
    return record


def report(record: dict) -> list[str]:
    """Human-readable lines for one workload record."""
    env = record["fingerprint"]
    lines = [
        f"== {record['workload']} (seed {env['seed']}, {record['refs']} refs/iteration, "
        f"nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
        f"git {env['git_sha'] or 'n/a'}, src {env['src_sha256']})",
    ]
    iterations = len(record["iteration_samples"])
    samples = {"setup_s": len(record["setup_samples"]), "error_rate": record["attempted"]}
    timed_keys = (
        "yardstick_cpu_s_p50",
        "iter_norm_s_p50",
        "iter_cpu_s_min",
        "iter_s_min",
        "iter_cpu_s_p50",
        "iter_s_p50",
        "refs_per_s",
        "iter_s_tail",
        "iter_cpu_s_tail",
    )
    samples.update(dict.fromkeys(timed_keys, iterations))
    rows = [(key, metric["value"], metric["unit"]) for key, metric in record["metrics"].items()]
    rows += [(key, value, REPORTED_UNITS[key]) for key, value in record["reported"].items()]
    for key, value, unit in rows:
        note = f"  n={samples[key]}" if key in samples else ""
        if key.endswith("_tail") and record["tail_percentile"] < 100.0:
            note += f" (p{record['tail_percentile']:.1f}, {TAIL_BEYOND} samples beyond)"
        elif key.endswith("_tail"):
            note += f" (the maximum: {TAIL_BEYOND} samples beyond need more iterations)"
        lines.append(f"{key:<32} {value:>16.6g} {unit:<6}{note}")
    lines.extend(record.get("span_tree", []))
    lines.extend(f"FAILED {failure}" for failure in record["failures"])
    return lines


def main(argv: list[str] | None = None) -> int:
    """Command-line entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "out", help="results, spans and working files")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    # Before numpy is first imported, or the pools are already sized.
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    # Keep git, asked for the commit by the fingerprint and the program's run
    # manifests, from reading a repository above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    _use_checkout()
    from perfbench import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from {sorted(workloads.WORKLOADS)} or 'all'")
    args.out.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace), args.out, args.size)
        path = args.out / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print("\n".join(report(record)), flush=True)
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{key}": value for r in records for key, value in r["metrics"].items()}
    result = {
        "correct": all(r["failed"] == 0 for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
