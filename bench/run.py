"""The repository benchmark: one seeded workload, timed, checked exactly.

    python3 bench/run.py --workload auto-mix --seed 1 --seconds 25 --trace 0

A single-process closed loop: one client issues each query of the
workload after the previous one returned; no threads, no worker pool.

A run makes *passes* over the workload's ops for about ``--seconds``.
Before each pass, and once after the last, it sets up SETUP_BATCH times
(fresh import of ``hurwitz``, the four checked-in tables, the workload's
inputs) and reports the median of all set-ups as ``setup_s``.  Each pass
runs on the last set-up before it, so every package cache starts cold,
and caches persist between the ops of a pass, as in one library session.
Every answer is compared exactly with a reference from
another route; a mismatch or an exception counts as a failed op and makes
the run exit 1.  All times are reference seconds (see ``speed.py``).

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs untraced passes for half the time, then traced
passes, and reports per-layer counts (from the first traced pass; they
repeat exactly) and self times (median over traced passes), plus the
traced-to-untraced time ratio.  The spans of the first traced pass are
written to ``bench/results/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import workloads
from speed import REFERENCE_KERNEL_S, Speedometer
from tracing import Tracer

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
# One set-up takes about 16 ms and a stray collection or stall can double
# it, so a run sets up many times and reports the median.  Batches between
# the passes spread the set-ups over the machine's drift during the run.
SETUP_BATCH = 25
RESULTS = Path(__file__).resolve().parent / "results"

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# The median and 90th-percentile op latency are printed but are not result
# metrics: in a mixed workload op costs spread over five orders of
# magnitude, about 10% apart per rank near both quantiles, so on a shared
# 2-vCPU virtual machine their quartile spread over 8 seeds was 0.22-0.23, close to the
# largest bound a metric may have (0.25).


Mark = tuple[float, float]


@dataclass
class Pass:
    start: Mark
    end: Mark
    op_marks: list[tuple[Mark, Mark]]
    failures: list[str]
    peak_rss_mb: float  # of the process so far
    layer_counts: dict[str, int] = field(default_factory=dict)
    layer_times: dict[str, float] = field(default_factory=dict)
    spans: list[tuple] = field(default_factory=list)


def setup(workload: str, seed: int, tiny: bool):
    """Fresh import of the package, the four tables, the workload's inputs."""
    for name in [n for n in sys.modules if n.split(".")[0] == "hurwitz"]:
        del sys.modules[name]
    hurwitz = importlib.import_module("hurwitz")
    cli = importlib.import_module("hurwitz.cli")
    for g in (2, 3):
        for classical in (False, True):
            hurwitz.paper_form(g, classical=classical)
    ops = workloads.make_ops(workload, seed, tiny)
    m = sys.modules
    h = SimpleNamespace(
        cli=cli,
        pipeline=m["hurwitz.pipeline"],
        ring=m["hurwitz.ring"],
        oracle=m["hurwitz.oracle"],
        joincut=m["hurwitz.joincut"],
        qyseries=m["hurwitz.qyseries"],
        closedforms=m["hurwitz.closedforms"],
        tables=m["hurwitz.tables"],
        Partition=hurwitz.Partition,
        RingElement=m["hurwitz.ring"].RingElement,
    )
    return h, ops


def timed_setups(sp: Speedometer, workload: str, seed: int, tiny: bool, marks: list):
    """SETUP_BATCH set-ups, each timed into ``marks``; the last one's (h, ops)."""
    for _ in range(SETUP_BATCH):
        gc.collect()  # the previous set-up's modules are garbage now
        before = sp.mark()
        loaded = setup(workload, seed, tiny)
        marks.append((before, sp.mark()))
    return loaded


def run_pass(sp: Speedometer, h, ops, refs, tracer: Tracer | None = None) -> Pass:
    if tracer is not None:
        tracer.install()
        try:
            return _run_pass(sp, h, ops, refs, tracer)
        finally:
            tracer.uninstall()
    return _run_pass(sp, h, ops, refs, None)


def _run_pass(sp: Speedometer, h, ops, refs, tracer: Tracer | None) -> Pass:
    gc.collect()  # every pass starts from the same collector state
    op_marks, outputs = [], []
    if tracer is not None:
        tracer.reset()
        tracer.active = True
    start = sp.mark()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        before = sp.mark()
        try:
            out, err = workloads.run_op(h, op), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        op_marks.append((before, sp.mark()))
        outputs.append((out, err))
    result = Pass(start, sp.mark(), op_marks, [], _peak_rss_mb())
    if tracer is not None:
        tracer.active = False
        result.layer_counts, result.layer_times = tracer.pass_metrics()
        result.spans = tracer.spans
    for op, (out, err) in zip(ops, outputs):
        if err is None:
            try:
                err = workloads.check_op(h, op, out, refs)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            result.failures.append(f"{op.label()}: {err}")
    return result


def run_passes(sp, workload, seed, tiny, refs, setups: list, budget: float, tracer=None) -> list[Pass]:
    """At least one pass, each after a batch of set-ups timed into
    ``setups``; another while it is expected to end within the budget (in
    wall seconds)."""
    passes = []
    start = time.perf_counter()
    while True:
        h, ops = timed_setups(sp, workload, seed, tiny, setups)
        passes.append(run_pass(sp, h, ops, refs, tracer))
        if len(passes) > 1:
            passes[-1].spans = []  # keep the spans of the first pass only
        mean = (time.perf_counter() - start) / len(passes)
        if time.perf_counter() - start + mean > budget:
            return passes


def _quantile(values, q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('["id", "name", "start", "end", "parent", "op"]\n')
        for span in spans:
            fh.write(json.dumps(span) + "\n")


def measure(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """Run one benchmark run and return its result object."""
    # Set-up is timed as a library session pays it: importing the bytecode
    # the first set-up compiled and cached, even where the environment
    # turns cache writes off.
    sys.dont_write_bytecode = False
    sp = Speedometer()
    with sp:
        setups = []
        refs = workloads.load_refs()
        start = time.perf_counter()
        plain = run_passes(sp, workload, seed, tiny, refs, setups, seconds / 2 if trace else seconds)
        traced = []
        if trace:
            budget = seconds - (time.perf_counter() - start)
            traced = run_passes(sp, workload, seed, tiny, refs, setups, budget, Tracer())
        timed_setups(sp, workload, seed, tiny, setups)
    # every interval is converted once all calibration samples are in
    wall = [sp.reference_seconds(p.start, p.end) for p in plain]
    raw_wall = [sp.wall(p.start, p.end) for p in plain]
    if not trace:
        # an op's latency is its median over the passes
        latencies = [
            statistics.median(sp.reference_seconds(a, b) for a, b in marks)
            for marks in zip(*(p.op_marks for p in plain))
        ]
        metrics = {
            "setup_s": statistics.median(sp.reference_seconds(a, b) for a, b in setups),
            "wall_s": statistics.median(wall),
            # Through the first pass: later passes repeat the work, and
            # what they add is allocator fragmentation, which would make
            # the figure depend on how many passes fit in the run.
            "peak_rss_mb": plain[0].peak_rss_mb,
        }
        units = END_TO_END_UNITS
        # printed, not gated (see the note at END_TO_END_UNITS)
        percentiles = {"op_p50_ms": statistics.median(latencies) * 1e3, "op_p90_ms": _quantile(latencies, 0.90) * 1e3}
    else:
        first = traced[0]
        if any(p.layer_counts != first.layer_counts for p in traced[1:]):
            print("warning: layer counts differ between traced passes", file=sys.stderr)
        metrics = dict(first.layer_counts)
        factors = [sp.factor(p.start, p.end) for p in traced]
        for name in first.layer_times:
            metrics[name] = statistics.median(p.layer_times[name] * f for p, f in zip(traced, factors))
        traced_wall = [sp.reference_seconds(p.start, p.end) for p in traced]
        metrics["trace.overhead_ratio"] = statistics.median(traced_wall) / statistics.median(wall)
        units = {name: layer_unit(name) for name in metrics}
        percentiles = {}
        if not tiny:
            write_spans(RESULTS / f"spans-{workload}-seed{seed}.jsonl", first.spans)
    passes = plain + traced
    failures = [f for p in passes for f in p.failures]
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(passes),
        "ops_per_pass": len(plain[0].op_marks),
        "measured_wall_s": statistics.median(raw_wall),
        "kernel_ms": statistics.median(sp.kernel_s) * 1e3,
        "percentiles": percentiles,
        "failures": failures,
        "correct": not failures,
        "attempted": sum(len(p.op_marks) for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in sorted(metrics.items())},
    }


def layer_unit(name: str) -> str:
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith(".self_s") or name.endswith(".s"):
        return "s"
    return "count"


def report(result: dict) -> int:
    """Print the metrics by name, then the result line; the exit code."""
    failed_frac = result["failed"] / result["attempted"]
    print(
        f"{result['workload']} seed={result['seed']}: {result['passes']} passes x "
        f"{result['ops_per_pass']} ops, attempted={result['attempted']} "
        f"failed={result['failed']} failed_frac={failed_frac:g}"
    )
    print(
        f"  measured wall per pass {result['measured_wall_s']:.4g} s; calibration kernel "
        f"{result['kernel_ms']:.4g} ms (times below are reference seconds, {REFERENCE_KERNEL_S * 1e3:g} ms kernel)"
    )
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, value in result["percentiles"].items():
        print(f"  {name} = {value:.6g} ms (over {result['ops_per_pass']} ops; not gated)")
    for failure in result["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads.require_src()
    return report(measure(args.workload, args.seed, args.seconds, bool(args.trace)))


if __name__ == "__main__":
    sys.exit(main())
