"""The benchmark's calls into the package, run as `bench/run.py` runs them:
every tiny op of each workload for seed 1, once untraced and once under the
benchmark's per-layer tracer, each answer checked by the benchmark's own
check.  A renamed function, option or attribute that the benchmark reads
fails here.  The benchmark's files are only read: they are loaded from
source with bytecode writing off, so nothing is written under ``bench/``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hurwitz
from hurwitz import joincut

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """`bench/workloads.py` and `bench/tracing.py`, loaded from source."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sys, "dont_write_bytecode", True)
        loaded = {}
        for name in ("workloads", "tracing"):
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            loaded[name] = importlib.util.module_from_spec(spec)
            mp.setitem(sys.modules, name, loaded[name])  # a dataclass looks its module up
            spec.loader.exec_module(loaded[name])
        yield SimpleNamespace(**loaded)


def _namespace():
    """What the benchmark's set-up hands each op, from the package already
    imported here (the set-up itself re-imports it, which would leave this
    session's other modules holding stale classes)."""
    for g in (2, 3):
        for classical in (False, True):
            hurwitz.paper_form(g, classical=classical)
    m = sys.modules
    return SimpleNamespace(
        cli=importlib.import_module("hurwitz.cli"),
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


def _run(bench, h, refs, workload):
    ops = bench.workloads.make_ops(workload, 1, tiny=True)
    assert ops
    for op in ops:
        out = bench.workloads.run_op(h, op)
        assert bench.workloads.check_op(h, op, out, refs) is None, op.label()


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_every_tiny_bench_op_runs_and_checks(bench, traced):
    h, refs = _namespace(), bench.workloads.load_refs()
    if not traced:
        for workload in bench.workloads.WORKLOADS:
            _run(bench, h, refs, workload)
        return
    # cold solves, so that the tracer reads the tables' counts
    joincut.solve_monotone.cache_clear()
    joincut.solve_classical.cache_clear()
    tracer = bench.tracing.Tracer()
    tracer.install()
    try:
        tracer.reset()
        tracer.active = True
        for workload in bench.workloads.WORKLOADS:
            _run(bench, h, refs, workload)
    finally:
        tracer.active = False
        tracer.uninstall()
    counts, _ = tracer.pass_metrics()
    for layer in ("qyseries.expand_ring_element", "qyseries.lift_literal", "qyseries.transfer_literal",
                  "qyseries.mul", "oracle.count", "joincut.solve", "cli.compute_value"):
        assert counts[f"{layer}.calls"] > 0, layer
    assert counts["joincut.solve.coeffs"] > 0
