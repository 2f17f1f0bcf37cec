"""Smoke test of the benchmark itself, at a tiny size (under a minute).

    python3 bench/smoke.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the
per-layer metrics, with their units, and that no op fails.  Then it
plants a wrong reference (one stored value, one E_g term count) and
checks that the gate counts the failure and the exit code is non-zero.
Last it checks that reference seconds keep the size of a change: a fixed
extra cost put into every op must raise ``wall_s`` by that cost, as timed
alone, within the bound of ``wall_s``.  Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from pathlib import Path

import run
import workloads
from speed import Speedometer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SEED = run.DEFAULT_SEED
PAD_TERMS = 500
CALIBRATION_ROUNDS = 25


def tiny_run(workload: str, trace: bool) -> dict:
    return run.measure(workload, SEED, 0, trace, tiny=True)


def exit_code(result: dict) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run.report(result)


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for workload in workloads.WORKLOADS:
            result = tiny_run(workload, trace)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            where = f"{workload} trace={int(trace)}"
            if got != want:
                problems.append(f"{where}: metrics differ from {section}: {sorted(set(got) ^ set(want))}")
            for name, m in result["metrics"].items():
                value = m["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value) or value < 0:
                    problems.append(f"{where}: {name} = {value!r}")
                elif section == "end_to_end" and value == 0:
                    problems.append(f"{where}: {name} is 0")
            if result["failed"] or exit_code(result) != 0:
                problems.append(f"{where}: failed ops {result['failures'][:3]}")
    return problems


@contextlib.contextmanager
def planted(obj, name, value):
    old = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, old)


def check_gate() -> list[str]:
    problems = []
    op = workloads.make_ops("table-extract", SEED, tiny=True)[0]
    g, parts, classical, _method = op.args
    refs = workloads.load_refs()
    refs[workloads.ref_key(g, parts, classical)] += 1
    with planted(workloads, "load_refs", lambda: refs):
        result = tiny_run("table-extract", False)
    if result["failed"] != 1 or result["correct"] or exit_code(result) == 0:
        problems.append(f"a wrong stored reference was not caught: {result['failures']}")
    with planted(workloads, "E_TERMS", {**workloads.E_TERMS, 3: workloads.E_TERMS[3] + 1}):
        result = tiny_run("genus-tower", False)
    if result["failed"] != 1 or exit_code(result) == 0:
        problems.append(f"a wrong E_3 term count was not caught: {result['failures']}")
    return problems


def pad() -> int:
    """A fixed pure-Python cost unlike the calibration kernel: products of
    two small integer polynomials accumulated in a dict, the kind of work
    the ring does.  Its keys and values are ints, which the collector does
    not track, so it costs the same beside a large heap as alone."""
    acc = {}
    for i in range(PAD_TERMS):
        for j in range(PAD_TERMS):
            key = 7 * (i + j) + (i * j) % 7
            acc[key] = acc.get(key, 0) + (i + 1) * (j + 3)
    return len(acc)


def check_calibration(bound: float) -> list[str]:
    """Alternate passes of tiny genus-tower with and without ``pad`` in
    every op, and time ``pad`` alone between them, all in reference seconds."""
    refs = workloads.load_refs()
    run_op = workloads.run_op
    plain, padded, alone = [], [], []
    sp = Speedometer()
    with sp:
        for _ in range(CALIBRATION_ROUNDS):
            p = run.run_pass(sp, *run.setup("genus-tower", SEED, True), refs)
            plain.append(sp.reference_seconds(p.start, p.end))
            with planted(workloads, "run_op", lambda h, op: (pad(), run_op(h, op))[1]):
                p = run.run_pass(sp, *run.setup("genus-tower", SEED, True), refs)
            padded.append(sp.reference_seconds(p.start, p.end))
            before = sp.mark()
            pad()
            alone.append(sp.reference_seconds(before, sp.mark()))
    ops = len(p.op_marks)
    rise = statistics.median(padded) - statistics.median(plain)
    added = statistics.median(alone) * ops
    print(f"calibration: a pass rose by {rise:.4g} s for {added:.4g} s of added work")
    if abs(rise / added - 1) > bound:
        return [f"wall_s rose by {rise:.4g} s for {added:.4g} s of added work, beyond the bound {bound}"]
    return []


def main() -> int:
    workloads.require_src()
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == "wall_s")
    problems = check_metrics(spec) + check_gate() + check_calibration(bound)
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
