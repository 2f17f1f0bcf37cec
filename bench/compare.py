"""Compare two result sets of the benchmark, parent against change.

    python3 bench/compare.py bench/results/parent.jsonl bench/results/change.jsonl

Each file holds one JSON record per run, as ``bench/sweep.py`` writes them.
For every workload and end-to-end metric the table gives each side's
median and quartiles over its untraced runs, the change in the median,
and the share of seed-paired runs the change won (ties count for
neither).  The verdict follows the rules the benchmark is held to:

* ``gain``: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's own quartile spread;
* ``worse``: the change's median is worse by more than the metric's bound
  in BENCHMARK.json;
* ``unresolved``: the parent's spread is wider than the bound and not
  every change run beat every parent run;
* ``same`` otherwise.

Below each workload, the per-layer metrics of the traced runs that moved:
medians of both sides and their difference; counts should repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def by_seed(records: list[dict], workload: str, trace: int, metric: str) -> dict[int, float]:
    return {
        r["seed"]: r["result"]["metrics"][metric]["value"]
        for r in records
        if r["workload"] == workload and r["trace"] == trace and metric in r["result"]["metrics"]
    }


def workloads_of(records: list[dict]) -> list[str]:
    return sorted({r["workload"] for r in records})


def summarize(records: list[dict], bounds: dict[str, float] | None = None) -> list[str]:
    """One line per workload and end-to-end metric: median, quartiles, spread."""
    lines = []
    for workload in workloads_of(records):
        for metric in sorted({m for r in records if r["trace"] == 0 and r["workload"] == workload for m in r["result"]["metrics"]}):
            values = list(by_seed(records, workload, 0, metric).values())
            q1, med, q3 = quartiles(values)
            bound = (bounds or {}).get(metric)
            flag = ""
            if bound is not None and spread(values) > bound / 3:
                flag = "  spread above a third of the bound"
            lines.append(
                f"{workload:14} {metric:12} n={len(values):2} median={med:.6g} "
                f"q1={q1:.6g} q3={q3:.6g} spread={spread(values):.3f}"
                + (f" bound={bound}" if bound is not None else "")
                + flag
            )
    return lines


def verdict(parent: dict[int, float], change: dict[int, float], bound: float) -> tuple[float, str]:
    """(win share, verdict) for a lower-is-better metric, paired by seed."""
    seeds = sorted(set(parent) & set(change))
    wins = sum(change[s] < parent[s] for s in seeds)
    share = wins / len(seeds) if seeds else 0.0
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    if share >= 0.9 and pm - cm > p3 - p1:
        return share, "gain"
    if cm > pm * (1 + bound):
        return share, "worse"
    if (p3 - p1) / pm > bound and not max(c) < min(p):
        return share, "unresolved"
    return share, "same"


def compare(parent: list[dict], change: list[dict], bounds: dict[str, float]) -> list[str]:
    lines = []
    for workload in workloads_of(parent + change):
        lines.append(f"== {workload}")
        lines.append(
            f"  {'metric':12} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} "
            f"{'delta':>8} {'wins':>5}  verdict"
        )
        for metric, bound in bounds.items():
            p = by_seed(parent, workload, 0, metric)
            c = by_seed(change, workload, 0, metric)
            if not p or not c:
                continue
            pq, cq = quartiles(list(p.values())), quartiles(list(c.values()))
            share, word = verdict(p, c, bound)
            lines.append(
                f"  {metric:12} {pq[1]:<11.5g} [{pq[0]:.5g}, {pq[2]:.5g}]".ljust(49)
                + f" {cq[1]:<11.5g} [{cq[0]:.5g}, {cq[2]:.5g}]".ljust(35)
                + f" {(cq[1] - pq[1]) / pq[1]:+8.1%} {share:5.0%}  {word}"
            )
        lines.extend(layer_deltas(parent, change, workload))
    return lines


def layer_deltas(parent: list[dict], change: list[dict], workload: str) -> list[str]:
    names = sorted(
        {m for r in parent + change if r["workload"] == workload and r["trace"] == 1 for m in r["result"]["metrics"]}
    )
    rows = []
    for name in names:
        p = list(by_seed(parent, workload, 1, name).values())
        c = list(by_seed(change, workload, 1, name).values())
        if not p or not c:
            continue
        pm, cm = statistics.median(p), statistics.median(c)
        if pm == cm == 0:
            continue
        rel = f"{(cm - pm) / pm:+.1%}" if pm else "new"
        rows.append(f"    {name:44} {pm:<14.6g} {cm:<14.6g} {rel}")
    if not rows:
        return []
    return [f"  {'layers (traced runs)':46} {'parent':14} {'change':14} delta"] + rows


def bounds_from_benchmark() -> dict[str, float]:
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two result sets of bench/run.py.")
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    for line in compare(load(args.parent), load(args.change), bounds_from_benchmark()):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
