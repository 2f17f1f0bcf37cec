"""Run the benchmark over many seeds and collect the results.

    python3 bench/sweep.py --seeds 10                    # this checkout
    python3 bench/sweep.py --tree parent=../a --tree change=../b --seeds 10

Every workload runs once per seed untraced, for run_seconds of
BENCHMARK.json, and for seed 1 once traced.  With several trees, each
seed runs on every tree, alternating which tree goes first.  Each tree's
records go to ``bench/results/<name>.jsonl`` (one JSON object per run),
which a sweep overwrites, so a file never mixes two sweeps.  The quartile
spread of every end-to-end metric is printed at the end.  Compare two
trees with ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import compare
import workloads

HERE = Path(__file__).resolve().parent
TRACED_SEEDS = 1


def run_one(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run bench/run.py over seeds and trees.")
    parser.add_argument("--tree", action="append", default=[], help="NAME=DIR of a checkout")
    parser.add_argument("--seeds", type=int, default=10, help="seeds 1..N")
    args = parser.parse_args(argv)

    trees = dict(t.split("=", 1) for t in args.tree) or {"current": str(HERE.parent)}
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out_dir = HERE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    files = {name: open(out_dir / f"{name}.jsonl", "w", encoding="utf-8") for name in trees}
    records = {name: [] for name in trees}
    try:
        for i, seed in enumerate(range(1, args.seeds + 1)):
            order = list(trees.items())
            if i % 2:
                order.reverse()
            for workload in workloads.WORKLOADS:
                for trace in (0, 1) if i < TRACED_SEEDS else (0,):
                    for name, tree in order:
                        result = run_one(Path(tree), workload, seed, seconds, trace)
                        record = {"workload": workload, "seed": seed, "trace": trace, "result": result}
                        files[name].write(json.dumps(record) + "\n")
                        files[name].flush()
                        records[name].append(record)
                        print(f"{name} {workload} seed={seed} trace={trace} correct={result['correct']}", flush=True)
    finally:
        for fh in files.values():
            fh.close()
    bounds = compare.bounds_from_benchmark()
    for name, recs in records.items():
        print(f"== {name}")
        for line in compare.summarize(recs, bounds):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
