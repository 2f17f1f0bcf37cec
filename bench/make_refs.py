"""Regenerate refs.json: the exact value of every query a value op of any
seed can ask, from the join-cut solver (route 2), cross-checked against
the factorization oracle (route 1) wherever the oracle is cheap (d <= 6).

Run from the repository root:  python3 bench/make_refs.py
"""

from __future__ import annotations

import json
import time

import workloads


def main() -> int:
    workloads.require_src()
    from hurwitz import joincut, oracle
    from hurwitz.partitions import Partition

    universe = sorted(set(workloads.reference_universe()))
    max_d = max(sum(parts) for _g, parts, _c in universe)
    max_r = max(2 * g - 2 + len(parts) + sum(parts) for g, parts, _c in universe)
    start = time.perf_counter()
    tables = {False: joincut.solve_monotone(max_d, max_r), True: joincut.solve_classical(max_d, max_r)}
    values = {}
    checked = 0
    for g, parts, classical in universe:
        alpha = Partition(parts)
        value = tables[classical].genus_value(g, alpha)
        if alpha.size <= 6:
            r = 2 * g - 2 + alpha.length + alpha.size
            count = oracle.count_classical_transitive if classical else oracle.count_monotone_transitive
            if count(alpha, r) != value:
                raise SystemExit(f"join-cut and oracle disagree at g={g} {parts} classical={classical}")
            checked += 1
        values[workloads.ref_key(g, parts, classical)] = str(value)
    payload = {
        "about": (
            "H_g(alpha) for every query of the table-extract and auto-mix workloads, "
            f"from solve_monotone/solve_classical({max_d}, {max_r}); "
            f"{checked} entries with |alpha| <= 6 also equal the factorization oracle"
        ),
        "values": values,
    }
    with open(workloads.REFS_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"{len(values)} references in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
