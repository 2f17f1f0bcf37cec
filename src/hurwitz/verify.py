"""Named verification checks and suites behind `hurwitz verify`.

Every check compares two independent computation routes with exact
rational equality and reports per-item diffs on failure.  The acceptance
test suite drives exactly these functions, so the CLI and pytest agree by
construction.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from .closedforms import (
    bernoulli_constant,
    classical_genus0,
    classical_genus1,
    mn_single_cycle,
    monotone_genus0,
    monotone_genus1,
    polynomiality_extract,
    scaling_check,
)
from .inversion import (
    classical_from_rational_form,
    monotone_from_log_form,
    monotone_from_rational_form,
)
from .joincut import solve_classical, solve_monotone
from .oracle import _dfs_tables, count_monotone_transitive, CountTable
from .partitions import Partition, partitions
from .pipeline import (
    decompose_basis,
    genus1_closed,
    normalized_delta1,
    rational_form,
    recompose_basis,
)
from .qyseries import expand_ring_element, lift_literal, transfer_literal
from .ring import RingElement, apply_T, apply_delta1
from .tables import paper_form


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def _diff_report(diffs: list[str], limit: int = 5) -> str:
    if not diffs:
        return "all values equal"
    shown = "; ".join(diffs[:limit])
    more = f" (+{len(diffs) - limit} more)" if len(diffs) > limit else ""
    return f"{len(diffs)} mismatches: {shown}{more}"


def check_oracle_dfs_vs_dp() -> tuple[bool, str]:
    """Two independent monotone counters agree for d <= 5, r <= 8."""
    diffs = []
    total = 0
    for d in range(1, 6):
        # one enumeration per d: the DFS tree to depth 8 counts every r <= 8
        dfs_table = _dfs_tables(d, 8)
        for alpha in partitions(d):
            for r in range(9):
                total += 1
                dp = count_monotone_transitive(alpha, r)
                dfs = dfs_table.get((alpha, r), 0)
                if dp != dfs:
                    diffs.append(f"{tuple(alpha)},r={r}: dp={dp} dfs={dfs}")
    return not diffs, f"{total} cases; " + _diff_report(diffs)


def check_joincut_vs_oracle(monotone: bool, dmax: int, rmax: int) -> tuple[bool, str]:
    """The join-cut table of one family equals the oracle for d <= dmax,
    r <= rmax."""
    solve = solve_monotone if monotone else solve_classical
    table = solve(dmax, rmax)
    oracle = CountTable(dmax, rmax, monotone=monotone)
    diffs = []
    total = 0
    for d in range(1, dmax + 1):
        for alpha in partitions(d):
            for r in range(rmax + 1):
                total += 1
                if table[alpha, r] != oracle[alpha, r]:
                    diffs.append(
                        f"{tuple(alpha)},r={r}: joincut={table[alpha, r]} oracle={oracle[alpha, r]}"
                    )
    return not diffs, f"{total} cases; " + _diff_report(diffs)


def check_genus0_formula() -> tuple[bool, str]:
    """Genus-0 product formula equals the join-cut slice for d <= 8."""
    table = solve_monotone(8, 14)
    diffs = []
    total = 0
    for d in range(1, 9):
        for alpha in partitions(d):
            total += 1
            got = monotone_genus0(alpha)
            want = table.genus_value(0, alpha)
            if got != want:
                diffs.append(f"{tuple(alpha)}: formula={got} joincut={want}")
    return not diffs, f"{total} partitions; " + _diff_report(diffs)


def check_genus1_formula() -> tuple[bool, str]:
    """Genus-1 formula and the log form both match join-cut for d <= 6."""
    table = solve_monotone(6, 12)
    log_form = genus1_closed()
    diffs = []
    total = 0
    for d in range(1, 7):
        for alpha in partitions(d):
            total += 1
            want = table.genus_value(1, alpha)
            got_formula = monotone_genus1(alpha)
            got_log = monotone_from_log_form(log_form, alpha)
            if got_formula != want:
                diffs.append(f"{tuple(alpha)}: formula={got_formula} joincut={want}")
            if got_log != want:
                diffs.append(f"{tuple(alpha)}: logform={got_log} joincut={want}")
    return not diffs, f"{total} partitions x 2 routes; " + _diff_report(diffs)


def check_classical_formulas() -> tuple[bool, str]:
    """Classical genus-0/1 formulas and the checked-in classical tables
    all reproduce the classical join-cut numbers for d <= 5."""
    table = solve_classical(5, 16)
    forms = {g: paper_form(g, classical=True) for g in (2, 3)}
    diffs = []
    total = 0
    for d in range(1, 6):
        for alpha in partitions(d):
            total += 1
            want0 = table.genus_value(0, alpha)
            want1 = table.genus_value(1, alpha)
            if classical_genus0(alpha) != want0:
                diffs.append(f"g0 {tuple(alpha)}")
            if classical_genus1(alpha) != want1:
                diffs.append(f"g1 {tuple(alpha)}")
            for g in (2, 3):
                got = classical_from_rational_form(forms[g], alpha)
                want = table.genus_value(g, alpha)
                if got != want:
                    diffs.append(f"g{g} {tuple(alpha)}: table={got} joincut={want}")
    return not diffs, f"{total} partitions x 4 genera; " + _diff_report(diffs)


def check_pipeline_table(g: int) -> tuple[bool, str]:
    """Pipeline genus-g coefficients equal the published table."""
    got = rational_form(g)
    want = paper_form(g)
    diffs = []
    keys = set(got.terms) | set(want.terms)
    for a in sorted(keys, key=lambda a: (a.size, a)):
        g_, w_ = got.coefficient(a), want.coefficient(a)
        if g_ != w_:
            diffs.append(f"{tuple(a)}: pipeline={g_} table={w_}")
    if got.constant != want.constant:
        diffs.append(f"constant: pipeline={got.constant} table={want.constant}")
    return not diffs, f"{len(keys)} coefficients + constant; " + _diff_report(diffs)


def check_bernoulli_law() -> tuple[bool, str]:
    """Pipeline constants equal -B_2g/(2g(2g-2)) for g = 2..7."""
    diffs = []
    for g in range(2, 8):
        got = rational_form(g).terms.get(Partition(), Fraction(0))
        want = bernoulli_constant(g)
        if got != want:
            diffs.append(f"g={g}: pipeline={got} bernoulli={want}")
    return not diffs, "g=2..7; " + _diff_report(diffs)


def check_matsumoto_novak() -> tuple[bool, str]:
    """Single-cycle formula vs pipeline (g <= 3, d <= 6) and oracle (d <= 5)."""
    diffs = []
    total = 0
    log_form = genus1_closed()
    for g in range(1, 4):
        form = rational_form(g) if g >= 2 else None
        for d in range(1, 7):
            total += 1
            want = mn_single_cycle(g, d)
            if g == 1:
                got = monotone_from_log_form(log_form, (d,))
            else:
                got = monotone_from_rational_form(form, (d,))
            if got != want:
                diffs.append(f"g={g},d={d}: pipeline={got} formula={want}")
            if d <= 5:
                r = 2 * g - 2 + 1 + d
                ocount = count_monotone_transitive((d,), r)
                if ocount != want:
                    diffs.append(f"g={g},d={d}: oracle={ocount} formula={want}")
    return not diffs, f"{total} (g,d) pairs; " + _diff_report(diffs)


def check_scaling_law() -> tuple[bool, str]:
    """c_{g,alpha} = 2^(3g-3) a_{g,alpha} on |alpha| = 3g-3 for g = 2, 3."""
    diffs = []
    for g in (2, 3):
        if not scaling_check(g):
            diffs.append(f"g={g}: scaling failed")
    return not diffs, "g=2,3 top coefficients; " + _diff_report(diffs)


def check_polynomiality() -> tuple[bool, str]:
    """Interpolants exist and verify on held-out partitions (parts <= 8)."""
    cases = [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1), (2, 2)]
    diffs = []
    degrees = []
    for g, ell in cases:
        try:
            poly = polynomiality_extract(g, ell)
            degrees.append(f"({g},{ell}):deg{poly.degree}")
        except Exception as exc:  # verification failure is the failure mode
            diffs.append(f"(g={g},ell={ell}): {exc}")
    return not diffs, "; ".join(degrees) + ("; " if diffs else "") + (
        _diff_report(diffs) if diffs else ""
    )


def check_operator_series_oracle() -> tuple[bool, str]:
    """Algebraic lift/transfer agree with the literal operators on 20
    randomized small ring elements (q-weight <= 4)."""
    wq, w1 = 4, 6
    rng = random.Random(20240811)

    def region(series, cap_q, cap_y):
        return {
            k: v
            for k, v in series.coeffs.items()
            if sum(k[0]) <= cap_q and k[1] <= cap_y
        }

    diffs = []
    for trial in range(20):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            u2 = rng.randint(0, 6)
            v = rng.randint(0, 1)
            hs = tuple(sorted(rng.choice([(), (1,), (2,), (1, 1), (3,)])))
            terms[(u2, v, hs)] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        elem = RingElement(terms)
        alg = expand_ring_element(apply_delta1(elem), wq, w1)
        lit = lift_literal(expand_ring_element(elem, wq + w1, w1))
        if region(alg, wq, w1) != region(lit, wq, w1):
            diffs.append(f"lift trial {trial}")
        honest = RingElement(
            {(u2 - u2 % 2, 0, hs): c for (u2, v, hs), c in terms.items()}
        )
        alg_t = expand_ring_element(apply_T(honest), wq, w1)
        lit_t = transfer_literal(expand_ring_element(honest, wq, w1 + wq, w2=wq))
        if region(alg_t, wq, w1) != region(lit_t, wq, w1):
            diffs.append(f"transfer trial {trial}")
    return not diffs, "20 random elements x 2 operators; " + _diff_report(diffs)


def check_structural_assertions() -> tuple[bool, str]:
    """Degree membership, F_0 = 0, gamma cancellation, and decomposition
    invertibility for g = 1..4."""
    diffs = []
    notes = []
    for g in range(1, 5):
        try:
            elem = normalized_delta1(g)
            if not elem.in_ring(3 * g - 1):
                diffs.append(f"g={g}: degree bound violated")
                continue
            decomp = decompose_basis(g, elem)  # asserts F_0 = 0 and cond2
            if recompose_basis(decomp) != elem:
                diffs.append(f"g={g}: decomposition is not invertible")
            notes.append(f"g={g}:deg{elem.weighted_degree()}")
        except AssertionError as exc:
            diffs.append(f"g={g}: {exc}")
    return not diffs, "; ".join(notes) + ("; " if diffs else "") + (
        _diff_report(diffs) if diffs else ""
    )


CHECKS = {
    "oracle-dfs-vs-dp": check_oracle_dfs_vs_dp,
    "joincut-monotone-vs-oracle": partial(check_joincut_vs_oracle, True, 6, 10),
    "joincut-classical-vs-oracle": partial(check_joincut_vs_oracle, False, 5, 8),
    "genus0-formula": check_genus0_formula,
    "genus1-formula": check_genus1_formula,
    "classical-formulas": check_classical_formulas,
    "pipeline-genus2-table": partial(check_pipeline_table, 2),
    "pipeline-genus3-table": partial(check_pipeline_table, 3),
    "bernoulli-law": check_bernoulli_law,
    "matsumoto-novak": check_matsumoto_novak,
    "scaling-law": check_scaling_law,
    "polynomiality": check_polynomiality,
    "operator-series-oracle": check_operator_series_oracle,
    "structural-assertions": check_structural_assertions,
}

SUITES = {
    "oracle-vs-joincut": [
        "oracle-dfs-vs-dp",
        "joincut-monotone-vs-oracle",
        "joincut-classical-vs-oracle",
    ],
    "closed-forms": [
        "genus0-formula",
        "genus1-formula",
        "classical-formulas",
        "matsumoto-novak",
    ],
    "pipeline": [
        "pipeline-genus2-table",
        "pipeline-genus3-table",
        "operator-series-oracle",
        "structural-assertions",
    ],
    "bernoulli": ["bernoulli-law"],
    "scaling": ["scaling-law"],
    "polynomiality": ["polynomiality"],
}
SUITES["all"] = sorted(CHECKS)


def run_check(name: str) -> CheckResult:
    fn = CHECKS[name]
    start = time.perf_counter()
    try:
        passed, detail = fn()
    except Exception as exc:  # a crash is a failure with its message
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def run_suite(suite: str, jobs: int = 1) -> list[CheckResult]:
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    names = SUITES[suite]
    # the pool starts all its workers at once: never more than there are checks
    workers = min(jobs, len(names))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_check, names))
    else:
        results = [run_check(name) for name in names]
    return sorted(results, key=lambda r: r.name)
