"""Named verification checks and suites behind `hurwitz verify`.

Every check compares two independent computation routes with exact
rational equality and reports per-item diffs on failure.  The acceptance
test suite drives exactly these functions, so the CLI and pytest agree by
construction.
"""

from __future__ import annotations

import random
import sys
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
)
from .inversion import value_from_form
from .joincut import solve_classical, solve_monotone
from .oracle import count_monotone_transitive, literal_counts, transitive_counts
from .partitions import partitions
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


# The formula checks run up to the join-cut route's |alpha| cap,
# cli.JOINCUT_D_CAP (cli imports this module, so a test ties the two), and
# read genus g from a join-cut table with r <= 2g - 2 + 2 FORMULA_D.
FORMULA_D = 9


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


def _compare(what: str, rows) -> tuple[bool, str]:
    """Exact comparison of rows (label, route a, value a, route b, value b).

    The detail is `what`, with {n} standing for the number of distinct
    labels, then either "all values equal" or the mismatches, each naming
    both routes and both values.
    """
    rows = list(rows)
    diffs = [f"{label}: {ra}={a} {rb}={b}" for label, ra, a, rb, b in rows if a != b]
    n = len({row[0] for row in rows})
    return not diffs, f"{what.format(n=n)}; " + _diff_report(diffs)


def _notes(notes: list[str], diffs: list[str]) -> tuple[bool, str]:
    """Pass/fail and detail of a check that reports notes, not value pairs."""
    return not diffs, "; ".join(notes + ([_diff_report(diffs)] if diffs else []))


def check_oracle_literal_vs_characters() -> tuple[bool, str]:
    """The literal counter equals the character totals with their
    inclusion-exclusion, in both families, for d <= 6, r <= 10."""
    rows = []
    for monotone, family in ((True, "monotone"), (False, "classical")):
        table = transitive_counts(6, 10, monotone)
        for d in range(1, 7):
            literal = literal_counts(d, 10, monotone)
            rows.extend(
                (f"{family} {tuple(alpha)},r={r}", "characters", table[alpha, r],
                 "literal", literal.get((alpha, r), 0))
                for alpha in partitions(d)
                for r in range(11)
            )
    return _compare("{n} cases", rows)


def check_joincut_vs_oracle(monotone: bool, dmax: int, rmax: int) -> tuple[bool, str]:
    """The join-cut table of one family equals the oracle for d <= dmax,
    r <= rmax."""
    table = (solve_monotone if monotone else solve_classical)(dmax, rmax)
    oracle = transitive_counts(dmax, rmax, monotone)
    return _compare("{n} cases", (
        (f"{tuple(alpha)},r={r}", "joincut", table[alpha, r], "oracle", oracle[alpha, r])
        for d in range(1, dmax + 1)
        for alpha in partitions(d)
        for r in range(rmax + 1)
    ))


def check_genus0_formula() -> tuple[bool, str]:
    """Genus-0 product formula equals the join-cut slice for d <= 9."""
    table = solve_monotone(FORMULA_D, 2 * FORMULA_D - 2)
    return _compare("{n} partitions", (
        (tuple(alpha), "formula", monotone_genus0(alpha), "joincut", table.genus_value(0, alpha))
        for d in range(1, FORMULA_D + 1)
        for alpha in partitions(d)
    ))


def check_genus1_formula() -> tuple[bool, str]:
    """Genus-1 formula and the log form both match join-cut for d <= 9."""
    table = solve_monotone(FORMULA_D, 2 * FORMULA_D)
    log_form = genus1_closed()
    return _compare("{n} partitions x 2 routes", (
        (tuple(alpha), route, fn(alpha), "joincut", table.genus_value(1, alpha))
        for d in range(1, FORMULA_D + 1)
        for alpha in partitions(d)
        for route, fn in (
            ("formula", monotone_genus1),
            ("logform", partial(value_from_form, log_form)),
        )
    ))


def check_classical_formulas() -> tuple[bool, str]:
    """Classical genus-0/1 formulas and the checked-in classical tables
    all reproduce the classical join-cut numbers for d <= 9."""
    table = solve_classical(FORMULA_D, 2 * FORMULA_D + 4)
    routes = {0: ("formula", classical_genus0), 1: ("formula", classical_genus1)}
    for g in (2, 3):
        routes[g] = ("table", partial(value_from_form, paper_form(g, classical=True)))
    return _compare("{n} partitions x 4 genera", (
        (tuple(alpha), f"g{g} {route}", fn(alpha), "joincut", table.genus_value(g, alpha))
        for d in range(1, FORMULA_D + 1)
        for alpha in partitions(d)
        for g, (route, fn) in routes.items()
    ))


def check_pipeline_table(g: int) -> tuple[bool, str]:
    """Pipeline genus-g coefficients equal the published table."""
    got = rational_form(g)
    want = paper_form(g)
    keys = sorted(set(got.terms) | set(want.terms), key=lambda a: (a.size, a))
    rows = [(tuple(a), "pipeline", got.coefficient(a), "table", want.coefficient(a)) for a in keys]
    rows.append(("constant", "pipeline", got.constant, "table", want.constant))
    return _compare(f"{len(keys)} coefficients + constant", rows)


def check_bernoulli_law() -> tuple[bool, str]:
    """Pipeline constants equal -B_2g/(2g(2g-2)) for g = 2..7."""
    return _compare("g=2..7", (
        (f"g={g}", "pipeline", rational_form(g).coefficient(()), "bernoulli", bernoulli_constant(g))
        for g in range(2, 8)
    ))


def check_matsumoto_novak() -> tuple[bool, str]:
    """Single-cycle formula vs join-cut (g <= 10, d <= 9), pipeline (g <= 3,
    d <= 6) and oracle (g <= 3, d <= 5).  The join-cut rows check Miller's
    recurrence for the series to z^20, not only to z^6."""
    forms = {1: genus1_closed(), 2: rational_form(2), 3: rational_form(3)}
    gmax = 10
    table = solve_monotone(FORMULA_D, 2 * gmax - 1 + FORMULA_D)
    rows = []
    for g in range(1, gmax + 1):
        for d in range(1, FORMULA_D + 1):
            label, want = f"g={g},d={d}", mn_single_cycle(g, d)
            rows.append((label, "joincut", table.genus_value(g, (d,)), "formula", want))
            if g <= 3 and d <= 6:
                rows.append((label, "pipeline", value_from_form(forms[g], (d,)), "formula", want))
            if g <= 3 and d <= 5:
                oracle = count_monotone_transitive((d,), 2 * g - 1 + d)
                rows.append((label, "oracle", oracle, "formula", want))
    return _compare("{n} (g,d) pairs", rows)


def check_scaling_law() -> tuple[bool, str]:
    """c_{g,alpha} = 2^(3g-3) a_{g,alpha} on |alpha| = 3g-3 for g = 2, 3."""
    rows = []
    for g in (2, 3):
        monotone, classical = rational_form(g), paper_form(g, classical=True)
        top = {a for form in (monotone, classical) for a in form.terms if a.size == 3 * g - 3}
        rows.extend(
            (f"g={g} {tuple(a)}", "pipeline", monotone.coefficient(a),
             f"2^{3 * g - 3} x table", 2 ** (3 * g - 3) * classical.coefficient(a))
            for a in sorted(top)
        )
    return _compare("g=2,3 top coefficients", rows)


def check_polynomiality() -> tuple[bool, str]:
    """Interpolants of degree 3g - 3 + ell exist and verify on held-out
    partitions, for g <= 3; the samples are the smallest partitions of
    length ell, one per monomial up to that degree, plus the holdouts."""
    cases = [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)]
    diffs = []
    degrees = []
    for g, ell in cases:
        try:
            poly = polynomiality_extract(g, ell)
            degrees.append(f"({g},{ell}):deg{poly.degree}")
        except Exception as exc:  # verification failure is the failure mode
            diffs.append(f"(g={g},ell={ell}): {exc}")
    return _notes(degrees, diffs)


def check_operator_series_oracle() -> tuple[bool, str]:
    """Algebraic lift/transfer agree with the literal operators on 20
    randomized small ring elements (q-weight <= 4), coefficient by
    coefficient; the literal operators return exactly the box (wq, w1, 0)
    of the algebraic side."""
    wq, w1 = 4, 6
    rng = random.Random(20240811)
    rows = []
    for trial in range(20):
        terms = {}
        for _ in range(rng.randint(1, 3)):
            u2 = rng.randint(0, 6)
            v = rng.randint(0, 1)
            hs = tuple(sorted(rng.choice([(), (1,), (2,), (1, 1), (3,)])))
            terms[(u2, v, hs)] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
        elem = RingElement(terms)
        honest = RingElement(
            {(u2 - u2 % 2, 0, hs): c for (u2, v, hs), c in terms.items()}
        )
        pairs = (
            ("lift", expand_ring_element(apply_delta1(elem), wq, w1),
             lift_literal(expand_ring_element(elem, wq + w1, w1))),
            ("transfer", expand_ring_element(apply_T(honest), wq, w1),
             transfer_literal(expand_ring_element(honest, wq, w1 + wq, w2=wq))),
        )
        for name, alg, lit in pairs:
            alg, lit = alg.coeffs, lit.coeffs
            rows.extend(
                (f"{name} trial {trial} {k}", "algebraic", alg.get(k, 0), "literal", lit.get(k, 0))
                for k in sorted(alg.keys() | lit.keys())
            )
    return _compare("20 random elements x 2 operators", rows)


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
    return _notes(notes, diffs)


CHECKS = {
    "oracle-literal-vs-characters": check_oracle_literal_vs_characters,
    "joincut-monotone-vs-oracle": partial(check_joincut_vs_oracle, True, 9, 16),
    "joincut-classical-vs-oracle": partial(check_joincut_vs_oracle, False, 9, 16),
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
        "oracle-literal-vs-characters",
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


def _clear_caches() -> None:
    """Empty every lru_cache of the package, so that each check is timed
    cold whichever checks ran before it in this process."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hurwitz":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def run_check(name: str) -> CheckResult:
    fn = CHECKS[name]
    _clear_caches()
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
