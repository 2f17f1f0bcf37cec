"""Named verification checks and suites behind `hurwitz verify`.

Most checks compare two independent computation routes with exact
rational equality and report per-item diffs on failure; `polynomiality`
and `structural-assertions` instead test a theorem or an invariant on
one route's output.  A value row reads each route's number the way
`hurwitz compute --method <m>` answers it, through `cli.compute_value`,
so the checks test the CLI's own answers; `polynomiality` reads the
`auto` answers.  The acceptance test suite drives exactly these
functions, so the CLI and pytest agree by construction.
"""

from __future__ import annotations

import random
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import permutations
from math import factorial

from .closedforms import bernoulli_constant, mn_single_cycle
from .combinat import central_binomial
from .joincut import solve_classical, solve_monotone
from .oracle import literal_counts, transitive_counts
from .partitions import Partition, Record, aut_order, partitions
from .pipeline import (
    decompose_basis,
    normalized_delta1,
    rational_form,
    recompose_basis,
)
from .polynomials import InconsistentDataError, PolynomialQ, interpolate, monomials_upto
from .qyseries import expand_ring_element, lift_literal, transfer_literal
from .ring import RingElement, apply_T, apply_delta1
from .tables import paper_form


# The formula checks run up to the join-cut route's |alpha| cap,
# cli.JOINCUT_D_CAP (cli imports this module, so a test ties the two).
FORMULA_D = 9


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail", "elapsed")

    def __init__(self, name: str, passed: bool, detail: str, elapsed: float):
        self._set(name, passed, detail, elapsed)


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


def _answer(genus: int, alpha: Partition, classical: bool, method: str) -> Fraction:
    """H_g(alpha) as `hurwitz compute --method <method>` answers it."""
    from .cli import compute_value  # local: cli imports this module

    return compute_value(genus, alpha, classical, method)[1]


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


def check_auto_vs_oracle_at_10() -> tuple[bool, str]:
    """Every `auto` answer on the partitions of 10, monotone genus 0-4 and
    classical genus 0-3, equals the oracle.  Past the join-cut cap, auto
    answers there by the closed forms, the tables and the pipeline."""
    rows = []
    for monotone, family, top, rmax in ((True, "monotone", 4, 26), (False, "classical", 3, 24)):
        oracle = transitive_counts(10, rmax, monotone)
        rows.extend(
            (f"{family} g={g} {tuple(alpha)}", "auto", _answer(g, alpha, not monotone, "auto"),
             "oracle", oracle[alpha, 2 * g - 2 + alpha.length + 10])
            for alpha in partitions(10)
            for g in range(top + 1)
        )
    return _compare("{n} cases", rows)


def _against_joincut(what: str, classical: bool, routes) -> tuple[bool, str]:
    """Each (genus, label, method) route against the join-cut route on every
    partition with |alpha| <= FORMULA_D."""
    return _compare(what, (
        (tuple(alpha), label, _answer(g, alpha, classical, method),
         "joincut", _answer(g, alpha, classical, "joincut"))
        for d in range(1, FORMULA_D + 1)
        for alpha in partitions(d)
        for g, label, method in routes
    ))


def check_genus0_formula() -> tuple[bool, str]:
    """Genus-0 product formula equals the join-cut route for d <= 9."""
    return _against_joincut("{n} partitions", False, [(0, "formula", "closed-form")])


def check_genus1_formula() -> tuple[bool, str]:
    """Genus-1 formula and the log form both match join-cut for d <= 9."""
    return _against_joincut("{n} partitions x 2 routes", False, [
        (1, "formula", "closed-form"), (1, "logform", "pipeline"),
    ])


def check_classical_formulas() -> tuple[bool, str]:
    """Classical genus-0/1 formulas and the checked-in classical tables
    all reproduce the classical join-cut numbers for d <= 9."""
    return _against_joincut("{n} partitions x 4 genera", True, [
        (0, "g0 formula", "closed-form"), (1, "g1 formula", "closed-form"),
        (2, "g2 table", "lagrange"), (3, "g3 table", "lagrange"),
    ])


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
    rows = []
    for g in range(1, 11):
        for d in range(1, FORMULA_D + 1):
            label, want, cycle = f"g={g},d={d}", mn_single_cycle(g, d), Partition((d,))
            methods = ["joincut"]
            if g <= 3 and d <= 6:
                methods.append("pipeline")
            if g <= 3 and d <= 5:
                methods.append("oracle")
            rows.extend((label, m, _answer(g, cycle, False, m), "formula", want) for m in methods)
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


def normalized_value(g: int, alpha) -> Fraction:
    """H_g(alpha) |Aut alpha| / (d! prod C(2 a_j, a_j)): the quantity that
    is polynomial in the parts for fixed (g, len).  H_g(alpha) is the
    monotone number `hurwitz compute` answers by its auto route."""
    alpha = Partition(alpha)
    denom = Fraction(factorial(alpha.size))
    for a in alpha:
        denom *= central_binomial(a)
    return _answer(g, alpha, False, "auto") * aut_order(alpha) / denom


# polynomiality_extract keeps the last _HOLDOUTS sample partitions out of the fit
_HOLDOUTS = 3


def _sample_partitions(ell: int, count: int):
    """The first count partitions with exactly ell parts, by ascending size."""
    out = []
    size = ell
    while len(out) < count:
        out.extend(a for a in partitions(size) if a.length == ell)
        size += 1
    return out[:count]


def polynomiality_extract(g: int, ell: int) -> PolynomialQ:
    """Interpolate the polynomial behind the normalized monotone numbers.

    The fit is at the degree the theorem states, 3g - 3 + ell, on one sample
    partition per monomial (with every coordinate permutation included,
    since the polynomial is symmetric).  Raises unless the fit has that
    degree and verifies on held-out partitions.
    """
    if (g, ell) in {(0, 1), (0, 2)}:
        raise ValueError(f"no polynomial exists for (g, ell) = {(g, ell)}")
    degree = 3 * g - 3 + ell
    samples = _sample_partitions(ell, len(monomials_upto(ell, degree)) + _HOLDOUTS)
    held = samples[-_HOLDOUTS:]
    values = {a: normalized_value(g, a) for a in samples}
    points = [(perm, values[a]) for a in samples[:-_HOLDOUTS] for perm in set(permutations(tuple(a)))]
    poly = interpolate(points, degree)
    if not any(sum(e) == degree for e in poly.coeffs):
        raise InconsistentDataError(f"the fit for (g, ell) = {(g, ell)} is not of degree {degree}")
    if any(poly(tuple(a)) != values[a] for a in held):
        raise InconsistentDataError(f"the fit for (g, ell) = {(g, ell)} fails a held-out partition")
    return poly


def check_polynomiality() -> tuple[bool, str]:
    """Interpolants of degree 3g - 3 + ell of the normalized auto answers
    exist and verify on held-out partitions, for g <= 4; the samples are
    the smallest partitions of length ell, one per monomial up to that
    degree, plus the holdouts."""
    cases = [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (4, 1)]
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
             transfer_literal(expand_ring_element(honest, wq, w1 + wq))),
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
    "auto-vs-oracle-at-10": check_auto_vs_oracle_at_10,
    "oracle-literal-vs-characters": check_oracle_literal_vs_characters,
    "joincut-monotone-vs-oracle": partial(check_joincut_vs_oracle, True, 9, 26),
    "joincut-classical-vs-oracle": partial(check_joincut_vs_oracle, False, 9, 26),
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
