import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import comb, factorial

import pytest

from test_series import derivative

from hurwitz import joincut
from hurwitz.closedforms import classical_genus0, classical_genus1, monotone_genus0, monotone_genus1
from hurwitz.joincut import TruncatedH, _plan, genus_value, solve_classical, solve_monotone
from hurwitz.oracle import count_classical_transitive, count_monotone_transitive, transitive_counts
from hurwitz.partitions import Partition, partitions, subpartitions
from hurwitz.series import MSeries


def test_monotone_examples():
    t = solve_monotone(3, 4)
    assert t[(1,), 0] == 1
    assert t[(1, 1), 2] == 1
    assert t[(3,), 2] == 4


def test_classical_examples():
    t = solve_classical(4, 6)
    assert t[(1,), 0] == 1
    assert t[(3,), 2] == 6
    assert t[(2, 2), 4] == 288
    assert t[(2, 2), 4] == classical_genus0((2, 2))


def test_t0_rows_are_the_seeds():
    mono = solve_monotone(4, 3)
    clas = solve_classical(4, 3)
    for d in range(1, 5):
        for alpha in partitions(d):
            want = 1 if alpha == Partition((1,)) else 0
            assert mono[alpha, 0] == want
            assert clas[alpha, 0] == want


def test_agreement_with_oracle_small():
    mono = solve_monotone(4, 6)
    clas = solve_classical(4, 6)
    for d in range(1, 5):
        for alpha in partitions(d):
            for r in range(7):
                assert mono[alpha, r] == count_monotone_transitive(alpha, r)
                assert clas[alpha, r] == count_classical_transitive(alpha, r)


@pytest.mark.parametrize("d, rmax", [(9, 24), (10, 26)])
def test_agreement_with_oracle_beyond_eight_points(d, rmax):
    # the character oracle reaches past d = 8, where no other counter of
    # factorizations runs
    for solve, monotone in ((solve_monotone, True), (solve_classical, False)):
        table, oracle = solve(d, rmax), transitive_counts(d, rmax, monotone)
        keys = [(alpha, r) for alpha in partitions(d) for r in range(rmax + 1)]
        assert [table[key] for key in keys] == [oracle[key] for key in keys], monotone
        assert sum(map(bool, (oracle[key] for key in keys))) > len(keys) // 4


def test_vanishing_pattern():
    t = solve_monotone(5, 8)
    for d in range(1, 6):
        for alpha in partitions(d):
            for r in range(9):
                if r < d - len(alpha) or (r - (d - len(alpha))) % 2:
                    assert t[alpha, r] == 0


def test_genus_stratification_matches_genus0_formulas():
    # the join-cut genus-0 and genus-1 slices equal the closed formulas up to
    # the CLI's join-cut bound d = 9; genus 1 needs r = |alpha| + len(alpha) <= 18
    mono = solve_monotone(9, 18)
    clas = solve_classical(9, 18)
    for d in range(1, 10):
        for alpha in partitions(d):
            assert mono.genus_value(0, alpha) == monotone_genus0(alpha)
            assert clas.genus_value(0, alpha) == classical_genus0(alpha)
            assert mono.genus_value(1, alpha) == monotone_genus1(alpha)
            assert clas.genus_value(1, alpha) == classical_genus1(alpha)


def test_truncation_errors():
    t = solve_monotone(3, 4)
    with pytest.raises(KeyError):
        t[(4,), 2]
    with pytest.raises(KeyError):
        t[(2,), 5]


def test_tables_never_share_one_counts_dict():
    a, b = TruncatedH(2, 3, True), TruncatedH(2, 3, True)
    a.counts[(Partition((2,)), 1)] = 1
    assert b.counts == {} and b[(2,), 1] == 0 and a[(2,), 1] == 1
    assert solve_monotone(3, 4).counts is not solve_classical(3, 4).counts


# -- literal PDE residual ---------------------------------------------------
#
# Forward evaluation of the join-cut right side on truncated p-series,
# straight from the operator sum, with no reference to the extracted
# coefficient recurrence in hurwitz.joincut.


def _slices(table: TruncatedH, D: int, R: int, classical: bool) -> list[MSeries]:
    out = []
    for r in range(R + 1):
        coeffs = {}
        for d in range(1, D + 1):
            for alpha in partitions(d):
                v = Fraction(table[alpha, r], factorial(d))
                if classical:
                    v /= factorial(r)
                if v:
                    coeffs[tuple(alpha)] = v
        out.append(MSeries(D, coeffs))
    return out


def _rhs_literal(slices: list[MSeries], r: int, D: int) -> MSeries:
    total = MSeries(D)
    S = slices[r]
    for i in range(1, D + 1):
        for j in range(1, D - i + 1):
            pi_pj = MSeries(D, {tuple(sorted((i, j), reverse=True)): 1})
            p_ij = MSeries(D, {(i + j,): 1})
            cut = pi_pj * derivative(S, i + j)
            join = p_ij * derivative(derivative(S, i), j)
            total = total + cut.scale(Fraction(i + j, 2)) + join.scale(Fraction(i * j, 2))
            prod = MSeries(D)
            for rp in range(r + 1):
                prod = prod + derivative(slices[rp], i) * derivative(slices[r - rp], j)
            total = total + (p_ij * prod).scale(Fraction(i * j, 2))
    return total


def test_monotone_pde_residual_literal():
    D, R = 5, 6
    table = solve_monotone(D, R)
    slices = _slices(table, D, R, classical=False)
    for r in range(R):
        rhs = _rhs_literal(slices, r, D)
        # (1/2t)(z dH/dz - z p_1) at t^r: half the degree-weighted next slice
        lhs = MSeries(
            D, {m: Fraction(sum(m), 2) * c for m, c in slices[r + 1].coeffs.items()}
        )
        assert lhs == rhs, f"monotone residual nonzero at t^{r}"


def test_classical_pde_residual_literal():
    D, R = 5, 6
    table = solve_classical(D, R)
    slices = _slices(table, D, R, classical=True)
    for r in range(R):
        rhs = _rhs_literal(slices, r, D)
        lhs = slices[r + 1].scale(r + 1)
        assert lhs == rhs, f"classical residual nonzero at t^{r}"


# -- Fraction slice reference -----------------------------------------------
#
# The earlier form of the solver, kept here as an independent reference: the
# same A, B, C recurrence on Fraction slices c_r(alpha) = H^r(alpha)/d!
# (and /r! for classical), every t-slice pair convolved, the integers read
# off at the end.


def _remove(alpha, *parts):
    """alpha with one copy of each of parts taken out."""
    out = list(alpha)
    for part in parts:
        out.remove(part)
    return Partition(out)


def _add(alpha, *parts):
    """alpha with one more copy of each of parts."""
    return Partition(tuple(alpha) + parts)


def _ref_linear(alpha, slice_r):
    total = Fraction(0)
    mult = Counter(alpha)
    vals = sorted(mult)
    for pos, i in enumerate(vals):
        for j in vals[pos:]:
            if i == j and mult[i] < 2:
                continue
            beta = _add(_remove(alpha, i, j), i + j)
            c = slice_r.get(beta)
            if c:
                ways = 1 if i == j else 2
                total += ways * (i + j) * Counter(beta)[i + j] * c
    for s in mult:
        for i in range(1, s // 2 + 1):
            j = s - i
            beta = _add(_remove(alpha, s), i, j)
            c = slice_r.get(beta)
            if not c:
                continue
            bm = Counter(beta)
            if i == j:
                total += i * j * bm[i] * (bm[i] - 1) * c
            else:
                total += 2 * i * j * bm[i] * bm[j] * c
    return total


def _ref_product(alpha, slice_pairs):
    total = Fraction(0)
    for s in set(alpha):
        rest = _remove(alpha, s)
        splits = [pair for n in range(rest.size + 1) for pair in subpartitions(rest, n)]
        for i in range(1, s):
            j = s - i
            for mu1, mu2 in splits:
                beta1, beta2 = _add(mu1, i), _add(mu2, j)
                w = i * j * Counter(beta1)[i] * Counter(beta2)[j]
                for s1, s2 in slice_pairs:
                    c1, c2 = s1.get(beta1), s2.get(beta2)
                    if c1 and c2:
                        total += w * c1 * c2
    return total


def _reference_counts(D, R, monotone):
    alphas = [a for d in range(1, D + 1) for a in partitions(d)]
    slices = [{Partition((1,)): Fraction(1)}]
    for r in range(R):
        pairs = [(slices[rp], slices[r - rp]) for rp in range(r + 1)]
        new = {}
        for alpha in alphas:
            total = _ref_linear(alpha, slices[r]) + _ref_product(alpha, pairs)
            val = total / alpha.size if monotone else total / (2 * (r + 1))
            if val:
                new[alpha] = val
        slices.append(new)
    counts = {}
    for r, sl in enumerate(slices):
        for alpha, c in sl.items():
            h = c * factorial(alpha.size) * (1 if monotone else factorial(r))
            assert h.denominator == 1
            counts[(alpha, r)] = h.numerator
    return counts


def test_integer_solver_matches_fraction_reference():
    for solve, monotone in ((solve_monotone, True), (solve_classical, False)):
        table = solve(7, 14)
        want = _reference_counts(7, 14, monotone)
        assert table.counts == want
        assert all(type(h) is int for h in table.counts.values())


def test_tables_of_different_truncations_agree_on_overlap():
    for solve in (solve_monotone, solve_classical):
        wide, deep = solve(8, 9), solve(5, 16)
        D, R = 5, 9

        def overlap(table):
            return {(a, r): h for (a, r), h in table.counts.items() if a.size <= D and r <= R}

        assert overlap(wide) == overlap(deep) == solve(D, R).counts
        assert len(overlap(wide)) > 20


# -- Partition-based plan reference ------------------------------------------
#
# The earlier form of _plan, kept here as a reference: every source a
# re-sorted, re-validated Partition, the splits of alpha - {s} walked once
# per size.


def _reference_plan(alpha):
    mult = Counter(alpha)
    linear = {}
    vals = sorted(mult)
    for pos, i in enumerate(vals):
        for j in vals[pos:]:
            if i == j and mult[i] < 2:
                continue
            beta = _add(_remove(alpha, i, j), i + j)
            ways = 1 if i == j else 2
            linear[beta] = linear.get(beta, 0) + ways * (i + j) * Counter(beta)[i + j]
    for s in mult:
        for i in range(1, s // 2 + 1):
            j = s - i
            beta = _add(_remove(alpha, s), i, j)
            bm = Counter(beta)
            w = i * j * bm[i] * (bm[i] - 1) if i == j else 2 * i * j * bm[i] * bm[j]
            linear[beta] = linear.get(beta, 0) + w
    quadratic = {}
    for s in mult:
        rest = _remove(alpha, s)
        splits = [pair for n in range(rest.size + 1) for pair in subpartitions(rest, n)]
        for i in range(1, s):
            j = s - i
            for mu1, mu2 in splits:
                beta1, beta2 = _add(mu1, i), _add(mu2, j)
                w = i * j * Counter(beta1)[i] * Counter(beta2)[j]
                key = (beta1, beta2) if beta1 <= beta2 else (beta2, beta1)
                quadratic[key] = quadratic.get(key, 0) + w * comb(alpha.size, beta1.size)
    return linear, quadratic


def test_plans_match_partition_reference():
    for d in range(1, 11):
        for alpha in partitions(d):
            linear, quadratic = _plan(alpha)
            want_linear, want_quadratic = _reference_plan(alpha)
            assert dict(linear) == want_linear, alpha
            assert {(b1, b2): w for b1, b2, w in quadratic} == want_quadratic, alpha
            assert len(quadratic) == len(want_quadratic), alpha
            sources = [b for b, _ in linear] + [b for b1, b2, _ in quadratic for b in (b1, b2)]
            assert all(type(b) is Partition and b == Partition(b) for b in sources), alpha


# SHA-256 of the (alpha, r, H) items of solve_*(9, 26).counts, in order, as
# computed by the Partition-based plans
COUNTS_9_26 = {
    solve_monotone: "6881715defd4a16f92ce87ad10da1246aecd31ff54939507b94adab2f654276b",
    solve_classical: "c99446b89ed8baa9f7aa860079a268118a8ffd4f5dcbfc054617e8e97690e02a",
}


def test_counts_at_9_26_unchanged():
    for solve, digest in COUNTS_9_26.items():
        items = [(tuple(a), r, h) for (a, r), h in solve(9, 26).counts.items()]
        assert len(items) == 890
        assert hashlib.sha256(repr(items).encode()).hexdigest() == digest, solve.__name__


# -- the genus-list store each family's solves share --------------------------


def _cold(solve, D, R):
    for f in (solve_monotone, solve_classical, _plan, joincut._genus_lists):
        f.cache_clear()
    return solve(D, R)


def test_tables_do_not_depend_on_the_order_of_solves():
    keys = [(D, R) for D in range(1, 10) for R in range(27)]
    random.Random(1).shuffle(keys)
    for solve in (solve_monotone, solve_classical):
        for f in (solve, _plan, joincut._genus_lists):
            f.cache_clear()
        tables = {key: solve(*key) for key in keys}
        # the store now reaches (9, 26); a small table still ends at its own bounds
        with pytest.raises(KeyError):
            tables[3, 4][(4,), 2]
        with pytest.raises(KeyError):
            tables[3, 4][(2,), 5]
        for key, table in tables.items():
            assert list(table.counts.items()) == list(_cold(solve, *key).counts.items()), key


def test_a_failed_solve_empties_its_store(monkeypatch):
    real = joincut._plan
    target = Partition((3, 1))

    def planted(alpha):
        # one weight of (3,1) off by one: its values stay integral, and
        # wrong, up to r = 18, and the checked division raises at r = 20
        linear, quadratic = real(alpha)
        if alpha == target:
            (b, w), rest = linear[1], linear[2:]
            linear = linear[:1] + ((b, w + 1),) + rest
        return linear, quadratic

    for f in (solve_monotone, solve_classical, joincut._genus_lists):
        f.cache_clear()
    solve_monotone(9, 26)
    monkeypatch.setattr(joincut, "_plan", planted)
    with pytest.raises(AssertionError, match=r"non-integral count at \(3, 1\), r=20"):
        solve_classical(9, 26)
    assert joincut._genus_lists(False) == {}
    assert len(joincut._genus_lists(True)) == 96  # the other family keeps its store

    def interrupted(alpha):
        if alpha.size == 5:
            raise KeyboardInterrupt
        return real(alpha)

    monkeypatch.setattr(joincut, "_plan", interrupted)
    with pytest.raises(KeyboardInterrupt):
        solve_classical(9, 26)
    assert joincut._genus_lists(False) == {}

    # a genus read raises the same way, at the same entry, and leaves the
    # same empty store
    monkeypatch.setattr(joincut, "_plan", planted)
    with pytest.raises(AssertionError, match=r"non-integral count at \(3, 1\), r=20"):
        genus_value(8, Partition((3, 1)), False)
    assert joincut._genus_lists(False) == {}
    assert len(joincut._genus_lists(True)) == 96
    monkeypatch.setattr(joincut, "_plan", interrupted)
    with pytest.raises(KeyboardInterrupt):
        genus_value(1, Partition((5,)), False)
    assert joincut._genus_lists(False) == {}

    monkeypatch.setattr(joincut, "_plan", real)
    items = [(tuple(a), r, h) for (a, r), h in solve_classical(9, 26).counts.items()]
    assert hashlib.sha256(repr(items).encode()).hexdigest() == COUNTS_9_26[solve_classical]
    assert genus_value(8, Partition((3, 1)), False) == solve_classical(4, 20)[(3, 1), 20]


# -- the genus read of the CLI's join-cut route --------------------------------


@pytest.mark.parametrize("tables_first", [False, True])
def test_genus_read_equals_the_tables(tables_first):
    reads = [(g, alpha) for d in range(1, 10) for alpha in partitions(d) for g in range(6)]
    random.Random(2).shuffle(reads)
    for solve, monotone in ((solve_monotone, True), (solve_classical, False)):
        for f in (solve, _plan, joincut._genus_lists):
            f.cache_clear()

        def from_table(g, alpha):
            r = 2 * g - 2 + len(alpha) + alpha.size
            return solve(alpha.size, r)[alpha, r]

        if tables_first:
            want = [from_table(g, alpha) for g, alpha in reads]
            got = [genus_value(g, alpha, monotone) for g, alpha in reads]
        else:
            got = [genus_value(g, alpha, monotone) for g, alpha in reads]
            want = [from_table(g, alpha) for g, alpha in reads]
        assert got == want, monotone
        # H_g((1)) = 0 for g >= 1, and no other value read here vanishes
        zeros = [(g, tuple(alpha)) for (g, alpha), h in zip(reads, got) if not h]
        assert sorted(zeros) == [(g, (1,)) for g in range(1, 6)] and all(type(h) is int for h in got)


def test_a_genus_read_fills_every_smaller_size_to_its_genus_only():
    for monotone in (True, False):
        for g, parts in ((0, (1,)), (3, (4, 2)), (5, (1,) * 7), (2, (9,))):
            joincut._genus_lists.cache_clear()
            genus_value(g, Partition(parts), monotone)
            store = joincut._genus_lists(monotone)
            assert set(store) == {b for d in range(1, sum(parts) + 1) for b in partitions(d)}
            assert {len(values) for values in store.values()} == {g + 1}, (g, parts)
    with pytest.raises(ValueError):
        genus_value(-1, Partition((2,)), True)
