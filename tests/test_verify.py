from fractions import Fraction

import pytest

from hurwitz import cli, joincut, verify
from hurwitz.closedforms import classical_genus0, classical_genus1, monotone_genus0, monotone_genus1
from hurwitz.forms import RationalForm
from hurwitz.partitions import Partition
from hurwitz.pipeline import rational_form
from hurwitz.tables import paper_form


def test_a_mismatch_names_both_values(monkeypatch):
    want = classical_genus0(Partition((3,)))

    def planted(alpha):
        return classical_genus0(alpha) + (alpha == Partition((3,)))

    # the binding the CLI's closed-form route calls, which verify reads through
    monkeypatch.setattr(cli, "classical_genus0", planted)
    result = verify.run_check("classical-formulas")
    assert not result.passed
    assert result.detail == (
        f"96 partitions x 4 genera; 1 mismatches: (3,): g0 formula={want + 1} joincut={want}"
    )


_ALPHA = Partition((3,))
# the first mismatch of each check whose rows read `compute --method joincut`,
# when that route reads the other family
_FIRST_MISMATCH = {
    "genus0-formula": f"(3,): formula={monotone_genus0(_ALPHA)} joincut={classical_genus0(_ALPHA)}",
    "genus1-formula": f"(3,): formula={monotone_genus1(_ALPHA)} joincut={classical_genus1(_ALPHA)}",
    "classical-formulas":
        f"(3,): g0 formula={classical_genus0(_ALPHA)} joincut={monotone_genus0(_ALPHA)}",
    "matsumoto-novak": f"g=1,d=3: joincut={classical_genus1(_ALPHA)} formula={monotone_genus1(_ALPHA)}",
}


@pytest.mark.parametrize("name", sorted(_FIRST_MISMATCH))
def test_value_rows_read_the_cli_joincut_route(monkeypatch, name):
    swapped = joincut.genus_value
    monkeypatch.setattr(cli, "genus_value", lambda g, alpha, monotone: swapped(g, alpha, not monotone))
    result = verify.run_check(name)
    assert not result.passed
    assert f" mismatches: {_FIRST_MISMATCH[name]};" in result.detail, result.detail


def test_polynomiality_reads_the_auto_lagrange_answers(monkeypatch):
    # auto answers monotone genus 2 and 3 by lagrange; a wrong answer there
    # breaks the fit of every (g, ell) it feeds
    answer = cli.compute_value

    def planted(genus, alpha, classical, method):
        used, value = answer(genus, alpha, classical, method)
        return used, value + (used == "lagrange" and not classical)

    monkeypatch.setattr(cli, "compute_value", planted)
    result = verify.run_check("polynomiality")
    assert not result.passed
    for case in ("(g=2,ell=1)", "(g=2,ell=2)", "(g=3,ell=1)"):
        assert case in result.detail, result.detail


def test_auto_vs_oracle_at_10_reads_the_classical_table_answers(monkeypatch):
    # a wrong classical form value past |alpha| = 9, which no other row reads
    value = cli.value_from_form

    def planted(form, alpha):
        return value(form, alpha) + (getattr(form, "classical", False) and alpha.size >= 10)

    monkeypatch.setattr(cli, "value_from_form", planted)
    result = verify.run_check("auto-vs-oracle-at-10")
    assert not result.passed
    assert result.detail.startswith("378 cases; 84 mismatches: classical g=2 (10,): auto="), (
        result.detail
    )
    assert verify.run_check("classical-formulas").passed


def test_a_scaling_mismatch_names_the_partition(monkeypatch):
    table = paper_form(2, classical=True)
    planted = RationalForm(
        genus=2, terms={**table.terms, Partition((3,)): Fraction(1, 576)}, classical=True
    )
    monkeypatch.setattr(
        verify, "paper_form", lambda g, classical: planted if g == 2 else paper_form(g, classical)
    )
    result = verify.run_check("scaling-law")
    assert not result.passed
    assert result.detail == (
        "g=2,3 top coefficients; 1 mismatches: g=2 (3,): pipeline=1/144 2^3 x table=1/72"
    )


def test_each_check_starts_with_cold_caches(monkeypatch):
    seen = []

    def probe():
        seen.append(rational_form.cache_info().currsize)
        return True, ""

    monkeypatch.setitem(verify.CHECKS, "probe", probe)
    verify.run_check("bernoulli-law")
    assert rational_form.cache_info().currsize > 0
    verify.run_check("probe")
    assert seen == [0]


def test_each_check_starts_with_empty_joincut_stores(monkeypatch):
    seen = []

    def probe():
        seen.append([len(joincut._genus_lists(monotone)) for monotone in (True, False)])
        return True, ""

    monkeypatch.setitem(verify.CHECKS, "probe", probe)
    verify.run_check("genus0-formula")
    assert len(joincut._genus_lists(True)) == 96
    verify.run_check("probe")
    assert seen == [[0, 0]]


def test_formula_checks_reach_the_joincut_cap():
    assert verify.FORMULA_D == cli.JOINCUT_D_CAP
