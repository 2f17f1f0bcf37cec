from fractions import Fraction

from hurwitz import cli, joincut, verify
from hurwitz.closedforms import classical_genus0
from hurwitz.forms import RationalForm
from hurwitz.partitions import Partition
from hurwitz.pipeline import rational_form
from hurwitz.tables import paper_form


def test_a_mismatch_names_both_values(monkeypatch):
    want = classical_genus0(Partition((3,)))

    def planted(alpha):
        return classical_genus0(alpha) + (alpha == Partition((3,)))

    monkeypatch.setattr(verify, "classical_genus0", planted)
    result = verify.run_check("classical-formulas")
    assert not result.passed
    assert result.detail == (
        f"96 partitions x 4 genera; 1 mismatches: (3,): g0 formula={want + 1} joincut={want}"
    )


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
