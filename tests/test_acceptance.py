"""Acceptance criteria, one test per criterion, exact equality throughout.

Each test drives the same named checks as `hurwitz verify` and prints one
PASS/FAIL line, so `pytest -s tests/test_acceptance.py` doubles as the
acceptance report.
"""

from hurwitz.verify import run_check

CRITERIA = {
    1: (
        "oracle cross-validation (literal vs characters+Moebius, both families, d<=6, r<=10)",
        ["oracle-literal-vs-characters"],
    ),
    2: (
        "join-cut vs oracle (monotone and classical, d<=9 r<=26)",
        ["joincut-monotone-vs-oracle", "joincut-classical-vs-oracle"],
    ),
    3: ("genus-0 formula vs join-cut slice, d<=9", ["genus0-formula"]),
    4: ("genus-1 formula and log form vs join-cut slice, d<=9", ["genus1-formula"]),
    5: ("pipeline reproduces the genus-2 rational form", ["pipeline-genus2-table"]),
    6: ("pipeline reproduces the genus-3 rational form", ["pipeline-genus3-table"]),
    7: ("Bernoulli constant law, g=2..7", ["bernoulli-law"]),
    8: (
        "Matsumoto-Novak vs join-cut (g<=10, d<=9), pipeline (g<=3, d<=6) and oracle (d<=5)",
        ["matsumoto-novak"],
    ),
    9: ("scaling law between monotone and classical top coefficients", ["scaling-law"]),
    10: ("polynomiality interpolants verify on held-out partitions", ["polynomiality"]),
    11: ("operator series oracle, 20 randomized elements", ["operator-series-oracle"]),
    12: ("structural assertions (cond1, cond2, degree bounds), g=1..4", ["structural-assertions"]),
    13: (
        "auto vs oracle at |alpha|=10 (monotone g<=4, classical g<=3)",
        ["auto-vs-oracle-at-10"],
    ),
}


# the PASS detail of every check, word for word: `hurwitz verify` prints it
EQUAL = "all values equal"
DETAILS = {
    "oracle-literal-vs-characters": f"638 cases; {EQUAL}",
    "auto-vs-oracle-at-10": f"378 cases; {EQUAL}",
    "joincut-monotone-vs-oracle": f"2592 cases; {EQUAL}",
    "joincut-classical-vs-oracle": f"2592 cases; {EQUAL}",
    "genus0-formula": f"96 partitions; {EQUAL}",
    "genus1-formula": f"96 partitions x 2 routes; {EQUAL}",
    "pipeline-genus2-table": f"7 coefficients + constant; {EQUAL}",
    "pipeline-genus3-table": f"30 coefficients + constant; {EQUAL}",
    "bernoulli-law": f"g=2..7; {EQUAL}",
    "matsumoto-novak": f"90 (g,d) pairs; {EQUAL}",
    "scaling-law": f"g=2,3 top coefficients; {EQUAL}",
    "polynomiality": (
        "(0,3):deg0; (0,4):deg1; (1,1):deg1; (1,2):deg2; (1,3):deg3; (2,1):deg4; (2,2):deg5; "
        "(3,1):deg7; (4,1):deg10"
    ),
    "operator-series-oracle": f"20 random elements x 2 operators; {EQUAL}",
    "structural-assertions": "g=1:deg2; g=2:deg5; g=3:deg8; g=4:deg11",
}


def _run(number: int):
    label, names = CRITERIA[number]
    results = [run_check(name) for name in names]
    passed = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results)
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {label} -- {detail}")
    assert passed, detail
    for r in results:
        assert r.detail == DETAILS[r.name], r.name


def test_criterion_01_oracle_cross_validation():
    _run(1)


def test_criterion_02_joincut_vs_oracle():
    _run(2)


def test_criterion_03_genus0_formula():
    _run(3)


def test_criterion_04_genus1_formula_and_log_form():
    _run(4)


def test_criterion_05_pipeline_genus2():
    _run(5)


def test_criterion_06_pipeline_genus3():
    _run(6)


def test_criterion_07_bernoulli_law():
    _run(7)


def test_criterion_08_matsumoto_novak():
    _run(8)


def test_criterion_09_scaling_law():
    _run(9)


def test_criterion_10_polynomiality():
    _run(10)


def test_criterion_11_operator_series_oracle():
    _run(11)


def test_criterion_12_structural_assertions():
    _run(12)


def test_criterion_13_auto_vs_oracle_at_10():
    _run(13)
