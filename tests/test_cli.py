import json
import os
import subprocess
import sys

import pytest

from hurwitz import cli
from hurwitz.cli import CLOSED_FORM_R_CAP, JOINCUT_R_CAP, fmt_fraction, main, parse_partition
from hurwitz.pipeline import GENUS_CAP
from hurwitz.partitions import Partition


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_fraction():
    from fractions import Fraction

    assert fmt_fraction(Fraction(3)) == "3"
    assert fmt_fraction(Fraction(-5, 720)) == "-1/144"


def test_parse_partition():
    assert parse_partition("3,1,1") == Partition((3, 1, 1))
    assert parse_partition(" 3, 1") == Partition((3, 1))
    for text in ("3,x", "3,,1", "3,", ",3", " , ", "1_0", "+3", "-3", "\u0663", "3,\u00b2"):
        with pytest.raises(cli.RangeError, match="invalid partition"):
            parse_partition(text)


def test_compute_examples(capsys):
    code, out, _ = run_cli(capsys, "compute", "--genus", "1", "--partition", "2")
    assert code == 0
    assert json.loads(out)["value"] == "1"

    code, out, _ = run_cli(
        capsys, "compute", "--genus", "0", "--partition", "3", "--format", "text"
    )
    assert code == 0 and out.strip() == "4"

    code, out, _ = run_cli(capsys, "compute", "--genus", "2", "--partition", "1")
    assert code == 0 and json.loads(out)["value"] == "0"


def test_methods_agree(capsys):
    values = {}
    for method in ("oracle", "joincut", "closed-form", "pipeline"):
        code, out, _ = run_cli(
            capsys,
            "compute",
            "--genus",
            "1",
            "--partition",
            "2,1",
            "--method",
            method,
            "--format",
            "text",
        )
        assert code == 0
        values[method] = out.strip()
    assert len(set(values.values())) == 1


def test_output_is_deterministic(capsys):
    args = ("compute", "--genus", "2", "--partition", "2,2", "--method", "lagrange")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_json_round_trip(capsys):
    _, out, _ = run_cli(capsys, "compute", "--genus", "2", "--partition", "3,1")
    record = json.loads(out)
    assert record["query"] == {"genus": 2, "partition": [3, 1], "classical": False}
    assert "elapsed_ms" not in record
    num = int(record["value"])  # integers serialize without a slash
    assert num == 17640


def test_timing_flag_adds_field(capsys):
    _, out, _ = run_cli(
        capsys, "compute", "--genus", "1", "--partition", "2", "--timing"
    )
    assert "elapsed_ms" in json.loads(out)


def test_csv_format(capsys):
    _, out, _ = run_cli(
        capsys, "compute", "--genus", "0", "--partition", "2,2", "--format", "csv"
    )
    header, row = out.strip().splitlines()
    assert header == "method,genus,partition,classical,value"
    assert row.endswith(",54")


def test_classical_flag(capsys):
    _, out, _ = run_cli(
        capsys,
        "compute",
        "--genus",
        "0",
        "--partition",
        "2,2",
        "--classical",
        "--format",
        "text",
    )
    assert out.strip() == "288"


def test_rational_form_genus1(capsys):
    code, out, _ = run_cli(capsys, "rational-form", "--genus", "1")
    assert code == 0
    assert json.loads(out) == {"genus": 1, "log_eta": "1/24", "log_gamma": "-1/8"}


def test_rational_form_genus2_matches_published(capsys):
    code, out, _ = run_cli(capsys, "rational-form", "--genus", "2")
    assert code == 0
    record = json.loads(out)
    assert record["constant"] == "-1/240"
    by_alpha = {tuple(t["alpha"]): t["coeff"] for t in record["terms"]}
    assert by_alpha[(2, 1)] == "29/720"
    assert by_alpha[()] == "1/240"
    assert {t["denominator_power"] for t in record["terms"] if t["alpha"] == [2, 1]} == {4}


def test_exit_code_2_on_range_errors(capsys):
    code, _, err = run_cli(capsys, "rational-form", "--genus", "0")
    assert code == 2 and "genus" in err

    code, _, err = run_cli(
        capsys, "compute", "--genus", "2", "--partition", "2", "--method", "closed-form"
    )
    assert code == 0  # single cycle: Matsumoto-Novak applies

    code, _, err = run_cli(
        capsys,
        "compute",
        "--genus",
        "2",
        "--partition",
        "1,1",
        "--method",
        "closed-form",
    )
    assert code == 2 and "closed formulas" in err

    code, _, err = run_cli(
        capsys,
        "compute",
        "--genus",
        "0",
        "--partition",
        "2,1",
        "--max-degree",
        "2",
    )
    assert code == 2 and "--max-degree" in err

    code, _, err = run_cli(
        capsys, "compute", "--genus", "2", "--partition", "1" + ",1" * 18, "--method", "oracle"
    )
    assert code == 2 and "character oracle caps" in err

    code, _, err = run_cli(capsys, "compute", "--genus", "1", "--partition", "")
    assert code == 2 and "nonempty" in err

    # an empty field is refused, not dropped: "3,,1" is not (3, 1)
    for text in ("3,,1", "3,", ",3"):
        code, out, err = run_cli(capsys, "compute", "--genus", "1", "--partition", text)
        assert code == 2 and not out, text
        assert err.startswith("error:") and repr(text) in err, err

    # only ASCII decimal digits are parts: int() would read (10) and (3) here
    for text in ("1_0", "\u0663", "+3", "2,\uff11"):
        code, out, err = run_cli(capsys, "compute", "--genus", "1", "--partition", text)
        assert code == 2 and not out, text
        assert err.splitlines() == [err.strip()] and err.startswith("error: invalid partition")


def test_integer_flags_take_ascii_decimal_digits_only(capsys):
    # int() would read these as 1, 10, 1, 2, 10 and 1; each is one error
    # line and exit 2, like every other exit 2, not argparse's usage block
    for flag, text, argv in (
        ("--genus", "\u0661", ("compute", "--partition", "2", "--genus")),
        ("--genus", "1_0", ("compute", "--partition", "2", "--genus")),
        ("--genus", "+1", ("compute", "--partition", "2", "--genus")),
        ("--max-degree", "\uff12", ("compute", "--genus", "1", "--partition", "2", "--max-degree")),
        ("--genus", "1_0", ("rational-form", "--genus")),
        ("--jobs", "+1", ("verify", "--suite", "scaling", "--jobs")),
    ):
        code, out, err = run_cli(capsys, *argv, text)
        assert code == 2 and not out, argv
        assert err == f"error: argument {flag}: invalid decimal value: {text!r}\n", err
    # a negative value still reaches the range check that names it
    code, out, err = run_cli(capsys, "compute", "--genus", "-1", "--partition", "2")
    assert code == 2 and not out and "genus must be >= 0" in err
    # usage errors keep argparse's usage output
    for argv in (("compute", "--partition", "2"), ("compute", "--genus", "1", "--partition", "2", "--bogus")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and not out and err.startswith("usage: hurwitz"), argv


def test_rational_form_text_and_caps(capsys):
    code, out, _ = run_cli(capsys, "rational-form", "--genus", "1", "--format", "text")
    assert code == 0 and "log 1/(1-eta)" in out

    code, _, err = run_cli(capsys, "rational-form", "--genus", "99")
    assert code == 2 and "cap" in err


def test_verify_scaling_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "scaling")
    assert code == 0
    assert out.startswith("PASS scaling-law")


def test_verify_json_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "scaling", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["check"] == "scaling-law"
    assert payload[0]["passed"] is True


def test_verify_parallel_jobs(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "oracle-vs-joincut", "--jobs", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    # canonical report order regardless of completion order
    assert [ln.split()[1].rstrip(":") for ln in lines] == sorted(
        ln.split()[1].rstrip(":") for ln in lines
    )


def test_verify_rejects_jobs_below_one(capsys):
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, "verify", "--suite", "scaling", "--jobs", jobs)
        assert code == 2 and out == ""
        assert "--jobs must be >= 1" in err


def test_verify_jobs_clamped_to_suite_size(monkeypatch):
    # a fake pool records the worker count and runs in-process, so no
    # process is ever started for a large --jobs
    import concurrent.futures

    from hurwitz import verify

    seen = []

    class FakePool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, names):
            return map(fn, names)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(
        verify, "run_check", lambda name: verify.CheckResult(name, True, "", 0.0)
    )
    for jobs, suite in ((5000, "all"), (5000, "oracle-vs-joincut"), (2, "all")):
        results = verify.run_suite(suite, jobs=jobs)
        assert [r.name for r in results] == sorted(verify.SUITES[suite])
    assert seen == [len(verify.SUITES["all"]), 3, 2]
    verify.run_suite("all", jobs=1)
    verify.run_suite("scaling", jobs=5000)
    assert len(seen) == 3  # one worker, or one check, runs without a pool


def test_extraction_cap(capsys):
    from hurwitz.closedforms import mn_single_cycle

    for g in (2, 3):
        for d in range(13, 17):
            code, out, _ = run_cli(
                capsys, "compute", "--genus", str(g), "--partition", str(d),
                "--method", "lagrange",
            )
            assert code == 0
            assert json.loads(out)["value"] == fmt_fraction(mn_single_cycle(g, d))
    for method in ("lagrange", "pipeline"):
        code, out, err = run_cli(
            capsys, "compute", "--genus", "2", "--partition", "17", "--method", method
        )
        assert code == 2 and out == ""
        assert "caps |alpha| at 16, got 17" in err


def test_internal_error_exits_3_without_traceback(capsys, monkeypatch):
    from hurwitz import cli

    def broken(form, alpha):
        raise AssertionError("projection fit failed at i=1, k=2")

    monkeypatch.setattr(cli, "value_from_form", broken)
    code, out, err = run_cli(
        capsys, "compute", "--genus", "2", "--partition", "2,2", "--method", "lagrange"
    )
    assert code == 3 and out == ""
    assert err == "internal error: projection fit failed at i=1, k=2\n"


def test_genus_cap_exits_2_before_the_recursion(capsys, monkeypatch):
    def recursion(g):
        raise AssertionError(f"the recursion ran for genus {g}")

    monkeypatch.setattr(cli, "rational_form", recursion)
    over = str(GENUS_CAP + 1)
    for argv in (
        ("compute", "--genus", over, "--partition", "2", "--method", "pipeline"),
        ("rational-form", "--genus", over),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and f"cap is {GENUS_CAP}" in err and not out, argv


def test_joincut_r_cap_exits_2_before_the_solver(capsys, monkeypatch):
    def solver(g, alpha, monotone):
        raise AssertionError(f"the solver ran for R={2 * g - 2 + alpha.length + alpha.size}")

    monkeypatch.setattr(cli, "genus_value", solver)
    seen = set()
    for parts in ("2", "1,1"):
        for g in range(JOINCUT_R_CAP // 2 - 2, JOINCUT_R_CAP // 2 + 2):
            r = 2 * g + len(parts.split(","))
            for flags in (("--method", "joincut"), ("--classical", "--method", "joincut"), ("--classical",)):
                argv = ("compute", "--genus", str(g), "--partition", parts, *flags)
                code, out, err = run_cli(capsys, *argv)
                assert not out, argv
                if r > JOINCUT_R_CAP:
                    assert code == 2 and f"at {JOINCUT_R_CAP}, got {r}" in err, argv
                else:
                    assert code == 3 and f"the solver ran for R={r}" in err, argv
                seen.add(r - JOINCUT_R_CAP)
    assert {0, 1} <= seen


def test_closed_form_r_cap_exits_2_before_the_formula(capsys, monkeypatch):
    cap = CLOSED_FORM_R_CAP
    # at the cap a value of about 1,600 digits prints; one over, nothing runs
    code, out, _ = run_cli(capsys, "compute", "--genus", "0", "--partition", str(cap + 1), "--classical")
    assert code == 0 and len(json.loads(out)["value"]) > 1500

    def formula(*args):
        raise AssertionError(f"the formula ran for {args}")

    for name in ("monotone_genus0", "monotone_genus1", "classical_genus0", "classical_genus1", "mn_single_cycle"):
        monkeypatch.setattr(cli, name, formula)
    for r in (cap, cap + 1):
        for g in (0, 1, 7):
            d = r + 1 - 2 * g  # a single part: r = 2g - 1 + d
            flagsets = [("--method", "closed-form")]
            if g <= 1:  # the classical formulas, and auto's closed-form choice
                flagsets += [("--classical", "--method", "closed-form"), ()]
            for flags in flagsets:
                argv = ("compute", "--genus", str(g), "--partition", str(d), *flags)
                code, out, err = run_cli(capsys, *argv)
                assert not out, argv
                if r > cap:
                    assert code == 2 and f"caps r = 2g-2+len+|alpha| at {cap}, got {r}" in err, argv
                else:
                    assert code == 3 and "the formula ran" in err, argv
    code, _, err = run_cli(capsys, "compute", "--genus", "30", "--partition", "3000", "--method", "closed-form")
    assert code == 2 and f"at {cap}, got 3059" in err


def test_oracle_work_cap_exits_2_before_the_oracle(capsys, monkeypatch):
    from math import isqrt

    from hurwitz import oracle

    def totals(n, rmax):
        raise AssertionError(f"the oracle ran for r={rmax}")

    monkeypatch.setattr(oracle, "_monotone_totals", totals)
    monkeypatch.setattr(oracle, "_classical_totals", totals)
    oracle.transitive_counts.cache_clear()
    cap = oracle.ORACLE_MAX_WORK
    seen = set()
    for parts in ("9,9", "4,4", "3,3", "2,1", "1"):
        d, ell = sum(map(int, parts.split(","))), len(parts.split(","))
        last = (isqrt(cap >> d) - d - ell + 2) // 2  # the last genus inside the cap
        for g in range(last - 1, last + 3):
            r = 2 * g - 2 + ell + d
            for flags in ((), ("--classical",)):
                argv = ("compute", "--genus", str(g), "--partition", parts, "--method", "oracle")
                code, out, err = run_cli(capsys, *argv, *flags)
                assert not out, argv
                if g > last:
                    assert code == 2 and f"2^d*max(d,r)^2 at {cap}, got d={d}, r={r}" in err, argv
                else:
                    assert code == 3 and f"the oracle ran for r={r}" in err, argv
                seen.add(code)
    assert seen == {2, 3}
    # no genus fits at |alpha| = 19: r >= 18 there, and 2^19 * 19^2 > cap
    argv = ("compute", "--genus", "0", "--partition", "10,9", "--method", "oracle")
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and "got d=19, r=19" in err


# -- the auto rule ------------------------------------------------------------
#
# (genus, alpha, classical, route auto must pick); the r rows sit on either
# side of JOINCUT_R_CAP: (1,1) at g = cap/2 - 1 has r = cap, (2) at g = cap/2
# has r = cap + 1.
_AT_CAP, _OVER_CAP = JOINCUT_R_CAP // 2 - 1, JOINCUT_R_CAP // 2
AUTO_RULE = [
    *[(g, (2, 1), c, "closed-form") for g in (0, 1) for c in (False, True)],
    *[(g, (2, 1), c, "lagrange") for g in (2, 3) for c in (False, True)],
    *[(g, (2, 1), c, "joincut") for g in (4, 5) for c in (False, True)],
    (2, (3, 3, 2, 1), False, "lagrange"),
    (3, (1,) * 10, True, "lagrange"),
    (4, (3, 3, 3), False, "joincut"),
    (5, (1,) * 9, True, "joincut"),
    (4, (4, 3, 3), False, "pipeline"),
    (4, (4, 3, 3), True, "joincut"),  # exits 2 naming the |alpha| bound
    (11, (2,), False, "joincut"),  # past GENUS_CAP, so only join-cut answers it
    (_AT_CAP, (1, 1), False, "joincut"),
    (_AT_CAP, (1, 1), True, "joincut"),
    (_OVER_CAP, (2,), False, "pipeline"),  # exits 2 naming the genus cap
    (_OVER_CAP, (2,), True, "joincut"),  # exits 2 naming the r bound
]


@pytest.mark.parametrize("genus, parts, classical, route", AUTO_RULE)
def test_auto_rule(genus, parts, classical, route):
    alpha = Partition(parts)
    r = 2 * genus - 2 + alpha.length + alpha.size
    assert cli._auto_method(genus, alpha, r, classical) == route


def test_auto_answers_by_its_route(capsys):
    refusals = {
        (4, (4, 3, 3), True): "join-cut path caps |alpha| at 9, got 10",
        (_OVER_CAP, (2,), False): f"pipeline genus cap is {GENUS_CAP}",
        (_OVER_CAP, (2,), True): f"caps r = 2g-2+len+|alpha| at {JOINCUT_R_CAP}, got {JOINCUT_R_CAP + 1}",
    }
    for genus, parts, classical, route in AUTO_RULE:
        if (genus, classical) == (_AT_CAP, True):
            continue  # a cold classical table at r = cap takes seconds
        argv = ["compute", "--genus", str(genus), "--partition", ",".join(map(str, parts))]
        argv += ["--classical"] * classical
        code, out, err = run_cli(capsys, *argv)
        refusal = refusals.get((genus, parts, classical))
        if refusal:
            assert code == 2 and not out and refusal in err, argv
            continue
        assert code == 0, (argv, err)
        record = json.loads(out)
        assert record["method"] == route, argv
        code, out, _ = run_cli(capsys, *argv, "--method", route)
        assert code == 0 and json.loads(out) == record, argv


def test_pipeline_matches_joincut_on_rerouted_strata():
    # auto answers monotone genus >= 4, |alpha| <= 9 by join-cut; the pipeline
    # stays an independent check there: one shape per length band (lengths
    # spread evenly from 1 to d) at |alpha| = 7, 8, 9
    from hurwitz.joincut import solve_monotone
    from hurwitz.partitions import partitions

    for g in (4, 5):
        for d in (7, 8, 9):
            for band in range(4):
                length = 1 + round(band * (d - 1) / 3)
                alpha = next(p for p in partitions(d) if len(p) == length)
                r = 2 * g - 2 + length + d
                method, value = cli.compute_value(g, alpha, False, "pipeline")
                assert method == "pipeline"
                assert value == solve_monotone(d, r)[alpha, r], (g, alpha)


def test_tables_file_without_the_table_exits_2_naming_it(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text("{}")
    out = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", "compute", "--genus", "2", "--partition", "2",
         "--method", "lagrange"],
        env={**os.environ, "HURWITZ_TABLES": str(path)},
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == f"error: HURWITZ_TABLES={path}: no checked-in monotone table for genus 2\n"
