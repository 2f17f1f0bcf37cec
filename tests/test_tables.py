import json
import os
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import pytest

from hurwitz import tables
from hurwitz.partitions import Partition
from hurwitz.tables import paper_form


def test_monotone_genus2_values():
    form = paper_form(2)
    assert form.coefficient((2, 1)) == Fraction(29, 720)
    assert form.coefficient(()) == Fraction(3, 720)
    assert form.constant == Fraction(-3, 720)
    assert form.denominator_power((2, 1)) == 4


def test_classical_forms_have_no_constant():
    form = paper_form(2, classical=True)
    assert form.constant == 0
    assert form.coefficient(()) == 0
    assert form.coefficient((1,)) == Fraction(7, 5760)


def test_missing_table():
    with pytest.raises(KeyError, match="the shipped tables: no checked-in monotone table"):
        paper_form(4)


def test_shipped_tables_are_checked_like_an_override(monkeypatch, tmp_path):
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "paper_tables.json").write_text("[]")
    monkeypatch.delenv(tables.ENV_VAR, raising=False)
    monkeypatch.setattr(tables, "resources", SimpleNamespace(files=lambda package: tmp_path))
    tables._load.cache_clear()
    try:
        with pytest.raises(ValueError, match="^the shipped tables: the tables must be a JSON object"):
            tables._load()
    finally:
        monkeypatch.undo()
        tables._load.cache_clear()
    assert tables._load()[0] == "the shipped tables"


def test_env_override(tmp_path):
    custom = {
        "monotone": {
            # JSON ints read like integer strings, which may carry a '-'
            "2": {"normalization": 2, "coefficients": {"": "1", "1": "3", "2": 5, "1,1": " -7"}}
        },
        "classical": {},
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(custom))
    # the loader caches, so probe through a fresh interpreter
    code = (
        "from hurwitz.tables import paper_form; "
        "f = paper_form(2); "
        "print(f.coefficient((1,)), f.constant, f.coefficient((2,)), f.coefficient((1, 1)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "HURWITZ_TABLES": str(path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["3/2", "-1/2", "5/2", "-7/2"]


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read the tables"),
        ("not json", "cannot read the tables"),
        (
            json.dumps({"monotone": {"2": {"normalization": "0", "coefficients": {"": "1"}}}}),
            "normalization must be a nonzero integer",
        ),
        (json.dumps({"monotone": []}), "the monotone tables must be a JSON object"),
        (json.dumps({"monotone": {"2": []}}), "genus-2 table must be a JSON object"),
        (
            json.dumps({"monotone": {"2": {"normalization": "2"}}}),
            "with a 'coefficients' object",
        ),
        (
            json.dumps({"monotone": {"2": {"normalization": "2", "coefficients": {"1": "x"}}}}),
            "entry '1': 'x' must be an integer coefficient",
        ),
        (
            json.dumps({"monotone": {"2": {"normalization": 2.5, "coefficients": {"": "1"}}}}),
            "normalization must be a nonzero integer, got 2.5",
        ),
        (
            json.dumps({"monotone": {"2": {"normalization": "2", "coefficients": {"1": 3.7}}}}),
            "entry '1': 3.7 must be an integer coefficient",
        ),
        (
            json.dumps({"monotone": {"2": {"normalization": "2", "coefficients": {"1": True}}}}),
            "entry '1': True must be an integer coefficient",
        ),
        (
            json.dumps(
                {"monotone": {"2": {"normalization": "2", "coefficients": {"2,1": "1", "1,2": "9"}}}}
            ),
            "entries '2,1' and '1,2' name one partition",
        ),
        (
            # a literal: json.dumps cannot write one key twice
            '{"monotone": {"2": {"normalization": "2", '
            '"coefficients": {"2,1": "1", "2,1": "9"}}}}',
            "the key '2,1' appears twice in one object",
        ),
        (
            # int() would read these as 1000 and 5
            json.dumps({"monotone": {"2": {"normalization": "2", "coefficients": {"1": "1_000"}}}}),
            "entry '1': '1_000' must be an integer coefficient",
        ),
        (
            json.dumps({"monotone": {"2": {"normalization": "+5", "coefficients": {"": "1"}}}}),
            "normalization must be a nonzero integer, got '+5'",
        ),
        (
            json.dumps({"monotone": {"2": {"normalization": "2", "coefficients": {"1_0": "1"}}}}),
            "entry '1_0': '1' must be an integer coefficient",
        ),
        (
            json.dumps({"monotone": {"2": {"normalization": "2", "coefficients": {"\u0663": "5"}}}}),
            "must be an integer coefficient",
        ),
    ],
    ids=[
        "missing",
        "not-json",
        "zero-normalization",
        "family-not-object",
        "table-not-object",
        "no-coefficients",
        "non-integer-coefficient",
        "float-normalization",
        "float-coefficient",
        "bool-coefficient",
        "repeated-partition",
        "repeated-key",
        "underscore-coefficient",
        "plus-normalization",
        "underscore-key",
        "non-ascii-key",
    ],
)
def test_bad_tables_file_exits_2_naming_it(tmp_path, content, message):
    path = tmp_path / "tables.json"
    if content is not None:
        path.write_text(content)
    out = subprocess.run(
        [sys.executable, "-m", "hurwitz.cli", "compute", "--genus", "2", "--partition", "2,1"],
        env={**os.environ, "HURWITZ_TABLES": str(path)},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.splitlines() == [out.stderr.strip()]
    assert out.stderr.startswith(f"error: HURWITZ_TABLES={path}: ")
    assert message in out.stderr and "Traceback" not in out.stderr


def test_alpha_keys_are_partitions():
    form = paper_form(3)
    assert all(isinstance(a, Partition) for a in form.terms)
    assert Partition((6,)) in form.terms
