import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

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
    with pytest.raises(KeyError):
        paper_form(4)


def test_env_override(tmp_path):
    custom = {
        "monotone": {
            "2": {"normalization": "2", "coefficients": {"": "1", "1": "3"}}
        },
        "classical": {},
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(custom))
    # the loader caches, so probe through a fresh interpreter
    code = (
        "from hurwitz.tables import paper_form; "
        "f = paper_form(2); "
        "print(f.coefficient((1,)), f.constant)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "HURWITZ_TABLES": str(path)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.split() == ["3/2", "-1/2"]


def test_alpha_keys_are_partitions():
    form = paper_form(3)
    assert all(isinstance(a, Partition) for a in form.terms)
    assert Partition((6,)) in form.terms
