"""Checked-in published coefficient tables for genus 2 and 3 forms.

The JSON file stores the integer coefficient tables together with their
stated normalizations; c_{g,alpha} = coefficient / normalization exactly.
Set the environment variable HURWITZ_TABLES to point at an alternative
file with the same schema.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .forms import RationalForm
from .partitions import Partition

ENV_VAR = "HURWITZ_TABLES"


def _parse_alpha(text: str) -> Partition:
    if not text:
        return Partition()
    return Partition(int(p) for p in text.split(","))


@lru_cache(maxsize=None)
def _load() -> tuple[str, dict]:
    """Where the tables come from, for error messages, and the tables."""
    path = os.environ.get(ENV_VAR)
    if not path:
        ref = resources.files("hurwitz").joinpath("data/paper_tables.json")
        return "the shipped tables", json.loads(ref.read_text(encoding="utf-8"))
    source = f"{ENV_VAR}={path}"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"{source}: cannot read the tables: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{source}: the tables must be a JSON object")
    return source, data


def paper_form(genus: int, classical: bool = False) -> RationalForm:
    """The published genus-2/3 rational form as exact coefficients."""
    source, data = _load()
    family = "classical" if classical else "monotone"
    entry = data.get(family, {}).get(str(genus))
    if entry is None:
        raise KeyError(f"no checked-in {family} table for genus {genus}")
    try:
        norm = int(entry["normalization"])
    except (TypeError, ValueError):
        norm = 0
    if not norm:
        raise ValueError(
            f"{source}: the {family} genus-{genus} normalization must be a nonzero "
            f"integer, got {entry['normalization']!r}"
        )
    terms = {
        _parse_alpha(a): Fraction(int(c), norm)
        for a, c in entry["coefficients"].items()
    }
    return RationalForm(genus=genus, terms=terms, classical=classical)
