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
from pathlib import Path

from .forms import RationalForm
from .partitions import Partition, decimal_int

ENV_VAR = "HURWITZ_TABLES"


def _integer(value) -> int:
    """A JSON int or decimal integer string as an int; floats and bools are
    refused."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"{value!r} is not an integer")
    return decimal_int(str(value), signed=True)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key that appears twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"the key {key!r} appears twice in one object")
        out[key] = value
    return out


@lru_cache(maxsize=None)
def _load() -> tuple[str, dict]:
    """Where the tables come from, for error messages, and the tables."""
    path = os.environ.get(ENV_VAR)
    if path:
        source, file = f"{ENV_VAR}={path}", Path(path)
    else:
        source = "the shipped tables"
        file = resources.files("hurwitz").joinpath("data/paper_tables.json")
    try:
        data = json.loads(file.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:  # json recurses per nesting level
        raise ValueError(f"{source}: cannot read the tables: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{source}: the tables must be a JSON object")
    return source, data


@lru_cache(maxsize=None)
def paper_form(genus: int, classical: bool = False) -> RationalForm:
    """The published genus-2/3 rational form as exact coefficients, built
    once per (genus, classical) and shared, as ``rational_form`` is."""
    source, data = _load()
    family = "classical" if classical else "monotone"
    tables = data.get(family, {})
    if not isinstance(tables, dict):
        raise ValueError(f"{source}: the {family} tables must be a JSON object")
    entry = tables.get(str(genus))
    if entry is None:
        raise KeyError(f"{source}: no checked-in {family} table for genus {genus}")
    where = f"{source}: the {family} genus-{genus}"
    if not isinstance(entry, dict) or not isinstance(entry.get("coefficients"), dict):
        raise ValueError(f"{where} table must be a JSON object with a 'coefficients' object")
    try:
        norm = _integer(entry.get("normalization"))
    except ValueError:
        norm = 0
    if not norm:
        raise ValueError(
            f"{where} normalization must be a nonzero integer, "
            f"got {entry.get('normalization')!r}"
        )
    terms, keys = {}, {}
    for a, c in entry["coefficients"].items():
        try:
            alpha, coeff = Partition.parse(a), Fraction(_integer(c), norm)
        except ValueError as exc:
            raise ValueError(
                f"{where} entry {a!r}: {c!r} must be an integer coefficient "
                "of a comma-separated partition"
            ) from exc
        if alpha in keys:
            raise ValueError(f"{where} entries {keys[alpha]!r} and {a!r} name one partition")
        terms[alpha], keys[alpha] = coeff, a
    return RationalForm(genus=genus, terms=terms, classical=classical)
