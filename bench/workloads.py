"""The benchmark's four seeded workloads: their inputs, the op each input
runs through the public API of ``hurwitz``, and the exact check of each
answer against a route other than the one being timed.

Inputs are plain tuples made from the seed alone; the library only ever
sees the generated queries.  Each workload fixes how many queries fall in
each stratum that drives cost (genus, family, |alpha| and the length of
alpha, which fixes r), and the seed picks the partition inside each
stratum.  That keeps a run's cost nearly the same from seed to seed while
every seed still asks different questions.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("genus-tower", "table-extract", "auto-mix", "crosscheck")

REFS_PATH = Path(__file__).with_name("refs.json")
SRC = Path(__file__).resolve().parent.parent / "src"

# Term counts of E_g = (1-eta)^(2g-1) (1-4y)^(1/2) D H_g, g = 2..6.
E_TERMS = {2: 37, 3: 163, 4: 559, 5: 1632, 6: 4280}

# auto-mix: per genus 0..5, twelve monotone and eight classical queries
# (40% classical), sized so every |alpha| from 1 to 9 appears.
AUTO_MONOTONE_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 5, 6, 7)
AUTO_CLASSICAL_SIZES = (2, 3, 4, 5, 6, 7, 8, 9)
AUTO_GENERA = range(6)

# table-extract: one query per genus 2/3, family and |alpha| = 8..12.
TABLE_GENERA = (2, 3)
TABLE_SIZES = range(8, 13)

# crosscheck: oracle against join-cut on every (d, g, family) below, plus
# the literal operators against the ring operators on random elements.
CROSS_SIZES = (3, 4, 5, 6)
CROSS_GENERA = (0, 1, 2)
CROSS_OPERATOR_ITEMS = 8
# q-weight and y1-degree compared, as in the package's operator-series check
OPERATOR_WQ, OPERATOR_W1 = 4, 6


@dataclass(frozen=True)
class Op:
    """One timed query.  ``kind`` selects how it runs and is checked."""

    kind: str  # "form", "value", "oracle-vs-joincut" or "operator"
    args: tuple

    def label(self) -> str:
        return f"{self.kind}{self.args}"


def partitions_of(n: int, largest: int | None = None):
    """Partitions of n as weakly decreasing tuples, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def _length(d: int, band: int, bands: int) -> int:
    """The band-th of ``bands`` lengths spread evenly from 1 to d."""
    return 1 + round(band * (d - 1) / (bands - 1))


def _shape(rng: random.Random, d: int, band: int, bands: int) -> tuple[int, ...]:
    """A random partition of d whose length is fixed by the band, so the
    bands run from one large part to all ones.  Route costs depend on d
    and the length (through r), not on which partition the seed picks."""
    length = _length(d, band, bands)
    return rng.choice([p for p in partitions_of(d) if len(p) == length])


def genus_tower(rng: random.Random, tiny: bool) -> list[Op]:
    # The tower is the same for every seed: each genus builds on the lifts
    # cached by the one before, so the order is part of the workload.
    return [Op("form", (g,)) for g in range(2, 4 if tiny else 7)]


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over the groups.  The order is fixed rather than seeded:
    it decides which op pays for a cache fill (and where the collector
    runs), so a seeded order would move cost between ops from seed to seed."""
    out = []
    for k in range(max(map(len, groups))):
        out.extend(group[k] for group in groups if k < len(group))
    return out


def table_extract(rng: random.Random, tiny: bool) -> list[Op]:
    sizes = TABLE_SIZES[:1] if tiny else TABLE_SIZES
    groups = []
    for g in TABLE_GENERA[:1] if tiny else TABLE_GENERA:
        for classical in (False, True):
            j = len(groups)
            groups.append([
                Op("value", (g, _shape(rng, d, (i + j) % len(TABLE_SIZES), len(TABLE_SIZES)), classical, "lagrange"))
                for i, d in enumerate(sizes)
            ])
    return _interleave(groups)


def auto_mix(rng: random.Random, tiny: bool) -> list[Op]:
    groups = []
    for g in AUTO_GENERA:
        for classical, sizes in ((False, AUTO_MONOTONE_SIZES), (True, AUTO_CLASSICAL_SIZES)):
            if tiny:
                sizes = sizes[:2] if g < 4 else ()
            groups.append([
                Op("value", (g, _shape(rng, d, i % 4, 4), classical, "auto")) for i, d in enumerate(sizes)
            ])
    return _interleave(groups)


# The monomials of the crosscheck ring elements are fixed, since the cost
# of the literal lift depends on them; the seed draws the coefficients.
def _operator_shape(i: int) -> list:
    r = random.Random(f"operator-shape/{i}")
    hs = [(), (1,), (2,), (1, 1), (3,)]
    return sorted({(r.randint(0, 6), r.randint(0, 1), r.choice(hs)) for _ in range(1 + i % 3)})


_OPERATOR_SHAPES = [_operator_shape(i) for i in range(CROSS_OPERATOR_ITEMS)]


def crosscheck(rng: random.Random, tiny: bool) -> list[Op]:
    sizes = CROSS_SIZES[:1] if tiny else CROSS_SIZES
    groups = [
        [Op("oracle-vs-joincut", (g, _shape(rng, d, (i + g) % 3, 3), classical)) for i, d in enumerate(sizes)]
        for g in CROSS_GENERA
        for classical in (False, True)
    ]
    groups.append([
        Op("operator", tuple((key, (rng.randint(-5, 5) or 1, rng.randint(1, 4))) for key in shape))
        for shape in _OPERATOR_SHAPES[: 1 if tiny else CROSS_OPERATOR_ITEMS]
    ])
    return _interleave(groups)


GENERATORS = {
    "genus-tower": genus_tower,
    "table-extract": table_extract,
    "auto-mix": auto_mix,
    "crosscheck": crosscheck,
}


def make_ops(workload: str, seed: int, tiny: bool = False) -> list[Op]:
    """The workload's queries for this seed; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}/{seed}"), tiny)


def require_src() -> None:
    """Put the checkout's ``src`` first on the import path, or exit non-zero
    when there is no package to measure (never an installed copy)."""
    if not (SRC / "hurwitz" / "__init__.py").is_file():
        raise SystemExit(f"error: no hurwitz package under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


# -- references ----------------------------------------------------------


def ref_key(g: int, parts, classical: bool) -> str:
    return f"{g}:{'c' if classical else 'm'}:{'.'.join(map(str, parts))}"


def reference_universe():
    """Every (g, alpha, classical) a value op of any seed can ask."""
    for g in TABLE_GENERA:
        for d in TABLE_SIZES:
            for parts in partitions_of(d):
                for classical in (False, True):
                    yield g, parts, classical
    for g in AUTO_GENERA:
        for d in sorted(set(AUTO_MONOTONE_SIZES) | set(AUTO_CLASSICAL_SIZES)):
            for parts in partitions_of(d):
                for classical in (False, True):
                    yield g, parts, classical


def load_refs() -> dict[str, int]:
    with open(REFS_PATH, encoding="utf-8") as fh:
        return {k: int(v) for k, v in json.load(fh)["values"].items()}


# -- running and checking ops ---------------------------------------------


def run_op(h, op: Op):
    """Run one op through the public API; ``h`` holds the loaded modules,
    looked up at call time so that traced wrappers are seen."""
    if op.kind == "form":
        return h.pipeline.rational_form(op.args[0])
    if op.kind == "value":
        g, parts, classical, method = op.args
        return h.cli.compute_value(g, h.Partition(parts), classical, method)[1]
    if op.kind == "oracle-vs-joincut":
        g, parts, classical = op.args
        alpha = h.Partition(parts)
        r = 2 * g - 2 + alpha.length + alpha.size
        if classical:
            count, solve = h.oracle.count_classical_transitive, h.joincut.solve_classical
        else:
            count, solve = h.oracle.count_monotone_transitive, h.joincut.solve_monotone
        return count(alpha, r), solve(alpha.size, r)[alpha, r]
    if op.kind == "operator":
        return _operator_pair(h, op.args)
    raise ValueError(f"unknown op kind {op.kind!r}")


def _operator_pair(h, terms):
    """Algebraic lift and transfer against the literal series operators,
    as in the operator-series oracle check of the package."""
    wq, w1 = OPERATOR_WQ, OPERATOR_W1
    q = h.qyseries
    elem = h.RingElement({k: Fraction(*c) for k, c in terms})
    honest = h.RingElement({(u2 - u2 % 2, 0, hs): Fraction(*c) for (u2, _v, hs), c in terms})
    return (
        q.expand_ring_element(h.ring.apply_delta1(elem), wq, w1),
        q.lift_literal(q.expand_ring_element(elem, wq + w1, w1)),
        q.expand_ring_element(h.ring.apply_T(honest), wq, w1),
        q.transfer_literal(q.expand_ring_element(honest, wq, w1 + wq, w2=wq)),
    )


def _region(series) -> dict:
    wq, w1 = OPERATOR_WQ, OPERATOR_W1
    return {k: v for k, v in series.coeffs.items() if sum(k[0]) <= wq and k[1] <= w1}


def check_op(h, op: Op, out, refs: dict[str, int]) -> str | None:
    """None if ``out`` is exactly right, else what differs."""
    if op.kind == "form":
        g = op.args[0]
        want = h.closedforms.bernoulli_constant(g)
        got = out.terms.get(h.Partition(), 0)
        if got != want:
            return f"constant {got} != Bernoulli {want}"
        if g in (2, 3) and out != h.tables.paper_form(g):
            return "form differs from the checked-in table"
        n = len(h.pipeline.normalized_delta1(g).terms)
        if n != E_TERMS[g]:
            return f"E_{g} has {n} terms, expected {E_TERMS[g]}"
        return None
    if op.kind == "value":
        g, parts, classical, _method = op.args
        want = refs.get(ref_key(g, parts, classical))
        if want is None:
            return "no stored reference"
        return None if out == want else f"{out} != join-cut {want}"
    if op.kind == "oracle-vs-joincut":
        return None if out[0] == out[1] else f"oracle {out[0]} != join-cut {out[1]}"
    if op.kind == "operator":
        lift_alg, lift_lit, t_alg, t_lit = map(_region, out)
        if lift_alg != lift_lit:
            return "lift differs from the literal operator"
        if t_alg != t_lit:
            return "transfer differs from the literal operator"
        return None
    return f"unknown op kind {op.kind!r}"
