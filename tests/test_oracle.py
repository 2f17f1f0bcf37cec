import hashlib
import random
from itertools import combinations, product
from math import comb

import pytest

from hurwitz import oracle, verify
from hurwitz.oracle import (
    ResourceLimitError,
    count_classical_transitive,
    count_monotone_transitive,
    literal_counts,
    transitive_counts,
    _classical_totals,
    _monotone_totals,
)
from hurwitz.partitions import Partition, partitions, subpartitions


def test_monotone_examples():
    assert count_monotone_transitive((1,), 0) == 1
    assert count_monotone_transitive((2,), 1) == 1
    assert count_monotone_transitive((3,), 2) == 4
    assert count_monotone_transitive((2,), 3) == 1


def test_classical_examples():
    assert count_classical_transitive((2,), 1) == 1
    assert count_classical_transitive((3,), 2) == 6
    assert count_classical_transitive((1, 1), 2) == 1


def test_literal_counter_agrees_with_dp_small():
    # the full d <= 6, r <= 10 comparison is acceptance criterion 1
    for monotone, count in ((True, count_monotone_transitive), (False, count_classical_transitive)):
        for d in range(1, 5):
            literal = literal_counts(d, 6, monotone)
            for alpha in partitions(d):
                for r in range(7):
                    assert count(alpha, r) == literal.get((alpha, r), 0), (monotone, alpha, r)


def test_literal_counter_refuses_too_many_points():
    with pytest.raises(ResourceLimitError):
        literal_counts(oracle.LITERAL_MAX_POINTS + 1, 2, True)


def test_monotone_at_most_classical_and_parity():
    for d in range(1, 6):
        for alpha in partitions(d):
            for r in range(9):
                mono = count_monotone_transitive(alpha, r)
                full = count_classical_transitive(alpha, r)
                assert mono <= full
                if (r - (d - len(alpha))) % 2:
                    assert mono == 0 and full == 0


def _connected(n, seq):
    """Whether the transpositions of seq, as edges, connect all n points."""
    component, grew = {0}, True
    while grew:
        grew = False
        for a, b in seq:
            if (a in component) != (b in component):
                component |= {a, b}
                grew = True
    return len(component) == n


def _brute_totals(n, rmax, monotone, transitive=False):
    """(cycle type of the product, r) -> count over every transposition
    sequence of length <= rmax on n points, monotone ones only if asked, and
    only those whose transpositions connect all n points if asked."""
    taus = list(combinations(range(n), 2))
    out = {}
    for r in range(rmax + 1):
        for seq in product(taus, repeat=r):
            if monotone and any(s[1] > t[1] for s, t in zip(seq, seq[1:])):
                continue
            if transitive and not _connected(n, seq):
                continue
            img = list(range(n))
            for a, b in seq:
                img[a], img[b] = img[b], img[a]
            lengths, seen = [], set()
            for start in range(n):
                x, length = start, 0
                while x not in seen:
                    seen.add(x)
                    x, length = img[x], length + 1
                if length:
                    lengths.append(length)
            key = (Partition(lengths), r)
            out[key] = out.get(key, 0) + 1
    return out


def test_block_dp_totals_match_brute_force():
    for n in range(1, 5):
        assert _monotone_totals(n, 5) == _brute_totals(n, 5, True), n
        assert _classical_totals(n, 5) == _brute_totals(n, 5, False), n


def test_literal_counter_matches_brute_force():
    for n in range(1, 5):
        for monotone in (True, False):
            want = _brute_totals(n, 5, monotone, transitive=True)
            assert literal_counts(n, 5, monotone) == want, (n, monotone)


def _transposition(n, a, b):
    img = list(range(n))
    img[a], img[b] = img[b], img[a]
    return tuple(img)


def _dict_layered_totals(n, rmax, blocks):
    """The block DP on dicts of permutation tuples, as it was before ranks:
    layers[r] maps each product of r transpositions to its count."""
    blocks = [[_transposition(n, a, b) for a, b in block] for block in blocks]
    layers = [{tuple(range(n)): 1}] + [{} for _ in range(rmax)]
    for block in blocks:
        for r in range(1, rmax + 1):
            layer = layers[r]
            for p, cnt in layers[r - 1].items():
                for t in block:
                    q = oracle.compose(p, t)
                    layer[q] = layer.get(q, 0) + cnt
    out = {}
    for r, layer in enumerate(layers):
        for p, cnt in layer.items():
            key = (oracle.cycle_type(p), r)
            out[key] = out.get(key, 0) + cnt
    return out


def _blocks(n, monotone):
    """The blocks of the dict DP: one per b in order, or one of every transposition."""
    blocks = [[(a, b) for a in range(b)] for b in range(1, n)]
    return blocks if monotone else [[t for block in blocks for t in block]]


FAMILIES = ((True, _monotone_totals), (False, _classical_totals))


@pytest.mark.parametrize("n, rmax", [(n, 12) for n in range(1, 7)] + [(7, 6)])
def test_ranked_dp_matches_dict_dp(n, rmax):
    for monotone, totals in FAMILIES:
        want = _dict_layered_totals(n, rmax, _blocks(n, monotone))
        # every rmax gives the prefix r <= rmax of the same table
        for r in range(rmax + 1):
            assert totals(n, r) == {k: v for k, v in want.items() if k[1] <= r}, (n, r)


def test_tables_do_not_depend_on_the_order_of_requests():
    # the caches fill in whatever order requests come, and every request
    # reads the same table as a cold ascending sweep
    rng = random.Random(7)
    grid = [(n, r) for n in range(1, 7) for r in range(13)]
    requests = [(monotone, n, r) for monotone in (True, False) for n, r in grid]
    rng.shuffle(requests)
    verify._clear_caches()
    shuffled = {(m, d, r): transitive_counts(d, r, m) for m, d, r in requests}
    verify._clear_caches()
    rng.shuffle(requests)
    totals_of = dict(FAMILIES)
    shuffled_totals = {(m, n, r): totals_of[m](n, r) for m, n, r in requests}
    verify._clear_caches()
    for monotone in (True, False):
        for n, r in grid:
            assert transitive_counts(n, r, monotone) == shuffled[monotone, n, r], (monotone, n, r)
    for monotone, totals in FAMILIES:
        for n in range(1, 7):
            want = _dict_layered_totals(n, 12, _blocks(n, monotone))
            for r in range(13):
                table = totals(n, r)
                assert table == shuffled_totals[monotone, n, r], (monotone, n, r)
                assert table == {k: v for k, v in want.items() if k[1] <= r}, (monotone, n, r)


def test_clear_caches_empties_the_stores():
    caches = (oracle._character, _monotone_totals, _classical_totals, oracle._reduction_plan,
              transitive_counts)
    transitive_counts(4, 3, True)
    transitive_counts(4, 3, False)
    assert all(cache.cache_info().currsize for cache in caches)
    verify._clear_caches()
    assert not any(cache.cache_info().currsize for cache in caches)


def test_a_non_integral_total_raises(monkeypatch):
    eigenvalues = oracle._eigenvalues

    def planted(lam, rmax, monotone):
        out = eigenvalues(lam, rmax, monotone)
        if lam == Partition((4,)):
            out[3] += 1  # moves each total at r = 3 by |C_mu| / 4!, 6/24 at mu = (4)
        return out

    for totals in (_monotone_totals, _classical_totals):
        monkeypatch.setattr(oracle, "_eigenvalues", planted)
        verify._clear_caches()
        with pytest.raises(AssertionError, match=r"total at \(4,\), r=3 is -?\d+ \+ 6/24"):
            totals(4, 5)
        monkeypatch.setattr(oracle, "_eigenvalues", eigenvalues)
        verify._clear_caches()
        assert totals(4, 5) == _brute_totals(4, 5, totals is _monotone_totals)


def test_transitive_tables_match_frozen_digests():
    # SHA-256 of the sorted (alpha, r, count) rows of transitive_counts(6, 14),
    # as the separate monotone and classical DPs before the block DP gave them
    expected = {
        True: "fcb4baffecf878581262dc991d1201ac7d10d4abba7587c5fc2d4649ad35fc71",
        False: "02c936ff3521f800be58a874cc35d271c0cf8060f62fcf3e7a598374b94966f0",
    }
    for monotone, digest in expected.items():
        rows = sorted((tuple(a), r, v) for (a, r), v in transitive_counts(6, 14, monotone).items())
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest, monotone


def test_orbit_decomposition_reconstructs_totals():
    # non-transitive totals must equal the orbit/set-partition sum over
    # transitive blocks (the identity the inversion step solves); classical
    # blocks interleave in C(r, rsub) ways, monotone ones in one
    for monotone, dmax, rmax in ((True, 5, 6), (False, 5, 6), (False, 3, 60)):
        totals_of = _monotone_totals if monotone else _classical_totals
        for d in range(1, dmax + 1):
            totals = totals_of(d, rmax)
            trans = transitive_counts(d, rmax, monotone)
            for alpha in partitions(d):
                for r in range(rmax + 1):
                    rebuilt = trans.get((alpha, r), 0)
                    for nsub in range(1, d):
                        rest = totals_of(d - nsub, rmax)
                        sub = transitive_counts(nsub, rmax, monotone)
                        for beta, delta in subpartitions(alpha, nsub):
                            for rsub in range(r + 1):
                                rebuilt += (
                                    comb(d - 1, nsub - 1)
                                    * (1 if monotone else comb(r, rsub))
                                    * sub.get((beta, rsub), 0)
                                    * rest.get((delta, r - rsub), 0)
                                )
                    assert rebuilt == totals.get((alpha, r), 0), (monotone, alpha, r)


def test_transitive_counts_invariants():
    for monotone in (True, False):
        table = transitive_counts(4, 6, monotone)
        assert table[Partition((3,)), 2] == (4 if monotone else 6)
        assert all(v >= 0 for v in table.values())
        # nonzero only at r = 2g - 2 + |alpha| + len(alpha) with g >= 0
        for (alpha, r), v in table.items():
            excess = r + 2 - alpha.size - len(alpha)
            assert not v or (excess >= 0 and excess % 2 == 0), (alpha, r)


def test_transitive_counts_refuses_a_count_off_riemann_hurwitz(monkeypatch):
    def totals(n, rmax):
        out = dict(_monotone_totals(n, rmax))
        if n == 1:
            out[Partition((1,)), 1] = 1  # no transposition acts on one point
        return out

    monkeypatch.setattr(oracle, "_monotone_totals", totals)
    transitive_counts.cache_clear()
    try:
        with pytest.raises(AssertionError, match="off Riemann-Hurwitz"):
            transitive_counts(1, 1, True)
    finally:
        transitive_counts.cache_clear()


def test_resource_guard():
    # no r fits the cap at d = 19, and (4, 3401) lies just past its edge
    with pytest.raises(ResourceLimitError):
        count_monotone_transitive(tuple([1] * 19), 2)
    with pytest.raises(ResourceLimitError):
        count_classical_transitive((4,), 3401)
