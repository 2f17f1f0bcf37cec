from collections import Counter

import pytest

from hurwitz.partitions import (
    Partition,
    aut_order,
    partitions,
    subpartitions,
)


def test_parts_are_sorted_and_validated():
    assert tuple(Partition([1, 3, 2])) == (3, 2, 1)
    assert Partition() == ()
    assert Partition().size == 0 and Partition().length == 0
    with pytest.raises(ValueError):
        Partition([0, 1])
    with pytest.raises(ValueError):
        Partition([-2])


def test_size_length_consistency():
    a = Partition([3, 2, 2, 1])
    assert a.size == 8
    assert a.length == 4


def test_aut_order_examples():
    assert aut_order((1, 1)) == 2
    assert aut_order((3, 2, 2, 1)) == 2
    assert aut_order((2, 2, 2)) == 6
    assert aut_order(()) == 1


def test_partition_counts():
    # p(0..8) = 1, 1, 2, 3, 5, 7, 11, 15, 22
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert [len(partitions(n)) for n in range(9)] == expected


def test_subpartitions_cover_all_splits():
    a = Partition([2, 1, 1])
    seen = set()
    for size in range(a.size + 1):
        for sub, comp in subpartitions(a, size):
            assert sub.size == size
            assert Counter(sub) + Counter(comp) == Counter(a)
            seen.add((sub, comp))
    # 2 choices for the part 2, 3 for the two 1s
    assert len(seen) == 2 * 3

