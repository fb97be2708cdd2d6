"""The bad-partition search is the one memo of its `compatible` predicate:
within one search it asks about each distinct piece at most once."""

from collections import Counter

import pytest

from forcingbench.forcing.base import PartitionCapExceeded, _find_bad_partition


def _counted(compatible):
    asked = Counter()

    def wrapped(piece):
        asked[frozenset(piece)] += 1
        return compatible(piece)

    return wrapped, asked


def test_each_piece_asked_at_most_once_full_search():
    # seven members cannot fall into three pieces of at most two, so the
    # search runs to the end and meets the same small pieces again and again
    compat, asked = _counted(lambda piece: len(piece) >= 3)
    assert _find_bad_partition(tuple(range(7)), 3, compat, cap=3 ** 9) is None
    assert asked and max(asked.values()) == 1
    assert frozenset() in asked


def test_each_piece_asked_at_most_once_when_found():
    # pieces of at most three members are not extendable, so 3 + 2 + 2 is
    # a bad partition; the search prunes pieces of four on its way there
    compat, asked = _counted(lambda piece: len(piece) >= 4)
    got = _find_bad_partition(tuple(range(7)), 3, compat, cap=3 ** 9)
    assert max(asked.values()) == 1
    assert sorted(x for p in got for x in p) == list(range(7))
    assert all(len(p) <= 3 for p in got)


def test_singleton_extendable_member_answers_before_search():
    # the search stops at the first member extendable alone, and asks about
    # no piece after it; the cap still counts the one visit it replaces
    compat, asked = _counted(lambda piece: 4 in piece)
    assert _find_bad_partition(tuple(range(7)), 3, compat, cap=1) is None
    assert set(asked) == {frozenset()} | {frozenset((z,)) for z in range(5)}
    with pytest.raises(PartitionCapExceeded):
        _find_bad_partition(tuple(range(7)), 3, compat, cap=0)
