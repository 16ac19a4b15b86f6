import pytest

from btasel import plan_partitions
from btasel.partition import PartitionPlan


def test_two_parts_even_split():
    plan = plan_partitions(8, 2)
    assert plan.ranges == ((0, 4), (4, 8))
    assert plan.kinds == ("first", "last")


def test_middle_strictly_smaller_si():
    plan = plan_partitions(12, 3)
    first, middle, last = (hi - lo for lo, hi in plan.ranges)
    assert middle < first and middle < last


def test_middle_strictly_smaller_siq():
    plan = plan_partitions(40, 4)
    sizes = [hi - lo for lo, hi in plan.ranges]
    assert sizes[1] == sizes[2] < sizes[0]


def test_plan_invariants_large():
    plan = plan_partitions(100, 4)
    sizes = [hi - lo for lo, hi in plan.ranges]
    assert sum(sizes) == 100
    assert all(s >= 2 for s in sizes)
    assert plan.kinds == ("first", "middle", "middle", "last")


@pytest.mark.parametrize("n,parts", [(16, 8), (9, 4), (6, 3), (100, 8)])
def test_exhaustive_contiguous(n, parts):
    plan = plan_partitions(n, parts)
    lo = 0
    for start, stop in plan.ranges:
        assert start == lo and stop - start >= 2
        lo = stop
    assert lo == n


def test_determinism():
    assert plan_partitions(37, 5) == plan_partitions(37, 5)


def test_too_small_n_rejected():
    with pytest.raises(ValueError):
        plan_partitions(7, 4)
    with pytest.raises(ValueError):
        plan_partitions(8, 1)


@pytest.mark.parametrize(
    "ranges,kinds",
    [
        (((0, 4),), ("first", "last")),  # one range short
        (((0, 4), (4, 8)), ("first",)),  # one kind short
        (((0, 4), (4, 8)), ("first", "middle", "last")),  # one kind too many
    ],
)
def test_plan_of_another_part_count_rejected(ranges, kinds):
    # A ValueError, not an assert that ``python -O`` would strip.
    with pytest.raises(ValueError, match="for 2 parts"):
        PartitionPlan(n=8, num_parts=2, ranges=ranges, kinds=kinds)
