"""Load-balanced mapping of diagonal blocks onto workers.

Middle partitions pay a higher per-block price than the first and last
ones (their sweeps carry the top boundary in the arrow, of order
``b + a``), so they receive proportionally fewer blocks.  The cost
ratios in ``_COSTS`` are the per-step block-product counts, forward
plus backward, of the plain vs. permuted variants before the backward
step was regrouped and the middle kind ran the arrowhead sweeps: 9 vs.
20 in selected-inversion mode and 42 vs. 94 in fused mode.  They are
kept until they are calibrated against measured per-rank times.  Plans are
deterministic functions of ``(n, num_parts, mode)``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PartitionPlan", "plan_partitions"]

# (first/last, middle) per-block product counts, forward + backward sweeps.
_COSTS = {"si": (2 + 7, 6 + 14), "siq": (8 + 34, 22 + 72)}


@dataclass(frozen=True)
class PartitionPlan:
    """Contiguous, disjoint block ranges covering ``[0, n)``.

    ``ranges[p]`` is the half-open interval of diagonal-block indices
    owned by rank ``p``; ``kinds[p]`` is ``"first"``, ``"middle"``, or
    ``"last"``.  Every partition holds at least two blocks (one boundary
    plus at least one interior or second boundary).
    """

    n: int
    num_parts: int
    ranges: tuple
    kinds: tuple

    def __post_init__(self):
        if not len(self.ranges) == len(self.kinds) == self.num_parts:
            raise ValueError(
                f"{len(self.ranges)} ranges and {len(self.kinds)} kinds for {self.num_parts} parts"
            )
        lo = 0
        for start, stop in self.ranges:
            if start != lo or stop - start < 2:
                raise ValueError(f"invalid partition ranges {self.ranges}")
            lo = stop
        if lo != self.n:
            raise ValueError(f"ranges do not exhaust [0, {self.n})")

    def size(self, rank: int) -> int:
        lo, hi = self.ranges[rank]
        return hi - lo


def plan_partitions(n: int, num_parts: int, mode: str = "si") -> PartitionPlan:
    """Assign ``n`` diagonal blocks to ``num_parts`` workers.

    Middle partitions get fewer blocks in the inverse ratio of their
    per-block cost; leftover blocks go to the first and last partitions.

    Raises
    ------
    ValueError
        If ``num_parts < 2`` or ``n < 2 * num_parts``.
    """
    if mode not in _COSTS:
        raise ValueError(f"mode must be 'si' or 'siq', got {mode!r}")
    if num_parts < 2:
        raise ValueError("a plan needs at least 2 partitions")
    if n < 2 * num_parts:
        raise ValueError(f"n={n} too small for {num_parts} partitions (need n >= {2 * num_parts})")

    c_end, c_mid = _COSTS[mode]
    n_mid = num_parts - 2
    if n_mid == 0:
        first = (n + 1) // 2
        sizes = [first, n - first]
    else:
        ideal_end = n * c_mid / (2 * c_mid + n_mid * c_end)
        mid = max(2, round(ideal_end * c_end / c_mid))
        while n - n_mid * mid < 4:
            mid -= 1
        rest = n - n_mid * mid
        first = (rest + 1) // 2
        sizes = [first] + [mid] * n_mid + [rest - first]

    ranges = []
    lo = 0
    for s in sizes:
        ranges.append((lo, lo + s))
        lo += s
    kinds = ["first"] + ["middle"] * n_mid + ["last"]
    return PartitionPlan(n=n, num_parts=num_parts, ranges=tuple(ranges), kinds=tuple(kinds))
