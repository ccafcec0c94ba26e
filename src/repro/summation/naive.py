"""Ordered floating-point summation baselines.

These are the conventional methods the paper's Sec. II surveys: plain
recursive (left-to-right) summation — whose rounding error the Fig. 1/2
experiment quantifies — and pairwise summation, the classic
error-reducing reordering that is "prohibitive at large scales" because
it constrains the summation order across processors.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["naive_sum", "ordered_sum", "reverse_sum", "sorted_sum", "pairwise_sum"]

#: Summands per ``np.add.accumulate`` pass of :func:`ordered_sum`.
_ORDERED_CHUNK = 1 << 16


def naive_sum(xs: Sequence[float]) -> float:
    """Left-to-right recursive summation: ``((x0 + x1) + x2) + ...``.

    This is the semantics of a serial C loop; its rounding error grows
    like O(n·u) in the worst case and is the double-precision reference
    the paper benchmarks against.  (``numpy.sum`` is *not* equivalent —
    it summs pairwise — so the loop is explicit.)
    """
    total = 0.0
    for x in xs:
        total = total + x
    return total


def ordered_sum(xs: Sequence[float]) -> float:
    """:func:`naive_sum` at NumPy speed, with the same bits.

    ``np.add.accumulate`` runs the same left-to-right recursion in
    compiled code.  It runs over a bounded chunk of summands at a time,
    so the scratch memory stays small; each pass starts from the running
    total, which is seeded with ``+0.0`` as the loop's is (so ``[-0.0]``
    sums to ``+0.0``).
    """
    arr = np.asarray(xs, dtype=np.float64).reshape(-1)
    buf = np.empty(min(arr.size, _ORDERED_CHUNK) + 1)
    total = 0.0
    for start in range(0, arr.size, _ORDERED_CHUNK):
        piece = arr[start : start + _ORDERED_CHUNK]
        run = buf[: piece.size + 1]
        run[0] = total
        run[1:] = piece
        np.add.accumulate(run, out=run)
        total = run[-1]
    return float(total)


def reverse_sum(xs: Sequence[float]) -> float:
    """Right-to-left summation; differs from :func:`naive_sum` by
    rounding only, demonstrating order sensitivity."""
    total = 0.0
    for x in reversed(xs):
        total = total + x
    return total


def sorted_sum(xs: Sequence[float]) -> float:
    """Sum by increasing magnitude — a classic accuracy heuristic that
    still cannot give exactness or order invariance."""
    arr = np.asarray(xs, dtype=np.float64)
    order = np.argsort(np.abs(arr), kind="stable")
    return naive_sum(arr[order])


def pairwise_sum(xs: Sequence[float], block: int = 8) -> float:
    """Pairwise (cascade) summation with an O(log n) error bound.

    Recursively halves the input; runs of ``block`` or fewer elements sum
    naively, matching how production implementations (including NumPy's)
    amortize recursion overhead.
    """
    arr = np.asarray(xs, dtype=np.float64)
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")

    def rec(lo: int, hi: int) -> float:
        if hi - lo <= block:
            total = 0.0
            for i in range(lo, hi):
                total += float(arr[i])
            return total
        mid = (lo + hi) // 2
        return rec(lo, mid) + rec(mid, hi)

    if arr.size == 0:
        return 0.0
    return rec(0, arr.size)
