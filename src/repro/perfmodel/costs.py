"""Per-summand operation counts (paper Sec. IV.A).

The paper compares the methods by raw operation counts before showing why
those counts alone mispredict performance.  These are the counts it
states:

* Hallberg: ``2N`` FP multiplications + ``N`` FP additions to convert,
  ``N`` integer additions to accumulate.
* HP: ``N`` FP multiplications + ``N`` FP additions to convert (one
  multiply factored out of the Listing 1 loop), plus ``3N`` ALU ops in
  the worst (negative) case, and ``4(N-1)`` ALU ops to accumulate
  (Listing 2).
* double: one FP addition.

Memory traffic per accumulate (the Fig. 7 GPU analysis): a method whose
partial occupies ``W`` words reads ``1 + W`` words (summand + partial)
and writes ``W``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams

__all__ = ["OpCounts", "MemTraffic", "hp_ops", "hallberg_ops", "double_ops",
           "hp_mem", "hallberg_mem", "double_mem",
           "PLANNER_UNIT_COSTS"]


@dataclass(frozen=True)
class OpCounts:
    """Arithmetic operations to convert and accumulate one summand."""

    fp_mul: int
    fp_add: int
    alu: int

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.fp_mul + other.fp_mul,
            self.fp_add + other.fp_add,
            self.alu + other.alu,
        )


@dataclass(frozen=True)
class MemTraffic:
    """64-bit global-memory words touched per accumulate."""

    reads: int
    writes: int

    @property
    def total(self) -> int:
        return self.reads + self.writes


def hp_ops(params: HPParams) -> OpCounts:
    """HP per-summand ops: convert (N mul + N add + 3N ALU worst case)
    plus accumulate (4(N-1) ALU)."""
    n = params.n
    return OpCounts(fp_mul=n, fp_add=n, alu=3 * n + 4 * (n - 1))


def hallberg_ops(params: HallbergParams) -> OpCounts:
    """Hallberg per-summand ops: convert (2N mul + N add) plus
    accumulate (N integer adds)."""
    n = params.n
    return OpCounts(fp_mul=2 * n, fp_add=n, alu=n)


def double_ops() -> OpCounts:
    """Plain double accumulation: one FP add."""
    return OpCounts(fp_mul=0, fp_add=1, alu=0)


def hp_mem(params: HPParams) -> MemTraffic:
    """E.g. N=6: 7 reads (summand + six partial words), 6 writes —
    the exact minimums quoted in Sec. IV.B."""
    return MemTraffic(reads=1 + params.n, writes=params.n)


def hallberg_mem(params: HallbergParams) -> MemTraffic:
    """E.g. N=10: 11 reads, 10 writes."""
    return MemTraffic(reads=1 + params.n, writes=params.n)


def double_mem() -> MemTraffic:
    """2 reads (summand + partial), 1 write."""
    return MemTraffic(reads=2, writes=1)


#: Per-summand engine costs in "double-add units" (a naive ``np.sum``
#: pass = 1.0), the table the accuracy planner ranks engines by.  Each
#: entry is one measurement: ``batch_sum_doubles(x, HPParams(8, 4),
#: method=engine)`` over 4,194,304 uniform(-1, 1) doubles, best of 7
#: (3 for ``words``), divided by the best ``np.sum`` over the same
#: array in the same run, compiled ``cext`` backend, on a 2-vCPU x86-64
#: container.  The ranking is what the planner uses, and it is the same
#: on the pure backend (``small`` is then ~250x, still above pairwise).
PLANNER_UNIT_COSTS: Mapping[str, float] = {
    "comp-pairwise": 4.3,
    "small": 7.7,
    "words": 870.0,
}
