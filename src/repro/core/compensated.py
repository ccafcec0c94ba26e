"""The vectorized compensated tier: chunked pairwise summation.

The exact HP engines buy order-invariance at a constant-factor cost;
most traffic tolerates a *known* error.  This module provides the one
cheap tier the planner (:mod:`repro.core.planner`) selects between naive
float64 and exact HP: a batch kernel whose forward error carries an
a-priori bound (:mod:`repro.core.bounds`, after Hallman & Ipsen 2021)
and whose partials merge across the parallel substrates.

Partial representation
----------------------
The kernel reduces a slice to a :class:`CompPartial` —
``(total, err, count, max_abs)``:

``total``
    the float64 running sum (the kernel's primary accumulator);
``err``
    the accumulated compensation, to be *added* to ``total`` at
    finalization (``value = fl(total + err)``);
``count``
    number of summands absorbed — the ``n`` the bound formulas need;
``max_abs``
    running ``max |x_i|`` — with ``count`` it upper-bounds the mass
    ``sum |x_i| <= count * max_abs``, making the a-priori bounds
    streaming-estimable without a second pass.

Partials merge with :func:`merge_partials`: totals combine through an
error-free ``two_sum`` whose exact rounding error lands in ``err``, so
a merge tree loses nothing beyond the per-slice kernel error.  The
merge is commutative (``two_sum`` computes the exact error, which does
not depend on operand order) but — like every compensated scheme — not
bit-associative: different merge *trees* may differ in the last ulp.
The contract of this tier is therefore **run-to-run determinism for a
fixed order** plus bound satisfaction, not the exact engines'
bit-identity; the engine registry advertises that distinction
(``deterministic`` without ``exact``).

Kernel
------
``pairwise_partial``
    chunked ``np.add.reduce`` (NumPy's blocked pairwise reduction) with
    chunk results merged through ``two_sum`` — error ``O(u log n)``, at
    memory bandwidth.

Pairwise is the only inexact tier.  An ``O(u)`` Kahan or Neumaier tier
would beat its bound only for targets in a window under 2x wide just
above ``2u``, where the exact ``small`` engine is as fast on the
compiled backend.  The serial Kahan and Neumaier float references live
in :mod:`repro.summation.compensated`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.observability.profile import phase as _phase
from repro.summation.compensated import two_sum

__all__ = [
    "CompPartial",
    "IDENTITY",
    "finalize_partial",
    "merge_partials",
    "pairwise_partial",
]

_DEFAULT_CHUNK = 1 << 20


class CompPartial(NamedTuple):
    """Mergeable compensated partial: ``value = fl(total + err)``.

    A ``NamedTuple`` so it pickles through the procs pool, packs through
    the simmpi wire codec, and still unpacks like the plain tuples the
    other :class:`~repro.parallel.methods.ReductionMethod` partials use.
    """

    total: float
    err: float
    count: int
    max_abs: float

    @property
    def value(self) -> float:
        return self.total + self.err


#: The neutral partial (an empty PE's contribution).
IDENTITY = CompPartial(0.0, 0.0, 0, 0.0)


def merge_partials(a: CompPartial, b: CompPartial) -> CompPartial:
    """Merge two partials; the totals' exact rounding error is kept.

    Commutative (``two_sum`` recovers the exact error either way), and
    deterministic for a fixed merge tree; different trees may differ in
    the last ulp — covered by the advertised bound, not bit-pinned.
    """
    total, lost = two_sum(a.total, b.total)
    return CompPartial(
        total,
        a.err + b.err + lost,
        a.count + b.count,
        a.max_abs if a.max_abs >= b.max_abs else b.max_abs,
    )


def finalize_partial(partial: CompPartial) -> float:
    """Fold the pending compensation back into the total."""
    return float(partial.total + partial.err)


def _as_batch(xs: np.ndarray) -> np.ndarray:
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    return xs


def pairwise_partial(
    xs: np.ndarray, chunk: int = _DEFAULT_CHUNK
) -> CompPartial:
    """Chunked pairwise reduction (``np.add.reduce`` per chunk, chunks
    merged error-free), error ``O(u log n)`` in the mass."""
    xs = _as_batch(xs)
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    out = IDENTITY
    with _phase("compensated.pairwise"):
        for start in range(0, xs.size, chunk):
            piece = xs[start : start + chunk]
            part = CompPartial(
                float(np.add.reduce(piece)),
                0.0,
                piece.size,
                float(np.max(np.abs(piece))),
            )
            out = merge_partials(out, part)
    return out
