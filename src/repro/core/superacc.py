"""Exponent-bin primitives shared by the small superaccumulator.

Neal, *Fast exact summation using small and large superaccumulators*
(arXiv:1505.05571), reaches the exact sum in per-summand work
independent of the HP word count ``N``: scatter each mantissa into
exponent-indexed fixed-point bins, and convert the bins to the wide
format once per reduction.  The engine lives in
:mod:`repro.core.smallacc`; this module keeps the bin geometry, the
NumPy validation pass (the compiled scatter checks its input itself),
and the vectorized three-limb scatter the pure-NumPy backend runs
(plus that scatter's scalar mirror, used by the simulated-GPU block
kernel).

Bin layout
----------
A double ``x`` decomposes (``numpy.frexp``) into an exact 53-bit integer
mantissa ``mant`` and an exponent, giving the HP scaled integer
``A = sign * mant * 2**t`` with ``t = e - 53 + 64*k``.  Magnitude bits
below the format's resolution (``t < 0``) truncate toward zero, exactly
as :func:`repro.core.vectorized.batch_from_double` does.  The mantissa
is split into 32-bit halves, shifted by ``t mod 32``, and its three
32-bit limbs are added — sign folded into the addend — into an ``int64``
bin array where bin ``i`` carries weight ``2**(32*i)``:

    ``total = sum(bins[i] * 2**(32*i))``   (scaled-integer units).

Each summand adds at most one addend of magnitude below ``2**33`` per
bin (the middle limb is the sum of two 32-bit pieces); the engine's
carry propagation (:data:`repro.core.smallacc.PROPAGATE_LIMIT`) keeps
that headroom.  The scatter uses ``numpy.add.at`` — unbuffered,
sequential, and deterministic (rule HP004): integer adds commute, so the
result is invariant to summand order regardless.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.params import HPParams
from repro.errors import ConversionOverflowError
from repro.util.bits import MASK32

__all__ = [
    "BIN_BITS",
    "bin_count",
    "bins_from_int",
    "check_finite",
    "check_finite_in_range",
    "fold_bins",
    "scatter_double",
    "superacc_total",
]

#: Bin weight spacing in bits: bin ``i`` carries weight ``2**(BIN_BITS*i)``.
BIN_BITS = 32

_MANT_BITS = 53
_DEFAULT_CHUNK = 1 << 20

# Named uint64 scalars: keeps every uint64 expression free of bare
# Python literals (NumPy would silently promote the pair to float64 and
# round 64-bit values through a 53-bit significand — rule HP005).
_U32 = np.uint64(32)
_UMASK32 = np.uint64(MASK32)


def bin_count(params: HPParams) -> int:
    """Bins needed to hold every in-range double of ``params``.

    The largest scatter shift is ``t_max = e_max - 53 + 64k`` where
    ``e_max`` is capped both by the format's range check and by the
    double exponent ceiling (1024); two extra bins absorb the spill of
    the three-limb scatter at ``t_max`` and one more guards the top.
    """
    top_exp = min(params.whole_bits + 1, 1024)
    t_max = max(top_exp + params.frac_bits - _MANT_BITS, 0)
    return t_max // BIN_BITS + 3


def fold_bins(bins) -> int:
    """Exact signed scaled-integer total of a bin sequence."""
    total = 0
    for i, limb in enumerate(bins):
        total += int(limb) << (BIN_BITS * i)
    return total


def bins_from_int(value: int, nbins: int) -> tuple[int, ...]:
    """Canonical bin decomposition of a signed scaled integer.

    Bins ``0..nbins-2`` hold unsigned 32-bit windows; the top bin keeps
    the remaining signed high part, so
    ``fold_bins(bins_from_int(v, m)) == v`` for any ``v`` whose high
    part fits the caller's headroom (always true for in-range totals).
    """
    limbs = []
    rest = value
    for _ in range(nbins - 1):
        limbs.append(rest & MASK32)
        rest >>= BIN_BITS
    limbs.append(rest)
    return tuple(limbs)


def _all_within(xs: np.ndarray, limit: float) -> bool:
    """True when every element lies in ``[-limit, limit)`` — or, for an
    infinite ``limit``, is finite.  Two reductions and no temporaries:
    a NaN propagates through ``min``/``max`` and fails both compares."""
    if xs.size == 0:
        return True
    lo, hi = xs.min(), xs.max()
    if limit == math.inf:
        return bool(lo > -limit and hi < limit)
    # The asymmetric two's-complement range admits exactly -limit.
    return bool(lo >= -limit and hi < limit)


def check_finite(xs: np.ndarray) -> None:
    """Reject NaN/inf with the engines' one domain error."""
    if not _all_within(xs, math.inf):
        raise ConversionOverflowError("input contains NaN or infinity")


def check_finite_in_range(xs: np.ndarray, params: HPParams) -> None:
    """Reject NaN/inf and values outside the format's range.

    NaN/inf anywhere wins over a range error; otherwise the message
    names the first out-of-range element.  Formats with
    ``whole_bits >= 1024`` hold every finite double.
    """
    limit = params.max_value
    if _all_within(xs, limit):
        return
    check_finite(xs)
    bad = (xs >= limit) | (xs < -limit)
    idx = int(np.argmax(bad))
    raise ConversionOverflowError(
        f"element {idx} = {xs.flat[idx]!r} outside {params} range ±{limit!r}"
    )


def _scatter_chunk(xs: np.ndarray, params: HPParams, bins: np.ndarray) -> None:
    """Scatter one pre-validated chunk into the ``int64`` bin array.

    The caller guarantees headroom: fewer than ``2**30`` summands'
    worth of addends since the bins were last propagated.
    """
    mantissa_f, exponent = np.frexp(np.abs(xs))
    mant = (mantissa_f * float(1 << _MANT_BITS)).astype(np.uint64)
    shift = exponent.astype(np.int64) - _MANT_BITS + params.frac_bits
    # Truncate magnitude bits below the resolution toward zero (the
    # batch_from_double rule); clamping the down-shift at 63 sends
    # fully-sub-resolution values to zero without an out-of-range shift.
    down = np.minimum(np.maximum(-shift, 0), 63).astype(np.uint64)
    mant = mant >> down
    t_eff = np.maximum(shift, 0)
    bin_idx = (t_eff >> 5).astype(np.intp)
    sub = (t_eff & 31).astype(np.uint64)
    lo_half = mant & _UMASK32
    hi_half = mant >> _U32
    lo_shifted = lo_half << sub          # < 2**63: fits uint64
    hi_shifted = hi_half << sub          # < 2**52
    sign = np.where(np.signbit(xs), np.int64(-1), np.int64(1))
    np.add.at(bins, bin_idx, (lo_shifted & _UMASK32).astype(np.int64) * sign)
    np.add.at(
        bins,
        bin_idx + 1,
        ((lo_shifted >> _U32) + (hi_shifted & _UMASK32)).astype(np.int64) * sign,
    )
    np.add.at(bins, bin_idx + 2, (hi_shifted >> _U32).astype(np.int64) * sign)


def scatter_double(x: float, params: HPParams, nbins: int | None = None) -> tuple[int, ...]:
    """Bin decomposition of a single double — the scalar mirror of the
    vectorized scatter (same limbs in the same bins), used by the
    simulated-GPU block kernel where threads convert one value at a
    time.  Summing the returned tuples elementwise over any set of
    values gives exactly the bins :func:`_scatter_chunk` produces.
    """
    if not math.isfinite(x):
        raise ConversionOverflowError(f"cannot convert {x!r} to bins")
    nbins = bin_count(params) if nbins is None else nbins
    limbs = [0] * nbins
    mantissa_f, exponent = math.frexp(abs(x))
    mant = int(mantissa_f * (1 << _MANT_BITS))
    shift = exponent - _MANT_BITS + params.frac_bits
    if shift < 0:
        mant >>= min(-shift, 63)
        shift = 0
    if mant:
        bin_idx, sub = divmod(shift, BIN_BITS)
        sign = -1 if x < 0.0 else 1
        lo_shifted = (mant & MASK32) << sub
        hi_shifted = (mant >> BIN_BITS) << sub
        limbs[bin_idx] += sign * (lo_shifted & MASK32)
        limbs[bin_idx + 1] += sign * ((lo_shifted >> BIN_BITS) + (hi_shifted & MASK32))
        limbs[bin_idx + 2] += sign * (hi_shifted >> BIN_BITS)
    return tuple(limbs)


def superacc_total(
    xs: np.ndarray,
    params: HPParams,
    chunk: int = _DEFAULT_CHUNK,
    backend: str = "pure",
) -> int:
    """Legacy name of :func:`repro.core.smallacc.smallacc_total`; keeps
    its historical pure-NumPy default backend."""
    from repro.core.smallacc import smallacc_total

    return smallacc_total(xs, params, chunk=chunk, backend=backend)
