"""Scalar reference implementation of the HP format (paper Listings 1-2).

Two conversion paths are provided:

* :func:`from_double` — the library's primary path.  It performs the
  double→HP conversion in exact integer arithmetic (a double is a dyadic
  rational, so ``x * 2**(64k)`` is computable exactly with shifts), then
  encodes two's complement.  Out-of-precision low bits truncate toward
  zero for either sign.
* :func:`from_double_listing1` — a bit-faithful port of the paper's
  Listing 1, including its look-ahead trick for fusing magnitude
  extraction with two's-complement translation in one pass.  It assumes
  the paper's precondition that the input has no significant bits below
  the format's resolution ``2**(-64k)`` (the user "must know the range",
  Sec. V); for negative inputs violating that precondition the look-ahead
  mis-carries, which tests document explicitly.

Addition (:func:`add_words`) is the ripple-carry loop of Listing 2, word
``N-1`` up to word 0, with the paper's equality-aware carry-out detection.
All functions operate on immutable tuples of Python ints in ``[0, 2**64)``
(word 0 most significant), wrapped exactly like C ``uint64_t``.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from repro.core.params import HPParams
from repro.observability import metrics as _obs
from repro.errors import (
    AdditionOverflowError,
    ConversionOverflowError,
    MixedParameterError,
    NormalizationOverflowError,
    UnderflowWarning,
)
from repro.util.bits import (
    MASK64,
    WORD_MOD,
    sign_bit,
    signed_int_to_words,
    twos_complement_words,
    words_to_signed_int,
)

__all__ = [
    "from_double",
    "from_double_listing1",
    "from_int_scaled",
    "to_double",
    "scaled_to_double",
    "to_int_scaled",
    "add_words",
    "add_words_checked",
    "sub_words",
    "negate_words",
    "is_negative",
    "is_zero",
    "check_params_match",
]

Words = tuple[int, ...]

_TWO64 = float(WORD_MOD)


def check_params_match(a: Sequence[int], b: Sequence[int]) -> None:
    """Reject mixing word vectors of different widths."""
    if len(a) != len(b):
        raise MixedParameterError(
            f"HP word vectors have different widths: {len(a)} vs {len(b)}"
        )


def is_negative(words: Sequence[int]) -> bool:
    """Sign of an HP value: bit 63 of word 0 (Sec. III.A)."""
    return bool(sign_bit(words[0]))


def is_zero(words: Sequence[int]) -> bool:
    """True for the (unique) all-zero representation of zero."""
    return all(w == 0 for w in words)


# ---------------------------------------------------------------------------
# Conversion: double -> HP
# ---------------------------------------------------------------------------


def from_int_scaled(scaled: int, params: HPParams) -> Words:
    """Encode an already-scaled integer ``scaled = round(x * 2**(64k))``.

    This is the exactness backbone: the HP value *is* this integer, in
    two's complement over ``64N`` bits.
    """
    if scaled > params.max_int or scaled < params.min_int:
        raise ConversionOverflowError(
            f"scaled integer {scaled} outside {params} range "
            f"[{params.min_int}, {params.max_int}]"
        )
    return signed_int_to_words(scaled, params.n)


def from_double(
    x: float,
    params: HPParams,
    warn_underflow: bool = False,
) -> Words:
    """Convert a double to HP words, exactly when representable.

    Bits of ``|x|`` below the resolution ``2**(-64k)`` are truncated toward
    zero (matching Listing 1's ``(uint64_t)`` casts for positive inputs).
    Raises :class:`ConversionOverflowError` when ``|x|`` exceeds the
    format's range, mirroring the paper's first overflow point.

    >>> p = HPParams(2, 1)
    >>> from_double(1.0, p)
    (1, 0)
    >>> from_double(-1.5, p) == negate_words(from_double(1.5, p))
    True
    """
    if x != x:  # NaN has no fixed-point image
        raise ConversionOverflowError("cannot convert NaN to HP format")
    if x in (float("inf"), float("-inf")):
        raise ConversionOverflowError("cannot convert infinity to HP format")
    if x == 0.0:
        return (0,) * params.n
    num, den = abs(x).as_integer_ratio()  # exact dyadic decomposition
    shifted = num << params.frac_bits
    scaled, rem = divmod(shifted, den)
    if rem and warn_underflow:
        warnings.warn(
            f"{x!r} has bits below {params} resolution 2**-{params.frac_bits}; "
            "truncated toward zero",
            UnderflowWarning,
            stacklevel=2,
        )
    if x < 0:
        scaled = -scaled
    return from_int_scaled(scaled, params)


def from_double_listing1(x: float, params: HPParams) -> Words:
    """Bit-faithful port of the paper's Listing 1 (C-style float loop).

    Precondition (paper Sec. V): every significant bit of ``x`` lies
    within the format's range/resolution window.  Under that precondition
    the result equals :func:`from_double`.  The conversion fuses the
    per-word magnitude extraction with the two's-complement translation:
    a non-zero remainder at any step absorbs the "+1", so the add is only
    applied when all lower-order words are zero.
    """
    n, k = params.n, params.k
    if x != x or x in (float("inf"), float("-inf")):
        raise ConversionOverflowError(f"cannot convert {x!r} to HP format")
    # dtmp = fabs(x) scaled so that word 0's weight becomes 2**0.
    dtmp = abs(x) * 2.0 ** (-64 * (n - k - 1))
    if dtmp >= 2.0**63:
        raise ConversionOverflowError(f"{x!r} outside {params} range")
    isneg = x < 0.0
    a = [0] * n
    for i in range(n - 1):
        itmp = int(dtmp)  # (uint64_t)dtmp truncates toward zero
        dtmp = (dtmp - float(itmp)) * _TWO64
        a[i] = ((~itmp) + (dtmp <= 0.0)) & MASK64 if isneg else itmp
    itmp = int(dtmp)
    a[n - 1] = ((~itmp) + 1) & MASK64 if isneg else itmp
    return tuple(a)


# ---------------------------------------------------------------------------
# Conversion: HP -> double / exact integer
# ---------------------------------------------------------------------------


def to_int_scaled(words: Sequence[int]) -> int:
    """Decode the underlying scaled two's-complement integer."""
    return words_to_signed_int(tuple(words))


def to_double(words: Sequence[int], params: HPParams) -> float:
    """Convert HP words back to the nearest double (round half to even).

    The quotient ``scaled / 2**(64k)`` is evaluated with CPython's
    correctly-rounded big-int true division, so the result is the IEEE
    double nearest the exact HP value.  Raises
    :class:`NormalizationOverflowError` if the value exceeds double range
    (the paper's third overflow point, possible whenever the HP range
    exceeds double's ``~1.8e308``).
    """
    if len(words) != params.n:
        raise MixedParameterError(
            f"word vector has {len(words)} words, {params} expects {params.n}"
        )
    return scaled_to_double(to_int_scaled(words), params)


def scaled_to_double(scaled: int, params: HPParams) -> float:
    """The double nearest the HP value of the scaled integer ``scaled``
    (the tail of :func:`to_double`, for callers that hold the integer)."""
    try:
        return scaled / params.scale
    except OverflowError as exc:
        raise NormalizationOverflowError(
            f"HP value 2**~{scaled.bit_length() - params.frac_bits} exceeds "
            "double-precision range"
        ) from exc


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def add_words(a: Sequence[int], b: Sequence[int]) -> Words:
    """Add two HP word vectors: the ripple-carry loop of Listing 2.

    Two's complement makes one code path serve any sign combination.
    Overflow wraps silently, exactly like the C code; use
    :func:`add_words_checked` for the sign-rule detection.
    """
    check_params_match(a, b)
    if _obs.ENABLED:
        return _add_words_observed(a, b)
    n = len(a)
    out = list(a)
    out[n - 1] = (a[n - 1] + b[n - 1]) & MASK64
    co = out[n - 1] < b[n - 1]
    for i in range(n - 2, 0, -1):
        out[i] = (a[i] + b[i] + co) & MASK64
        co = co if out[i] == b[i] else out[i] < b[i]
    if n > 1:
        out[0] = (a[0] + b[0] + co) & MASK64
    return tuple(out)


def _add_words_observed(a: Sequence[int], b: Sequence[int]) -> Words:
    """Metered twin of :func:`add_words` — identical arithmetic, but
    counts how many word positions received a carry-in (the quantity the
    paper's amortized-cost argument is about).  Kept separate so the
    disabled hot path pays only the gate check."""
    n = len(a)
    out = list(a)
    out[n - 1] = (a[n - 1] + b[n - 1]) & MASK64
    co = out[n - 1] < b[n - 1]
    carries = int(co)
    for i in range(n - 2, 0, -1):
        out[i] = (a[i] + b[i] + co) & MASK64
        co = co if out[i] == b[i] else out[i] < b[i]
        carries += co
    if n > 1:
        out[0] = (a[0] + b[0] + co) & MASK64
    reg = _obs.REGISTRY
    reg.counter("hp.scalar.adds", n=n).inc()
    reg.counter("hp.carry_words", n=n, path="scalar").inc(carries)
    return tuple(out)


def add_words_checked(a: Sequence[int], b: Sequence[int]) -> Words:
    """Add with the paper's overflow rule (Sec. III.A): equal-signed
    operands whose sum has the opposite sign indicate overflow."""
    out = add_words(a, b)
    sa, sb, so = sign_bit(a[0]), sign_bit(b[0]), sign_bit(out[0])
    if _obs.ENABLED:
        _obs.REGISTRY.counter("hp.overflow_checks", path="scalar").inc()
    if sa == sb and so != sa:
        if _obs.ENABLED:
            _obs.REGISTRY.counter("hp.overflows", path="scalar").inc()
        raise AdditionOverflowError(
            f"HP addition overflowed the {len(a)}-word field"
        )
    return out


def negate_words(words: Sequence[int]) -> Words:
    """Two's-complement negation over the full ``64N``-bit field."""
    return twos_complement_words(tuple(words))


def sub_words(a: Sequence[int], b: Sequence[int]) -> Words:
    """``a - b`` via two's complement."""
    return add_words(a, negate_words(b))
