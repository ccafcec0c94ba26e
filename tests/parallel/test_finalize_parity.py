"""hp-small's one-fold finalize agrees with the words round trip.

:meth:`HPSmallaccMethod.finalize` folds a chunk partial once and
divides the total by the format's scale; the reference path wraps the
total into HP words and decodes them with :func:`to_double`.  For every
partial both must give the same bits, or raise the same exception type
with the same message: round-half-even ties, subnormal results, zero,
totals at and one past the format's integer range, and totals beyond
double range in wide formats.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import HPParams
from repro.core.scalar import to_double
from repro.core.smallacc import canonical_chunks
from repro.errors import AdditionOverflowError, NormalizationOverflowError
from repro.parallel.methods import HPSmallaccMethod

#: HP(8,4) is the benchmark format; HP(3,2) is narrow; HP(20,18) has
#: 1152 fraction bits, so its totals reach the double subnormals; HP(20,2)
#: holds every finite double and sums beyond double range.
FORMATS = [HPParams(8, 4), HPParams(3, 2), HPParams(20, 18), HPParams(20, 2)]
METHODS = {p: HPSmallaccMethod(p) for p in FORMATS}


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # compared by type and message
        return ("raise", type(exc), str(exc))
    return ("value", np.float64(value).tobytes())


def _reference(method: HPSmallaccMethod, partial: tuple) -> float:
    return to_double(method.words(partial), method.params)


def _assert_parity(method: HPSmallaccMethod, partial: tuple) -> None:
    got = _outcome(method.finalize, partial)
    assert got == _outcome(_reference, method, partial)
    try:
        value, words = method.finalize_words(partial)
    except Exception as exc:
        assert got == ("raise", type(exc), str(exc))
    else:
        assert got == ("value", np.float64(value).tobytes())
        assert words == method.words(partial)


def _spread(chunks: tuple, shifts: list[int]) -> tuple:
    """A non-canonical partial with the same total: move ``r * 2**32``
    from each chunk into the one below it."""
    out = list(chunks)
    for i, r in enumerate(shifts[: len(out) - 1]):
        out[i] += r << 32
        out[i + 1] -= r
    return tuple(out)


def _tie_total(mant: int, shift: int) -> int:
    """A scaled total exactly halfway between two adjacent doubles: a
    54-bit odd integer times a power of two."""
    return (2 * mant + 1) << shift


formats = st.sampled_from(FORMATS)


@st.composite
def partials(draw):
    params = draw(formats)
    method = METHODS[params]
    kind = draw(st.sampled_from(
        ["any", "edge", "tie", "subnormal", "small"]
    ))
    if kind == "any":
        total = draw(st.integers(params.min_int - 2, params.max_int + 2))
    elif kind == "edge":
        base = draw(st.sampled_from([params.min_int, params.max_int, 0]))
        total = base + draw(st.integers(-2, 2))
    elif kind == "tie":
        mant = draw(st.integers(1 << 52, (1 << 53) - 1))
        shift = draw(st.integers(0, max(0, params.precision_bits - 56)))
        total = _tie_total(mant, shift) * draw(st.sampled_from([1, -1]))
    elif kind == "subnormal":
        # Values below 2**-1022: totals below 2**(frac_bits - 1022).
        top = max(1, params.frac_bits - 1022)
        total = draw(st.integers(-(1 << top), 1 << top))
    else:
        total = draw(st.integers(-(1 << 70), 1 << 70))
    chunks = canonical_chunks(total, method.nchunks)
    shifts = draw(st.lists(st.integers(-(1 << 20), 1 << 20),
                           max_size=method.nchunks))
    return method, _spread(chunks, shifts)


class TestFinalizeParity:
    @settings(max_examples=400, deadline=None)
    @given(partials())
    def test_matches_words_round_trip(self, case):
        method, partial = case
        _assert_parity(method, partial)

    @pytest.mark.parametrize("params", FORMATS, ids=str)
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_range_edges(self, params, delta):
        method = METHODS[params]
        for base in (params.min_int, params.max_int):
            partial = canonical_chunks(base + delta, method.nchunks)
            _assert_parity(method, partial)
        past = canonical_chunks(params.max_int + 1, method.nchunks)
        with pytest.raises(AdditionOverflowError):
            method.finalize(past)

    def test_ties_round_half_even(self):
        params = HPParams(8, 4)
        method = METHODS[params]
        # 1 + 2**-53 is halfway between 1 and its successor: the even
        # neighbour 1.0 wins; 1 + 3 * 2**-53 rounds up to the even one.
        one = 1 << params.frac_bits
        half_ulp = one >> 53
        down = method.finalize(canonical_chunks(one + half_ulp, method.nchunks))
        up = method.finalize(canonical_chunks(one + 3 * half_ulp, method.nchunks))
        assert down == 1.0
        assert up == 1.0 + 2 * 2.0**-52
        for total in (one + half_ulp, -(one + 3 * half_ulp)):
            _assert_parity(method, canonical_chunks(total, method.nchunks))

    def test_subnormal_results(self):
        params = HPParams(20, 18)
        method = METHODS[params]
        smallest = 1 << (params.frac_bits - 1074)  # 2**-1074
        for total in (smallest, -smallest, 3 * smallest, smallest // 2,
                      smallest // 2 + 1, (smallest * 5) // 2):
            _assert_parity(method, canonical_chunks(total, method.nchunks))
        assert method.finalize(canonical_chunks(smallest, method.nchunks)) == 5e-324

    def test_signed_zero_sums_to_positive_zero(self):
        params = HPParams(8, 4)
        method = METHODS[params]
        partial = method.local_reduce(np.array([-0.0, -0.0]))
        _assert_parity(method, partial)
        value = method.finalize(partial)
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_wide_sum_beyond_double_range(self):
        params = HPParams(20, 2)
        method = METHODS[params]
        big = np.finfo(np.float64).max
        partial = method.local_reduce(np.array([big, big]))
        _assert_parity(method, partial)
        with pytest.raises(NormalizationOverflowError,
                           match="exceeds double-precision range"):
            method.finalize(partial)
