"""Unit tests for ordered summation baselines."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.parallel.methods import DoubleMethod
from repro.summation.naive import (
    _ORDERED_CHUNK,
    naive_sum,
    ordered_sum,
    pairwise_sum,
    reverse_sum,
    sorted_sum,
)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


class TestNaiveSum:
    def test_empty(self):
        assert naive_sum([]) == 0.0

    def test_left_to_right_semantics(self):
        # Classic absorption: 1e16 + 1 + ... + 1 loses the ones,
        # whereas summing the ones first keeps them.
        values = [1e16] + [1.0] * 64
        assert naive_sum(values) == 1e16
        assert naive_sum(list(reversed(values))) == 1e16 + 64

    def test_exact_when_no_rounding(self):
        assert naive_sum([0.5, 0.25, 0.125]) == 0.875

    def test_order_sensitivity(self, rng):
        values = rng.uniform(-1.0, 1.0, 2000)
        fwd = naive_sum(values)
        rev = reverse_sum(values)
        # Usually different; never off by more than accumulated epsilon.
        assert abs(fwd - rev) < 1e-10


class TestOrderedSum:
    """ordered_sum is naive_sum's recursion in NumPy: equal bits."""

    @staticmethod
    def _cases(rng):
        heavy = rng.uniform(1.0, 2.0, 3000) * 2.0 ** rng.integers(-30, 60, 3000)
        yield "cancellation", np.concatenate([heavy, -heavy[::-1], [1e-3]])
        yield "subnormals", rng.integers(-50, 50, 2000) * 5e-324
        yield "mixed", rng.standard_normal(4000) * 10.0 ** rng.integers(
            -300, 300, 4000)
        yield "absorption", np.array([1e16] + [1.0] * 64)
        yield "negative zero", np.array([-0.0])
        yield "zeros", np.array([-0.0, -0.0, 0.0])
        yield "empty", np.array([])

    def test_bits_match_naive_sum(self, rng):
        for name, xs in self._cases(rng):
            assert _bits(ordered_sum(xs)) == _bits(naive_sum(xs)), name

    def test_negative_zero_sums_to_positive_zero(self):
        assert math.copysign(1.0, ordered_sum([-0.0])) == 1.0

    @pytest.mark.parametrize("length", [
        _ORDERED_CHUNK - 1, _ORDERED_CHUNK, _ORDERED_CHUNK + 1,
        2 * _ORDERED_CHUNK + 1,
    ])
    def test_chunk_boundaries(self, rng, length):
        xs = rng.standard_normal(length) * 1e8
        xs[::7] *= 1e-12
        assert _bits(ordered_sum(xs)) == _bits(naive_sum(xs))

    def test_strict_serial_double_method(self, rng):
        xs = rng.standard_normal(5000) * 10.0 ** rng.integers(-8, 8, 5000)
        method = DoubleMethod(strict_serial=True)
        assert _bits(method.local_reduce(xs)) == _bits(naive_sum(xs))


class TestPairwiseSum:
    def test_empty_and_single(self):
        assert pairwise_sum([]) == 0.0
        assert pairwise_sum([3.5]) == 3.5

    def test_matches_fsum_closely(self, rng):
        values = rng.uniform(-1.0, 1.0, 4097)
        exact = math.fsum(values)
        assert abs(pairwise_sum(values) - exact) <= 1e-13
        # ... and is more accurate than the naive loop on hard inputs.

    def test_block_parameter(self, rng):
        values = rng.uniform(-1.0, 1.0, 1000)
        # Different blocks give (potentially) different roundings but all
        # near the exact value.
        results = {pairwise_sum(values, block=b) for b in (1, 2, 8, 64)}
        for r in results:
            assert r == pytest.approx(math.fsum(values), abs=1e-12)

    def test_rejects_bad_block(self):
        with pytest.raises(ValueError):
            pairwise_sum([1.0], block=0)


class TestSortedSum:
    def test_orders_by_magnitude(self):
        # Summing small-first retains the small terms against a big one.
        values = [1e16] + [1.0] * 64
        assert sorted_sum(values) == 1e16 + 64

    def test_not_exact_in_general(self, rng):
        values = rng.uniform(-1.0, 1.0, 500)
        assert sorted_sum(values) == pytest.approx(math.fsum(values), abs=1e-12)
