"""Compensated-tier contracts (:mod:`repro.core.compensated`).

The pairwise kernel is pinned against ``math.fsum`` within its
*advertised* bound (:mod:`repro.core.bounds`) — on well-behaved data,
ill-conditioned cancellation, denormals, and million-element
permutations — and the partial-merge algebra is pinned as the substrate
adapters rely on it: identity, commutativity, partition consistency,
and run-to-run determinism for a fixed order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import bounds
from repro.core import compensated as comp

#: kernel name -> (batch kernel, bound model the registry advertises)
TIERS = {"pairwise": (comp.pairwise_partial, "pairwise")}
KERNELS = sorted(TIERS)


def assert_within_bound(kernel: str, xs: np.ndarray) -> comp.CompPartial:
    """The tier's whole contract in one helper: the finalized value is
    within ``c(n) * sum|x|`` of ``math.fsum``, and the partial's count
    and ``max_abs`` are exact."""
    fn, model = TIERS[kernel]
    partial = fn(np.asarray(xs, dtype=np.float64))
    value = comp.finalize_partial(partial)
    reference = math.fsum(xs)
    mass = math.fsum(np.abs(np.asarray(xs, dtype=np.float64)))
    limit = bounds.coefficient(model, len(xs)) * mass
    assert abs(value - reference) <= limit, (
        f"{kernel}: |{value} - {reference}| > {limit}"
    )
    assert partial.count == len(xs)
    expected_max = float(np.max(np.abs(xs))) if len(xs) else 0.0
    assert partial.max_abs == expected_max
    return partial


class TestKernelAccuracy:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_random_batch(self, kernel):
        rng = np.random.default_rng(11)
        assert_within_bound(kernel, rng.standard_normal(100_003))

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_wide_dynamic_range(self, kernel):
        rng = np.random.default_rng(12)
        xs = rng.standard_normal(40_001) * np.exp(
            rng.uniform(-40, 40, size=40_001)
        )
        assert_within_bound(kernel, xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_ill_conditioned_cancellation(self, kernel):
        # Massive cancellation: pairs (+v, -v) at magnitude 1e100 plus a
        # tiny residual signal.  The mass-relative bound is the honest
        # contract here — it stays huge while the true sum is tiny.
        rng = np.random.default_rng(13)
        big = rng.standard_normal(5_000) * 1e100
        xs = np.concatenate([big, -big, rng.standard_normal(101)])
        rng.shuffle(xs)
        assert_within_bound(kernel, xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_denormals(self, kernel):
        rng = np.random.default_rng(14)
        xs = rng.integers(-1000, 1000, size=9_001).astype(np.float64)
        xs *= 5e-324  # pure denormal magnitudes
        assert_within_bound(kernel, xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_million_element_permutations(self, kernel):
        rng = np.random.default_rng(15)
        xs = rng.standard_normal(1_000_000) * np.exp(
            rng.uniform(-20, 20, size=1_000_000)
        )
        for _ in range(3):
            assert_within_bound(kernel, xs)
            xs = rng.permutation(xs)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_empty_and_singleton_and_tail_only(self, kernel):
        fn = TIERS[kernel][0]
        assert fn(np.array([])) == comp.IDENTITY
        one = fn(np.array([3.5]))
        assert comp.finalize_partial(one) == 3.5
        # A short batch, well under one chunk.
        tail = np.linspace(-1.0, 1.0, 4095)
        assert_within_bound(kernel, tail)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_fixed_order_determinism(self, kernel):
        rng = np.random.default_rng(16)
        xs = rng.standard_normal(50_000)
        a = TIERS[kernel][0](xs)
        b = TIERS[kernel][0](xs.copy())
        assert a == b  # bit-identical partials, run to run

    def test_rejects_bad_shapes_and_chunks(self):
        with pytest.raises(ValueError, match="1-D"):
            comp.pairwise_partial(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="chunk"):
            comp.pairwise_partial(np.zeros(4), chunk=0)


class TestMergeAlgebra:
    def make(self, seed: int, n: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        return rng.standard_normal(n) * np.exp(rng.uniform(-30, 30, size=n))

    def test_identity_is_neutral(self):
        p = comp.pairwise_partial(self.make(21, 10_000))
        assert comp.merge_partials(p, comp.IDENTITY) == p
        assert comp.merge_partials(comp.IDENTITY, p) == p

    def test_commutative_bitwise(self):
        a = comp.pairwise_partial(self.make(22, 7_000))
        b = comp.pairwise_partial(self.make(23, 9_000))
        assert comp.merge_partials(a, b) == comp.merge_partials(b, a)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_partition_consistency_within_bound(self, kernel):
        # Splitting the batch across "PEs" and merging must stay inside
        # the advertised bound of the whole batch (the substrate
        # contract); bit-identity across partitions is NOT promised.
        xs = self.make(24, 120_007)
        reference = math.fsum(xs)
        mass = math.fsum(np.abs(xs))
        fn, model = TIERS[kernel]
        limit = bounds.coefficient(model, len(xs)) * mass
        for pieces in (2, 3, 8):
            parts = [
                fn(piece)
                for piece in np.array_split(xs, pieces)
            ]
            merged = parts[0]
            for p in parts[1:]:
                merged = comp.merge_partials(merged, p)
            assert merged.count == len(xs)
            value = comp.finalize_partial(merged)
            assert abs(value - reference) <= limit

    def test_merge_keeps_exact_rounding_error(self):
        # two_sum recovers what the total addition dropped: merging
        # (1e16, 0) with (1.0, 0) keeps the 1.0 in err exactly.
        a = comp.CompPartial(1e16, 0.0, 1, 1e16)
        b = comp.CompPartial(1.0, 0.0, 1, 1.0)
        m = comp.merge_partials(a, b)
        assert m.total + m.err == 1e16 + 1.0 or (m.total, m.err) == (
            1e16,
            1.0,
        )
        assert m.total == 1e16
        assert m.err == 1.0
        assert m.max_abs == 1e16
