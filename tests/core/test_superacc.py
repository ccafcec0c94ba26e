"""Property tests pinning the exponent-bin primitives to the word path.

:mod:`repro.core.superacc` keeps the bin geometry, the validation pass
and the vectorized three-limb scatter the small engine runs on its
pure-NumPy backend, plus the scalar mirror the GPU kernel uses and the
legacy ``superacc`` names (engine alias, ``superacc_total``).  Every
test here drives those through the small engine pinned to
``backend="pure"`` and asserts *bit identity* with the words path or the
scalar accumulator — never closeness — over adversarial inputs
(subnormals, signed zeros, range-edge magnitudes, mass cancellation)
and under every reordering a parallel schedule could produce
(permutation, chunking, split/merge).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.accumulator import HPAccumulator
from repro.core.params import HPParams
from repro.core.scalar import from_double, to_double
from repro.core.smallacc import SmallAccumulator
from repro.core.superacc import (
    bin_count,
    bins_from_int,
    fold_bins,
    scatter_double,
    superacc_total,
)
from repro.core.vectorized import batch_sum_doubles
from repro.errors import (
    AdditionOverflowError,
    ConversionOverflowError,
    MixedParameterError,
)

P = HPParams(3, 2)


def pure_engine(params: HPParams, **kwargs) -> SmallAccumulator:
    """The small engine on the three-limb NumPy scatter of this module."""
    return SmallAccumulator(params, backend="pure", **kwargs)


def adversarial_pool(params: HPParams, rng, n: int = 2000) -> np.ndarray:
    """Sign-mixed values spanning subnormals to the format's range edge."""
    edge = 2.0 ** min(params.whole_bits - 2, 1021)
    specials = [
        0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022),
        1.0, -1.0, edge, -edge, edge / 3.0, -edge / 3.0,
    ]
    exps = rng.uniform(-60.0, min(params.whole_bits - 4, 60), n - len(specials))
    bulk = rng.choice([-1.0, 1.0], n - len(specials)) * np.exp2(exps)
    xs = np.concatenate([np.array(specials), bulk])
    return rng.permutation(xs)


class TestScatterHeadroom:
    def test_bin_count_positive(self, hp_params):
        assert bin_count(hp_params) >= 3

    def test_fold_roundtrip(self, rng, hp_params):
        nbins = bin_count(hp_params)
        limbs = [int(v) for v in rng.integers(-(2**40), 2**40, nbins)]
        value = fold_bins(limbs)
        assert fold_bins(bins_from_int(value, nbins)) == value


class TestScalarMirror:
    def test_scatter_double_matches_from_double(self, rng, hp_params):
        """fold(scatter(x)) is exactly trunc(x * 2**frac_bits)."""
        from fractions import Fraction

        xs = adversarial_pool(hp_params, rng, 200)
        frac = hp_params.frac_bits
        for x in xs:
            scaled = fold_bins(scatter_double(float(x), hp_params))
            ref = Fraction(float(x)) * (1 << frac)
            ref = int(ref) if ref >= 0 else -int(-ref)  # trunc toward zero
            assert scaled == ref, repr(float(x))

    def test_scatter_double_rejects_nonfinite(self, hp_params):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConversionOverflowError):
                scatter_double(bad, hp_params)

    def test_single_value_matches_from_double(self, hp_params):
        for x in (1.5, -2.25, 0.0, -0.0, 2.0**-40):
            acc = HPAccumulator(hp_params)
            acc.add(x)
            assert acc.words == from_double(x, hp_params)
            engine = pure_engine(hp_params)
            engine.absorb(np.array([x]))
            assert engine.to_words() == acc.words


class TestBitIdentity:
    def test_matches_words_engine(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng)
        assert batch_sum_doubles(xs, hp_params, method="superacc") == (
            batch_sum_doubles(xs, hp_params, method="words")
        )

    def test_matches_scalar_accumulator(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 500)
        acc = HPAccumulator(hp_params, check_overflow=False)
        for x in xs:
            acc.add(float(x))
        engine = pure_engine(hp_params)
        engine.absorb(xs)
        assert engine.to_words() == acc.words

    def test_chunk_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 701)
        reference = superacc_total(xs, hp_params)
        for chunk in (1, 3, 64, 1 << 20):
            assert superacc_total(xs, hp_params, chunk=chunk) == reference

    def test_permutation_invariant(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 800)
        reference = superacc_total(xs, hp_params)
        for _ in range(3):
            assert superacc_total(rng.permutation(xs), hp_params) == reference

    def test_split_merge_invariant(self, rng, hp_params):
        """Partition into unequal PE slices, merge engines — the threads
        substrate's algebra — and compare against one-shot absorption."""
        xs = adversarial_pool(hp_params, rng, 900)
        one = pure_engine(hp_params)
        one.absorb(xs)
        for pieces in (2, 3, 7):
            parts = np.array_split(xs, pieces)
            merged = pure_engine(hp_params)
            for part in parts:
                local = pure_engine(hp_params)
                local.absorb(part)
                merged.merge(local)
            assert merged.to_words() == one.to_words()

    def test_mass_cancellation_is_exact_zero(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 600)
        both = np.concatenate([xs, -xs])
        engine = pure_engine(hp_params)
        engine.absorb(rng.permutation(both))
        assert engine.total() == 0
        assert engine.to_double() == 0.0


class TestEngineContract:
    def test_unknown_method_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown summation method"):
            batch_sum_doubles(rng.uniform(size=4), P, method="exact")

    def test_range_overflow_raises(self):
        params = HPParams(2, 1)
        xs = np.full(4, 2.0**62)
        with pytest.raises(AdditionOverflowError):
            batch_sum_doubles(xs, params, method="superacc")

    def test_overflow_check_disabled_wraps_identically(self):
        params = HPParams(2, 1)
        xs = np.full(2, 2.0**62)
        assert batch_sum_doubles(
            xs, params, check_overflow=False, method="superacc"
        ) == batch_sum_doubles(xs, params, check_overflow=False, method="words")

    def test_out_of_range_element_rejected(self):
        with pytest.raises(ConversionOverflowError, match="element 1"):
            superacc_total(np.array([0.0, 1e30, 0.0]), HPParams(2, 1))

    def test_nan_rejected(self):
        with pytest.raises(ConversionOverflowError):
            superacc_total(np.array([1.0, float("nan")]), P)

    def test_mixed_params_merge_rejected(self):
        a = pure_engine(HPParams(2, 1))
        b = pure_engine(HPParams(3, 2))
        with pytest.raises(MixedParameterError):
            a.merge(b)

    def test_bins_property_elementwise_mergeable(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 400)
        halves = np.array_split(xs, 2)
        engines = []
        for half in halves:
            e = pure_engine(hp_params)
            e.absorb(half)
            engines.append(e)
        merged_chunks = tuple(
            x + y for x, y in zip(engines[0].chunks, engines[1].chunks)
        )
        whole = pure_engine(hp_params)
        whole.absorb(xs)
        assert fold_bins(merged_chunks) == whole.total()

    def test_reset(self, rng):
        engine = pure_engine(P)
        engine.absorb(rng.uniform(-1, 1, 100))
        engine.reset()
        assert engine.total() == 0
        assert engine.count == 0

    def test_empty_absorb(self):
        engine = pure_engine(P)
        engine.absorb(np.array([], dtype=np.float64))
        assert engine.to_words() == (0,) * P.n

    def test_accumulator_add_doubles_matches_extend(self, rng, hp_params):
        xs = adversarial_pool(hp_params, rng, 300)
        a = HPAccumulator(hp_params, check_overflow=False)
        a.extend(xs.tolist())
        b = HPAccumulator(hp_params, check_overflow=False)
        b.add_doubles(xs)
        assert a.words == b.words
        assert a.count == b.count
