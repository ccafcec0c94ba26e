"""A-priori error-bound contracts (:mod:`repro.core.bounds`).

The planner's eligibility math rests on three properties pinned here:
coefficients are nonnegative and nondecreasing in ``n`` (so a full-batch
coefficient upper-bounds any prefix — the monitor's capped-validation
argument), exact engines have coefficient exactly zero (so ``target=0``
provably selects them), and the deterministic/probabilistic forms order
the way Hallman & Ipsen 2021 says they do.
"""

from __future__ import annotations

import math

import pytest

from repro.core import bounds


class TestGamma:
    def test_gamma_small_k(self):
        u = bounds.UNIT_ROUNDOFF
        assert bounds.gamma(0) == 0.0
        assert bounds.gamma(1) == pytest.approx(u, rel=1e-12)
        assert bounds.gamma(2) == pytest.approx(2 * u, rel=1e-9)

    def test_gamma_monotone(self):
        vals = [bounds.gamma(k) for k in (1, 2, 10, 1000, 10**6)]
        assert vals == sorted(vals)
        assert all(v > 0 for v in vals)

    def test_gamma_rejects_saturation(self):
        # ku >= 1 would make the denominator nonpositive.
        with pytest.raises(ValueError):
            bounds.gamma(2**54)

    def test_lambda_factor(self):
        lam = bounds.lambda_factor(1e-9)
        assert lam == pytest.approx(math.sqrt(2 * math.log(2e9)), rel=1e-12)


class TestCoefficient:
    def test_exact_is_zero_for_all_n(self):
        for n in (0, 1, 2, 10**6, 2**31):
            assert bounds.coefficient("exact", n) == 0.0

    def test_trivial_n_is_zero(self):
        # Zero or one summand incurs no rounding at all, in any model.
        for model in bounds.supported_models():
            assert bounds.coefficient(model, 0) == 0.0
            assert bounds.coefficient(model, 1) == 0.0

    @pytest.mark.parametrize("model", ["recursive", "pairwise"])
    def test_nondecreasing_in_n(self, model):
        ns = [2, 3, 10, 100, 10**4, 10**6, 2**25]
        coeffs = [bounds.coefficient(model, n) for n in ns]
        assert coeffs == sorted(coeffs)
        assert coeffs[0] > 0.0

    def test_pairwise_beats_recursive_at_scale(self):
        n = 4 * 1024 * 1024
        assert bounds.coefficient("pairwise", n) < bounds.coefficient(
            "recursive", n
        )

    def test_pairwise_clears_the_4m_acceptance_target(self):
        # The acceptance scenario: at n = 4M the pairwise coefficient
        # must clear a 1e-12 mass-relative target with huge margin.
        coeff = bounds.coefficient("pairwise", 4 * 1024 * 1024)
        assert coeff < 1e-14
        assert coeff > bounds.UNIT_ROUNDOFF  # but it is not zero

    @pytest.mark.parametrize(
        "model,n",
        [
            # Concentration pays once lambda(delta) < sqrt(depth):
            # immediately for the recursive depth n-1, only at extreme n
            # for the logarithmic pairwise depth.
            ("recursive", 1 << 24),
            ("pairwise", 1 << 52),
        ],
    )
    def test_probabilistic_below_deterministic_at_depth(self, model, n):
        det = bounds.coefficient(model, n, mode="deterministic")
        prob = bounds.coefficient(
            model, n, mode="probabilistic", failure_prob=1e-9
        )
        assert 0.0 < prob < det

    def test_unknown_model_and_mode(self):
        with pytest.raises(ValueError, match="unknown bound model"):
            bounds.coefficient("magic", 10)
        with pytest.raises(ValueError, match="mode"):
            bounds.coefficient("pairwise", 10, mode="hopeful")

    def test_failure_prob_validated(self):
        with pytest.raises(ValueError):
            bounds.coefficient(
                "pairwise", 10, mode="probabilistic", failure_prob=0.0
            )
        with pytest.raises(ValueError):
            bounds.coefficient(
                "pairwise", 10, mode="probabilistic", failure_prob=2.0
            )

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            bounds.coefficient("pairwise", -1)


class TestErrorBound:
    def test_absolute_scales_with_mass(self):
        b = bounds.bound("pairwise", 1000)
        assert b.absolute(0.0) == 0.0
        assert b.absolute(2.0) == pytest.approx(2 * b.coefficient)

    def test_absolute_from_max(self):
        b = bounds.bound("pairwise", 1000)
        assert b.absolute_from_max(3.0) == pytest.approx(
            b.coefficient * bounds.mass_upper_bound(1000, 3.0)
        )

    def test_mass_upper_bound(self):
        assert bounds.mass_upper_bound(10, 2.5) == 25.0
