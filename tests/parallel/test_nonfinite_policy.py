"""One NaN/inf policy at :func:`repro.parallel.drivers.global_sum`.

Every adapter — exact, compensated and the ``double`` baseline — raises
the exact engines' domain error on NaN/inf summands, on every
substrate, instead of returning ``nan``/``inf``.  A finite input whose
float sum overflows is not a domain error: ``double`` still returns
``inf`` there.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import engines
from repro.errors import ConversionOverflowError
from repro.parallel.drivers import global_sum

METHODS = (*engines.adapter_names(), "double")

NONFINITE = {
    "inf": [1.0, math.inf],
    "nan": [1.0, math.nan, 2.0],
    "-inf": [-math.inf, 3.0, 4.0],
    "inf-inf": [math.inf, -math.inf],
}


@pytest.mark.parametrize("substrate", ("serial", "threads"))
@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("case", sorted(NONFINITE))
def test_nonfinite_summands_raise_the_domain_error(case, method, substrate):
    xs = np.array(NONFINITE[case])
    with pytest.raises(ConversionOverflowError,
                       match="input contains NaN or infinity"):
        global_sum(xs, method, substrate=substrate, pes=2)


@pytest.mark.parametrize("substrate", ("serial", "threads"))
def test_finite_double_overflow_still_returns_inf(substrate):
    xs = np.array([1e308, 1e308])
    with np.errstate(over="ignore"):
        result = global_sum(xs, "double", substrate=substrate, pes=2)
    assert result.value == math.inf
