"""A-priori forward-error bounds per summation engine.

Hallman & Ipsen 2021 ("Deterministic and probabilistic error bounds for
floating point summation algorithms", PAPERS.md) give cheap bounds of
the shape

    |computed - exact| <= c(n) * sum|x_i|

where the coefficient ``c(n)`` depends only on the algorithm's
reduction *depth* — not on the data.  That makes the bound a planning
tool: knowing only ``n`` (and ``max|x_i|`` to upper-bound the mass by
``n * max|x_i|``, both streaming-estimable), the planner can decide
*before* summing whether a cheap tier meets a requested accuracy.

Deterministic coefficients (Higham ``gamma_k = k*u / (1 - k*u)``,
``u = 2**-53``):

================  ====================================================
engine            coefficient
================  ====================================================
recursive         ``gamma_{n-1}`` — the naive left-to-right baseline
pairwise          ``gamma_{ceil(log2 n) + s}`` with slack ``s``
                  covering NumPy's blocked 8-way-unrolled reduction
                  and the chunk-merge tree
exact HP          ``0`` — the engines return the correctly rounded sum
================  ====================================================

Probabilistic coefficients (Hallman & Ipsen's martingale analysis):
with probability at least ``1 - delta`` the error behaves like the
*square root* of the depth rather than the depth itself,

    c(n) ~= lambda(delta) * u * sqrt(h) ,
    lambda(delta) = sqrt(2 * ln(2 / delta)) ,

with ``h = n - 1`` (recursive) or ``ceil(log2 n) + s`` (pairwise).
Probabilistic bounds are advisory — the planner defaults to the
deterministic ones, and the drift monitor validates whichever mode
produced the plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "UNIT_ROUNDOFF",
    "PAIRWISE_DEPTH_SLACK",
    "ErrorBound",
    "bound",
    "coefficient",
    "gamma",
    "lambda_factor",
    "mass_upper_bound",
    "supported_models",
]

#: Half the spacing of doubles at 1.0 (the rounding-error scale).
UNIT_ROUNDOFF = 2.0**-53

#: Extra depth granted to the pairwise coefficient beyond ``log2 n``:
#: NumPy's ``add.reduce`` blocks at 128 elements with an 8-way unrolled
#: inner loop, and the chunked kernel merges chunk results through a
#: ``two_sum`` chain — 10 levels cover both with margin.
PAIRWISE_DEPTH_SLACK = 10

MODES = ("deterministic", "probabilistic")


def gamma(k: float) -> float:
    """Higham's ``gamma_k = k*u / (1 - k*u)``."""
    ku = k * UNIT_ROUNDOFF
    if ku >= 1.0:
        raise ValueError(f"error bound diverges for k = {k}")
    return ku / (1.0 - ku)


def lambda_factor(failure_prob: float) -> float:
    """Hallman & Ipsen's ``lambda(delta) = sqrt(2 ln(2/delta))``."""
    if not 0.0 < failure_prob < 1.0:
        raise ValueError(
            f"failure probability must be in (0, 1), got {failure_prob}"
        )
    return math.sqrt(2.0 * math.log(2.0 / failure_prob))


def mass_upper_bound(n: int, max_abs: float) -> float:
    """``sum|x_i| <= n * max|x_i|`` — the streaming mass estimate."""
    return float(n) * float(max_abs)


def _pairwise_depth(n: int) -> int:
    if n < 2:
        return 0
    return math.ceil(math.log2(n)) + PAIRWISE_DEPTH_SLACK


#: model name -> deterministic coefficient c(n)
_DETERMINISTIC = {
    "exact": lambda n: 0.0,
    "recursive": lambda n: gamma(n - 1) if n >= 2 else 0.0,
    "pairwise": lambda n: gamma(_pairwise_depth(n)) if n >= 2 else 0.0,
}


def _probabilistic(model: str, n: int, failure_prob: float) -> float:
    if n < 2:
        return 0.0
    lam = lambda_factor(failure_prob)
    u = UNIT_ROUNDOFF
    if model == "exact":
        return 0.0
    if model == "recursive":
        return lam * u * math.sqrt(n - 1) + gamma(2) ** 2 * (n - 1)
    if model == "pairwise":
        h = _pairwise_depth(n)
        return lam * u * math.sqrt(h) + gamma(2) ** 2 * h
    raise ValueError(f"unknown bound model {model!r}")


def supported_models() -> tuple[str, ...]:
    return tuple(_DETERMINISTIC)


def coefficient(
    model: str,
    n: int,
    mode: str = "deterministic",
    failure_prob: float = 1e-9,
) -> float:
    """The bound coefficient ``c(n)``: ``|error| <= c(n) * sum|x_i|``.

    ``model`` is a bound-model name (``exact`` / ``recursive`` /
    ``pairwise``) — engine specs carry their model in the registry;
    ``recursive`` prices the naive left-to-right ``double`` baseline,
    which has no registry entry.  ``mode`` selects the deterministic (worst-case)
    coefficient or the probabilistic one holding with probability
    ``1 - failure_prob``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if mode == "deterministic":
        try:
            det = _DETERMINISTIC[model]
        except KeyError:
            raise ValueError(
                f"unknown bound model {model!r}; "
                f"pick one of {'/'.join(_DETERMINISTIC)}"
            ) from None
        return det(n)
    if mode == "probabilistic":
        if model not in _DETERMINISTIC:
            raise ValueError(
                f"unknown bound model {model!r}; "
                f"pick one of {'/'.join(_DETERMINISTIC)}"
            )
        return _probabilistic(model, n, failure_prob)
    raise ValueError(f"unknown bound mode {mode!r}; pick one of {MODES}")


@dataclass(frozen=True)
class ErrorBound:
    """One engine's a-priori bound at a given ``n``."""

    model: str
    mode: str
    n: int
    coefficient: float

    def absolute(self, mass: float) -> float:
        """Absolute error limit given the mass ``sum|x_i]`` (or its
        streaming upper bound ``n * max|x_i|``)."""
        return self.coefficient * abs(mass)

    def absolute_from_max(self, max_abs: float) -> float:
        """Absolute limit from the streaming estimate alone."""
        return self.absolute(mass_upper_bound(self.n, max_abs))


def bound(
    model: str,
    n: int,
    mode: str = "deterministic",
    failure_prob: float = 1e-9,
) -> ErrorBound:
    """Construct the :class:`ErrorBound` for a model at ``n``."""
    return ErrorBound(
        model=model,
        mode=mode,
        n=n,
        coefficient=coefficient(model, n, mode, failure_prob),
    )
