"""Error-bound-driven engine selection: the accuracy/cost planner.

Given a request's summand count and accuracy target, pick the cheapest
registered engine whose a-priori forward-error bound
(:mod:`repro.core.bounds`, after Hallman & Ipsen 2021) meets the
target — falling back to an exact HP engine only when required.  This
is the economics layer the ROADMAP's adaptive-selection item calls for:
most traffic tolerates a known error, and a bound that is known *before
summing* lets the service route it off the expensive exact tiers.

Target semantics
----------------
``target`` is a **mass-relative** error budget: the promise is

    |computed - exact| <= target * sum|x_i| .

An engine is eligible when its bound coefficient ``c(n) <= target``.
Exact HP engines have ``c(n) = 0`` (they return the correctly rounded
sum), so ``target = 0`` provably selects an exact engine; no admissible
target can go unserved.  Mass-relative (rather than relative to the
result) is the honest contract for summation — for cancelling inputs no
inexact method can promise a result-relative error, which is exactly
when the planner escalates to exact HP.

Cost model
----------
Eligible engines rank by ``unit_cost * n`` with the measured
per-summand unit costs in
:data:`repro.perfmodel.costs.PLANNER_UNIT_COSTS`.  An engine without a
cost entry is not planned.

Escalation
----------
The drift monitor validates planner choices against their promised
bounds in production (:meth:`DriftMonitor.observe_planned`).  A breach
calls :func:`record_breach`: the offending inexact engine is distrusted
— subsequent plans skip it (automatic escalation toward exact HP) until
:func:`reset_escalations`.  Exact engines are never escalated away; a
"breach" there is a production-severity bug counted separately.

Metrics (gated on the observability registry): ``planner.plans``,
``planner.decisions{engine=}``, ``planner.escalations{engine=}``; the
bound-margin histogram is published by the monitor at validation time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import bounds as _bounds
from repro.core import engines as _engines
from repro.observability import journal as _journal
from repro.observability import metrics as _obs

__all__ = [
    "Candidate",
    "EnginePlan",
    "PlannedSum",
    "escalated_engines",
    "plan",
    "planned_sum",
    "record_breach",
    "reset_escalations",
]

_LOCK = threading.Lock()
#: engine name -> breach count; escalated engines are skipped by plan().
_ESCALATED: dict[str, int] = {}


@dataclass(frozen=True)
class Candidate:
    """One engine's row in a plan: bound, cost, and the verdict."""

    engine: str
    bound_model: str
    coefficient: float
    predicted_cost: float
    exact: bool
    eligible: bool
    escalated: bool
    chosen: bool

    @property
    def verdict(self) -> str:
        if self.chosen:
            return "CHOSEN"
        if self.escalated:
            return "escalated away"
        if not self.eligible:
            return "bound exceeds target"
        return "eligible, costlier"


@dataclass(frozen=True)
class EnginePlan:
    """The planner's decision for one request."""

    n: int
    target: float
    mode: str
    engine: str
    bound: _bounds.ErrorBound
    predicted_cost: float
    exact: bool
    candidates: tuple = field(default_factory=tuple)
    escalated_from: tuple = field(default_factory=tuple)

    def absolute_bound(self, mass: float) -> float:
        """The promised absolute error limit given the mass
        ``sum|x_i|`` (or its streaming bound ``n * max|x_i|``)."""
        return self.bound.absolute(mass)

    def explain(self) -> str:
        """Human-readable decision table for ``--explain-plan`` output."""
        from repro.util.tables import render_table

        rows = [
            (
                c.engine,
                c.bound_model,
                c.coefficient,
                c.predicted_cost,
                c.verdict,
            )
            for c in self.candidates
        ]
        header = (
            f"plan(n={self.n}, target={self.target:g}, mode={self.mode}): "
            f"engine={self.engine}"
        )
        if self.escalated_from:
            header += (
                f"  [escalated: {', '.join(self.escalated_from)} distrusted]"
            )
        return header + "\n" + render_table(
            ["engine", "bound model", "coefficient", "cost", "verdict"],
            rows,
            precision=3,
        )


def record_breach(engine: str) -> None:
    """Distrust an inexact engine after a validated bound breach.

    Called by the drift monitor; subsequent :func:`plan` calls skip the
    engine (escalating the traffic toward exact HP).  Exact engines are
    counted but never escalated away — they are the fallback.
    """
    spec = _engines.get(engine)
    if _obs.ENABLED:
        _obs.REGISTRY.counter(
            "planner.escalations", engine=spec.name
        ).inc()
    _journal.emit("plan.escalation", engine=spec.name, exact=spec.exact)
    if spec.exact:
        return
    with _LOCK:
        _ESCALATED[spec.name] = _ESCALATED.get(spec.name, 0) + 1


def escalated_engines() -> dict[str, int]:
    """Currently distrusted engines and their breach counts."""
    with _LOCK:
        return dict(_ESCALATED)


def reset_escalations() -> None:
    with _LOCK:
        _ESCALATED.clear()


def plan(
    n: int,
    target: float,
    mode: str = "deterministic",
    failure_prob: float = 1e-9,
) -> EnginePlan:
    """Rank eligible engines by predicted cost; return the decision.

    ``target`` is the mass-relative budget (see the module docstring);
    ``target = 0`` demands exactness.
    """
    if not (target >= 0.0):  # also rejects NaN
        raise ValueError(
            f"target accuracy must be non-negative, got {target!r}"
        )
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    from repro.perfmodel.costs import PLANNER_UNIT_COSTS as costs

    distrusted = escalated_engines()

    rows = []
    for spec in _engines.specs():
        coeff = _bounds.coefficient(
            spec.bound_model, n, mode=mode, failure_prob=failure_prob
        )
        unit = costs.get(spec.name)
        if unit is None:
            continue  # engine opted out of planning (no cost entry)
        rows.append(
            {
                "spec": spec,
                "coefficient": coeff,
                "cost": unit * max(n, 1),
                "escalated": spec.name in distrusted,
                # A zero target demands exactness even where an inexact
                # tier's coefficient is 0 too (n <= 1).
                "eligible": (spec.exact if target == 0.0 else coeff <= target)
                and spec.name not in distrusted,
            }
        )
    eligible = [r for r in rows if r["eligible"]]
    if not eligible:
        raise RuntimeError(
            "no engine satisfies the target — exact engines must always "
            "be registered and are never escalated away"
        )
    best = min(eligible, key=lambda r: (r["cost"], r["coefficient"]))

    rows.sort(key=lambda r: (r["cost"], r["coefficient"]))
    candidates = tuple(
        Candidate(
            engine=r["spec"].name,
            bound_model=r["spec"].bound_model,
            coefficient=r["coefficient"],
            predicted_cost=r["cost"],
            exact=r["spec"].exact,
            eligible=r["eligible"],
            escalated=r["escalated"],
            chosen=r is best,
        )
        for r in rows
    )
    spec = best["spec"]
    if _obs.ENABLED:
        _obs.REGISTRY.counter("planner.plans").inc()
        _obs.REGISTRY.counter(
            "planner.decisions", engine=spec.name, mode=mode
        ).inc()
    if _journal.ENABLED:
        _journal.emit(
            "plan.decision", n=n, target=target, mode=mode,
            engine=spec.name,
            exact=spec.exact, coefficient=best["coefficient"],
            predicted_cost=best["cost"],
            escalated_from=sorted(distrusted),
            verdicts=[
                {
                    "engine": r["spec"].name,
                    "coefficient": r["coefficient"],
                    "verdict": (
                        "CHOSEN" if r is best
                        else "escalated away" if r["escalated"]
                        else "bound exceeds target" if not r["eligible"]
                        else "eligible, costlier"
                    ),
                }
                for r in rows
            ],
        )
    return EnginePlan(
        n=n,
        target=target,
        mode=mode,
        engine=spec.name,
        bound=_bounds.ErrorBound(
            model=spec.bound_model,
            mode=mode,
            n=n,
            coefficient=best["coefficient"],
        ),
        predicted_cost=best["cost"],
        exact=spec.exact,
        candidates=candidates,
        escalated_from=tuple(sorted(distrusted)),
    )


@dataclass(frozen=True)
class PlannedSum:
    """Outcome of a planner-routed summation."""

    value: float
    plan: EnginePlan
    #: exact HP words when an exact engine served the request, else None
    words: tuple | None
    params: object | None


def planned_sum(
    xs: np.ndarray,
    target: float,
    mode: str = "deterministic",
    failure_prob: float = 1e-9,
    params=None,
    chunk: int = 1 << 20,
) -> PlannedSum:
    """Plan and execute one summation under an accuracy target.

    Exact-engine plans return the HP words alongside the value; inexact
    plans return the compensated value (``words=None``).  When the drift
    monitor is armed, the delivered value is validated against the
    plan's promised bound (:meth:`DriftMonitor.observe_planned`) — a
    breach alarms and escalates the engine for subsequent plans.
    """
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    if xs.ndim != 1:
        raise ValueError(f"expected 1-D input, got shape {xs.shape}")
    decision = plan(xs.size, target, mode=mode, failure_prob=failure_prob)
    spec = _engines.get(decision.engine)
    words = None
    if spec.exact:
        from repro.core.params import data_params
        from repro.core.scalar import to_double
        from repro.core.vectorized import batch_sum_doubles

        if params is None:
            params = data_params(xs)
        words = tuple(
            batch_sum_doubles(xs, params, chunk=chunk, method=spec.name)
        )
        value = to_double(words, params)
    else:
        params = None
        value = spec.float_total(xs, chunk)
    validate_routed(xs, value, decision, params=params, chunk=chunk)
    return PlannedSum(value=value, plan=decision, words=words, params=params)


def validate_routed(
    xs: np.ndarray,
    value: float,
    decision,
    params=None,
    chunk: int = 1 << 20,
) -> None:
    """Audit a planner-routed sum against the plan's promised bound.

    Both :func:`planned_sum` and ``repro sum --target-accuracy`` (which
    executes through :func:`repro.parallel.drivers.global_sum`) land
    here: :meth:`DriftMonitor.observe_planned` emits the ``bound.check``
    journal row, and when armed the ``planner.*`` metrics and breach
    escalation.  ``params`` is the HP format the sum ran in; batches
    past the monitor's sample limit are recomputed over a prefix in that
    format (default: :func:`~repro.core.params.data_params` of ``xs``).
    """
    from repro.observability import monitor as _drift

    if not (_drift.MONITOR.armed or _journal.ENABLED):
        return
    xs = np.ascontiguousarray(xs, dtype=np.float64)
    spec = _engines.get(decision.engine)
    recompute: Callable[[np.ndarray], float]
    if spec.exact:
        from repro.core.params import data_params
        from repro.core.scalar import to_double
        from repro.core.vectorized import batch_sum_doubles

        if params is None:
            params = data_params(xs)

        def recompute(sample, _p=params, _m=spec.name):
            return to_double(
                batch_sum_doubles(sample, _p, chunk=chunk, method=_m), _p
            )

    else:
        def recompute(sample, _m=spec.name):
            return _engines.get(_m).float_total(sample, chunk)

    _drift.MONITOR.observe_planned(xs, value, decision, recompute)
