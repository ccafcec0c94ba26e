"""Continuous accuracy-drift monitor: shadow sums, ULP drift,
order-invariance probes.

The paper's central claim (Figs 1-2) is an *invariant*: conventional
float64 summation drifts with n and with summand order, while the HP /
superaccumulator result is exact and order-invariant.  In a service
that is exactly the kind of property to watch continuously rather than
assert once in CI.  :class:`DriftMonitor` does that, live:

* **Shadow sums.**  For a sampled fraction of traffic batches the
  monitor re-sums the (capped) batch two ways — the float64 naive
  left-to-right path and the correctly-rounded reference (the exact
  ``small`` engine, :func:`_exact_reference`) — and publishes the
  delivered value's and the shadow's distance from the reference as
  ``drift.ulp_error`` / ``drift.relative_error`` histograms, labeled by
  path.  For an exact method the delivered path's ULP error is zero
  *by construction*; a nonzero value is a production-severity bug.
* **Permutation probes.**  Every ``permute_period``-th sample the batch
  is re-summed in a shuffled order through the same adapter and
  compared bitwise.  Exact adapters must match
  (``drift.order_invariance_violations{path=...} == 0`` always); the
  float64 path is *expected* to violate, which makes its counter a
  live positive control that the probe works.
* **Threshold callbacks.**  ``on_breach`` callbacks fire (with a
  description dict) when a path's ULP or relative error exceeds the
  configured threshold, and ``drift.threshold_breaches`` counts them.
* **Planner bound validation.**  Every planner-routed summation
  (:func:`repro.core.planner.planned_sum`) reports through
  :meth:`DriftMonitor.observe_planned`: the delivered value is checked
  against the plan's *promised* a-priori bound
  ``|value - exact| <= coefficient * sum|x_i|``.  The consumed fraction
  of the budget lands in the ``planner.bound_margin`` histogram; a
  breach counts ``planner.bound_breaches``, fires the ``on_breach``
  callbacks, and escalates the engine
  (:func:`repro.core.planner.record_breach`) so subsequent plans route
  around it — automatic escalation toward exact HP.

The monitor is armed explicitly (:func:`enable` / ``monitoring()``),
publishes through the metrics registry only while the metrics gate is
on, and costs one attribute check per call while disarmed.  Wiring:
``global_sum`` observes serial/mpi/gpu/phi dispatches; the threads and
procs substrates observe their own reductions (and are skipped by the
driver to avoid double counting); ``repro serve-metrics`` and the
bench harnesses arm it for live runs.
"""

from __future__ import annotations

import math
import threading
from typing import Callable

import numpy as np

from repro.observability import journal as _journal
from repro.observability import metrics as _obs
from repro.summation.naive import ordered_sum
from repro.summation.stats import ulp_distance

__all__ = [
    "DriftMonitor",
    "MONITOR",
    "enable",
    "disable",
    "monitoring",
    "ULP_BUCKETS",
    "REL_BUCKETS",
    "MARGIN_BUCKETS",
]

#: Bucket ladder for ULP distances: 0 (exact) through catastrophic.
ULP_BUCKETS = (0, 1, 2, 5, 10, 100, 1_000, 10_000, 1e6, 1e9, 1e12)

#: Bucket ladder for relative errors (unit roundoff up to total loss).
REL_BUCKETS = (0.0, 1e-16, 1e-15, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1.0)

#: Bucket ladder for the planner bound margin: the fraction of the
#: promised error budget actually consumed (>= 1.0 is a breach).
MARGIN_BUCKETS = (0.0, 1e-6, 1e-3, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)


def _exact_reference(xs: np.ndarray) -> float:
    """The correctly rounded sum of ``xs``: ``±inf`` when the exact sum
    passes DBL_MAX, the IEEE float sum when ``xs`` holds NaN/inf.

    The exact ``small`` engine in the data-derived format keeps every
    partial sum exact, so ``[1e308, 1e308, -1e308]`` gives ``1e308``
    where ``math.fsum`` raises on the intermediate overflow.
    """
    from repro.core.engines import scaled_total
    from repro.core.params import data_params
    from repro.errors import ConversionOverflowError

    try:
        params = data_params(xs)
    except ConversionOverflowError:
        # Non-finite summands: the IEEE sum (NaN or ±inf) is the answer.
        return float(np.add.reduce(xs))
    scaled = scaled_total(xs, params, 1 << 20, "small")
    try:
        return scaled / params.scale
    except OverflowError:
        return math.inf if scaled > 0 else -math.inf


def _relative_error(value: float, reference: float) -> float:
    if reference == 0.0:
        return 0.0 if value == 0.0 else math.inf
    return abs(value - reference) / abs(reference)


class DriftMonitor:
    """Streaming watchdog comparing delivered sums against shadow sums.

    Parameters
    ----------
    sample_period:
        Observe every k-th traffic batch (1 = all).  Shadow summing is
        O(batch), so production deployments raise this.
    sample_limit:
        Cap on shadowed elements per batch; batches longer than this
        are shadowed over a prefix (the delivered-value comparison is
        then skipped, since the reference no longer covers the batch).
    permute_period:
        Run the permutation re-sum probe on every k-th *sampled* batch
        (0 disables probes).
    ulp_threshold / rel_threshold:
        Breach limits for the delivered (exact-path) value; ``None``
        disables that check.  The float64 shadow is exempt — drifting
        is its job.
    seed:
        Seed for the probe shuffles (deterministic tests).
    """

    def __init__(
        self,
        sample_period: int = 1,
        sample_limit: int = 1 << 21,
        permute_period: int = 4,
        ulp_threshold: int | None = 0,
        rel_threshold: float | None = None,
        seed: int = 0,
    ) -> None:
        if sample_period < 1:
            raise ValueError(f"sample_period must be >= 1, got {sample_period}")
        if sample_limit < 1:
            raise ValueError(f"sample_limit must be >= 1, got {sample_limit}")
        self.sample_period = sample_period
        self.sample_limit = sample_limit
        self.permute_period = permute_period
        self.ulp_threshold = ulp_threshold
        self.rel_threshold = rel_threshold
        self.armed = False
        self.on_breach: list[Callable[[dict], None]] = []
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self._calls = 0
        self._samples = 0
        self._worst: dict[str, int] = {}
        self._violations: dict[str, int] = {}

    # -- lifecycle ----------------------------------------------------------

    def arm(self, **overrides) -> "DriftMonitor":
        for key, value in overrides.items():
            if not hasattr(self, key):
                raise AttributeError(f"no monitor setting {key!r}")
            setattr(self, key, value)
        self.armed = True
        return self

    def disarm(self) -> None:
        self.armed = False

    def reset(self) -> None:
        with self._lock:
            self._calls = 0
            self._samples = 0
            self._worst.clear()
            self._violations.clear()

    # -- the observation hook ----------------------------------------------

    def observe(
        self,
        data: np.ndarray,
        value: float,
        method,
        substrate: str,
    ) -> dict | None:
        """Inspect one traffic batch.

        ``method`` is the :class:`~repro.parallel.methods.ReductionMethod`
        adapter that produced ``value`` (needed for the permutation
        probe to re-sum through the same path).  Returns the
        observation record, or ``None`` when the batch was skipped
        (disarmed, gate off, sampled out, or empty).
        """
        if not (self.armed and _obs.ENABLED):
            return None
        with self._lock:
            self._calls += 1
            if (self._calls - 1) % self.sample_period:
                return None
            self._samples += 1
            sample_index = self._samples
        n = len(data)
        if n == 0:
            return None
        full = n <= self.sample_limit
        sample = np.asarray(
            data if full else data[: self.sample_limit], dtype=np.float64
        )

        # Correctly-rounded reference and the float64 naive shadow:
        # the left-to-right recursion of naive_sum at NumPy speed.
        reference = _exact_reference(sample)
        shadow = ordered_sum(sample)

        path = method.name
        reg = _obs.REGISTRY
        reg.counter("drift.samples", path=path, substrate=substrate).inc()
        reg.counter("drift.shadow_summands").inc(len(sample))

        record = {
            "path": path,
            "substrate": substrate,
            "n": n,
            "shadowed": len(sample),
            "reference": reference,
            "shadow_float64": shadow,
            "value": value,
            "float64_ulp": self._publish("float64", shadow, reference),
        }
        # The delivered value is only comparable when the reference
        # covers the whole batch.
        if full:
            record["value_ulp"] = self._publish(path, value, reference)
            self._check_thresholds(record)

        probe_due = (
            self.permute_period > 0
            and sample_index % self.permute_period == 0
        )
        if probe_due:
            record["probe"] = self._permutation_probe(
                sample, method, substrate
            )
        return record

    def _publish(self, path: str, value: float, reference: float) -> int:
        reg = _obs.REGISTRY
        try:
            ulp = ulp_distance(value, reference)
        except ValueError:  # NaN traffic: beyond every bucket, not a crash
            ulp = 1 << 62
        rel = _relative_error(value, reference)
        if math.isnan(rel):
            rel = math.inf
        reg.histogram("drift.ulp_error", buckets=ULP_BUCKETS,
                      path=path).observe(ulp)
        reg.histogram("drift.relative_error", buckets=REL_BUCKETS,
                      path=path).observe(rel)
        reg.gauge("drift.last_ulp_error", path=path).set(ulp)
        with self._lock:
            self._worst[path] = max(self._worst.get(path, 0), ulp)
        return ulp

    def _permutation_probe(self, sample, method, substrate: str) -> dict:
        """Re-sum a shuffled copy through the same adapter and compare
        result bits — live Fig. 1/2, one data point per probe."""
        reg = _obs.REGISTRY
        path = method.name
        with self._lock:
            permuted = self._rng.permutation(sample)
        original = method.finalize(method.local_reduce(sample))
        reordered = method.finalize(method.local_reduce(permuted))
        invariant = (
            original == reordered
            or (math.isnan(original) and math.isnan(reordered))
        )
        reg.counter("drift.permutation_probes", path=path).inc()
        if not invariant:
            reg.counter(
                "drift.order_invariance_violations", path=path
            ).inc()
            with self._lock:
                self._violations[path] = self._violations.get(path, 0) + 1
            if method.is_exact():
                # An exact method reordering is the alarm this monitor
                # exists for; breach regardless of thresholds.
                self._breach({
                    "kind": "order_invariance",
                    "path": path,
                    "substrate": substrate,
                    "original": original,
                    "reordered": reordered,
                    "ulp": ulp_distance(original, reordered),
                })
        return {
            "path": path,
            "invariant": invariant,
            "original": original,
            "reordered": reordered,
        }

    # -- planner bound validation -------------------------------------------

    def observe_planned(
        self,
        data: np.ndarray,
        value: float,
        plan,
        recompute: Callable | None = None,
    ) -> dict | None:
        """Validate one planner-routed sum against its promised bound.

        ``plan`` is the :class:`repro.core.planner.EnginePlan` that chose
        the engine; the promise is ``|value - exact| <=
        plan.bound.coefficient * sum|data|``, with both sums taken by
        :func:`_exact_reference`.  Batches longer than
        ``sample_limit`` are validated over a prefix by re-running the
        chosen engine on it via ``recompute`` (bound coefficients are
        nondecreasing in ``n``, so the full-``n`` coefficient upper-
        bounds the prefix's).  Unlike :meth:`observe`, every call
        validates — planner routing is explicit opt-in traffic.

        A breach fires the ``on_breach`` callbacks and distrusts the
        engine for subsequent plans
        (:func:`repro.core.planner.record_breach`).

        Runs in two modes: fully armed (metrics gate on + monitor
        armed) publishes the ``planner.*`` series and drives the breach
        machinery; with only the journal gate on, the promise-vs-
        measurement audit still runs but lands solely as the
        ``bound.check`` journal row — a ``--journal-out`` run records
        the margin without paying for the metrics pipeline.
        """
        audited = self.armed and _obs.ENABLED
        if not (audited or _journal.ENABLED):
            return None
        n = len(data)
        if n == 0:
            return None
        full = n <= self.sample_limit
        sample = np.asarray(
            data if full else data[: self.sample_limit], dtype=np.float64
        )
        if not full:
            if recompute is None:
                return None
            value = float(recompute(sample))
        reference = _exact_reference(sample)
        # The mass may pass DBL_MAX (inf); a zero coefficient still
        # promises a zero budget rather than 0 * inf = NaN.
        coefficient = plan.bound.coefficient
        bound_abs = (
            coefficient * _exact_reference(np.abs(sample))
            if coefficient else 0.0
        )
        err = abs(value - reference)
        if math.isnan(err):
            err = math.inf
        if bound_abs > 0.0:
            margin = err / bound_abs
        else:
            # Exact plans promise the correctly rounded sum: any error
            # at all consumes an infinite fraction of a zero budget.
            margin = 0.0 if err == 0.0 else math.inf
        breached = err > bound_abs

        if audited:
            reg = _obs.REGISTRY
            reg.counter("planner.validations", engine=plan.engine).inc()
            reg.histogram(
                "planner.bound_margin", buckets=MARGIN_BUCKETS,
                engine=plan.engine,
            ).observe(margin)
        record = {
            "engine": plan.engine,
            "n": n,
            "validated": len(sample),
            "value": value,
            "reference": reference,
            "error": err,
            "bound": bound_abs,
            "margin": margin,
            "breached": breached,
        }
        # The journal's promise-vs-measurement row: the plan's promised
        # absolute bound next to the drift actually measured — the
        # per-request audit record the accuracy SLO is computed from.
        _journal.emit(
            "bound.check", engine=plan.engine, n=n,
            target=plan.target, bound=bound_abs, error=err,
            margin=margin, breached=breached,
        )
        if breached and audited:
            from repro.core import planner as _planner

            reg.counter(
                "planner.bound_breaches", engine=plan.engine
            ).inc()
            _planner.record_breach(plan.engine)
            self._breach({
                "kind": "planner_bound",
                "path": plan.engine,
                "substrate": "planner",
                "error": err,
                "bound": bound_abs,
                "margin": margin,
                "value": value,
                "reference": reference,
            })
        return record

    # -- thresholds ---------------------------------------------------------

    def _check_thresholds(self, record: dict) -> None:
        ulp = record.get("value_ulp")
        if ulp is None:
            return
        rel = _relative_error(record["value"], record["reference"])
        breached = (
            (self.ulp_threshold is not None and ulp > self.ulp_threshold)
            or (self.rel_threshold is not None and rel > self.rel_threshold)
        )
        if breached:
            self._breach({
                "kind": "accuracy_drift",
                "path": record["path"],
                "substrate": record["substrate"],
                "ulp": ulp,
                "relative_error": rel,
                "value": record["value"],
                "reference": record["reference"],
            })

    def _breach(self, event: dict) -> None:
        _obs.REGISTRY.counter(
            "drift.threshold_breaches", path=event["path"],
            kind=event["kind"],
        ).inc()
        _journal.emit("alarm", **event)
        for callback in list(self.on_breach):
            callback(event)

    # -- reporting ----------------------------------------------------------

    def summary(self) -> dict:
        """Plain-dict digest (bench reports embed this)."""
        with self._lock:
            return {
                "calls": self._calls,
                "samples": self._samples,
                "worst_ulp_by_path": dict(self._worst),
                "order_invariance_violations": dict(self._violations),
                "sample_period": self.sample_period,
                "sample_limit": self.sample_limit,
                "permute_period": self.permute_period,
            }


#: The process-wide monitor every wired call site reports to.
MONITOR = DriftMonitor()


def enable(**overrides) -> DriftMonitor:
    """Arm the process-wide monitor (optionally overriding settings)."""
    return MONITOR.arm(**overrides)


def disable() -> None:
    MONITOR.disarm()


class monitoring:
    """Context manager: arm for a region, restore the prior state::

        with monitoring(sample_period=4):
            serve_traffic()
    """

    def __init__(self, **overrides) -> None:
        self._overrides = overrides
        self._prior: dict | None = None

    def __enter__(self) -> DriftMonitor:
        self._prior = {
            "armed": MONITOR.armed,
            **{k: getattr(MONITOR, k) for k in self._overrides},
        }
        return MONITOR.arm(**self._overrides)

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._prior is not None
        armed = self._prior.pop("armed")
        for key, value in self._prior.items():
            setattr(MONITOR, key, value)
        MONITOR.armed = armed
