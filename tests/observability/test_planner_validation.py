"""Planner bound validation through the drift monitor.

``observe_planned`` closes the loop the planner promises: every routed
sum is checked against its a-priori bound, margins land in metrics, and
a breach escalates the engine so subsequent plans reroute.  The breach
paths are exercised with synthetic lying plans (a real kernel breaching
its real bound would be a different bug).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import bounds, planner
from repro.observability import metrics
from repro.observability.metrics import REGISTRY
from repro.observability.monitor import MONITOR


@pytest.fixture(autouse=True)
def clean_planner_state():
    planner.reset_escalations()
    yield
    planner.reset_escalations()


def arm():
    metrics.enable()
    MONITOR.arm()


def make_plan(engine: str, n: int, coefficient: float) -> planner.EnginePlan:
    return planner.EnginePlan(
        n=n,
        target=coefficient,
        mode="deterministic",
        engine=engine,
        bound=bounds.ErrorBound(
            model="pairwise", mode="deterministic", n=n,
            coefficient=coefficient,
        ),
        predicted_cost=float(n),
        exact=coefficient == 0.0,
    )


def counter_value(name: str, **labels) -> float:
    return REGISTRY.counter(name, **labels).value


class TestObservePlanned:
    def test_disarmed_is_noop(self):
        xs = np.ones(10)
        plan = make_plan("comp-pairwise", 10, 1e-15)
        assert MONITOR.observe_planned(xs, 10.0, plan) is None

    def test_within_bound_records_margin(self):
        arm()
        rng = np.random.default_rng(41)
        xs = rng.standard_normal(10_000)
        result = planner.planned_sum(xs, 1e-12)
        record = MONITOR.observe_planned(
            xs, result.value, result.plan
        )
        assert record is not None
        assert not record["breached"]
        assert 0.0 <= record["margin"] < 1.0
        assert record["reference"] == math.fsum(xs)
        assert counter_value(
            "planner.validations", engine=result.plan.engine
        ) >= 1
        assert planner.escalated_engines() == {}

    def test_breach_counts_escalates_and_fires_callbacks(self):
        arm()
        events = []
        MONITOR.on_breach.append(events.append)
        try:
            xs = np.ones(100)
            # A lying plan: promises essentially zero error from an
            # inexact tier, then delivers a value that is off by 1.
            plan = make_plan("comp-pairwise", 100, 1e-30)
            record = MONITOR.observe_planned(xs, 101.0, plan)
        finally:
            MONITOR.on_breach.clear()
        assert record["breached"]
        assert record["margin"] > 1.0
        assert counter_value(
            "planner.bound_breaches", engine="comp-pairwise"
        ) == 1
        assert planner.escalated_engines() == {"comp-pairwise": 1}
        assert len(events) == 1 and events[0]["kind"] == "planner_bound"
        # The escalation reroutes the next plan off the breached tier.
        assert planner.plan(
            4 * 1024 * 1024, 1e-12
        ).engine != "comp-pairwise"

    def test_exact_plan_has_zero_budget(self):
        arm()
        xs = np.array([1.0, 2.0, 3.0])
        plan = make_plan("small", 3, 0.0)
        ok = MONITOR.observe_planned(xs, 6.0, plan)
        assert not ok["breached"] and ok["margin"] == 0.0
        bad = MONITOR.observe_planned(xs, 6.0000001, plan)
        assert bad["breached"] and bad["margin"] == math.inf
        # Exact engines are counted but never escalated away.
        assert planner.escalated_engines() == {}
        assert planner.plan(10, 0.0).engine  # still servable

    def test_partial_sums_past_dbl_max_audit_exactly(self):
        # The exact sum is 1e308, but the left-to-right partial sum and
        # the mass sum|x| = 3e308 pass DBL_MAX: the reference must stay
        # exact and the exact plan's zero budget must stay zero, not NaN.
        arm()
        xs = np.array([1e308, 1e308, -1e308])
        record = MONITOR.observe_planned(xs, 1e308, make_plan("small", 3, 0.0))
        assert record["reference"] == 1e308
        assert record["error"] == 0.0 and record["bound"] == 0.0
        assert record["margin"] == 0.0 and not record["breached"]
        # An inexact plan's budget over an infinite mass is infinite.
        record = MONITOR.observe_planned(
            xs, 1e308, make_plan("comp-pairwise", 3, 1e-15)
        )
        assert record["bound"] == math.inf and not record["breached"]

    def test_reference_of_an_overflowing_exact_sum_is_inf(self):
        arm()
        xs = np.array([1e308, 1e308])
        record = MONITOR.observe_planned(
            xs, math.inf, make_plan("comp-pairwise", 2, 1e-15)
        )
        assert record["reference"] == math.inf

    def test_capped_batch_validates_prefix_via_recompute(self):
        arm()
        MONITOR.sample_limit = 1 << 10
        try:
            rng = np.random.default_rng(42)
            xs = rng.standard_normal(5_000)
            plan = make_plan("comp-pairwise", 5_000, 1e-14)
            seen = {}

            def recompute(sample):
                seen["n"] = len(sample)
                return math.fsum(sample)

            record = MONITOR.observe_planned(xs, 123.0, plan, recompute)
            assert seen["n"] == 1 << 10
            assert record["validated"] == 1 << 10
            assert not record["breached"]  # recomputed value is exact
            # Without a recompute closure the capped batch is skipped.
            assert MONITOR.observe_planned(xs, 123.0, plan) is None
        finally:
            MONITOR.sample_limit = 1 << 21

    def test_planned_sum_self_reports_when_armed(self):
        arm()
        rng = np.random.default_rng(43)
        xs = rng.standard_normal(2_000)
        result = planner.planned_sum(xs, 1e-12)
        engine = result.plan.engine
        assert counter_value("planner.validations", engine=engine) == 1
        assert counter_value("planner.bound_breaches", engine=engine) == 0

    def test_empty_batch_skipped(self):
        arm()
        plan = make_plan("comp-pairwise", 0, 1e-15)
        assert MONITOR.observe_planned(np.array([]), 0.0, plan) is None


class TestJournalOnlyAudit:
    """With only the journal gate on, the promise-vs-measurement audit
    still runs — it lands solely as the ``bound.check`` journal row, no
    ``planner.*`` metrics, no breach escalation."""

    def test_emits_bound_check_without_metrics(self):
        from repro.observability import journal

        journal.enable()
        xs = np.ones(10)
        plan = make_plan("comp-pairwise", 10, 1e-15)
        record = MONITOR.observe_planned(xs, 10.0, plan)
        assert record is not None and not record["breached"]
        (event,) = journal.JOURNAL.events(event="bound.check")
        assert event["engine"] == "comp-pairwise"
        assert event["margin"] == record["margin"]
        assert not event["breached"]
        assert REGISTRY.collect(prefix="planner") == []

    def test_breach_is_journaled_but_not_escalated(self):
        from repro.observability import journal

        journal.enable()
        xs = np.ones(10)
        plan = make_plan("comp-pairwise", 10, 1e-30)
        record = MONITOR.observe_planned(xs, 10.5, plan)
        assert record["breached"]
        (event,) = journal.JOURNAL.events(event="bound.check")
        assert event["breached"] is True
        # Escalation is the armed monitor's job; a journal-only run
        # records the breach without rerouting subsequent plans.
        assert planner.escalated_engines() == {}
        assert REGISTRY.collect(prefix="planner") == []

    def test_all_gates_off_is_noop(self):
        from repro.observability.journal import JOURNAL

        plan = make_plan("comp-pairwise", 10, 1e-15)
        assert MONITOR.observe_planned(np.ones(10), 10.0, plan) is None
        assert JOURNAL.stats() == {}


class TestValidateRouted:
    """``validate_routed`` re-attaches a substrate-executed value to its
    plan — the CLI's ``--target-accuracy --substrate`` path."""

    def test_audits_through_armed_monitor(self):
        arm()
        rng = np.random.default_rng(44)
        xs = rng.standard_normal(2_000)
        decision = planner.plan(xs.size, 1e-12)
        planner.validate_routed(xs, math.fsum(xs), decision)
        assert counter_value(
            "planner.validations", engine=decision.engine) == 1
        assert counter_value(
            "planner.bound_breaches", engine=decision.engine) == 0

    def test_exact_plan_recomputes_with_exact_engine(self):
        arm()
        MONITOR.sample_limit = 256
        try:
            rng = np.random.default_rng(45)
            xs = rng.standard_normal(1_000)
            decision = planner.plan(xs.size, 0.0)
            assert decision.exact
            # Above the sample limit the prefix is re-run through the
            # chosen exact engine; it must match fsum bit-for-bit.
            planner.validate_routed(xs, 0.0, decision)
            assert counter_value(
                "planner.validations", engine=decision.engine) == 1
            assert counter_value(
                "planner.bound_breaches", engine=decision.engine) == 0
        finally:
            MONITOR.sample_limit = 1 << 21

    def test_noop_when_gates_off(self):
        from repro.observability.journal import JOURNAL

        decision = planner.plan(100, 1e-12)
        planner.validate_routed(np.ones(100), 100.0, decision)
        assert JOURNAL.stats() == {}
        assert REGISTRY.collect(prefix="planner") == []
