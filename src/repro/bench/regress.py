"""The pinned regression matrix behind ``repro bench --regress``.

What it measures
----------------
For every Table-1 configuration the matrix times one full batch
reduction of the same ``n`` summands through the exact engines of
:func:`repro.core.vectorized.batch_sum_doubles` (the
:mod:`repro.core.engines` registry):

``words``
    the O(n * N) word-matrix path (convert every summand to N words,
    fold the column sums) — the reference engine;
``small`` on the ``pure`` backend
    Neal's small superaccumulator (:mod:`repro.core.smallacc`) pinned
    to its pure-NumPy inner loops — the machine-independent baseline
    the speed gate is held to;
``small``
    the same engine on its default ``auto`` backend (compiled when
    available).

Timing is best-of-``repeats`` wall time via ``time.perf_counter`` —
best-of, not mean, because the regression question is "how fast can this
engine go on this machine", and the minimum is the observation least
polluted by scheduler noise.

What it checks
--------------
* every engine and backend produces bit-identical HP words on every
  case;
* at the headline configuration (the largest word count in the matrix,
  N=8 by default) the small engine's words match the scalar
  :class:`repro.core.accumulator.HPAccumulator` oracle across several
  random permutations of the input and several chunk sizes — the
  order-invariance contract, pinned against the slowest, most literal
  implementation in the repo.  The engine is checked on *both* the
  pure-NumPy backend and the resolved compiled backend (when one is
  available), so backend interchangeability is part of the gate;
* on those same backends, poisoned copies of the input (a NaN, an
  element at the range limit, a NaN after an out-of-range element) are
  rejected with the same error message and leave the engine untouched
  (``oracle.rejections``) — the compiled scatter validates its input
  itself, so rejection is part of the backend contract too;
* the small engine on the pure backend beats the words path at the
  headline configuration by at least ``min_speedup``;
* the compiled backend's speedup over the pure one at the headline is
  recorded against the ``small_target`` (10x): missing the target does
  not fail the gate (container-dependent), but the honest measured
  ratio and an explanatory note land in ``checks``.

* the compensated tier (``comp-pairwise``, the one inexact engine)
  is timed on the full batch and held to *its* contract — realized error within the a-priori bound
  (:mod:`repro.core.bounds`) and run-to-run bit determinism for the
  fixed input order — **not** to bit-identity (it is registered
  ``exact=False`` and the bit-identity gates skip it by
  construction).  The fastest bound-satisfying tier's speedup over the
  ``small`` exact engine is recorded against the 5x
  ``COMPENSATED_TARGET_SPEEDUP``; like the small engine's 10x, it is
  recorded, not gated.

The report is schema-versioned (``repro.bench.regress/5``); the
``BENCH_<pr>.json`` files committed at the repo root form the
performance trajectory across the PR stack, and every earlier schema
version still validates.
"""

from __future__ import annotations

import platform
import time
from typing import Callable, Sequence

SCHEMA = "repro.bench.regress/5"

#: Every schema version a report may carry.  /2 added the optional
#: ``phases`` block, /3 the small-engine columns, /4 the ``compensated``
#: block; /5 replaced the retired superaccumulator columns
#: (``superacc_seconds``, ``superacc_faster``, the separate
#: ``small_oracle``) with the pure-backend small engine.  The committed
#: trajectory points (/1, /3, /4) remain valid.
ACCEPTED_SCHEMAS = tuple(f"repro.bench.regress/{v}" for v in range(1, 6))

#: Headline speedup target for the small engine's compiled backend over
#: its pure-NumPy backend.  Recorded, not enforced: see the module
#: docstring.
SMALL_TARGET_SPEEDUP = 10.0

#: Speedup target for the fastest bound-satisfying compensated tier
#: over the ``small`` exact engine at the headline case.  Recorded, not
#: enforced (same precedent as :data:`SMALL_TARGET_SPEEDUP`).
COMPENSATED_TARGET_SPEEDUP = 5.0

#: The mass-relative accuracy target the compensated pass is held to
#: (``repro sum --target-accuracy 1e-12``).
COMPENSATED_TARGET_ACCURACY = 1e-12

#: The inexact tier the compensated pass covers.
COMPENSATED_TIERS = ("comp-pairwise",)

#: matrix defaults, pinned so reports stay comparable across PRs
DEFAULT_N = 1 << 20
DEFAULT_REPEATS = 3
DEFAULT_SEED = 20160523  # the paper's IPDPS 2016 presentation date
DEFAULT_PERMUTATIONS = 3
DEFAULT_CHUNK_SIZES = (1 << 16, 1 << 20)


def default_report_name(pr: int) -> str:
    """Trajectory-point filename for a PR number."""
    return f"BENCH_{pr}.json"


def _time_best(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time of ``fn`` in seconds."""
    best = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best


def _make_summands(n: int, seed: int):
    """A sign-mixed, exponent-spread workload that fits every Table-1
    range: magnitudes span ~2**-30 .. 2**30 so all bins participate."""
    import numpy as np

    rng = np.random.default_rng(seed)
    mantissa = rng.uniform(-1.0, 1.0, n)
    scale = np.exp2(rng.uniform(-30.0, 30.0, n))
    return mantissa * scale


def _oracle_words(xs, params):
    """Scalar accumulator reference — one summand at a time."""
    from repro.core.accumulator import HPAccumulator

    acc = HPAccumulator(params, check_overflow=False)
    for x in xs:
        acc.add(float(x))
    return acc.words


def run_regress(
    n: int = DEFAULT_N,
    repeats: int = DEFAULT_REPEATS,
    seed: int = DEFAULT_SEED,
    permutations: int = DEFAULT_PERMUTATIONS,
    chunk_sizes: Sequence[int] = DEFAULT_CHUNK_SIZES,
    min_speedup: float = 1.0,
    pr: int | None = None,
    skip_oracle: bool = False,
    drift: bool = False,
    profile: bool = False,
) -> dict:
    """Run the pinned matrix; return the schema-versioned report dict.

    ``skip_oracle`` drops the scalar-oracle stage (used by quick smoke
    runs; the full CI run always keeps it).  ``drift`` additionally
    arms the accuracy-drift monitor for the run — every Table-1 case is
    shadow-summed and the monitor digest lands in the report under
    ``"drift"`` (outside the timed sections).  ``profile`` runs one
    phase-attributed pass of the headline case through each engine
    *after* the timed sections and embeds the cost table under
    ``"phases"``, so a trajectory point carries attribution, not just
    totals.
    """
    import numpy as np

    from repro.core import native as _native
    from repro.core.params import TABLE1_CONFIGS, HPParams
    from repro.core.scalar import to_double
    from repro.core.smallacc import SmallAccumulator
    from repro.core.vectorized import batch_sum_doubles

    xs = _make_summands(n, seed)

    def small_words(params, backend):
        engine = SmallAccumulator(params, backend=backend)
        engine.absorb(xs)
        return engine.to_words()

    drift_monitor = None
    if drift:
        from repro import observability as _observability
        from repro.observability import monitor as _monitor

        _observability.enable(enable_tracing=False)
        drift_monitor = _monitor.MONITOR
        drift_monitor.arm()

    cases = []
    headline = None
    for n_words, k in TABLE1_CONFIGS:
        params = HPParams(n_words, k)
        words_result = batch_sum_doubles(xs, params, method="words")
        pure_result = small_words(params, "pure")
        small_result = batch_sum_doubles(xs, params, method="small")
        words_s = _time_best(
            lambda p=params: batch_sum_doubles(xs, p, method="words"),
            repeats,
        )
        pure_s = _time_best(
            lambda p=params: small_words(p, "pure"), repeats
        )
        small_s = _time_best(
            lambda p=params: batch_sum_doubles(xs, p, method="small"),
            repeats,
        )
        case = {
            "n_words": n_words,
            "k": k,
            "params": str(params),
            "n": n,
            "words_seconds": words_s,
            "pure_seconds": pure_s,
            "small_seconds": small_s,
            "speedup": words_s / pure_s if pure_s > 0 else None,
            "small_speedup": pure_s / small_s if small_s > 0 else None,
            "bit_identical": bool(pure_result == words_result),
            "small_bit_identical": bool(small_result == words_result),
        }
        cases.append(case)
        if drift_monitor is not None:
            # Outside the timed region: shadow-sum the case through the
            # monitor with the engine's own adapter.
            from repro.parallel.drivers import make_method

            drift_monitor.observe(
                xs, to_double(small_result, params),
                make_method("hp-small", params), "bench-regress",
            )
        if headline is None or n_words > headline["n_words"]:
            headline = case

    oracle = None
    oracle_ok = True
    resolved = _native.backend_name()
    if not skip_oracle:
        params = HPParams(headline["n_words"], headline["k"])
        reference = _oracle_words(xs, params)
        rng = np.random.default_rng(seed + 1)
        trials = []
        # The engine is oracle-checked on the pure backend and, when
        # the resolution chain yields a compiled one, on that too — the
        # same permutation/chunk grid for every backend.
        backends = ["pure"] if resolved == "pure" else ["pure", resolved]
        for p in range(permutations):
            permuted = xs[rng.permutation(n)]
            for chunk in chunk_sizes:
                for backend in backends:
                    engine = SmallAccumulator(
                        params, chunk=int(chunk), backend=backend
                    )
                    engine.absorb(permuted)
                    match = engine.to_words() == reference
                    trials.append(
                        {
                            "permutation": p,
                            "chunk": int(chunk),
                            "backend": backend,
                            "bit_identical": bool(match),
                        }
                    )
                    oracle_ok = oracle_ok and match
        rejections = _rejection_trials(xs, params, backends)
        oracle_ok = oracle_ok and all(r["agrees"] for r in rejections)
        oracle = {
            "params": str(params),
            "n": n,
            "permutations": permutations,
            "chunk_sizes": [int(c) for c in chunk_sizes],
            "backends": backends,
            "compiled_backend_available": resolved != "pure",
            "trials": trials,
            "rejections": rejections,
            "bit_identical": bool(oracle_ok),
        }

    compensated = _compensated_pass(xs, headline, repeats)

    bit_identical_all = all(c["bit_identical"] for c in cases)
    small_bit_identical_all = all(c["small_bit_identical"] for c in cases)
    speedup_headline = headline["speedup"]
    small_speedup_headline = headline["small_speedup"]
    pure_faster = (
        speedup_headline is not None and speedup_headline >= min_speedup
    )
    small_target_met = (
        small_speedup_headline is not None
        and small_speedup_headline >= SMALL_TARGET_SPEEDUP
    )
    if small_target_met:
        small_target_note = None
    else:
        # Record the honest measured ratio and say why the bar was not
        # cleared on this machine, instead of failing a
        # container-dependent gate.
        small_target_note = (
            "small engine measured "
            f"{small_speedup_headline:.2f}x over its pure-NumPy backend "
            f"on backend {resolved!r}, below the "
            f"{SMALL_TARGET_SPEEDUP:.0f}x target; ratio is "
            "machine/backend dependent (compiled backend unavailable or "
            "slow container) — recorded, not gated."
        )
    comp_within = all(
        t["within_bound"] for t in compensated["tiers"].values()
    )
    comp_deterministic = all(
        t["deterministic"] for t in compensated["tiers"].values()
    )
    comp_speedup = compensated["best_speedup_vs_small"]
    comp_target_met = (
        comp_speedup is not None
        and comp_speedup >= COMPENSATED_TARGET_SPEEDUP
    )
    if comp_target_met:
        comp_target_note = None
    else:
        comp_target_note = (
            "fastest bound-satisfying compensated tier "
            f"({compensated['best_tier']}) measured "
            f"{comp_speedup:.2f}x over the small exact engine at the "
            f"headline case, below the {COMPENSATED_TARGET_SPEEDUP:.0f}x "
            "target; ratio is machine/backend dependent — recorded, not "
            "gated."
        )
    checks = {
        "bit_identical_all": bool(bit_identical_all),
        "oracle_bit_identical": bool(oracle_ok),
        "small_bit_identical_all": bool(small_bit_identical_all),
        "small_backend": resolved,
        "headline_params": headline["params"],
        "speedup_headline": speedup_headline,
        "min_speedup": min_speedup,
        "pure_faster": bool(pure_faster),
        "small_speedup_headline": small_speedup_headline,
        "small_target": SMALL_TARGET_SPEEDUP,
        "small_target_met": bool(small_target_met),
        "small_target_note": small_target_note,
        "compensated_within_bounds": bool(comp_within),
        "compensated_deterministic": bool(comp_deterministic),
        "compensated_speedup_headline": comp_speedup,
        "compensated_target": COMPENSATED_TARGET_SPEEDUP,
        "compensated_target_met": bool(comp_target_met),
        "compensated_target_note": comp_target_note,
        "passed": bool(
            bit_identical_all
            and oracle_ok
            and pure_faster
            and small_bit_identical_all
            and comp_within
            and comp_deterministic
        ),
    }

    doc = {
        "schema": SCHEMA,
        "pr": pr,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "config": {
            "n": n,
            "repeats": repeats,
            "seed": seed,
            "permutations": permutations,
            "chunk_sizes": [int(c) for c in chunk_sizes],
        },
        "cases": cases,
        "oracle": oracle,
        "compensated": compensated,
        "checks": checks,
    }
    if drift_monitor is not None:
        doc["drift"] = drift_monitor.summary()
        drift_monitor.disarm()
    if profile:
        doc["phases"] = _profile_pass(xs, headline)
    return doc


def _rejection_trials(xs, params, backends: Sequence[str]) -> list[dict]:
    """Poison a copy of ``xs`` and absorb it on every backend after a
    good prefix: each backend must raise the pure backend's
    :class:`~repro.errors.ConversionOverflowError` message and leave the
    engine exactly as the prefix left it.  Cases: a NaN, an element at
    the format's range limit, and a NaN *after* an out-of-range element
    (NaN anywhere wins)."""
    from repro.core.smallacc import SmallAccumulator
    from repro.errors import ConversionOverflowError

    n = xs.shape[0]
    cases = {
        "nan": {n // 2: float("nan")},
        "out-of-range": {n // 2: params.max_value},
        "nan-after-range": {n // 3: params.max_value, n - 1: float("nan")},
    }
    results = []
    for case, poison in cases.items():
        bad = xs.copy()
        for i, value in poison.items():
            bad[i] = value
        expected = None
        for backend in backends:
            engine = SmallAccumulator(params, backend=backend)
            engine.absorb(xs[: n // 4])
            before = (engine.chunks, engine.count)
            try:
                engine.absorb(bad)
                error = None
            except ConversionOverflowError as exc:
                error = str(exc)
            if expected is None:
                expected = error
            results.append(
                {
                    "case": case,
                    "backend": backend,
                    "error": error,
                    "agrees": bool(
                        error is not None
                        and error == expected
                        and (engine.chunks, engine.count) == before
                    ),
                }
            )
    return results


def _compensated_pass(xs, headline: dict, repeats: int) -> dict:
    """Time the inexact tier on the full batch and hold it to its
    contract: realized error within the a-priori bound, and bit-equal
    results across two runs on the fixed input order.  Returns the
    schema /4 ``compensated`` block."""
    import math

    import numpy as np

    from repro.core import bounds as _bounds
    from repro.core import engines as _engines
    from repro.core import native as _native
    from repro.core import planner as _planner

    n = int(xs.shape[0])
    reference = math.fsum(xs)
    mass = math.fsum(np.abs(xs))
    tiers: dict[str, dict] = {}
    small_s = headline["small_seconds"]
    for name in COMPENSATED_TIERS:
        spec = _engines.get(name)
        value = spec.float_total(xs, 1 << 16)
        rerun = spec.float_total(xs, 1 << 16)
        seconds = _time_best(
            lambda s=spec: s.float_total(xs, 1 << 16), repeats
        )
        bound_abs = _bounds.coefficient(spec.bound_model, n) * mass
        error = abs(value - reference)
        tiers[name] = {
            "seconds": seconds,
            "value": value,
            "error": error,
            "bound": bound_abs,
            "margin": error / bound_abs if bound_abs > 0 else None,
            "within_bound": bool(error <= bound_abs),
            "deterministic": bool(value == rerun),
            "speedup_vs_small": (
                small_s / seconds if seconds > 0 else None
            ),
        }
    plan = _planner.plan(n, COMPENSATED_TARGET_ACCURACY)
    satisfying = {
        name: t
        for name, t in tiers.items()
        if t["within_bound"] and t["speedup_vs_small"] is not None
    }
    best_tier = (
        max(satisfying, key=lambda k: satisfying[k]["speedup_vs_small"])
        if satisfying
        else None
    )
    return {
        "n": n,
        "target_accuracy": COMPENSATED_TARGET_ACCURACY,
        "backend": _native.backend_name(),
        "small_seconds_headline": small_s,
        "planner_choice": plan.engine,
        "tiers": tiers,
        "best_tier": best_tier,
        "best_speedup_vs_small": (
            satisfying[best_tier]["speedup_vs_small"] if best_tier else None
        ),
    }


def _profile_pass(xs, headline: dict) -> dict:
    """One instrumented reduction of the headline case per engine,
    outside the timed sections; returns the embedded ``phases`` block."""
    from repro.core.params import HPParams
    from repro.core.vectorized import batch_sum_doubles
    from repro.observability import profile as _prof
    from repro.observability import tracing as _tracing

    params = HPParams(headline["n_words"], headline["k"])
    engines: dict[str, dict] = {}
    for engine in ("small", "words"):
        prior_spans = _tracing.TRACER.export()["spans"]
        _tracing.TRACER.reset()
        try:
            with _prof.profiled():
                with _tracing.TRACER.span(_prof.RUN_SPAN, engine=engine):
                    batch_sum_doubles(xs, params, method=engine)
            engines[engine] = _prof.ProfileReport.from_tracer().to_dict()
        finally:
            _tracing.TRACER.reset()
            if prior_spans:
                _tracing.TRACER.import_spans({"spans": prior_spans})
    return {
        "params": str(params),
        "n": int(xs.shape[0]),
        "engines": engines,
    }


_REQUIRED_TOP = ("schema", "environment", "config", "cases", "checks")
_BASE_CASE = (
    "n_words",
    "k",
    "params",
    "n",
    "words_seconds",
    "speedup",
    "bit_identical",
)
_BASE_CHECKS = (
    "bit_identical_all",
    "oracle_bit_identical",
    "speedup_headline",
    "passed",
)

#: Keys required from /3 on (the small-engine columns).
_SMALL_CASE = ("small_seconds", "small_speedup", "small_bit_identical")
_SMALL_CHECKS = (
    "small_bit_identical_all",
    "small_speedup_headline",
    "small_target",
    "small_target_met",
    "small_backend",
)

#: Keys required from /4 on (the compensated tiers).
_COMPENSATED_CHECKS = (
    "compensated_within_bounds",
    "compensated_deterministic",
    "compensated_speedup_headline",
    "compensated_target",
    "compensated_target_met",
)
_REQUIRED_TIER = (
    "seconds",
    "error",
    "bound",
    "margin",
    "within_bound",
    "deterministic",
    "speedup_vs_small",
)


def _required_keys(version: int) -> tuple[tuple, tuple]:
    """(case keys, check keys) a report of schema ``version`` carries."""
    if version >= 5:
        case = _BASE_CASE + ("pure_seconds",)
        checks = _BASE_CHECKS + ("pure_faster",)
    else:
        case = _BASE_CASE + ("superacc_seconds",)
        checks = _BASE_CHECKS + ("superacc_faster",)
    if version >= 3:
        case += _SMALL_CASE
        checks += _SMALL_CHECKS
    if version in (3, 4):
        checks += ("small_oracle_bit_identical",)
    if version >= 4:
        checks += _COMPENSATED_CHECKS
    return case, checks


def validate_report(doc: dict) -> list[str]:
    """Structural validation of a regression report; returns problems
    (empty list means the document conforms to its schema version)."""
    problems = []
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    schema = doc.get("schema")
    if schema in ACCEPTED_SCHEMAS:
        version = int(schema.rsplit("/", 1)[1])
    else:
        problems.append(
            f"schema is {schema!r}, expected one of {ACCEPTED_SCHEMAS!r}"
        )
        version = int(SCHEMA.rsplit("/", 1)[1])
    phases = doc.get("phases")
    if phases is not None:
        if not isinstance(phases, dict) or "engines" not in phases:
            problems.append("phases block present but has no engines map")
        else:
            for engine, report in phases["engines"].items():
                if not isinstance(report, dict) or "phases" not in report:
                    problems.append(
                        f"phases.engines[{engine!r}] is not a profile dict"
                    )
    for key in _REQUIRED_TOP:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    case_keys, check_keys = _required_keys(version)
    for i, case in enumerate(doc.get("cases", [])):
        for key in case_keys:
            if key not in case:
                problems.append(f"cases[{i}] missing key {key!r}")
    checks = doc.get("checks", {})
    if isinstance(checks, dict):
        for key in check_keys:
            if key not in checks:
                problems.append(f"checks missing key {key!r}")
    # /3 and /4 carried the small-engine trials in their own block; /5
    # folds them into ``oracle``.
    block = "oracle" if version >= 5 else "small_oracle"
    trials = doc.get(block)
    if version >= 3 and trials is not None:
        for key in ("backends", "trials", "bit_identical"):
            if key not in trials:
                problems.append(f"{block} missing key {key!r}")
    if version >= 4:
        compensated = doc.get("compensated")
        if not isinstance(compensated, dict) or "tiers" not in compensated:
            problems.append(f"/{version} report missing the compensated block")
        else:
            for name, tier in compensated["tiers"].items():
                for key in _REQUIRED_TIER:
                    if key not in tier:
                        problems.append(
                            f"compensated.tiers[{name!r}] missing {key!r}"
                        )
    return problems


def format_summary(doc: dict) -> str:
    """Human-readable one-screen summary of a report."""
    lines = [f"bench regress (schema {doc['schema']})"]
    for case in doc["cases"]:
        lines.append(
            "  {params:<14} n={n}  words {w:8.1f} ms  small/pure {p:8.1f} ms"
            "  speedup {x:5.2f}x  | small {sm:8.1f} ms ({sx:5.2f}x vs "
            "pure)  {eq}".format(
                params=case["params"],
                n=case["n"],
                w=case["words_seconds"] * 1e3,
                p=case["pure_seconds"] * 1e3,
                x=case["speedup"] or 0.0,
                sm=case["small_seconds"] * 1e3,
                sx=case["small_speedup"] or 0.0,
                eq=(
                    "bit-identical"
                    if case["bit_identical"] and case["small_bit_identical"]
                    else "MISMATCH"
                ),
            )
        )
    oracle = doc.get("oracle")
    if oracle:
        lines.append(
            "  oracle {params} [{be}]: {t} permutation/chunk trials, "
            "{r} rejected-input trials, {eq}".format(
                params=oracle["params"],
                be=",".join(oracle["backends"]),
                t=len(oracle["trials"]),
                r=len(oracle.get("rejections", ())),
                eq=(
                    "all bit-identical"
                    if oracle["bit_identical"]
                    else "MISMATCH"
                ),
            )
        )
    compensated = doc.get("compensated")
    if compensated:
        for name, tier in compensated["tiers"].items():
            lines.append(
                "  {name:<14} {ms:8.1f} ms  margin {mg}  {bd}, {det}"
                "  ({sx:5.2f}x vs small)".format(
                    name=name,
                    ms=tier["seconds"] * 1e3,
                    mg=(
                        f"{tier['margin']:.2e}"
                        if tier["margin"] is not None
                        else "n/a"
                    ),
                    bd=(
                        "within bound"
                        if tier["within_bound"]
                        else "BOUND BREACH"
                    ),
                    det=(
                        "deterministic"
                        if tier["deterministic"]
                        else "NONDETERMINISTIC"
                    ),
                    sx=tier["speedup_vs_small"] or 0.0,
                )
            )
        lines.append(
            "  planner @ target {t:g}: {e} (fastest in-bound tier: "
            "{b})".format(
                t=compensated["target_accuracy"],
                e=compensated["planner_choice"],
                b=compensated["best_tier"] or "none",
            )
        )
    checks = doc["checks"]
    lines.append(
        "  headline {p}: {x:.2f}x (min {m:.2f}x) -> {verdict}".format(
            p=checks["headline_params"],
            x=checks["speedup_headline"] or 0.0,
            m=checks["min_speedup"],
            verdict="PASS" if checks["passed"] else "FAIL",
        )
    )
    if "small_speedup_headline" in checks:
        lines.append(
            "  small headline: {x:.2f}x vs pure on backend {be} "
            "(target {t:.0f}x, {met})".format(
                x=checks["small_speedup_headline"] or 0.0,
                be=checks.get("small_backend", "?"),
                t=checks.get("small_target", 0.0),
                met="met" if checks.get("small_target_met") else "NOT met",
            )
        )
        if checks.get("small_target_note"):
            lines.append(f"  note: {checks['small_target_note']}")
    if "compensated_speedup_headline" in checks:
        lines.append(
            "  compensated headline: {x:.2f}x vs small "
            "(target {t:.0f}x, {met}; bounds {bd}, determinism "
            "{det})".format(
                x=checks["compensated_speedup_headline"] or 0.0,
                t=checks.get("compensated_target", 0.0),
                met=(
                    "met" if checks.get("compensated_target_met")
                    else "NOT met"
                ),
                bd=(
                    "ok" if checks.get("compensated_within_bounds")
                    else "BREACHED"
                ),
                det=(
                    "ok" if checks.get("compensated_deterministic")
                    else "VIOLATED"
                ),
            )
        )
        if checks.get("compensated_target_note"):
            lines.append(f"  note: {checks['compensated_target_note']}")
    return "\n".join(lines)
