"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They run the benchmark at full size in its short configuration
(``--seconds 1``), so they take a few minutes; the first run of a seed
also computes and caches its oracle.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(workload: str, trace: int, cwd: str = ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_the_harness():
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.layer_metric_units()
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("workload", wl.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_emits_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = last_json(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(doc["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = doc["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    if not trace:
        assert all(doc["metrics"][m["name"]]["value"] > 0 for m in listed)
    else:
        lo, hi = run.COVERAGE_RANGE
        assert lo <= doc["metrics"]["bench.layer_coverage_frac"]["value"] <= hi


def digests(workload: str, seed: int) -> list[str]:
    return [hashlib.sha256(x.tobytes()).hexdigest()
            for x in wl.inputs(workload, seed)]


def test_inputs_are_a_pure_function_of_workload_and_seed():
    for workload in ("bulk", "calls", "cli"):
        a, b, c = digests(workload, 5), digests(workload, 5), digests(workload, 6)
        assert a == b
        assert all(x != y for x, y in zip(a, c))
    assert wl.calls_schedule(5) == wl.calls_schedule(5)
    assert digests("calls-observed", 5) == digests("calls", 5)


def test_wide_inputs_cancel_heavily_and_fit_the_format():
    x = wl.wide(wl.rng_for("bulk", 1, "wide"), 1 << 16)
    exact = math.fsum(x)
    mass = math.fsum(np.abs(x))
    assert abs(exact) < mass * 1e-30
    assert np.abs(x).max() < 2.0 ** 171 and np.abs(x[x != 0]).min() >= 2.0 ** -170


@pytest.fixture(scope="module")
def record():
    x = wl.wide(wl.rng_for("calls", 9, "oracle-test"), 4096)
    return x, oracle.compute(x, wl.HP_FORMAT)


def test_oracle_accepts_the_program(record):
    from repro.parallel.drivers import global_sum
    from repro.core.params import HPParams

    x, rec = record
    exact = global_sum(x, "hp-small", params=HPParams(*wl.HP_FORMAT))
    assert oracle.check(rec, "hp-small", exact.value, exact.words) is None
    for method in ("comp-pairwise", "double"):
        r = global_sum(x, method)
        assert oracle.check(rec, method, r.value) is None


def test_oracle_rejects_perturbed_results(record):
    _, rec = record
    fsum = float.fromhex(rec["fsum"])
    words = list(rec["words"])
    assert oracle.check(rec, "hp-small", fsum, words) is None
    assert oracle.check(rec, "hp-small", math.nextafter(fsum, math.inf), words)
    words[-1] ^= 1
    assert oracle.check(rec, "hp-small", fsum, words)
    limit = (oracle._coefficient("pairwise", rec["n"]) * float.fromhex(rec["mass"])
             + abs(fsum) * 2.0**-53)
    assert oracle.check(rec, "comp-pairwise", fsum + 0.5 * limit) is None
    assert oracle.check(rec, "comp-pairwise", fsum + 2 * limit)
    assert oracle.check(rec, "planned", fsum + 1e-6 * float.fromhex(rec["mass"]),
                        target=1e-12)
    assert oracle.check(rec, "double", math.nan)


def test_coverage_outside_tolerance_is_a_failure():
    lo, hi = run.COVERAGE_RANGE
    assert run.coverage_failure(lo) is None and run.coverage_failure(hi) is None
    assert "0.500" in run.coverage_failure(0.5)
    assert run.coverage_failure(hi + 0.01)


def test_self_times_reconcile_with_request_walls():
    rec = layers.Recorder()

    def inner():
        time.sleep(0.002)

    def outer():
        time.sleep(0.001)
        inner()
        inner()

    inner = rec.wrap(inner, "core.validate", "inner")
    outer = rec.wrap(outer, "parallel.drivers", "outer")
    walls = []
    for _ in range(5):
        rec.begin_request()
        t0 = time.perf_counter()
        outer()
        walls.append(time.perf_counter() - t0)
    path = os.path.join(run.CACHE, "test-spans.json")
    os.makedirs(run.CACHE, exist_ok=True)
    rec.save(path)
    data = spans.load(path)
    os.remove(path)
    own = spans.self_times(data)
    assert (own >= 0).all()
    totals = spans.LayerTotals()
    totals.add(data)
    roots = data["parent"] < 0
    assert math.isclose(own.sum(), (data["t1"] - data["t0"])[roots].sum(), rel_tol=1e-9)
    assert own.sum() <= sum(walls)
    assert totals.calls[layers.LAYER_NAMES.index("core.validate")] == 10
    assert totals.self_s[layers.LAYER_NAMES.index("core.validate")] >= 0.02


def test_traced_run_reconciles_with_its_walls():
    proc = bench("calls", 1)
    m = {k: v["value"] for k, v in last_json(proc)["metrics"].items()}
    shares = sum(m[f"{name}.share"] for name in layers.LAYER_NAMES)
    assert math.isclose(shares, m["bench.layer_coverage_frac"], rel_tol=1e-9)
    assert m["parallel.drivers.calls_per_op"] == 1.0
    assert m["core.smallacc.calls_per_op"] > 0 and m["core.compensated.calls_per_op"] > 0


def test_wrappers_come_out_again():
    import repro.core.superacc as superacc
    import repro.core.smallacc as smallacc

    original = superacc.check_finite_in_range
    rec = layers.Recorder()
    rec.patch_loaded()
    try:
        assert superacc.check_finite_in_range is not original
        assert smallacc.check_finite_in_range is superacc.check_finite_in_range
        rec.activate(False)
        assert superacc.check_finite_in_range is original
        assert smallacc.check_finite_in_range is original
    finally:
        rec.activate(False)


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("calls", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
