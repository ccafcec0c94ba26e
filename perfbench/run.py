"""End-to-end, layer-by-layer benchmark of the ``repro`` package.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload {bulk,calls,calls-observed,cli} \\
        --seed N --seconds S --trace {0,1}

``--trace 0`` runs the workload untraced and prints every end-to-end
metric; ``--trace 1`` runs it again with the layer wrappers of
``layers.py`` installed and prints the per-layer metrics.  Either way
every result is checked against the oracle (``oracle.py``); the last
line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``, and the exit code is
nonzero when any request failed or disagreed with the oracle, or when a
traced run's layer coverage is outside its tolerance.

The program is built from the checkout's ``src/`` (no install step); the
compiled kernel cache, oracle cache, spans and scratch files live under
``.perfbench-cache/`` in the checkout.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import oracle
import spans as spanlib
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CACHE = os.path.join(ROOT, ".perfbench-cache")

#: Fresh-interpreter set-up measurements per run, each paired with a
#: floor measurement (the median ratio is reported).
SETUP_PAIRS = 9
#: Typical floor of ``probe.py`` on the reference host, in seconds:
#: ``import numpy`` (library workloads), plus a bare two-worker pool
#: (``cli``).  ``setup_s`` is the measured set-up ÷ floor ratio times this
#: constant, i.e. set-up in reference-host seconds.
REFERENCE_FLOOR_S = {"library": 0.10, "cli": 0.12}
#: ``bench.layer_coverage_frac`` must lie in this range: layer self
#: times must explain at least 70% of the request wall and never more
#: than all of it (1% clock slack).  What ``cli`` leaves uncovered, about
#: a fifth, is the interpreter's own start-up and shutdown.
COVERAGE_RANGE = (0.70, 1.01)
#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10
#: Requests per block of the gated tail (see :func:`block_tail`).
TAIL_BLOCK = 1000

#: The end-to-end metrics of BENCHMARK.json.  Request times are
#: reported as ratios to the ``np.sum`` floor timed in the same run,
#: because the host's speed drifts by up to 2x within minutes while the
#: ratio holds (see README.md).
E2E_UNITS = {
    "cost_vs_npsum": "ratio",
    "latency_p50_vs_npsum": "ratio",
    "latency_tail_vs_npsum": "ratio",
    "ok_frac": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
#: Absolute figures printed beside them for reading, not for gating.
INFO_UNITS = {
    "setup_measured_s": "s",
    "setup_floor_s": "s",
    "throughput_summands_per_s": "summands/s",
    "ops_per_s": "requests/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}


class Run:
    """Shared state of one benchmark invocation."""

    def __init__(self, args) -> None:
        self.args = args
        self.scratch = os.path.join(CACHE, f"run-{os.getpid()}")
        os.makedirs(self.scratch, exist_ok=True)
        with open(os.path.join(SRC, "repro", "core", "native.py"), "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("REPRO_FORCE_PURE", "REPRO_NATIVE")}
        self.env.update(
            PYTHONPATH=SRC,
            REPRO_NATIVE_CACHE=os.path.join(CACHE, f"native-{digest}"),
            TMPDIR=self.scratch,
        )
        self.failures: list[str] = []

    def path(self, name: str) -> str:
        return os.path.join(self.scratch, name)

    def python(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, *argv], env=self.env,
                              capture_output=True, text=True, check=True)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(latencies) -> tuple[float, float, int]:
    """(value, percentile, samples): the highest percentile with at
    least :data:`TAIL_BEYOND` samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def block_tail(latencies) -> tuple[float, str]:
    """The :func:`tail` of each block of :data:`TAIL_BLOCK` consecutive
    requests (the whole run when it is shorter), median over blocks.

    On the library workloads a run's overall tail is set by a handful of
    host preemptions (2-5 ms stalls, about two a second, present with the
    garbage collector off); per block, the tail is set by the requests."""
    blocks = [latencies[i:i + TAIL_BLOCK]
              for i in range(0, len(latencies) - TAIL_BLOCK + 1, TAIL_BLOCK)]
    blocks = blocks or [latencies]
    values = [tail(b) for b in blocks]
    _, pct, n = values[0]
    note = f"p{pct:.4g} of {n}, median of {len(blocks)} block(s)"
    return statistics.median(v for v, _, _ in values), note


def probe(run: Run, what: str) -> float:
    """One ``probe.py`` measurement (``setup`` or ``floor``), in s."""
    out = run.python(os.path.join(BENCH, "probe.py"), run.args.workload, what)
    return json.loads(out.stdout)["seconds"]


def warm_caches(run: Run) -> None:
    """Compile the program's bytecode and its native kernel before
    anything is timed (the first run in a checkout pays for both)."""
    run.python("-m", "compileall", "-q", SRC)
    probe(run, "setup")
    probe(run, "floor")


def measure_setup(run: Run) -> dict:
    """``setup_s``: the median over :data:`SETUP_PAIRS` adjacent pairs of
    set-up ÷ floor, in reference-host seconds.  Pairs alternate which
    probe runs first, so a trend within the run does not bias the
    ratio.  The absolute medians are returned for reading."""
    setups, floors = [], []
    for i in range(SETUP_PAIRS):
        order = ("floor", "setup") if i % 2 == 0 else ("setup", "floor")
        got = {what: probe(run, what) for what in order}
        setups.append(got["setup"])
        floors.append(got["floor"])
    ratio = statistics.median(s / f for s, f in zip(setups, floors))
    kind = "cli" if run.args.workload == "cli" else "library"
    return {"setup_s": ratio * REFERENCE_FLOOR_S[kind],
            "setup_measured_s": statistics.median(setups),
            "setup_floor_s": statistics.median(floors)}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def oracle_records(run: Run, arrays=None) -> list[dict]:
    args = run.args
    key = f"{wl.stream_key(args.workload)}-{args.seed}-v{wl.INPUT_VERSION}"
    build = (lambda: arrays) if arrays is not None else (
        lambda: wl.inputs(args.workload, args.seed))
    return oracle.load_or_compute(os.path.join(CACHE, "oracle"), key, build,
                                  wl.HP_FORMAT)


def check_library_results(run: Run, doc: dict) -> int:
    """Oracle failures among the worker's distinct results (weighted by
    how many requests returned each)."""
    records = oracle_records(run)
    bad = 0
    for i, method, value_hex, words, count in doc["results"]:
        why = oracle.check(records[i], method, float.fromhex(value_hex), words)
        if why is not None:
            bad += count
            run.failures.append(f"input {i}: {why}")
    for err, count in doc["errors"].items():
        run.failures.append(f"{count} request(s) raised {err}")
    return bad


# ---------------------------------------------------------------------------
# library workloads
# ---------------------------------------------------------------------------


def run_worker(run: Run, trace: bool) -> dict:
    out, spans = run.path("worker.json"), run.path("spans.json")
    a = run.args
    run.python(os.path.join(BENCH, "worker.py"), "--workload", a.workload,
               "--seed", str(a.seed), "--seconds", str(a.seconds),
               "--trace", str(int(trace)), "--out", out, "--spans", spans)
    with open(out, encoding="utf-8") as fh:
        doc = json.load(fh)
    if trace:
        doc["spans"] = spanlib.load(spans)
        shutil.copyfile(spans, os.path.join(CACHE, f"spans-{a.workload}.json"))
    return doc


def e2e_metrics(lat, floors, wall: float, summands: int, completed: int,
                attempted: int, failed: int, setup: dict,
                rss: float) -> tuple[dict, dict]:
    """End-to-end metrics of one run: ``lat`` are the request times,
    ``floors`` the floor times over the same requests' inputs, ``wall``
    the measured phase; ``setup`` is :func:`measure_setup`'s result.
    Returns (metrics, notes)."""
    value, pct, n = tail(lat)
    block_value, block_note = block_tail(lat)
    p50 = statistics.median(lat)
    floor = statistics.median(floors)
    metrics = {
        "cost_vs_npsum": sum(lat) / sum(floors),
        "latency_p50_vs_npsum": p50 / floor,
        "latency_tail_vs_npsum": block_value / floor,
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
        "throughput_summands_per_s": summands / wall,
        "ops_per_s": completed / wall,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": value * 1e3,
        **setup,
    }
    return metrics, {"latency_tail_vs_npsum": block_note,
                     "latency_tail_ms": f"p{pct:.4g} of {n}"}


def library_e2e(run: Run, setup: dict):
    doc = run_worker(run, trace=False)
    r = doc["run"]
    bad = check_library_results(run, doc)
    attempted = r["attempted"]
    failed = r["failed"] + bad
    metrics, notes = e2e_metrics(
        r["latencies"], r["floors"], r["wall"], r["summands"],
        attempted - r["failed"], attempted, failed, setup, doc["peak_rss_mb"])
    return metrics, attempted, failed, notes


def library_layers(run: Run):
    doc = run_worker(run, trace=True)
    t = doc["trace"]
    bad = check_library_results(run, doc)
    totals = spanlib.LayerTotals()
    totals.add(doc["spans"])
    ops = t["requests"]
    wall = sum(t["traced_latencies"])
    extras = {
        "floor.npsum_ns_per_summand": t["floor_s"] / t["floor_summands"] * 1e9,
        "bench.trace_overhead_frac": t["traced_wall"] / t["untraced_wall"] - 1,
    }
    obs = doc.get("observability")
    if obs is not None:
        # The observer's cost is the on-minus-off wall of the same passes.
        delta = t["on_wall"] - t["off_wall"]
        per_op = delta / t["observed_requests"]
        extras.update({
            "observability.calls_per_op": 1.0,
            "observability.self_ms_per_op": per_op * 1e3,
            "observability.share": delta / t["on_wall"],
            "observability.overhead_us_per_op": per_op * 1e6,
            **{f"observability.{k}": v for k, v in obs.items()},
        })
    metrics = layer_metrics(totals, ops, wall, extras)
    return metrics, t["attempted"], t["failed"] + bad


# ---------------------------------------------------------------------------
# cli workload
# ---------------------------------------------------------------------------


def cli_prepare(run: Run):
    """Write the two ``.npy`` payloads, compute their oracle and the
    in-process ``np.sum`` rate, and drop the arrays: a forked child's
    peak RSS starts from its parent's, so this process must stay smaller
    than the children it measures.

    Returns (paths, sizes, oracle records, np.sum ns per summand)."""
    arrays = wl.cli_inputs(run.args.seed)
    paths = []
    for f, x in enumerate(arrays):
        paths.append(run.path(f"cli-{f}.npy"))
        np.save(paths[-1], x)
    records = oracle_records(run, arrays)
    per_summand = []
    for x in arrays:
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            np.sum(x)
            samples.append(time.perf_counter() - t0)
        per_summand.append(statistics.median(samples) / x.size)
    sizes = [x.size for x in arrays]
    del arrays, x
    return paths, sizes, records, statistics.mean(per_summand) * 1e9


def spawn(run: Run, argv: list[str]) -> tuple[float, int, float, str, str]:
    """Run one child to completion: (wall s, exit code, peak RSS MiB,
    stdout, stderr).  ``wait4`` gives the child's own resource usage,
    which includes the workers it waited for."""
    out, err = run.path("child.out"), run.path("child.err")
    with open(out, "w") as fo, open(err, "w") as fe:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=run.env, stdout=fo, stderr=fe)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out) as fo, open(err) as fe:
        return wall, proc.returncode, usage.ru_maxrss / 1024, fo.read(), fe.read()


def cli_argv(path: str, invocation: str, spans: str | None = None) -> list[str]:
    flags = list(dict(wl.CLI_INVOCATIONS)[invocation])
    if spans is None:
        return [sys.executable, "-m", "repro", "sum", path, *flags]
    return [sys.executable, "-X", "importtime",
            os.path.join(BENCH, "cli_child.py"), spans, "sum", path, *flags]


def cli_check(run: Run, records, f: int, invocation: str, rc: int,
              stdout: str, stderr: str) -> bool:
    if rc != 0:
        run.failures.append(f"cli {invocation} file {f}: exit {rc}: {stderr.strip()[-300:]}")
        return False
    try:
        value = float(stdout.split()[0])
    except (IndexError, ValueError):
        run.failures.append(f"cli {invocation} file {f}: unparsable output {stdout!r}")
        return False
    method = {"default": "hp", "small": "hp-small", "procs": "hp-small",
              "double": "double", "planned": "planned"}[invocation]
    why = oracle.check(records[f], method, value, target=wl.CLI_TARGET)
    if why is not None:
        run.failures.append(f"cli {invocation} file {f}: {why}")
    return why is None


def cli_floor(run: Run, path: str) -> float:
    script = "import sys, numpy as np; np.sum(np.load(sys.argv[1]))"
    return spawn(run, [sys.executable, "-c", script, path])[0]


def cli_cycles(run: Run, paths, records, cycles: int, traced: bool = False) -> dict:
    """Run whole cycles; each cycle is every invocation on every file.
    Each request is followed by the floor on the same file and, with
    ``traced``, by the same request traced, so the plain and traced walls
    are interleaved."""
    walls, floors = [], []
    out = {"rss": 0.0, "failed": 0, "attempted": 0, "traced_walls": [],
           "totals": spanlib.LayerTotals(), "imports": []}
    spans = run.path("cli-spans.json")

    def request(f: int, invocation: str, spans_out: str | None) -> float:
        wall, rc, peak, stdout, stderr = spawn(
            run, cli_argv(paths[f], invocation, spans_out))
        out["attempted"] += 1
        out["rss"] = max(out["rss"], peak)
        if not cli_check(run, records, f, invocation, rc, stdout, stderr):
            out["failed"] += 1
        elif spans_out is not None:
            out["totals"].add(spanlib.load(spans_out))
            out["imports"].append(importtime(stderr))
        return wall

    for c in range(cycles):
        for f, invocation in wl.cli_cycle(run.args.seed, c):
            walls.append(request(f, invocation, None))
            floors.append(cli_floor(run, paths[f]))
            if traced:
                out["traced_walls"].append(request(f, invocation, spans))
    out.update(walls=walls, floors=floors,
               floor_ms=statistics.median(floors) * 1e3)
    return out


def importtime(stderr: str) -> dict:
    """Cumulative ms of selected modules from ``-X importtime`` output."""
    want = {"repro.cli": "repro_cli_ms", "repro.observability": "observability_ms",
            "numpy": "numpy_ms"}
    found = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in want and want[name] not in found:
            try:
                found[want[name]] = int(parts[1]) / 1e3
            except ValueError:
                continue
    return found


def cli_e2e(run: Run, setup: dict):
    paths, sizes, records, _ = cli_prepare(run)
    cycles = wl.passes("cli", run.args.seconds, len(wl.cli_cycle(run.args.seed, 0)))
    r = cli_cycles(run, paths, records, cycles)
    summands = sum(sizes[f] for c in range(cycles)
                   for f, _ in wl.cli_cycle(run.args.seed, c))
    attempted, failed = r["attempted"], r["failed"]
    metrics, notes = e2e_metrics(
        r["walls"], r["floors"], sum(r["walls"]), summands,
        attempted - failed, attempted, failed, setup, r["rss"])
    return metrics, attempted, failed, notes


def cli_layers(run: Run):
    paths, _, records, npsum_ns = cli_prepare(run)
    cycles = wl.passes("cli", run.args.seconds / 2, len(wl.cli_cycle(run.args.seed, 0)))
    r = cli_cycles(run, paths, records, cycles, traced=True)
    ops = len(r["traced_walls"])
    wall = sum(r["traced_walls"])
    extras = {
        "floor.npsum_ns_per_summand": npsum_ns,
        "floor.cli_ms": r["floor_ms"],
        "bench.trace_overhead_frac": wall / sum(r["walls"]) - 1,
    }
    for key in ("repro_cli_ms", "observability_ms", "numpy_ms"):
        vals = [d[key] for d in r["imports"] if key in d]
        if vals:
            extras[f"import.{key}"] = statistics.median(vals)
    return layer_metrics(r["totals"], ops, wall, extras), r["attempted"], r["failed"]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


EXTRA_UNITS = {
    "import": {"import.repro_cli_ms": "ms", "import.observability_ms": "ms",
               "import.numpy_ms": "ms"},
    "io": {"io.bytes_per_op": "B"},
    "core.validate": {"core.validate.ns_per_summand": "ns/summand"},
    "core.smallacc": {"core.smallacc.ns_per_summand": "ns/summand",
                      "core.smallacc.bytes_per_summand": "B/summand",
                      "core.smallacc.propagations_per_op": "count"},
    "core.superacc": {"core.superacc.ns_per_summand": "ns/summand"},
    "core.compensated": {"core.compensated.ns_per_summand": "ns/summand"},
    "parallel.procpool": {"parallel.procpool.start_ms": "ms",
                          "parallel.procpool.load_ms": "ms",
                          "parallel.procpool.reduce_ms": "ms"},
    "observability": {"observability.overhead_us_per_op": "us",
                      "observability.spans_retained": "count",
                      "observability.journal_entries": "count",
                      "observability.journal_dropped": "count"},
    "floor": {"floor.npsum_ns_per_summand": "ns/summand", "floor.cli_ms": "ms"},
    "bench": {"bench.trace_overhead_frac": "fraction",
              "bench.layer_coverage_frac": "fraction"},
}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in print order."""
    units = {}
    for name in layers.LAYER_NAMES + ("observability",):
        units.update({f"{name}.calls_per_op": "count",
                      f"{name}.self_ms_per_op": "ms",
                      f"{name}.share": "fraction",
                      f"{name}.errors": "count"})
        units.update(EXTRA_UNITS.get(name, {}))
    units.update(EXTRA_UNITS["floor"])
    units.update(EXTRA_UNITS["bench"])
    return units


def layer_metrics(totals: spanlib.LayerTotals, ops: int, wall: float,
                  extras: dict) -> dict:
    """Per-layer metrics from span totals over ``ops`` requests whose
    wall clock sums to ``wall``.  Layers a workload never enters read 0."""
    m = {name: 0.0 for name in layer_metric_units()}
    for code, name in enumerate(layers.LAYER_NAMES):
        m[f"{name}.calls_per_op"] = totals.calls[code] / ops
        m[f"{name}.self_ms_per_op"] = totals.self_s[code] * 1e3 / ops
        m[f"{name}.share"] = totals.self_s[code] / wall
        m[f"{name}.errors"] = int(totals.errors[code])

    def per_summand(layer: str) -> float:
        code = totals.layer(layer)
        items = totals.items[code]
        return totals.self_s[code] / items * 1e9 if items else 0.0

    for layer in layers.SUMMAND_LAYERS:
        m[f"{layer}.ns_per_summand"] = per_summand(layer)
    absorbed = totals.items[totals.layer("core.smallacc")]
    # Computed, not measured: the scatter reads each float64 summand once.
    m["core.smallacc.bytes_per_summand"] = 8.0 if absorbed else 0.0
    m["core.smallacc.propagations_per_op"] = sum(
        n for name, (_, n) in totals.by_name.items()
        if name.endswith(("._propagate", ".propagate"))) / ops
    m["io.bytes_per_op"] = totals.items[totals.layer("io")] / ops
    for key, suffix in (("start_ms", "ProcPool._ensure_pool"),
                        ("load_ms", "ProcPool.load"),
                        ("reduce_ms", "ProcPool.reduce")):
        m[f"parallel.procpool.{key}"] = totals.target_seconds(suffix) * 1e3 / ops
    m["bench.layer_coverage_frac"] = float(totals.self_s.sum()) / wall
    m.update(extras)
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def coverage_failure(cov: float) -> str | None:
    """``None`` when layer coverage meets :data:`COVERAGE_RANGE`; else the
    reason.  Per-layer numbers that do not explain the request wall are
    not valid, so such a traced run is not correct."""
    lo, hi = COVERAGE_RANGE
    if lo <= cov <= hi:
        return None
    return f"layer coverage {cov:.3f} outside tolerance [{lo}, {hi}]"


def fmt(v: float) -> str:
    return f"{v:.6g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    run = Run(args)
    # The oracle imports the program into this process too.
    os.environ.update(REPRO_NATIVE_CACHE=run.env["REPRO_NATIVE_CACHE"])
    sys.path.insert(0, SRC)
    try:
        warm_caches(run)
        library = args.workload != "cli"
        notes = {}
        if args.trace:
            metrics, attempted, failed = (library_layers if library else cli_layers)(run)
            units = layer_metric_units()
        else:
            metrics, attempted, failed, notes = (
                library_e2e if library else cli_e2e)(run, measure_setup(run))
            units = E2E_UNITS
    except subprocess.CalledProcessError as exc:
        print(f"perfbench: {' '.join(map(str, exc.cmd))[:300]} exited "
              f"{exc.returncode}\n{exc.stderr}", file=sys.stderr)
        return 3
    finally:
        run.close()

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:42s} {fmt(metrics[name]):>14s} {unit}{note}")
    if not args.trace:
        for name, unit in INFO_UNITS.items():
            note = f", {notes[name]}" if name in notes else ""
            print(f"{name:42s} {fmt(metrics[name]):>14s} {unit}  (absolute; not gated{note})")
    if args.trace:
        cov = metrics["bench.layer_coverage_frac"]
        why = coverage_failure(cov)
        print(f"# layer coverage {cov:.3f}, tolerance {list(COVERAGE_RANGE)}: "
              f"{'ok' if why is None else 'OUT OF TOLERANCE'}")
        if why is not None:
            run.failures.append(why)
    for line in run.failures[:20]:
        print(f"# FAIL {line}")
    correct = failed == 0 and not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
