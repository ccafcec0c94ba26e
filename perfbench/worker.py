"""Closed-loop runner for the library workloads (``bulk``, ``calls``,
``calls-observed``), in its own process so that its peak RSS is the
program's and not the benchmark's.

One caller: each ``global_sum`` request is sent after the previous one
returns.  After every request the runner times ``np.sum`` over the same
input (the floor of ``cost_vs_npsum``, see :func:`floor_time`); that time
is excluded from the measured phase.  Results are collected per distinct ``(input, method,
value, words)`` so that the parent can check each one against the oracle
without shipping every request back.

Run by ``run.py``; writes one JSON document to ``--out`` (and, traced,
the spans to ``--spans``).
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from collections import Counter

import numpy as np

import workloads as wl

#: Traced requests are capped so the span store stays small.
TRACE_REQUEST_CAP = 6400
#: Summands per floor block: 256 KiB, resident in a core's L2.
FLOOR_BLOCK = 1 << 15


def floor_time(x: np.ndarray) -> float:
    """Seconds ``np.sum`` takes over ``x`` from cache.

    ``x`` is summed one block of :data:`FLOOR_BLOCK` summands at a time,
    and each block is timed on its second pass.  On the reference host a
    2**24-double array sits in a 300 MiB L3 shared with other tenants, so
    a single ``np.sum(x)`` is memory-bound and its speed moved by 35%
    between runs a minute apart while the request's did not; the
    in-cache floor moves with the core's speed, as the request does.
    """
    clock = time.perf_counter
    total = 0.0
    for j in range(0, x.size, FLOOR_BLOCK):
        block = x[j:j + FLOOR_BLOCK]
        np.sum(block)
        t0 = clock()
        np.sum(block)
        total += clock() - t0
    return total


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        from repro.core.params import HPParams
        from repro.parallel import drivers

        self.inputs = wl.inputs(workload, seed)
        self.schedule = (wl.bulk_schedule() if workload == "bulk"
                         else wl.calls_schedule(seed))
        self.params = HPParams(*wl.HP_FORMAT)
        # Looked up per call, so the layer wrappers see every request.
        self.drivers = drivers
        self.results: Counter = Counter()
        self.errors: Counter = Counter()

    def request(self, k: int):
        i, method = self.schedule[k % len(self.schedule)]
        kwargs = {"params": self.params} if method == "hp-small" else {}
        return i, method, self.drivers.global_sum(
            self.inputs[i], method, substrate="serial", **kwargs
        )

    def loop(self, count: int, floor: bool = True, recorder=None) -> dict:
        """Run ``count`` requests of the schedule, from its start."""
        clock = time.perf_counter
        lat, floors, summands, floor_summands, failed = [], [], 0, 0, 0
        floor_wall = 0.0
        start = clock()
        k = 0
        while k < count:
            if recorder is not None:
                recorder.begin_request()
            t0 = clock()
            try:
                i, method, r = self.request(k)
            except Exception as exc:  # counted as a failed request
                t1 = clock()
                failed += 1
                self.errors[f"{type(exc).__name__}: {exc}"[:200]] += 1
            else:
                t1 = clock()
                self.results[(i, method, r.value, r.words)] += 1
                summands += self.inputs[i].size
            lat.append(t1 - t0)
            if floor:
                x = self.inputs[self.schedule[k % len(self.schedule)][0]]
                f0 = clock()
                floors.append(floor_time(x))
                floor_wall += clock() - f0
                floor_summands += x.size
            k += 1
        return {
            "latencies": lat,
            "wall": clock() - start - floor_wall,
            "floors": floors,
            "floor_summands": floor_summands,
            "summands": summands,
            "attempted": k,
            "failed": failed,
        }


def _observability_state() -> dict:
    from repro import observability as obs

    return {
        "spans_retained": len(obs.TRACER),
        "journal_entries": len(obs.JOURNAL),
        "journal_dropped": obs.JOURNAL.dropped,
    }


def _set_observed(on: bool) -> None:
    from repro import observability as obs

    if on:
        obs.enable(enable_metrics=True, enable_tracing=True,
                   enable_journal=True)
    else:
        obs.disable()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS[:3])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    runner = Runner(args.workload, args.seed)
    observed = args.workload == "calls-observed"
    if observed:
        _set_observed(True)
    runner.loop(len(runner.schedule), floor=False)  # warm-up
    runner.results.clear()

    doc: dict = {}
    if not args.trace:
        n = len(runner.schedule)
        doc["run"] = runner.loop(n * wl.passes(args.workload, args.seconds, n))
    else:
        # The floor and, for calls-observed, the observer's cost come
        # from untraced passes of the schedule; each runs with the
        # observer on and then off, so its cost is the difference of two
        # interleaved walls.  Then passes alternate untraced and traced:
        # the ratio of their walls is the tracing overhead.
        from layers import Recorder

        passes, on_wall, off_wall = [], 0.0, 0.0
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds / 3:
            on = runner.loop(len(runner.schedule))
            passes.append(on)
            on_wall += on["wall"]
            if observed:
                _set_observed(False)
                off_wall += runner.loop(len(runner.schedule),
                                        floor=False)["wall"]
                _set_observed(True)
        recorder = Recorder()
        recorder.patch_loaded()
        plain, traced = [], []
        start = time.perf_counter()
        while (time.perf_counter() - start < args.seconds * 2 / 3
               and len(traced) * len(runner.schedule) < TRACE_REQUEST_CAP):
            recorder.activate(False)
            plain.append(runner.loop(len(runner.schedule), floor=False))
            recorder.activate(True)
            traced.append(runner.loop(len(runner.schedule), floor=False,
                                      recorder=recorder))
        recorder.activate(False)
        recorder.save(args.spans)
        runs = passes + plain + traced
        doc["trace"] = {
            "untraced_wall": sum(r["wall"] for r in plain),
            "traced_wall": sum(r["wall"] for r in traced),
            "traced_latencies": [t for r in traced for t in r["latencies"]],
            "requests": sum(r["attempted"] for r in traced),
            "floor_s": sum(sum(p["floors"]) for p in passes),
            "floor_summands": sum(p["floor_summands"] for p in passes),
            "observed_requests": sum(p["attempted"] for p in passes) if observed else 0,
            "on_wall": on_wall,
            "off_wall": off_wall,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if observed:
        doc["observability"] = _observability_state()
    doc["results"] = [
        [i, method, value.hex(), None if words is None else list(words), n]
        for (i, method, value, words), n in runner.results.items()
    ]
    doc["errors"] = dict(runner.errors)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
