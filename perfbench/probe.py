"""Time the program's set-up, or its floor, in a fresh interpreter.

Usage: ``python perfbench/probe.py WORKLOAD {setup,floor}``

Set-up is what a process pays before its first request: ``import
repro`` (``repro.cli`` for the ``cli`` workload) and native backend
resolution; with the observer on, enabling it; for ``cli``, also a
two-worker ``ProcPool`` start with a shared-memory load, as the
``--substrate procs`` request does.

The floor is the same kind of work without the program: ``import
numpy`` and, for ``cli``, a bare two-worker ``multiprocessing`` pool
started with the same start method and shut down.  ``run.py`` times the
two alternately and gates their ratio, which holds while the host's
speed drifts.

Prints ``{"seconds": …}``, timed from the start of ``main``.
"""

from __future__ import annotations

import json
import sys
import time


def setup(workload: str) -> None:
    if workload == "cli":
        import repro.cli  # noqa: F401
    else:
        import repro  # noqa: F401
        import repro.parallel.drivers  # noqa: F401
    from repro.core import native

    native.resolve("auto")
    if workload == "calls-observed":
        from repro import observability

        observability.enable(enable_metrics=True, enable_tracing=True,
                             enable_journal=True)
    if workload == "cli":
        import numpy as np
        from repro.parallel.procpool import ProcPool

        with ProcPool(data=np.ones(1000), pes=2) as pool:
            pool.warmup()


def floor(workload: str) -> None:
    import numpy  # noqa: F401

    if workload == "cli":
        import multiprocessing as mp

        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods()
                             else "spawn")
        with ctx.Pool(2) as pool:
            pool.map(abs, (1, 2))


def main() -> int:
    workload, what = sys.argv[1], sys.argv[2]
    t0 = time.perf_counter()
    (setup if what == "setup" else floor)(workload)
    print(json.dumps({"seconds": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
