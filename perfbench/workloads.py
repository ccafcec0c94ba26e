"""Seeded inputs and request schedules for the four workloads.

Everything here is a pure function of ``(workload, seed)``, so the
benchmark, its oracle and a re-run on another day all see the same
summands.  The program under test only ever receives the arrays (or
``.npy`` files) built here.

All values lie inside HP(8,4): the smallest exponent keeps every
summand's last bit above the format's 2**-256 resolution, and the largest
keeps the total mass below its 2**255 range, so every exact engine must
return the correctly rounded sum and no request may fail.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Bump when the generators change, so cached oracles are not reused.
INPUT_VERSION = 1

WORKLOADS = ("bulk", "calls", "calls-observed", "cli")

HP_FORMAT = (8, 4)
BULK_N = 1 << 24
CALLS_POOL = 64
CALLS_N_RANGE = (1e3, 1e5)
#: Engine mix of the ``calls`` stream: 60% hp-small, 20% comp-pairwise,
#: 20% double, as whole slots per pooled input.
CALLS_MIX = (("hp-small", 3), ("comp-pairwise", 1), ("double", 1))
CLI_SIZES = (1000, 4194304)
#: ``repro sum FILE <flags>`` invocations, one of each per file per cycle.
CLI_INVOCATIONS = (
    ("default", ()),
    ("small", ("--engine", "small")),
    ("double", ("--method", "double")),
    ("planned", ("--target-accuracy", "1e-12")),
    ("procs", ("--engine", "small", "--substrate", "procs", "--pes", "2")),
)
CLI_TARGET = 1e-12

#: Requests per second of the measured phase on the reference host (2
#: vCPU Xeon; floor time excluded).  A run makes ``seconds * rate``
#: requests, rounded to whole passes of its schedule (whole cycles for
#: ``cli``), so every run does the same work and sees the same request
#: mix whatever the host's speed; on the reference host its requests take
#: about ``seconds``.
NOMINAL_RATE = {"bulk": 6.5, "calls": 4400.0, "calls-observed": 4200.0,
                "cli": 2.4}

# Exponent window of the wide inputs (see the module docstring).
_WIDE_EXP = (-150, 170)
_RESIDUE_EXP = (-170, 0)


def passes(workload: str, seconds: float, pass_length: int) -> int:
    """Whole schedule passes (``cli``: cycles) a run of ``seconds`` makes."""
    return max(1, round(seconds * NOMINAL_RATE[workload] / pass_length))


def stream_key(workload: str) -> str:
    """``calls-observed`` replays the ``calls`` stream exactly."""
    return "calls" if workload == "calls-observed" else workload


def rng_for(workload: str, seed: int, part: str = "") -> np.random.Generator:
    key = zlib.crc32(f"{stream_key(workload)}/{part}".encode())
    return np.random.default_rng([INPUT_VERSION, key, int(seed)])


def narrow(rng: np.random.Generator, n: int) -> np.ndarray:
    """Narrow-range summands: ``uniform(-1, 1)``."""
    return rng.uniform(-1.0, 1.0, n)


def _spread(rng: np.random.Generator, n: int, lo: int, hi: int) -> np.ndarray:
    mant = rng.uniform(1.0, 2.0, n)
    exps = rng.integers(lo, hi + 1, n)
    signs = rng.choice(np.array([-1.0, 1.0]), n)
    return signs * np.ldexp(mant, exps)


def wide(rng: np.random.Generator, n: int) -> np.ndarray:
    """Wide exponent range with heavy cancellation.

    Seven eighths of the summands are ``+a`` / ``-a`` pairs spread over
    exponents -150..170; the rest are small residues.  The exact sum is
    the residues' sum, many orders of magnitude below the mass.
    """
    m = n // 8
    h = (n - m) // 2
    a = _spread(rng, h, *_WIDE_EXP)
    residue = _spread(rng, n - 2 * h, *_RESIDUE_EXP)
    x = np.concatenate([a, -a[rng.permutation(h)], residue])
    rng.shuffle(x)
    return x


def bulk_inputs(seed: int) -> list[np.ndarray]:
    """Two arrays of 2**24 doubles: narrow first, wide second."""
    return [narrow(rng_for("bulk", seed, "narrow"), BULK_N),
            wide(rng_for("bulk", seed, "wide"), BULK_N)]


def calls_inputs(seed: int) -> list[np.ndarray]:
    """The pooled ``calls`` inputs: sizes stratified log-uniform over
    [1e3, 1e5] (one draw per stratum, so every seed sees the same size
    profile), alternating narrow and wide."""
    rng = rng_for("calls", seed, "sizes")
    lo, hi = np.log10(CALLS_N_RANGE[0]), np.log10(CALLS_N_RANGE[1])
    strata = (np.arange(CALLS_POOL) + rng.uniform(0, 1, CALLS_POOL)) / CALLS_POOL
    sizes = (10 ** (lo + (hi - lo) * strata)).astype(int)
    rng.shuffle(sizes)
    out = []
    for i, n in enumerate(sizes):
        gen = narrow if i % 2 == 0 else wide
        out.append(gen(rng_for("calls", seed, f"input{i}"), int(n)))
    return out


def calls_schedule(seed: int) -> list[tuple[int, str]]:
    """One pass of the closed-loop stream: every pooled input once per
    slot of :data:`CALLS_MIX`, in a seeded order.  A run repeats this
    pass (see :func:`passes`)."""
    slots = [(i, method) for i in range(CALLS_POOL)
             for method, count in CALLS_MIX for _ in range(count)]
    order = rng_for("calls", seed, "schedule").permutation(len(slots))
    return [slots[j] for j in order]


def bulk_schedule() -> list[tuple[int, str]]:
    """Requests alternate the narrow and the wide array."""
    return [(0, "hp-small"), (1, "hp-small")]


def cli_inputs(seed: int) -> list[np.ndarray]:
    """The two ``.npy`` payloads: 1,000 narrow and 4,194,304 wide."""
    small, large = CLI_SIZES
    return [narrow(rng_for("cli", seed, "small"), small),
            wide(rng_for("cli", seed, "large"), large)]


def cli_cycle(seed: int, cycle: int) -> list[tuple[int, str]]:
    """One cycle of ``cli`` requests: every invocation on every file,
    in a seeded order, so each cycle has the same composition."""
    slots = [(f, name) for f in range(len(CLI_SIZES))
             for name, _ in CLI_INVOCATIONS]
    order = rng_for("cli", seed, f"cycle{cycle}").permutation(len(slots))
    return [slots[j] for j in order]


def inputs(workload: str, seed: int) -> list[np.ndarray]:
    key = stream_key(workload)
    if key == "bulk":
        return bulk_inputs(seed)
    if key == "calls":
        return calls_inputs(seed)
    if key == "cli":
        return cli_inputs(seed)
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
