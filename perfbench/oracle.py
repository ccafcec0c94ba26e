"""The exactness oracle, computed outside every timed region.

For each distinct input the oracle holds the correctly rounded sum
(``math.fsum``), the mass ``sum|x|`` and the HP(8,4) words of the
``words`` reference engine.  It is computed once per input and cached on
disk by ``(workload, seed, input version)``.

Checks:

* exact engines: the decoded double equals ``fsum`` bit for bit and,
  where the request returns words, they equal the ``words`` engine's;
* bounded tiers (``comp-pairwise``, ``double``, a planned request):
  ``|result - fsum| <= c(n) * mass + |fsum| * 2**-53``, where ``c(n)`` is
  the tier's a-priori coefficient from :mod:`repro.core.bounds` (or the
  planner's mass-relative target) and the last term is the rounding of
  ``fsum`` itself.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

#: ``double`` is a method, not a registered engine, so its bound model
#: is chosen here: the order-free recursive bound, which both the pairwise
#: library path and the CLI's left-to-right loop meet.  Registered
#: inexact engines are priced with their own ``EngineSpec.bound_model``.
DOUBLE_BOUND_MODEL = "recursive"
EXACT_METHODS = ("hp-small", "hp-superacc", "hp")


def compute(x: np.ndarray, hp_format: tuple[int, int]) -> dict:
    """Oracle record of one input."""
    from repro.core.params import HPParams
    from repro.core.vectorized import batch_sum_doubles

    # Small chunks keep the word matrix in cache: same words, 2-3x faster.
    words = batch_sum_doubles(x, HPParams(*hp_format), chunk=1 << 14,
                              method="words")
    return {
        "n": int(x.size),
        "fsum": math.fsum(x).hex(),
        # An upper bound on sum|x|: NumPy's pairwise sum of non-negative
        # terms is within n*2**-53 relative (n < 2**27 here), far inside
        # the 2**-40 margin.
        "mass": (float(np.sum(np.abs(x))) * (1 + 2.0**-40)).hex(),
        "words": [int(w) for w in words],
    }


def load_or_compute(cache_dir: str, key: str, arrays, hp_format) -> list[dict]:
    """Oracle records for ``arrays`` (a zero-argument callable that
    builds them), read from ``cache_dir/key.json`` when present."""
    path = os.path.join(cache_dir, f"{key}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    records = [compute(x, hp_format) for x in arrays()]
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(records, fh)
    os.replace(tmp, path)
    return records


def _coefficient(model: str, n: int) -> float:
    from repro.core.bounds import coefficient

    return coefficient(model, n)


def bound_model(method: str) -> str | None:
    """The a-priori bound model of an inexact ``method``, or ``None``
    when the method is neither ``double`` nor a registered inexact engine."""
    if method == "double":
        return DOUBLE_BOUND_MODEL
    from repro.core import engines

    try:
        spec = engines.get(method)
    except ValueError:  # unknown to the registry
        return None
    return None if spec.exact else spec.bound_model


def check(record: dict, method: str, value: float,
          words=None, target: float | None = None) -> str | None:
    """``None`` when ``value`` (and ``words``) pass; else the reason.

    ``method`` is a library method name, or ``"planned"`` for a
    target-accuracy request (pass ``target``).
    """
    fsum = float.fromhex(record["fsum"])
    if method in EXACT_METHODS:
        if value != fsum:
            return f"{method}: value {value!r} != fsum {fsum!r}"
        if words is not None and [int(w) for w in words] != record["words"]:
            return f"{method}: words differ from the words engine"
        return None
    if method == "planned":
        coeff = float(target)
    elif (model := bound_model(method)) is not None:
        coeff = _coefficient(model, record["n"])
    else:
        return f"no oracle for method {method!r}"
    if not math.isfinite(value):
        return f"{method}: non-finite result {value!r}"
    limit = coeff * float.fromhex(record["mass"]) + abs(fsum) * 2.0**-53
    err = abs(value - fsum)
    if err > limit:
        return f"{method}: |{value!r} - fsum| = {err!r} exceeds bound {limit!r}"
    return None
