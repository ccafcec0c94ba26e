"""One request contract for ``repro sum``: one input, one answer.

Every way of asking for an exact sum — the default, each substrate at
any PE count, the reference ``words`` engine, and a ``--target-accuracy
0`` plan serially or on a substrate — must print the same lines (value
and ``--words`` label included) or fail with the same error line.  The
paper's order- and architecture-invariance claim, checked at the CLI.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

IN_PROCESS_PATHS = {
    "default": (),
    "serial": ("--substrate", "serial"),
    "threads": ("--substrate", "threads", "--pes", "3"),
    "mpi": ("--substrate", "mpi", "--pes", "3"),
    "words": ("--engine", "words"),
    "planned": ("--target-accuracy", "0"),
    "planned-threads": ("--target-accuracy", "0", "--substrate", "threads"),
}
PATHS = {**IN_PROCESS_PATHS, "procs": ("--substrate", "procs", "--pes", "2")}

INPUTS = {
    "subnormal": np.array([5e-324] * 10),
    "cancel-huge": np.array([1e300, -1e300, 1.0]),
    "mass-overflow": np.array([1e308, 1e308, -1e308]),
    "uniform": np.random.default_rng(2016).uniform(0.0, 10.0, 1000),
    "matrix": np.arange(12.0).reshape(3, 4),
    "empty": np.zeros(0),
    "int64": np.arange(-40, 2000, 7, dtype=np.int64),
    "float32": np.random.default_rng(7).standard_normal(300)
    .astype(np.float32),
}
#: The first stdout line every path must print.
EXPECTED_VALUE = {
    "subnormal": "5e-323",
    "cancel-huge": "1.0",
    "mass-overflow": "1e+308",
    "matrix": "66.0",
    "empty": "0.0",
}


def run(*argv: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def save(directory: Path, name: str, data: np.ndarray) -> str:
    path = directory / f"{name}.npy"
    np.save(path, data)
    return str(path)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_every_path_prints_the_serial_answer(tmp_path, name):
    path = save(tmp_path, name, INPUTS[name])
    outputs = {label: run("sum", path, "--words", *flags)
               for label, flags in PATHS.items()}
    reference = outputs["default"]
    assert reference[0] == 0 and reference[2] == ""
    for label, got in outputs.items():
        assert got == reference, f"{label} diverges from the default path"
    if name in EXPECTED_VALUE:
        assert reference[1].splitlines()[0] == EXPECTED_VALUE[name]
    value = float(reference[1].splitlines()[0])
    assert value == float(sum(map(Fraction, INPUTS[name].ravel().tolist())))
    assert reference[1].splitlines()[1].startswith("HP(N=")


@pytest.mark.parametrize("method", ["double", "hallberg"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_other_methods_match_their_serial_substrate(tmp_path, name, method):
    path = save(tmp_path, name, INPUTS[name])
    direct = run("sum", path, "--words", "--method", method)
    serial = run("sum", path, "--words", "--method", method,
                 "--substrate", "serial")
    assert direct == serial


def test_double_is_the_left_to_right_loop(tmp_path):
    data = INPUTS["uniform"]
    path = save(tmp_path, "uniform", data)
    total = 0.0
    for x in data.tolist():
        total += x
    for flags in ((), ("--substrate", "serial"),
                  ("--substrate", "threads", "--pes", "1")):
        code, out, _ = run("sum", path, "--method", "double", *flags)
        assert code == 0 and out == f"{total!r}\n"


def test_inexact_engines_print_no_words(tmp_path):
    path = save(tmp_path, "uniform", INPUTS["uniform"])
    for flags in ((), ("--substrate", "threads", "--pes", "3")):
        code, out, _ = run("sum", path, "--words", "--engine",
                           "comp-pairwise", *flags)
        assert code == 0 and len(out.splitlines()) == 1
    # comp-pairwise is the one inexact engine: the removed O(u) tiers
    # and their alias are unknown engine names.
    for gone in ("comp-kahan", "comp-neumaier", "neumaier"):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(["sum", path, "--engine", gone])
        assert exc.value.code == 2
        assert f"argument --engine: invalid choice: '{gone}'" in err.getvalue()


def test_procs_matches_serial_engine(tmp_path, rng):
    data = rng.uniform(-1.0, 1.0, 3000) * np.exp2(
        rng.uniform(-15.0, 15.0, 3000)
    )
    path = save(tmp_path, "values", data)
    serial = run("sum", path, "--params", "6,3", "--words")
    procs = run("sum", path, "--substrate", "procs", "--pes", "2",
                "--params", "6,3", "--words")
    assert serial[0] == 0
    assert procs == serial


@pytest.mark.parametrize("name", ["subnormal", "matrix"])
def test_ooc_prints_the_in_core_answer(tmp_path, name):
    path = save(tmp_path, name, INPUTS[name])
    flags = ("--substrate", "procs", "--pes", "2", "--words")
    in_core = run("sum", path, *flags)
    assert in_core[0] == 0
    assert run("sum", path, *flags, "--ooc") == in_core


def test_ooc_rejects_nonfinite_like_in_core(tmp_path):
    path = save(tmp_path, "bad", np.array([1.0, np.inf, 2.0]))
    flags = ("--substrate", "procs", "--pes", "2")
    in_core = run("sum", path, *flags)
    assert in_core == (1, "", "error: input contains NaN or infinity\n")
    assert run("sum", path, *flags, "--ooc") == in_core


def test_serial_sum_loads_no_substrate_driver(tmp_path):
    path = save(tmp_path, "uniform", INPUTS["uniform"])
    probe = (
        "import sys\n"
        "from repro.cli import main\n"
        f"assert main(['sum', {path!r}]) == 0\n"
        "drivers = ('procpool', 'threads', 'simmpi', 'phi', 'gpu')\n"
        "print(sorted(m for m in drivers\n"
        "             if 'repro.parallel.' + m in sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}, timeout=120,
        check=True,
    ).stdout
    assert out.splitlines()[-1] == "[]"


# -- property: adversarial inputs give one answer on every in-process path --

_subnormal = st.integers(1, (1 << 52) - 1).map(lambda m: m * 5e-324)
_power_of_two = st.integers(-1074, -1000) | st.integers(960, 1023)
_edge = st.tuples(st.sampled_from([-1.0, 1.0]), _power_of_two).map(
    lambda t: t[0] * math.ldexp(1.0, t[1])
)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_atom = st.one_of(
    _subnormal.map(lambda x: [x]),
    _subnormal.map(lambda x: [-x]),
    _edge.map(lambda x: [x]),
    _finite.map(lambda x: [x, -x]),  # heavy cancellation
    _finite.map(lambda x: [x]),
)
_summands = st.lists(_atom, max_size=12).map(
    lambda atoms: [x for atom in atoms for x in atom]
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_summands)
def test_adversarial_inputs_one_answer(summands):
    with tempfile.TemporaryDirectory() as tmp:
        path = save(Path(tmp), "x", np.array(summands, dtype=np.float64))
        outputs = {label: run("sum", path, "--words", *flags)
                   for label, flags in IN_PROCESS_PATHS.items()}
    reference = outputs["default"]
    for label, got in outputs.items():
        assert got == reference, f"{label} diverges from the default path"
    try:
        exact = float(sum(map(Fraction, summands), Fraction(0)))
    except OverflowError:
        return  # the exact sum is past DBL_MAX: agreement is the contract
    assert reference[0] == 0
    assert float(reference[1].splitlines()[0]) == exact
