"""Layer tracing from outside the program.

The benchmark wraps the program's public functions (listed in
:data:`LAYERS`, named after the repo's modules) with recorders that keep
one span per call: request id, span id, parent span id, layer, target,
start, end, error flag and an item count (summands or bytes).  Spans stay
in memory and are written once, when the traced run ends.

A layer's self time is the sum over its spans of the span's duration
minus the time its direct child spans cover.  Because spans nest
properly on the one thread that calls the program, the self times of all
spans of a request add up to the duration of its outermost spans, so the
layer self times reconcile with the request wall clock up to the time
spent outside any wrapped call (``bench.layer_coverage_frac``).

Wrapping happens after a module is fully imported.  Every copy of a
wrapped function that another ``repro`` module imported by name, or
stored in a module-level dict (such as the compensated kernel table),
is replaced too, so calls resolve to the wrapper whichever way the
program reaches them.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Standard library only: the traced CLI child imports this module before
# its import hook is in, so it must not load numpy (see spans.py).

# Layer -> targets ("module:qualname"; "module:*.name" wraps ``name`` on
# every class of the module that defines it).  The ``import`` layer has
# no targets: its spans come from the import hook of the traced CLI run.
LAYERS: dict[str, tuple[str, ...]] = {
    "import": (),
    "cli": ("repro.cli:main",),
    "io": ("repro.cli:_load_values",),
    "core.params": ("repro.core.params:suggest_params",),
    "core.planner": ("repro.core.planner:plan", "repro.core.planner:planned_sum"),
    "summation.naive": ("repro.summation.naive:naive_sum",),
    "core.validate": ("repro.core.superacc:check_finite_in_range",),
    "core.smallacc": (
        "repro.core.smallacc:SmallAccumulator.absorb",
        "repro.core.smallacc:SmallAccumulator.propagate",
        "repro.core.smallacc:SmallAccumulator._propagate",
    ),
    "core.superacc": ("repro.core.superacc:superacc_total",),
    "core.compensated": ("repro.core.compensated:pairwise_partial",),
    "core.engines": (
        "repro.core.engines:get",
        "repro.core.engines:adapter_factory",
        "repro.core.engines:batch_words",
    ),
    "core.finalize": (
        "repro.core.vectorized:_finalize_total",
        "repro.core.scalar:to_double",
    ),
    "parallel.methods": (
        "repro.parallel.drivers:make_method",
        "repro.parallel.methods:*.local_reduce",
        "repro.parallel.methods:*.combine",
        "repro.parallel.methods:*.finalize",
        "repro.parallel.methods:*.words",
    ),
    "parallel.drivers": ("repro.parallel.drivers:global_sum",),
    "parallel.procpool": (
        "repro.parallel.procpool:ProcPool.load",
        "repro.parallel.procpool:ProcPool._ensure_pool",
        "repro.parallel.procpool:ProcPool.reduce",
        "repro.parallel.procpool:ProcPool.close",
    ),
}
LAYER_NAMES = tuple(LAYERS)
#: One span: request id, span id, parent span id (-1 at the root), layer
#: index, target index, start and end (``perf_counter`` seconds), error
#: flag, items (summands or bytes).
COLUMNS = ("request", "sid", "parent", "layer", "name", "t0", "t1", "err",
           "items")
IMPORT_LAYER = LAYER_NAMES.index("import")
#: Layers whose spans report the summands of their first array argument.
SUMMAND_LAYERS = ("core.validate", "core.smallacc", "core.superacc",
                  "core.compensated")


def _first_array_size(args, result) -> int:
    for a in args:
        if type(a).__name__ == "ndarray":
            return int(a.size)
    return 0


def _result_nbytes(args, result) -> int:
    return int(getattr(result, "nbytes", 0))


class Recorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.request = -1
        self.names: list[str] = []
        self._rows: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: set[str] = set()
        # (container, key, original, wrapper): every swap made, so the
        # wrappers can be taken out and put back (see :meth:`activate`).
        self._swaps: list[tuple] = []
        self.active = False

    # -- spans ------------------------------------------------------------

    def begin_request(self) -> None:
        self.request += 1

    def open(self) -> tuple[int, int]:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        return sid, parent

    def close(self, sid: int, parent: int, layer: int, name: int,
              t0: float, t1: float, err: int, items: int,
              keep: bool = True) -> None:
        self._stack.pop()
        if keep:
            self._rows.append(
                (self.request, sid, parent, layer, name, t0, t1, err, items)
            )

    def name_code(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def wrap(self, fn, layer: str, name: str):
        layer_code = LAYER_NAMES.index(layer)
        name_code = self.name_code(name)
        if layer in SUMMAND_LAYERS:
            items = _first_array_size
        elif layer == "io":
            items = _result_nbytes
        else:
            items = None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = self.open()
            err, result = 0, None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                err = 1
                raise
            finally:
                t1 = clock()
                count = items(args, result) if items is not None else 0
                self.close(sid, parent, layer_code, name_code, t0, t1, err, count)

        return traced

    # -- installation ------------------------------------------------------

    def patch_loaded(self) -> None:
        """Wrap the targets of every fully imported target module."""
        self.active = True
        fresh = {}
        for layer, targets in LAYERS.items():
            for target in targets:
                modname, qual = target.split(":")
                mod = sys.modules.get(modname)
                if target in self._patched or mod is None or _initializing(mod):
                    continue
                self._patched.add(target)
                for owner, attr in _resolve(mod, qual):
                    orig = owner.__dict__[attr]
                    label = (f"{modname}.{owner.__name__}.{attr}"
                             if isinstance(owner, type) else f"{modname}.{attr}")
                    wrapped = self.wrap(orig, layer, label)
                    fresh[id(orig)] = (orig, wrapped)
                    self._swap(owner, attr, orig, wrapped)
        if fresh:
            self._rebind(fresh)

    def activate(self, on: bool) -> None:
        """Put the wrappers in (``True``) or take them out again."""
        if on != self.active:
            self.active = on
            for container, key, orig, wrapped in self._swaps:
                _assign(container, key, wrapped if on else orig)

    def _swap(self, container, key, orig, wrapped) -> None:
        self._swaps.append((container, key, orig, wrapped))
        _assign(container, key, wrapped)

    def _rebind(self, fresh: dict) -> None:
        """Point every ``repro`` module-level name or dict value that
        still refers to a wrapped original (``id -> (original,
        wrapper)``) at its wrapper."""
        for name, mod in list(sys.modules.items()):
            if not name.startswith("repro") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                hit = fresh.get(id(val))
                if hit is not None and hit[0] is val:
                    self._swap(mod, attr, val, hit[1])
                elif type(val) is dict:
                    for k, v in list(val.items()):
                        hit = fresh.get(id(v))
                        if hit is not None and hit[0] is v:
                            self._swap(val, k, v, hit[1])

    def save(self, path: str) -> None:
        """Write the spans as JSON columns (read back by ``spans.load``)."""
        cols = list(zip(*self._rows)) if self._rows else [()] * len(COLUMNS)
        doc = {name: list(col) for name, col in zip(COLUMNS, cols)}
        doc["names"] = self.names
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _initializing(mod) -> bool:
    spec = getattr(mod, "__spec__", None)
    return bool(getattr(spec, "_initializing", False))


def _resolve(mod, qual: str):
    """(owner, attribute) pairs a target names."""
    if qual.startswith("*."):
        attr = qual[2:]
        return [(obj, attr) for obj in vars(mod).values()
                if isinstance(obj, type) and obj.__module__ == mod.__name__
                and attr in obj.__dict__]
    if "." in qual:
        cls, attr = qual.split(".")
        return [(getattr(mod, cls), attr)]
    return [(mod, qual)]


def _assign(container, key, value) -> None:
    if type(container) is dict:
        container[key] = value
    else:
        setattr(container, key, value)
