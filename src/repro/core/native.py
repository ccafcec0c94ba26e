"""Optional compiled backend for the accumulation inner loops.

The small superaccumulator (:mod:`repro.core.smallacc`) spends
essentially all of its time in two tiny integer loops: scatter a
mantissa's 32-bit limbs into exponent-indexed ``int64`` slots, and
ripple deferred carries between slots.  NumPy executes those loops
through ``np.add.at`` — deterministic, but a dispatch-heavy scalar
fallback inside NumPy.  This module compiles the same loops to machine
code when the environment allows it, with a two-step fallback chain:

``cext``
    A small self-contained C translation unit (embedded in this file,
    no build system needed) is compiled best-effort with the system C
    compiler into a cached shared object and loaded through
    :mod:`ctypes`.  The first build happens at install/first use; later
    processes reuse the cached ``.so`` keyed by a hash of the source.
``pure``
    If no compiler is available — or ``REPRO_FORCE_PURE=1`` is set —
    the engine keeps its pure-NumPy path.  Nothing is lost but speed.

**Bit-identity contract.**  Every backend implements the *same* exact
integer arithmetic: the scatter decomposition reproduces ``frexp``
(including subnormal normalization) bit-for-bit, limb adds are plain
two's-complement ``int64`` adds, and carry propagation uses arithmetic
(floor) right shifts — exactly the NumPy semantics.  Backends are
therefore interchangeable mid-computation, and the regression harness
(``repro bench --regress``) gates on compiled-vs-pure bit-identity.

**Fused validation.**  The compiled scatter also does the engine's
input check: before decoding a summand it compares the raw magnitude
bits against the bits of the format's limit, so NaN, ±inf and
out-of-range values are rejected in the same pass that adds the rest,
and no separate NumPy validation pass reads the input again.  It
reports only the first rejected index; the caller restores its chunks
and lets :func:`repro.core.superacc.check_finite_in_range` raise the
error, so both backends reject the same inputs with the same message.

The selected backend is introspectable via :func:`backend_info` /
``repro stats`` and published as the ``smallacc.backend`` gauge.

Environment knobs
-----------------
The knobs are read when a backend is first resolved: ``auto`` is
resolved once per process and cached, so a change to the environment
after that takes effect only after :func:`_reset_for_tests` (an
explicit ``backend="pure"`` needs no reset).  The cache directory is
read when the compiled backend is first built.

``REPRO_FORCE_PURE=1``
    Skip the compiled backend (CI uses this for the pure leg of the
    backend matrix).
``REPRO_NATIVE=auto|cext|pure``
    Pin the resolution order's answer (``auto`` is the default chain).
``REPRO_NATIVE_CACHE=DIR``
    Directory for the compiled shared object (default: a content-keyed
    subdirectory of the system temp dir).

Run ``python -m repro.core.native`` to force a build eagerly and print
the resolved backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "KernelSet",
    "NativeUnavailableError",
    "backend_info",
    "backend_name",
    "force_pure",
    "resolve",
]

#: Adds between in-loop carry propagations on the two-limb (Neal) path.
#: Per add a chunk gains at most one addend of magnitude < 2**52, so
#: after a post-propagation residue (< 2**33) plus 2046 adds every
#: |chunk| < 2**33 + 2046 * 2**52 < 2**63 - 2**52: comfortably inside
#: ``int64``.  2047 would shave the margin to under 2**33.
SMALL_PROPAGATE_LIMIT = 2046


class NativeUnavailableError(RuntimeError):
    """The explicitly requested compiled backend cannot be provided."""


@dataclass(frozen=True)
class KernelSet:
    """The compiled inner loops, or ``None`` each for the pure backend.

    Uniform Python-side signatures (arrays are contiguous, caller-owned):

    * ``smallacc_scatter(xs_addr, n, frac_bits, chunks_addr, nchunks,
      lim)`` — the C entry point itself, called with the plain buffer
      addresses of ``xs`` (``n`` float64) and ``chunks`` (``nchunks``
      int64), e.g. ``arr.ctypes.data``, so a call marshals no pointer
      objects.  Two-limb Neal adds of every element of ``xs`` into
      ``chunks``, with internal carry propagation every
      :data:`SMALL_PROPAGATE_LIMIT` adds and a final canonicalizing
      pass, so the array returns fully propagated.  ``lim`` is the
      ``uint64`` bit pattern of the format's range limit ``2**W`` (that
      of ``+inf`` when ``W >= 1024``); an element whose magnitude bits
      reach it — NaN, ±inf or out of range, except exactly ``-2**W`` —
      stops the scatter.  Returns ``-1`` on success, else the index of
      the first rejected element, with ``chunks`` partially updated.
    * ``propagate(chunks)`` — one full sequential carry sweep leaving
      the canonical decomposition (non-negative 32-bit low windows,
      signed top chunk).
    """

    name: str
    smallacc_scatter: Callable | None
    propagate: Callable | None

    @property
    def compiled(self) -> bool:
        return self.smallacc_scatter is not None


#: The pure backend: engines use their own NumPy loops.
PURE = KernelSet("pure", None, None)

_LOCK = threading.Lock()
_RESOLVED: dict[str, KernelSet] = {}
_BUILD_ERRORS: dict[str, str] = {}
#: What ``auto`` resolved to, environment included; read without the
#: lock on every later ``resolve("auto")``.
_AUTO: KernelSet | None = None


def force_pure() -> bool:
    """True when the environment pins the pure backend."""
    if os.environ.get("REPRO_FORCE_PURE", "").strip() not in ("", "0"):
        return True
    return os.environ.get("REPRO_NATIVE", "").strip().lower() == "pure"


# ---------------------------------------------------------------------------
# C extension backend: embedded source, built best-effort with ctypes
# ---------------------------------------------------------------------------

# The translation unit is embedded so no packaging machinery is needed:
# the cached .so is keyed by the source hash, so editing this string
# transparently rebuilds.  ``>> 32`` on int64 relies on arithmetic
# (floor) shift — the behavior of every compiler this repo targets and
# the exact semantics of NumPy's int64 right shift.
_C_SOURCE = r"""
#include <stdint.h>

/* frexp-compatible decomposition by bit inspection: for the magnitude
   bits u (sign dropped) of a finite nonzero double, returns the 53-bit
   integer mantissa m (frexp fraction * 2**53, leading bit set) and
   writes e so that |x| = m * 2**(e - 53).  Subnormals are normalized
   exactly as frexp does.  Returns 0 for u == 0; NaN/inf never get
   here (the scatter's range check rejects them first). */
static int64_t repro_decompose(uint64_t u, int64_t *e) {
    uint64_t frac;
    int64_t biased;
    if (u == 0) { *e = 0; return 0; }
    biased = (int64_t)(u >> 52);
    frac = u & 0xFFFFFFFFFFFFFULL;
    if (biased != 0) {                          /* normal */
        *e = biased - 1022;
        return (int64_t)((1ULL << 52) | frac);
    }
    {                                           /* subnormal */
        int z = 0;
        while (!(frac & (1ULL << 52))) { frac <<= 1; z++; }
        *e = -1021 - z;
        return (int64_t)frac;
    }
}

/* One full sequential carry sweep: every chunk i < n-1 is left holding
   its non-negative 32-bit window, the top chunk keeps the signed high
   part.  Because the carry rides along the sweep, a single pass lands
   on the canonical decomposition of the represented total. */
void repro_smallacc_propagate(int64_t *chunks, int64_t nchunks) {
    int64_t carry = 0, i, v;
    for (i = 0; i < nchunks - 1; i++) {
        v = chunks[i] + carry;
        chunks[i] = v & 0xFFFFFFFFLL;           /* low window, >= 0 */
        carry = v >> 32;                        /* arithmetic = floor */
    }
    chunks[nchunks - 1] += carry;
}

/* Neal's small-superaccumulator add: two 64-bit adds per summand.
   Each element is range-checked on its raw bits before the decode: one
   unsigned compare of the magnitude bits against lim (the bits of
   2**whole_bits, or of +inf when every finite double is in range)
   rejects NaN, +/-inf and out-of-range values, and the two's-complement
   minimum -2**whole_bits (bits == lim | sign, finite lim only) is let
   through.  t = e - 53 + frac_bits positions the mantissa; below-
   resolution bits truncate toward zero (the batch_from_double rule).
   The mantissa's low 32-sub bits land in chunk t>>5, the rest in the
   chunk above.  Deferred carries are propagated every
   SMALL_PROPAGATE_LIMIT adds and once more on exit.  Returns -1 with
   the array canonical, or the index of the first rejected element with
   the array partially updated (the caller restores its snapshot). */
int64_t repro_smallacc_scatter(const double *xs, int64_t n, int64_t frac_bits,
                               int64_t *chunks, int64_t nchunks,
                               uint64_t lim) {
    const uint64_t neg_min =
        (lim < 0x7FF0000000000000ULL) ? (lim | 0x8000000000000000ULL) : 0;
    int64_t since = 0, i;
    for (i = 0; i < n; i++) {
        union { double d; uint64_t u; } b;
        int64_t e, mant, t, idx, sub, sign;
        uint64_t mag, lo, hi;
        b.d = xs[i];
        mag = b.u & 0x7FFFFFFFFFFFFFFFULL;      /* drop the sign bit */
        if (mag >= lim && b.u != neg_min) return i;
        mant = repro_decompose(mag, &e);
        if (mant == 0) continue;
        t = e - 53 + frac_bits;
        if (t < 0) {
            int64_t down = -t;
            if (down > 63) down = 63;
            mant >>= down;
            if (mant == 0) continue;
            t = 0;
        }
        idx = t >> 5;
        sub = t & 31;
        /* (mant << sub) may exceed 64 bits; unsigned wrap keeps the low
           32 bits exact, and the high part is mant >> (32 - sub). */
        lo = ((uint64_t)mant << sub) & 0xFFFFFFFFULL;
        hi = (uint64_t)mant >> (32 - sub);
        sign = (b.u >> 63) ? -1 : 1;
        chunks[idx] += sign * (int64_t)lo;
        chunks[idx + 1] += sign * (int64_t)hi;
        if (++since >= 2046) {                  /* SMALL_PROPAGATE_LIMIT */
            repro_smallacc_propagate(chunks, nchunks);
            since = 0;
        }
    }
    repro_smallacc_propagate(chunks, nchunks);
    return -1;
}
"""


def _cache_dir(digest: str) -> str:
    base = os.environ.get("REPRO_NATIVE_CACHE")
    if not base:
        base = os.path.join(
            tempfile.gettempdir(), f"repro-native-{digest[:16]}"
        )
    return base


def _find_cc() -> str | None:
    from shutil import which

    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and which(cand):
            return cand
    return None


def _build_cext() -> KernelSet:
    """Compile (or reuse) the shared object and wrap it with ctypes."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()
    cache = _cache_dir(digest)
    so_path = os.path.join(cache, "libreprokern.so")
    if not os.path.exists(so_path):
        cc = _find_cc()
        if cc is None:
            raise NativeUnavailableError("no C compiler on PATH")
        os.makedirs(cache, exist_ok=True)
        src_path = os.path.join(cache, "reprokern.c")
        with open(src_path, "w", encoding="utf-8") as fh:
            fh.write(_C_SOURCE)
        tmp_path = so_path + f".tmp.{os.getpid()}"
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp_path, src_path, "-lm"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise NativeUnavailableError(
                f"C build failed: {proc.stderr.strip()[:400]}"
            )
        os.replace(tmp_path, so_path)  # atomic: concurrent builders race safely

    lib = ctypes.CDLL(so_path)
    c_i64 = ctypes.c_longlong
    # Buffers cross as plain addresses (``arr.ctypes.data``): a
    # ``c_void_p`` argument converts a Python int directly, where a
    # ``data_as(POINTER(...))`` cast builds two ctypes objects per call.
    addr = ctypes.c_void_p
    scatter = lib.repro_smallacc_scatter
    scatter.argtypes = [addr, c_i64, c_i64, addr, c_i64, ctypes.c_uint64]
    scatter.restype = c_i64
    lib.repro_smallacc_propagate.argtypes = [addr, c_i64]
    lib.repro_smallacc_propagate.restype = None

    def propagate(chunks) -> None:
        lib.repro_smallacc_propagate(chunks.ctypes.data, chunks.shape[0])

    return KernelSet("cext", scatter, propagate)


# ---------------------------------------------------------------------------
# resolution
# ---------------------------------------------------------------------------

def resolve(backend: str = "auto") -> KernelSet:
    """Resolve a backend name to a :class:`KernelSet`.

    ``auto`` walks the chain cext -> pure, honoring
    ``REPRO_FORCE_PURE`` / ``REPRO_NATIVE``; a failed build degrades
    silently (recorded in :func:`backend_info`).  The answer is cached
    until :func:`_reset_for_tests`, so the environment is read once.
    Explicit ``cext`` raises :class:`NativeUnavailableError` when the
    backend cannot be provided; explicit ``pure`` always succeeds.
    """
    global _AUTO
    if backend == "auto":
        kern = _AUTO
        if kern is None:
            kern = _AUTO = _resolve_auto()
        return kern
    return _resolve(backend)


def _resolve_auto() -> KernelSet:
    """What ``auto`` means under the current environment."""
    env = os.environ.get("REPRO_NATIVE", "").strip().lower()
    if env and env != "auto":
        return _resolve(env)
    return PURE if force_pure() else _resolve("auto")


def _resolve(backend: str) -> KernelSet:
    if backend == "pure":
        return PURE
    if backend not in ("auto", "cext"):
        raise ValueError(f"unknown backend {backend!r}; pick auto/cext/pure")
    with _LOCK:
        if backend in _RESOLVED:
            return _RESOLVED[backend]
        try:
            kern = _build_cext()
        except Exception as exc:
            if backend == "auto":
                _BUILD_ERRORS["cext"] = f"{type(exc).__name__}: {exc}"
                _RESOLVED["auto"] = PURE
                return PURE
            if isinstance(exc, NativeUnavailableError):
                raise
            raise NativeUnavailableError(
                f"cext backend failed: {exc}"
            ) from exc
        _RESOLVED["cext"] = _RESOLVED["auto"] = kern
        return kern


def backend_name() -> str:
    """The backend ``auto`` resolves to right now."""
    return resolve("auto").name


def backend_info() -> dict:
    """Introspection dict for ``repro stats`` and the bench reports."""
    kern = resolve("auto")
    return {
        "backend": kern.name,
        "compiled": kern.compiled,
        "force_pure": force_pure(),
        "build_errors": dict(_BUILD_ERRORS),
    }


def _reset_for_tests() -> None:
    """Drop resolution caches so env-var changes take effect (tests)."""
    global _AUTO
    with _LOCK:
        _AUTO = None
        _RESOLVED.clear()
        _BUILD_ERRORS.clear()


if __name__ == "__main__":  # pragma: no cover - utility entry point
    info = backend_info()
    print(f"repro native backend: {info['backend']}")
    for name, err in info["build_errors"].items():
        print(f"  {name}: {err}", file=sys.stderr)
    sys.exit(0 if info["compiled"] or info["force_pure"] else 1)
