"""Structural guards on ``global_sum``'s per-call fixed cost.

No timing: each test counts calls.  A serial request with every observer
off mints no trace context, journals nothing, skips the Python carry
sweep after a compiled absorb and folds the chunks once.  With an
observer on, the request keeps its events, span and trace id.  The
``auto`` backend is resolved once; the accumulator tracks when its
chunks are canonical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import native
from repro.core import smallacc as smallacc_mod
from repro.core.params import HPParams
from repro.core.smallacc import SmallAccumulator, canonical_chunks
from repro.errors import ConversionOverflowError
from repro.observability import journal, monitor, tracing
from repro.observability.journal import JOURNAL
from repro.observability.tracing import TRACER, TraceContext
from repro.parallel import methods as methods_mod
from repro.parallel.drivers import global_sum

P = HPParams(8, 4)


def _xs(n: int = 1000) -> np.ndarray:
    return np.random.default_rng(5).uniform(-1.0, 1.0, n)


def _spy(monkeypatch, owner, name: str) -> list:
    """Replace ``owner.name`` with a wrapper that records each call."""
    calls: list = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def _compiled_or_skip() -> None:
    if not native.resolve("auto").compiled:
        pytest.skip("no compiled backend available in this environment")


@pytest.fixture
def observers_off():
    assert not (tracing.ENABLED or journal.ENABLED or monitor.MONITOR.armed)
    assert tracing.current_context() is None


@pytest.fixture
def clean_env(monkeypatch):
    for var in ("REPRO_FORCE_PURE", "REPRO_NATIVE"):
        monkeypatch.delenv(var, raising=False)
    native._reset_for_tests()
    yield monkeypatch
    monkeypatch.undo()
    native._reset_for_tests()


class TestObserversOff:
    def test_no_trace_context_and_no_journal_calls(self, monkeypatch,
                                                   observers_off):
        minted = []
        original_new = TraceContext.new.__func__

        def new(cls):
            minted.append(cls)
            return original_new(cls)

        monkeypatch.setattr(TraceContext, "new", classmethod(new))
        emits = _spy(monkeypatch, journal, "emit")
        for method in ("hp-small", "comp-pairwise", "double"):
            global_sum(_xs(), method, substrate="serial")
        assert minted == []
        assert emits == []

    def test_no_python_sweep_after_compiled_absorb(self, monkeypatch,
                                                   observers_off):
        _compiled_or_skip()
        phases: list[str] = []
        original = smallacc_mod._phase

        def phase(name, **attrs):
            phases.append(name)
            return original(name, **attrs)

        monkeypatch.setattr(smallacc_mod, "_phase", phase)
        sweeps = _spy(monkeypatch, SmallAccumulator, "propagate")
        global_sum(_xs(), "hp-small", substrate="serial", params=P)
        assert "smallacc.scatter" in phases
        assert "smallacc.propagate" not in phases
        assert sweeps == []

    def test_chunks_fold_once(self, monkeypatch, observers_off):
        folds = _spy(monkeypatch, methods_mod, "fold_bins")
        result = global_sum(_xs(), "hp-small", substrate="serial", params=P)
        assert len(folds) == 1
        assert result.words == global_sum(_xs(), "hp", params=P).words


class TestObserversOn:
    @pytest.fixture
    def journal_and_tracing(self):
        tracing.enable()
        journal.enable()
        yield
        tracing.disable()
        journal.disable()
        TRACER.reset()
        JOURNAL.reset()

    def test_request_events_and_span_share_one_trace(self,
                                                      journal_and_tracing):
        global_sum(_xs(), "hp-small", substrate="serial", params=P)
        starts = JOURNAL.events(event="request.start")
        finishes = JOURNAL.events(event="request.finish")
        assert len(starts) == len(finishes) == 1
        trace_id = starts[0]["trace_id"]
        assert trace_id and finishes[0]["trace_id"] == trace_id
        assert finishes[0]["ok"] is True
        spans = TRACER.spans("global_sum")
        assert len(spans) == 1
        assert spans[0].attrs["trace"] == trace_id
        assert finishes[0]["span_id"] == spans[0].span_id

    def test_journal_alone_still_mints_a_trace(self):
        journal.enable()
        try:
            global_sum(_xs(), "double", substrate="serial")
            start, finish = (JOURNAL.events(event=e)[0]
                             for e in ("request.start", "request.finish"))
            assert start["trace_id"] and start["trace_id"] == finish["trace_id"]
        finally:
            journal.disable()
            JOURNAL.reset()


class TestBackendResolvedOnce:
    def test_env_read_once_until_reset(self, clean_env):
        first = native.resolve("auto")
        reads = _spy(clean_env, native, "force_pure")
        clean_env.setenv("REPRO_FORCE_PURE", "1")
        assert native.resolve("auto") is first
        assert reads == []
        native._reset_for_tests()
        assert native.resolve("auto") is native.PURE

    @pytest.mark.parametrize("var,value", [("REPRO_FORCE_PURE", "1"),
                                           ("REPRO_NATIVE", "pure")])
    def test_env_pins_pure_after_reset(self, clean_env, var, value):
        clean_env.setenv(var, value)
        native._reset_for_tests()
        assert SmallAccumulator(P).backend == "pure"

    def test_explicit_pure_needs_no_reset(self, clean_env):
        native.resolve("auto")
        assert SmallAccumulator(P, backend="pure").backend == "pure"
        pure = methods_mod.HPSmallaccMethod(P, backend="pure")
        auto = methods_mod.HPSmallaccMethod(P)
        assert pure.local_reduce(_xs()) == auto.local_reduce(_xs())


class TestCanonicalFlag:
    nchunks = smallacc_mod.chunk_count(P)

    def _raw(self, acc: SmallAccumulator) -> tuple:
        return tuple(int(v) for v in acc._chunks)

    def _canonical(self, acc: SmallAccumulator) -> tuple:
        return canonical_chunks(acc.total(), self.nchunks)

    def _loaded(self, limbs) -> SmallAccumulator:
        acc = SmallAccumulator(P)
        acc.merge_chunks(list(limbs) + [0] * (self.nchunks - len(limbs)))
        return acc

    def test_compiled_absorb_returns_canonical_chunks(self, monkeypatch):
        _compiled_or_skip()
        acc = SmallAccumulator(P)
        acc.absorb(_xs(5000) * 1e10)
        assert acc.canonical
        assert self._raw(acc) == self._canonical(acc)
        phases: list[str] = []
        original = smallacc_mod._phase

        def phase(name, **attrs):
            phases.append(name)
            return original(name, **attrs)

        monkeypatch.setattr(smallacc_mod, "_phase", phase)
        acc.propagate()
        assert phases == []

    def test_pure_absorb_is_not_canonical(self):
        acc = SmallAccumulator(P, backend="pure")
        acc.absorb(_xs())
        assert not acc.canonical
        acc.propagate()
        assert acc.canonical
        assert self._raw(acc) == self._canonical(acc)

    def test_merge_chunks_forces_a_sweep(self):
        acc = self._loaded([1 << 33])
        assert not acc.canonical
        assert self._raw(acc) != self._canonical(acc)
        acc.propagate()
        assert self._raw(acc) == self._canonical(acc)

    def test_merge_forces_a_sweep(self):
        a, b = self._loaded([(1 << 32) - 1]), self._loaded([(1 << 32) - 1])
        a.propagate()
        b.propagate()
        a.merge(b)
        assert not a.canonical
        assert self._raw(a) != self._canonical(a)
        a.propagate()
        assert self._raw(a) == self._canonical(a)

    def test_headroom_pass_forces_a_sweep(self):
        acc = self._loaded([(1 << 33) + 5, (1 << 32) - 1])
        acc._propagate("test")
        assert not acc.canonical
        assert self._raw(acc) != self._canonical(acc)
        acc.propagate()
        assert acc.canonical
        assert self._raw(acc) == self._canonical(acc)
        # The one-slot pass does not know it left the chunks canonical.
        acc._propagate("test")
        assert not acc.canonical

    def test_rejected_absorb_keeps_the_sweep_pending(self):
        acc = self._loaded([1 << 33])
        with pytest.raises(ConversionOverflowError, match="NaN"):
            acc.absorb(np.array([1.0, np.nan]))
        assert not acc.canonical
        acc.propagate()
        assert self._raw(acc) == self._canonical(acc)
