"""The hp-superacc alias across every substrate: same words as hp.

``hp-superacc`` named an earlier binned engine; it now resolves to the
small engine's ``hp-small`` adapter, so scripts and old reports keep
working.  These tests pin that the alias reaches the same adapter on
every path — the folded words must be bit-identical to the
word-carrying hp adapter on every substrate (the GPU block kernel
included), at every PE count, and the wire codec must round-trip
partials exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.params import HPParams
from repro.parallel.drivers import global_sum, make_method
from repro.parallel.methods import HPMethod, HPSmallaccMethod
from repro.parallel.simmpi import SmallaccChunksType, datatype_for_method
from repro.util.rng import default_rng

PARAMS = HPParams(6, 3)
N = 700


def alias_method():
    return make_method("hp-superacc", PARAMS)


@pytest.fixture(scope="module")
def data() -> np.ndarray:
    rng = default_rng(424242)
    exps = rng.uniform(-40.0, 40.0, N)
    return rng.choice([-1.0, 1.0], N) * np.exp2(exps)


@pytest.fixture(scope="module")
def hp_words(data) -> tuple:
    return global_sum(data, method="hp", params=PARAMS).words


class TestDriverIntegration:
    def test_make_method_resolves(self):
        m = make_method("hp-superacc")
        assert isinstance(m, HPSmallaccMethod)
        assert m.name == "hp-small"
        assert m.params == HPParams(6, 3)

    def test_make_method_rejects_wrong_params(self):
        from repro.hallberg.params import HallbergParams

        with pytest.raises(TypeError):
            make_method("hp-superacc", HallbergParams(10, 38))

    @pytest.mark.parametrize("substrate,pes", [
        ("serial", 1),
        ("threads", 4),
        ("threads", 7),
        ("mpi", 8),
        ("mpi-scatter", 5),
        ("phi", 6),
    ])
    def test_words_match_hp_everywhere(self, data, hp_words, substrate, pes):
        r = global_sum(
            data, method="hp-superacc", substrate=substrate, pes=pes,
            params=PARAMS,
        )
        assert r.words == hp_words
        assert r.value == global_sum(data, method="hp", params=PARAMS).value

    def test_gpu_block_path(self, data, hp_words):
        r = global_sum(
            data, method="hp-superacc", substrate="gpu", pes=8,
            params=PARAMS,
        )
        assert r.words == hp_words

    def test_pe_count_invariance(self, data):
        results = {
            global_sum(
                data, method="hp-superacc", substrate="threads", pes=p,
                params=PARAMS,
            ).words
            for p in (1, 2, 3, 5, 8)
        }
        assert len(results) == 1

    def test_bitwise_equal_across_methods(self, data):
        a = global_sum(data, method="hp-superacc", params=PARAMS)
        b = global_sum(data, method="hp", substrate="threads", pes=4,
                       params=PARAMS)
        assert a.bitwise_equal(b)


class TestMethodAlgebra:
    def test_identity_is_neutral(self, data):
        m = alias_method()
        partial = m.local_reduce(data)
        assert m.combine(partial, m.identity()) == partial
        assert m.combine(m.identity(), partial) == partial

    def test_combine_matches_concatenation(self, data):
        m = alias_method()
        a, b = np.array_split(data, 2)
        combined = m.combine(m.local_reduce(a), m.local_reduce(b))
        assert m.words(combined) == m.words(m.local_reduce(data))

    def test_finalize_matches_hp(self, data):
        m = alias_method()
        hp = HPMethod(PARAMS)
        assert m.finalize(m.local_reduce(data)) == hp.finalize(
            hp.local_reduce(data)
        )

    def test_is_exact(self):
        assert alias_method().is_exact()


class TestWireCodec:
    def test_datatype_dispatch(self):
        dt = datatype_for_method(alias_method())
        assert isinstance(dt, SmallaccChunksType)
        # dispatch must not confuse the subclassless HPMethod codec
        from repro.parallel.simmpi import HPWordsType

        assert isinstance(datatype_for_method(HPMethod(PARAMS)), HPWordsType)

    def test_nbytes_matches_method(self):
        m = alias_method()
        dt = SmallaccChunksType(PARAMS)
        assert dt.nbytes == m.partial_nbytes()

    def test_roundtrip_negative_bins(self, data):
        m = alias_method()
        dt = SmallaccChunksType(PARAMS)
        partial = m.local_reduce(-np.abs(data))
        assert any(v < 0 for v in partial)
        assert dt.unpack(dt.pack(partial)) == partial

    def test_pack_rejects_wrong_arity(self):
        dt = SmallaccChunksType(PARAMS)
        with pytest.raises(ValueError):
            dt.pack((1, 2, 3))

    def test_unpack_rejects_wrong_size(self):
        dt = SmallaccChunksType(PARAMS)
        with pytest.raises(ValueError):
            dt.unpack(b"\x00" * (dt.nbytes - 1))

    def test_cancellation_over_the_wire(self):
        """A zero-sum dataset reduced over MPI must land on exact zero."""
        rng = default_rng(7)
        xs = rng.uniform(-1.0, 1.0, 256)
        both = np.concatenate([xs, -xs])
        r = global_sum(both, method="hp-superacc", substrate="mpi", pes=8,
                       params=PARAMS)
        assert r.value == 0.0
        assert r.words == (0,) * PARAMS.n
