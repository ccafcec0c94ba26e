"""Engine registry: the single dispatch point for summation methods.

The registry replaces the old if/elif ladders in ``batch_sum_doubles``
and ``make_method``; these tests pin its lookup contract (aliases,
historical error wording, adapter mapping) and check that the public
entry points actually route through it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import engines
from repro.core.params import HPParams
from repro.core.vectorized import batch_sum_doubles

P = HPParams(3, 2)


class TestRegistry:
    def test_expected_engines_present(self):
        assert set(engines.names()) >= {"small", "words"}
        # One fast exact engine: the retired superacc name is an alias,
        # never a second registered engine.
        assert "superacc" not in engines.names()
        assert engines.exact_names() == ("small", "words")

    def test_alias_resolves(self):
        assert engines.get("smallacc") is engines.get("small")
        assert engines.get("superacc") is engines.get("small")
        assert {"smallacc", "superacc"} <= set(engines.aliases())

    def test_unknown_name_preserves_historical_wording(self):
        with pytest.raises(ValueError, match="unknown summation method"):
            engines.get("exact")

    def test_spec_shape(self):
        spec = engines.get("small")
        assert spec.name == "small"
        assert spec.adapter_name == "hp-small"
        assert callable(spec.scaled_total)
        assert callable(spec.make_adapter)

    def test_adapter_names_cover_registry(self):
        names = engines.adapter_names()
        assert "hp-small" in names
        assert "hp" in names
        # Aliases resolve but are not listed as methods of their own.
        assert "hp-superacc" not in names

    def test_adapter_factory_resolves(self):
        from repro.parallel.drivers import make_method
        from repro.parallel.methods import HPSmallaccMethod

        for name in ("hp-small", "hp-superacc"):
            factory = engines.adapter_factory(name)
            assert factory is not None
            assert isinstance(factory(P), HPSmallaccMethod)
            assert make_method(name, P).name == "hp-small"

    def test_adapter_factory_unknown_is_none(self):
        assert engines.adapter_factory("hallberg") is None

    def test_engine_for_adapter_inverts(self):
        assert engines.engine_for_adapter("hp-small") == "small"
        assert engines.engine_for_adapter("hp-superacc") == "small"
        assert engines.engine_for_adapter("hp") == "words"
        assert engines.engine_for_adapter("double") is None


class TestDispatch:
    def test_scaled_total_agrees_across_engines(self, rng):
        xs = rng.uniform(-1.0, 1.0, 500)
        totals = {
            name: engines.scaled_total(xs, P, 1 << 20, name)
            for name in ("superacc", "small", "words")
        }
        # The superacc alias routes to small: three names, two engines.
        assert len(set(totals.values())) == 1

    def test_batch_words_routes_small(self, rng):
        xs = rng.uniform(-1.0, 1.0, 500)
        assert engines.batch_words(xs, P, 1 << 20, True, "small") == (
            engines.batch_words(xs, P, 1 << 20, True, "words")
        )

    def test_batch_sum_doubles_accepts_alias(self, rng):
        xs = rng.uniform(-1.0, 1.0, 300)
        assert batch_sum_doubles(xs, P, method="smallacc") == (
            batch_sum_doubles(xs, P, method="small")
        )

    def test_batch_sum_doubles_unknown_method(self, rng):
        with pytest.raises(ValueError, match="unknown summation method"):
            batch_sum_doubles(rng.uniform(size=4), P, method="kahan")

    def test_make_method_lists_registry_adapters(self):
        from repro.parallel.drivers import make_method

        with pytest.raises(ValueError) as exc:
            make_method("nope")
        for name in engines.adapter_names():
            assert name in str(exc.value)


def _edge_inputs(case: str, params: HPParams, rng) -> np.ndarray:
    """Inputs where a scatter bug would show: subnormals, powers of two
    at both ends of the format, and heavy cancellation."""
    if case == "subnormals":
        tiny = [5e-324, -5e-324, 3 * 5e-324, 2.0**-1022, -(2.0**-1030)]
        return np.array(tiny * 7 + [1.0, -0.5])
    if case == "format-limits":
        top = 2.0 ** min(params.whole_bits - 1, 1023)
        res = 2.0 ** max(-params.frac_bits, -1074)
        # Resolution-sized and sub-resolution powers, plus the top of
        # the range (the most negative value, -2 * top, is admitted).
        return np.array([top, -top / 2, -top / 2, res, -res, res / 2,
                         -2 * top, top, 3 * res])
    xs = rng.choice([-1.0, 1.0], 500) * np.exp2(rng.uniform(-60, 40, 500))
    return rng.permutation(np.concatenate([xs, -xs, [2.0**-40]]))


class TestDefaultEngine:
    @pytest.mark.parametrize(
        "case", ["subnormals", "format-limits", "cancellation"]
    )
    def test_default_matches_words_bit_for_bit(self, case, hp_params, rng):
        xs = _edge_inputs(case, hp_params, rng)
        default = batch_sum_doubles(xs, hp_params)
        assert default == batch_sum_doubles(xs, hp_params, method="words")
        assert default == batch_sum_doubles(xs, hp_params, method="small")

    @pytest.mark.parametrize("alias", ["superacc", "smallacc"])
    def test_cli_engine_accepts_alias(self, alias, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "data.txt"
        path.write_text("0.1 0.2 -0.3 1e-20")
        assert main(["sum", str(path), "--engine", alias, "--words"]) == 0
        via_alias = capsys.readouterr().out
        assert main(["sum", str(path), "--engine", "small", "--words"]) == 0
        assert capsys.readouterr().out == via_alias
