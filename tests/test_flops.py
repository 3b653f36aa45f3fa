"""Flop-count model: closed-form values pinned against hand-derived integers."""

import pytest

from xlmimo.errors import ConfigurationError
from xlmimo.flops import flop_model, flops_direct, flops_jacpcg


def _total(method, K, T):
    return flop_model(method, K, T).total_flops


class TestDirect:
    @pytest.mark.parametrize("K,expected", [(1, 4), (16, 16399), (30, 108029)])
    def test_pinned_values(self, K, expected):
        assert flops_direct(K) == expected


class TestGs:
    def test_reference_value(self):
        assert _total("gs", 16, 5) == 25232

    def test_k1_edge(self):
        model = flop_model("gs", 1, 1)
        assert model.init_flops == 2
        assert model.per_iter_flops == 0

    def test_t_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            flop_model("gs", 16, 0)


class TestJor:
    @pytest.mark.parametrize("K,T,expected", [(16, 5, 10129), (2, 1, 27)])
    def test_pinned_values(self, K, T, expected):
        assert _total("jor", K, T) == expected

    def test_monotone_in_k_and_t(self):
        assert (_total("jor", 8, 5) < _total("jor", 16, 5)
                < _total("jor", 16, 6))


class TestCg:
    @pytest.mark.parametrize("K,T,expected",
                             [(16, 1, 2778), (30, 5, 42870), (1, 1, 48)])
    def test_pinned_values(self, K, T, expected):
        assert _total("cg", K, T) == expected


class TestJacPcg:
    @pytest.mark.parametrize("K,T,expected", [(30, 5, 46530), (1, 1, 54)])
    def test_pinned_values(self, K, T, expected):
        assert flops_jacpcg(K, T) == expected

    def test_preprocessing_charged_once(self):
        assert (flops_jacpcg(30, 5) - _total("cg", 30, 5)
                == 4 * 30 ** 2 + 2 * 30)


class TestModel:
    @pytest.mark.parametrize("method", ["direct", "gs", "jor", "cg", "jacpcg"])
    def test_total_is_init_plus_iterations(self, method):
        model = flop_model(method, 12, 5)
        assert model.total_flops == model.init_flops + 5 * model.per_iter_flops

    def test_totals_match_functions(self):
        assert flop_model("jacpcg", 30, 5).total_flops == flops_jacpcg(30, 5)
        assert flop_model("direct", 30, 5).total_flops == flops_direct(30)

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigurationError):
            flop_model("neumann", 8, 1)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ConfigurationError):
            flops_direct(0)
        with pytest.raises(ConfigurationError):
            flop_model("cg", 8, 0)


class TestOrdering:
    def test_krylov_methods_cheaper_at_scale(self):
        # closed-form crossovers at T = 5: CG undercuts GS from K = 9,
        # Jac-PCG undercuts direct inversion from K = 15
        for K in range(9, 65):
            assert _total("cg", K, 5) < _total("gs", K, 5)
        for K in range(15, 65):
            assert flops_jacpcg(K, 5) < flops_direct(K)
        assert _total("cg", 8, 5) > _total("gs", 8, 5)
        assert flops_jacpcg(14, 5) > flops_direct(14)
