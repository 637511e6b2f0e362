import math

import pytest

from liftzeta.archfe import (
    RealTestFunction, fe_product_check, gamma_zeta_closed_form, gaussian,
    gaussian_nabla, nabla, star_numeric, zeta_numeric,
)


def zero_function():
    return RealTestFunction("zero", lambda x: 0.0, star_form=lambda y: 0.0)


class TestStar:
    def test_gaussian_matches_closed_form_on_grid(self):
        g = gaussian()
        for k in range(20):
            y = -2.0 + 0.2 * k
            got = star_numeric(g, y)
            assert abs(got - g.star_closed_form(y)) < 1e-6

    def test_value_at_zero(self):
        # 2 int e^(-pi x^2) |x| dx = 2/pi
        g = gaussian()
        assert abs(star_numeric(g, 0) - 2 / math.pi) < 1e-10

    def test_zero_function(self):
        assert star_numeric(zero_function(), 1.3) == 0

    def test_scaling_law(self):
        g = gaussian()
        for alpha in (2.0, 1 / 3):
            fa = RealTestFunction("scaled", lambda x, a=alpha: g(a * x))
            for y in (0.0, 0.7, 1.3):
                got = star_numeric(fa, y)
                want = alpha ** -2 * g.star_closed_form(y / alpha)
                assert abs(got - want) < 1e-5


class TestZeta:
    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_gamma_values(self, s):
        got = zeta_numeric(gaussian_nabla(), 1, s)
        assert abs(got - gamma_zeta_closed_form(s)) < 1e-8

    def test_quadrature_edges(self):
        # small s: |x|^(s-1) is steep at 0, so the rule must reach deep
        # into x -> 0; at s = 0.05 it cannot, and must say so
        for s in (0.2, 0.5):
            got = zeta_numeric(gaussian_nabla(), 1, s)
            assert abs(got - gamma_zeta_closed_form(s)) < 1e-9
        with pytest.raises(ArithmeticError):
            zeta_numeric(gaussian_nabla(), 1, 0.05)

    def test_half_gamma_half(self):
        # s = 2: (1/2) pi^(-1/2) Gamma(1/2) = 1/2
        assert abs(zeta_numeric(gaussian_nabla(), 1, 2) - 0.5) < 1e-10

    def test_sign_character_kills_even_functions(self):
        assert abs(zeta_numeric(gaussian(), "sign", 2)) < 1e-12

    def test_outside_convergence_rejected(self):
        with pytest.raises(ValueError):
            zeta_numeric(gaussian(), 1, -1)
        with pytest.raises(ValueError):
            zeta_numeric(gaussian(), 2, 1)


class TestProductFE:
    def test_fixed_point_balances(self):
        f = gaussian_nabla()
        assert fe_product_check(f, f, 1, 1.5)

    @pytest.mark.parametrize("s", [1, 1 + 0.3j])
    def test_gaussian_pair(self, s):
        assert fe_product_check(gaussian_nabla(), gaussian(), 1, s,
                                tol=1e-6)

    def test_zero(self):
        assert fe_product_check(zero_function(), gaussian(), 1, 1)

    def test_missing_closed_form(self):
        f = RealTestFunction("bare", lambda x: math.exp(-x * x))
        with pytest.raises(ValueError):
            f.star_closed_form(0.0)


class TestNabla:
    def test_values(self):
        assert nabla(2) == 4
        assert nabla(-2) == -4
        assert nabla(0) == 0
