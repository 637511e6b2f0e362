import math
from functools import partial

import pytest

from liftzeta import archfe
from liftzeta.archfe import (
    fe_product_check, gamma_zeta_closed_form, gaussian, gaussian_nabla,
    gaussian_star, nabla, star_numeric, zeta_numeric,
)
from builders import clear_caches


def zero_function(x):
    return 0.0


def term_at(fn):
    """t -> the exp-sinh term fn(x) x (pi/2) cosh t, x = exp(pi/2 sinh t),
    computed where it is summed."""
    def term(t):
        x = math.exp(math.pi / 2 * math.sinh(t))
        return fn(x) * x * (math.pi / 2) * math.cosh(t)
    return term


def reference_quad(fn, tol):
    """archfe's exp-sinh rule with each node computed where it is summed,
    as term(t); archfe builds its nodes once per halving level and takes
    each level's nodes as a slice of them."""
    term = term_at(fn)
    lo, hi, h = -6, 4, 0.5
    end_lo, end_hi = term(lo), term(hi)
    coarse = [term(lo + k * h) for k in range(1, 20)]
    total = h * ((end_lo + end_hi) / 2 + sum(coarse))
    # finer levels only between the first and the last level-0 term of
    # at least 1e-20 of the largest, with one level-0 node to spare
    big = max(abs(v) for v in coarse)
    kept = [k for k in range(1, 20) if abs(coarse[k - 1]) >= 1e-20 * big]
    t_lo, t_hi = lo + (kept[0] - 1) * h, lo + (kept[-1] + 1) * h
    dropped = max([abs(coarse[k - 1]) for k in range(1, 20)
                   if not t_lo <= lo + k * h <= t_hi] + [0.0])
    prev = None
    for _ in range(9):
        h /= 2
        new = total / 2 + h * sum(term(lo + k * h)
                                  for k in range(1, round((hi - lo) / h), 2)
                                  if t_lo < lo + k * h < t_hi)
        diff, total = abs(new - total), new
        if diff <= tol * max(1.0, abs(total)):
            break
        # the step difference shrinks, and its square over the one before
        # is within tol: that estimates the error of this level's sum
        if prev is not None and diff < prev \
                and diff * diff / prev <= tol * max(1.0, abs(total)):
            diff = diff * diff / prev
            break
        prev = diff
    return total, diff + abs(end_lo) + abs(end_hi) + dropped


def full_window_quad(fn, tol):
    """The exp-sinh rule before it cut its window: every level sums the
    whole window [-6, 4], and it stops only when two sums agree."""
    term = term_at(fn)
    lo, hi, h = -6, 4, 0.5
    end_lo, end_hi = term(lo), term(hi)
    total = h * ((end_lo + end_hi) / 2
                 + sum(term(lo + k * h) for k in range(1, 20)))
    for _ in range(9):
        h /= 2
        new = total / 2 + h * sum(term(lo + k * h)
                                  for k in range(1, round((hi - lo) / h), 2))
        diff, total = abs(new - total), new
        if diff <= tol * max(1.0, abs(total)):
            break
    return total, diff + abs(end_lo) + abs(end_hi)


def with_quad(rule, compute):
    """compute() with archfe's quadrature replaced by rule."""
    quad = archfe._complex_quad
    archfe._complex_quad = rule
    try:
        return compute()
    finally:
        archfe._complex_quad = quad


def outcome(compute):
    """compute(), or ArithmeticError if it raises one."""
    try:
        return compute()
    except ArithmeticError:
        return ArithmeticError


class TestNodeTable:
    def values(self):
        out = [star_numeric(gaussian, -2.0 + 0.2 * k) for k in range(20)]
        for f in (gaussian, gaussian_nabla):
            for omega in (1, "sign"):
                for s in (0.2, 0.5, 2, 4, 6, 1, 1 + 0.3j, 1 - 0.3j):
                    out.append(zeta_numeric(f, omega, s))
        return out

    def test_quadratures_match_the_reference_bit_for_bit(self):
        # takes no fixtures: tests/test_mutants.py runs it as a named check
        clear_caches()
        cold = self.values()
        # == on floats: the table moves where each node is computed, not
        # one bit of any sum, with the table cold or warm
        reference = partial(with_quad, reference_quad)
        assert cold == self.values() == reference(self.values)
        for run in (lambda compute: compute(), reference):
            with pytest.raises(ArithmeticError):
                run(lambda: zeta_numeric(gaussian_nabla, 1, 0.05))

    def test_agrees_with_the_full_window_rule(self):
        # takes no fixtures: tests/test_mutants.py runs it as a named check;
        # the cut window and the early stop move no value by more than the
        # rule's own tolerances, and raise on the same inputs (s = 0.05)
        clear_caches()

        def agree(compute, within):
            new = outcome(compute)
            old = outcome(partial(with_quad, full_window_quad, compute))
            if ArithmeticError in (new, old):
                return new is old
            return abs(new - old) <= within(old)

        for f in (gaussian, gaussian_nabla):
            for k in range(-40, 41):
                assert agree(partial(star_numeric, f, 0.075 * k),
                             lambda old: 1e-10), (f.__name__, k)
            for omega in (1, "sign"):
                for s in (0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8, 1, 1.5, 2, 3,
                          4, 5, 6, 8, 1 + 0.3j, 1 - 0.3j, 2 + 1j, 0.5 + 2j):
                    assert agree(partial(zeta_numeric, f, omega, s),
                                 lambda old: 1e-12 * max(1, abs(old))), \
                        (f.__name__, omega, s)


class TestStar:
    def test_gaussian_matches_closed_form_on_grid(self):
        for k in range(20):
            y = -2.0 + 0.2 * k
            got = star_numeric(gaussian, y)
            assert abs(got - gaussian_star(y)) < 1e-6

    def test_value_at_zero(self):
        # 2 int e^(-pi x^2) |x| dx = 2/pi
        assert abs(star_numeric(gaussian, 0) - 2 / math.pi) < 1e-10

    def test_zero_function(self):
        assert star_numeric(zero_function, 1.3) == 0

    def test_nan_integrand_raises(self):
        with pytest.raises(ArithmeticError):
            star_numeric(lambda x: float("nan"), 1.0)

    def test_scaling_law(self):
        for alpha in (2.0, 1 / 3):
            for y in (0.0, 0.7, 1.3):
                got = star_numeric(lambda x, a=alpha: gaussian(a * x), y)
                want = alpha ** -2 * gaussian_star(y / alpha)
                assert abs(got - want) < 1e-5


class TestZeta:
    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_gamma_values(self, s):
        got = zeta_numeric(gaussian_nabla, 1, s)
        assert abs(got - gamma_zeta_closed_form(s)) < 1e-8

    def test_quadrature_edges(self):
        # small s: |x|^(s-1) is steep at 0, so the rule must reach deep
        # into x -> 0; at s = 0.05 it cannot, and must say so
        for s in (0.2, 0.5):
            got = zeta_numeric(gaussian_nabla, 1, s)
            assert abs(got - gamma_zeta_closed_form(s)) < 1e-9
        with pytest.raises(ArithmeticError):
            zeta_numeric(gaussian_nabla, 1, 0.05)

    def test_nan_integrand_raises(self):
        # NaN at every node, and NaN only near x = 1.49 (t = 1/4), a
        # node of the first halving level and of no level-0 one
        def nan_near_one(x):
            return float("nan") if 1.2 < x < 1.8 else gaussian_nabla(x)
        for f in (lambda x: float("nan"), nan_near_one):
            with pytest.raises(ArithmeticError):
                zeta_numeric(f, 1, 2)

    def test_half_gamma_half(self):
        # s = 2: (1/2) pi^(-1/2) Gamma(1/2) = 1/2
        assert abs(zeta_numeric(gaussian_nabla, 1, 2) - 0.5) < 1e-10

    def test_sign_character_kills_even_functions(self):
        assert abs(zeta_numeric(gaussian, "sign", 2)) < 1e-12

    def test_outside_convergence_rejected(self):
        with pytest.raises(ValueError):
            zeta_numeric(gaussian, 1, -1)
        with pytest.raises(ValueError):
            zeta_numeric(gaussian, 2, 1)


class TestProductFE:
    def test_fixed_point_balances(self):
        f = gaussian_nabla
        assert fe_product_check(f, f, f, f, 1.5)

    @pytest.mark.parametrize("s", [1, 1 + 0.3j])
    def test_gaussian_pair(self, s):
        assert fe_product_check(gaussian_nabla, gaussian_nabla, gaussian,
                                gaussian_star, s, tol=1e-6)

    def test_zero(self):
        assert fe_product_check(zero_function, zero_function, gaussian,
                                gaussian_star, 1)


class TestNabla:
    def test_values(self):
        assert nabla(2) == 4
        assert nabla(-2) == -4
        assert nabla(0) == 0
