from fractions import Fraction
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from liftzeta.exactnum import (
    CycRat, ZetaValue, _cdivmod, _cgcd, _ctrim, cyclotomic_poly,
)
from liftzeta.localfield import QuasiCharacter
from liftzeta.zeta1d import l_function


def zeta(m, k=1):
    return CycRat.root_of_unity(m, k)


class TestCycRat:
    def test_cyclotomic_polys(self):
        assert cyclotomic_poly(1) == (Fraction(-1), Fraction(1))
        assert cyclotomic_poly(4) == (Fraction(1), Fraction(0), Fraction(1))
        # phi_6 = x^2 - x + 1
        assert cyclotomic_poly(6) == (Fraction(1), Fraction(-1), Fraction(1))

    def test_add_same_root(self):
        assert zeta(4) + zeta(4) == 2 * zeta(4)

    def test_root_relations(self):
        assert zeta(4) * zeta(4) == CycRat.from_rational(-1)
        assert zeta(3) ** 3 == 1
        assert zeta(3) + zeta(3, 2) == -1

    def test_conjugate(self):
        assert zeta(3).conjugate() == zeta(3, 2)
        assert zeta(3) * zeta(3).conjugate() == 1

    def test_mixed_orders(self):
        # zeta_2 = -1, and zeta_6^3 = -1
        assert zeta(2) == CycRat.from_rational(-1)
        assert zeta(6) ** 3 == zeta(2)
        assert zeta(3) * zeta(4) == zeta(12, 4 + 3)

    def test_inverse(self):
        x = zeta(5) + 2
        assert x * x.inverse() == 1
        with pytest.raises(ZeroDivisionError):
            CycRat.from_rational(0).inverse()

    def test_sqrt_q(self):
        s = CycRat.sqrt_q(3)
        assert s * s == 3
        assert CycRat.sqrt_q(3, -1) * s == 1
        assert CycRat.sqrt_q(5, 4) == 25

    def test_sqrt_q_inverse(self):
        x = CycRat.sqrt_q(2) + 1
        assert x * x.inverse() == 1

    def test_sqrt_q_lies_in_the_field(self):
        # z3 - z3^2 = i sqrt(3): i written two ways is one value
        w = zeta(3) - zeta(3, 2)
        assert w * CycRat.sqrt_q(3, -1) == zeta(4)
        assert (w - zeta(4) * CycRat.sqrt_q(3)).is_zero()

    @pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
    def test_sqrt_q_is_the_positive_root(self, q):
        s = CycRat.sqrt_q(q)
        assert s ** 2 == q
        assert abs(s.to_complex() - math.sqrt(q)) < 1e-12

    def test_odd_power_needs_prime_q(self):
        with pytest.raises(ValueError):
            CycRat.sqrt_q(4)
        assert CycRat.sqrt_q(4, 2) == 4

    def test_hash_across_orders(self):
        z = zeta(3)
        assert z == z.embed(6) and hash(z) == hash(z.embed(6))
        assert z.embed(6) in {z}
        assert hash(CycRat.from_rational(Fraction(1, 3))) == \
            hash(Fraction(1, 3))

    @given(st.sampled_from([1, 3, 4, 5, 8, 12]),
           st.lists(st.integers(-3, 3), min_size=1, max_size=12),
           st.sampled_from([None, 2, 3, 5]),
           st.fractions(max_denominator=9))
    @settings(max_examples=60, deadline=None)
    def test_equal_values_hash_equal(self, m, coeffs, q, r):
        x = sum((c * zeta(m, i) for i, c in enumerate(coeffs)),
                CycRat.from_rational(0))
        if q is not None:
            x = x * CycRat.sqrt_q(q)
        for k in (2, 3):
            y = x.embed(k * x.m)
            assert x == y and hash(x) == hash(y)
        rat = CycRat.from_rational(r).embed(m)
        assert rat == r and hash(rat) == hash(r)

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
    def test_field_axioms(self, a, b, c):
        x = CycRat.from_rational(a) + zeta(3) * b
        y = CycRat.from_rational(c) + zeta(4) * a
        z = zeta(12) * b + c
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)
        if not x.is_zero():
            assert x * x.inverse() == 1

    @given(st.integers(-4, 4), st.integers(-4, 4))
    def test_embedding_commutes(self, a, b):
        x = CycRat.from_rational(a) + zeta(3) * b
        y = zeta(3, 2) * a + b
        m2 = 6
        assert (x * y).embed(m2) == x.embed(m2) * y.embed(m2)
        assert (x + y).embed(m2) == x.embed(m2) + y.embed(m2)

    def test_conjugate_root_product(self):
        for m in (3, 4, 5, 8):
            for k in range(1, m):
                r = zeta(m, k)
                assert r.conjugate() * r == 1


class TestZetaValue:
    q = 3

    def one_minus_qinv_t(self):
        # 1 - q^-1 T
        return ZetaValue.from_fraction(self.q, [1, Fraction(-1, self.q)], [1])

    def test_inverse_cancellation(self):
        v = self.one_minus_qinv_t()
        assert v * v.inverse() == ZetaValue.constant(self.q, 1)

    def test_add(self):
        t = ZetaValue.monomial(self.q, 1, t_exp=1)
        assert t + t == ZetaValue.monomial(self.q, 2, t_exp=1)
        assert (t - t).is_zero()

    def test_subst_dual_on_t(self):
        t = ZetaValue.monomial(self.q, 1, t_exp=1)
        assert t.subst_dual() == ZetaValue.monomial(
            self.q, Fraction(1, self.q ** 2), t_exp=-1)

    def test_subst_dual_constant(self):
        c = ZetaValue.constant(self.q, 7)
        assert c.subst_dual() == c

    def test_subst_dual_geometric(self):
        # (1 - q^-1 T)^-1 -> T/(T - q^-3)
        v = self.one_minus_qinv_t().inverse()
        got = v.subst_dual()
        expect = ZetaValue.from_fraction(
            self.q, [0, 1], [Fraction(-1, self.q ** 3), 1])
        assert got == expect
        # spot check by evaluation at T = 1 and T = q
        for t in (1.0, float(self.q)):
            lhs = got.evaluate(t)
            rhs = expect.evaluate(t)
            assert abs(lhs - rhs) < 1e-12

    @pytest.mark.parametrize("a", [
        CycRat.from_rational(1), CycRat.root_of_unity(4),
        CycRat.from_rational(Fraction(2, 3)),
    ], ids=["one", "z4", "two-thirds"])
    @pytest.mark.parametrize("start", range(-2, 4))
    def test_geometric(self, start, a):
        c = 2 + CycRat.root_of_unity(3)
        one_minus_at = (ZetaValue.constant(self.q, 1)
                        - ZetaValue.monomial(self.q, a, t_exp=1))
        got = ZetaValue.geometric(self.q, c, a, start)
        assert got * one_minus_at == ZetaValue.monomial(
            self.q, c * a ** start, t_exp=start)
        # the L-factor of an unramified character is the series from 0
        want = one_minus_at.inverse()
        got_l = l_function(QuasiCharacter.trivial(self.q, pi_value=a))
        assert got_l == want and str(got_l) == str(want)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 3))
    @settings(max_examples=40)
    def test_subst_dual_involution(self, a, b, g):
        v = (ZetaValue.monomial(self.q, a, t_exp=2, x_exp=g)
             + ZetaValue.from_fraction(self.q, [b, 1], [1, 0, 2]))
        assert v.subst_dual().subst_dual() == v

    def test_subst_scale(self):
        t = ZetaValue.monomial(self.q, 1, t_exp=1)
        assert t.subst_scale(1, 2) == ZetaValue.monomial(self.q, 1, t_exp=2)
        v = ZetaValue.from_fraction(self.q, [1], [1, -1])  # (1-T)^-1
        w = CycRat.root_of_unity(4)
        assert v.subst_scale(w, 2) == ZetaValue(self.q, {
            0: ((CycRat.from_rational(1),),
                (CycRat.from_rational(1), CycRat.from_rational(0), -w))})
        m = ZetaValue.monomial(self.q, Fraction(1, self.q), t_exp=3)
        c = CycRat.root_of_unity(3)
        assert m.subst_scale(c, 1) == ZetaValue(self.q, {
            0: ((CycRat.from_rational(0),) * 3
                + (CycRat.from_rational(Fraction(1, self.q)) * c ** 3,),
                (CycRat.from_rational(1),))})

    def test_exponential_type(self):
        v = ZetaValue.monomial(self.q, Fraction(1, self.q ** 2), t_exp=-1)
        a, b = v.is_exponential_type()
        assert a == Fraction(1, self.q ** 2) and b == -1
        w = ZetaValue.constant(self.q, 1) + ZetaValue.monomial(self.q, 1, t_exp=1)
        assert w.is_exponential_type() is None
        x = ZetaValue.monomial(self.q, 1, x_exp=1)
        assert x.is_exponential_type() is None

    def test_x_monomials_under_dual(self):
        v = ZetaValue.monomial(self.q, 5, x_exp=2)
        assert v.subst_dual() == v

    def test_canonical_string(self):
        v = ZetaValue.from_fraction(3, [1], [1, Fraction(-1, 3)], x_exp=2)
        assert str(v) == "(1 - 1/3*T)^-1 * X^2"

    def test_mixed_q_error(self):
        with pytest.raises(ValueError):
            ZetaValue.constant(2, 1) + ZetaValue.constant(3, 1)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
    @settings(max_examples=40)
    def test_ring_axioms(self, a, b, g):
        x = ZetaValue.monomial(self.q, a, t_exp=1, x_exp=g)
        y = ZetaValue.from_fraction(self.q, [1, b], [1, 0, 1])
        z = ZetaValue.constant(self.q, b) + ZetaValue.monomial(self.q, 1, x_exp=1)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)


def euclid_reduce(num, den):
    """The general reduction of num/den: divide both by their gcd, then
    scale the lowest nonzero denominator coefficient to 1.  Reference for
    the monomial-denominator branch of ZetaValue._reduce."""
    num, den = _ctrim(num), _ctrim(den)
    if not num:
        return (), (CycRat.from_rational(1),)
    g = _cgcd(num, den)
    if len(g) > 1 or not g[0] == 1:
        num, _ = _cdivmod(num, g)
        den, _ = _cdivmod(den, g)
    low = next(c for c in den if not c.is_zero())
    if not low == 1:
        inv = low.inverse()
        num = tuple(c * inv for c in num)
        den = tuple(c * inv for c in den)
    return num, den


# orders a coefficient may take inside Q(zeta_m), and the square root
# that lies in Q(zeta_m)
DIVISORS = {1: (1,), 12: (1, 3, 4, 12), 20: (1, 4, 5, 20)}
SQRT = {1: None, 12: 3, 20: 5}


class TestMonomialDenominator:
    @given(st.sampled_from([1, 12, 20]), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_euclid(self, m, one_order, data):
        def coeff():
            n = m if one_order else data.draw(st.sampled_from(DIVISORS[m]))
            coords = data.draw(st.lists(
                st.fractions(-3, 3, max_denominator=4),
                min_size=1, max_size=4))
            x = sum((c * zeta(n, i) for i, c in enumerate(coords)),
                    CycRat.from_rational(0).embed(n))
            if SQRT[m] and data.draw(st.booleans()):
                x = x * CycRat.sqrt_q(SQRT[m])
            return x.embed(m) if one_order else x

        zeros = data.draw(st.integers(0, 3))
        num = ([CycRat.from_rational(0).embed(m)] * zeros
               + [coeff() for _ in range(data.draw(st.integers(1, 4)))])
        c = coeff()
        assume(not c.is_zero())
        k = data.draw(st.integers(0, 4))
        den = [CycRat.from_rational(0)] * k + [c]

        got = ZetaValue._reduce(num, den)
        want = euclid_reduce(num, den)
        assert got == want
        if one_order:
            assert [ZetaValue._poly_str(p) for p in got] == \
                [ZetaValue._poly_str(p) for p in want]
