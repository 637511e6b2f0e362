from fractions import Fraction
import cmath
import math
import operator

import pytest
from hypothesis import (
    HealthCheck, assume, example, given, settings, strategies as st,
)

import modoracle
from builders import clear_caches, from_fraction
from test_zeta1d import euclid_inverse
from liftzeta import cli, exactnum
from liftzeta.exactnum import (
    CycRat, ZetaValue, _cgcd, _padd, _pdivmod, _pmul, _ptrim,
    _reduce_mod_cyc, cyc_sums, cyc_zero, cyclotomic_poly,
)
from liftzeta.localfield import QuasiCharacter
from liftzeta.zeta1d import l_function


# the mutation checks of test_mutants.py run these properties again on an
# instance of their own
OWN_INSTANCE = [HealthCheck.differing_executors]


def zeta(m, k=1):
    return CycRat.root_of_unity(m, k)


def to_complex(c):
    """The complex value of a CycRat, zeta_m read as exp(2 pi i / m)."""
    z = cmath.exp(2j * cmath.pi / c.m)
    return complex(sum(x * z ** i for i, x in enumerate(c.a) if x))


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
        assert zeta(3).galois(-1) == zeta(3, 2)
        assert zeta(3) * zeta(3).galois(-1) == 1

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
        assert abs(to_complex(s) - math.sqrt(q)) < 1e-12

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

    def test_values_with_one_trace_compare_unequal(self):
        # z3, z3^2 and -1/2 share the normalized trace -1/2, and z4 and 0
        # share 0; == tells them apart, at their own orders and embedded
        for x, y in [(zeta(3), zeta(3, 2)), (zeta(3), Fraction(-1, 2)),
                     (zeta(4), 0), (zeta(3).embed(6), zeta(3, 2))]:
            assert x != y and not (x - y).is_zero()

    @given(st.sampled_from([3, 4, 5, 8, 12, 20]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_distinct_coordinates_compare_unequal(self, m, data):
        # the negative control of == : one coordinate vector per value
        n = len(CycRat.from_rational(0, m).a)
        coord = st.fractions(-3, 3, max_denominator=4)
        a = data.draw(st.lists(coord, min_size=n, max_size=n))
        b = data.draw(st.lists(coord, min_size=n, max_size=n))
        assume(a != b)
        x, y = CycRat(m, a), CycRat(m, b)
        assert x != y and y != x and not (x - y).is_zero()
        assert x.embed(2 * m) != y and x != y.embed(2 * m)
        assert str(x) != str(y)

    @given(st.sampled_from([1, 3, 4, 5, 8, 12, 20]), st.booleans(),
           st.data())
    @settings(max_examples=100, deadline=None)
    def test_rational_factor_matches_polynomial_product(self, m, left,
                                                        data):
        # the rational shortcut of __mul__ against _pmul at the lcm order
        coord = st.fractions(-3, 3, max_denominator=4)
        x = CycRat(m, data.draw(st.lists(coord, min_size=len(
            CycRat.from_rational(0, m).a), max_size=len(
            CycRat.from_rational(0, m).a))))
        r = CycRat.from_rational(data.draw(coord))
        got = r * x if left else x * r
        xa, ra = x._align(r)
        want = CycRat(xa.m, _reduce_mod_cyc(_pmul(xa.a, ra.a, Fraction(0)),
                                              xa.m))
        assert (got.m, got.a) == (want.m, want.a)

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_cyc_sums_match_cycrat_sums(self, q, data):
        # same values at the same orders as adding the CycRat terms
        coord = st.fractions(-3, 3, max_denominator=6)
        parts, want = [], {}
        for _ in range(data.draw(st.integers(1, 5))):
            m = data.draw(st.sampled_from([1, 3, 4, 12, 20]))
            c = CycRat(m, data.draw(st.lists(coord, min_size=len(
                CycRat.from_rational(0, m).a), max_size=len(
                CycRat.from_rational(0, m).a))))
            n = data.draw(st.sampled_from([1, q]))
            pairs = data.draw(st.lists(st.tuples(
                st.integers(0, 3), st.integers(0, n - 1)), max_size=6))
            parts.append((c, n, pairs))
            for key, t in pairs:
                v = c * zeta(n, t) if n > 1 else c
                want[key] = want[key] + v if key in want else v
        got = cyc_sums(parts)
        assert got.keys() == want.keys()
        for key, v in want.items():
            assert (got[key].m, got[key].a) == (v.m, v.a)

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
                assert r.galois(-1) * r == 1

    @given(st.sampled_from([3, 4, 5, 8, 12, 20, 60]), st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=OWN_INSTANCE)
    def test_galois_is_a_field_automorphism(self, m, data):
        # sigma_k sends zeta_m to zeta_m^k, respects + and *, fixes Q,
        # and sigma_j sigma_k = sigma_jk
        units = st.sampled_from([k for k in range(1, m)
                                 if math.gcd(k, m) == 1])
        k, j = data.draw(units), data.draw(units)
        coord = st.fractions(-3, 3, max_denominator=4)
        n = len(CycRat.from_rational(0, m).a)
        x, y = (CycRat(m, data.draw(st.lists(coord, min_size=n, max_size=n)))
                for _ in range(2))
        r = data.draw(coord)
        assert zeta(m).galois(k) == zeta(m, k)
        assert (x + y).galois(k) == x.galois(k) + y.galois(k)
        assert (x * y).galois(k) == x.galois(k) * y.galois(k)
        assert CycRat.from_rational(r, m).galois(k) == r
        assert x.galois(k).galois(j) == x.galois(k * j)
        z = zeta(m, data.draw(st.integers(0, m - 1)))
        assert z.galois(-1) * z == 1

    def test_roots_of_high_order_from_fresh_caches(self):
        # order 1012, that of the FE2 values at q = 23: x^1011 lies 571
        # rows past phi(1012) = 440, each built from the one before
        clear_caches()
        assert zeta(1012, 1011) * zeta(1012) == 1
        assert zeta(1012).galois(-1) == zeta(1012, 1011)

    def test_power_one_and_minus_one_make_no_product(self, monkeypatch):
        # square only while bits remain: x ** 1 is one multiplication by
        # the rational 1, x ** -1 is x.inverse() and that
        calls = []

        def counting(p, q, zero):
            calls.append(1)
            return _pmul(p, q, zero)

        def products(f):
            del calls[:]
            f()
            return len(calls)

        monkeypatch.setattr(exactnum, "_pmul", counting)
        x = zeta(5) + 2
        r = CycRat.from_rational(Fraction(2, 3), 12)
        assert products(lambda: x ** 1) == 0 and x ** 1 == x
        assert products(lambda: r ** -1) == 0 and r ** -1 == Fraction(3, 2)
        assert products(lambda: x ** -1) == products(x.inverse)
        assert x ** -1 == x.inverse() and x ** 3 == x * x * x


STORED_ORDERS = [1, 3, 4, 5, 8, 12, 20, 24]


@st.composite
def stored_values(draw):
    """A value at one of STORED_ORDERS, times sqrt q or not, written as
    a sum of small rational multiples of the roots of unity."""
    m = draw(st.sampled_from(STORED_ORDERS))
    coord = st.fractions(-3, 3, max_denominator=6)
    x = sum((c * zeta(m, i) for i, c in enumerate(draw(st.lists(
        coord, min_size=1, max_size=m + 1)))), CycRat.from_rational(0))
    q = draw(st.sampled_from([None, 2, 3, 5]))
    return x if q is None else x * CycRat.sqrt_q(q)


class TestStoredForm:
    @given(stored_values())
    @settings(max_examples=80, deadline=None)
    def test_one_integer_vector_over_one_denominator(self, x):
        assert all(type(c) is int for c in x.n) and type(x.d) is int
        assert x.d > 0 and math.gcd(x.d, *x.n) == 1
        assert x.a == tuple(Fraction(c, x.d) for c in x.n)
        y = CycRat(x.m, x.a)
        assert (y.m, y.n, y.d) == (x.m, x.n, x.d)
        if x:
            assert x * x.inverse() == 1

    @given(stored_values())
    @settings(max_examples=40, deadline=None)
    def test_inverse_matches_euclid_and_images(self, x):
        assume(x)
        got, want = x.inverse(), euclid_inverse(x)
        assert (got.m, got.a) == (want.m, want.a)
        assert modoracle.scalar(x) * modoracle.scalar(got) % modoracle.P == 1

    @given(st.fractions(max_denominator=50), st.sampled_from(STORED_ORDERS),
           st.sampled_from([1, 2, 3]))
    @settings(max_examples=60, deadline=None)
    def test_rational_hashes_and_compares_as_its_fraction(self, r, m, k):
        x = CycRat.from_rational(r, m).embed(k * m)
        assert hash(x) == hash(r) and x == r and r == x
        assert x != r + 1 and not x == r + Fraction(1, 7)
        if r.denominator == 1:
            assert x == int(r) and hash(x) == hash(int(r))


# coefficient orders of the shared polynomial layer's CycRat ring at each
# order m; None is the Fraction ring
POLY_ORDERS = {None: (), 1: (1,), 4: (1, 2, 4), 12: (1, 3, 4, 6, 12)}


class TestPolynomialLayer:
    @given(st.sampled_from([None, 1, 4, 12]), st.booleans(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_divmod_mul_add_trim(self, m, with_sqrt, data):
        coord = st.fractions(-3, 3, max_denominator=4)

        def coefficient():
            if m is None:
                return data.draw(coord)
            n = data.draw(st.sampled_from(POLY_ORDERS[m]))
            phi = len(cyclotomic_poly(n)) - 1
            if data.draw(st.integers(0, 3)) == 0:
                return CycRat(n, [0] * phi)  # a zero at order n
            x = CycRat(n, data.draw(st.lists(coord, min_size=phi,
                                             max_size=phi)))
            if with_sqrt and data.draw(st.booleans()):
                x = x * CycRat.sqrt_q(3)
            return x

        def poly():
            return [coefficient() for _ in range(data.draw(
                st.integers(0, 5)))]

        def canonical(p):
            return type(p) is tuple and not (p and not p[-1])

        zero = Fraction(0) if m is None else cyc_zero()
        p, d = poly(), poly()
        for c in p + d:
            assert bool(c) == (not c == 0)
        assume(_ptrim(d))
        quo, rem = _pdivmod(p, d, zero)
        assert len(rem) < len(_ptrim(d))
        assert _padd(_pmul(quo, d, zero), rem) == _ptrim(p)
        assert _pmul(p, d, zero) == _pmul(d, p, zero)
        assert all(canonical(r) for r in (
            _ptrim(p), _padd(p, d), _pmul(p, d, zero), quo, rem))


class TestZetaValue:
    q = 3

    def one_minus_qinv_t(self):
        # 1 - q^-1 T
        return from_fraction(self.q, [1, Fraction(-1, self.q)], [1])

    def test_inverse_cancellation(self):
        v = self.one_minus_qinv_t()
        assert v * v.inverse() == ZetaValue.constant(self.q, 1)

    def test_add(self):
        t = ZetaValue.monomial(self.q, 1, t_exp=1)
        assert t + t == ZetaValue.monomial(self.q, 2, t_exp=1)
        assert (t - t).is_zero()
        # the X^1 that only x has cancels and is dropped
        x = ZetaValue.monomial(self.q, 1, x_exp=1)
        one = CycRat.from_rational(1)
        assert (t + x) - x == t == ZetaValue.sum_scaled(
            self.q, [(x, one, 0), (t, one, 0), (x, -one, 0)])

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
        expect = from_fraction(self.q, [0, 1], [Fraction(-1, self.q ** 3), 1])
        assert got == expect
        # images in F_P at random points: got at T = t is v at
        # T = 1/(q^2 t), and agrees with expect
        for t, x in modoracle.points(10, 4):
            dual = pow(self.q ** 2 * t, -1, modoracle.P)
            assert modoracle.image(got, t, x) == modoracle.image(v, dual, x)
            assert modoracle.image(got, t, x) == modoracle.image(
                expect, t, x)

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
             + from_fraction(self.q, [b, 1], [1, 0, 2]))
        assert v.subst_dual().subst_dual() == v

    def test_subst_scale(self):
        t = ZetaValue.monomial(self.q, 1, t_exp=1)
        assert t.subst_scale(1, 2) == ZetaValue.monomial(self.q, 1, t_exp=2)
        v = from_fraction(self.q, [1], [1, -1])  # (1-T)^-1
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
        v = from_fraction(3, [1], [1, Fraction(-1, 3)], x_exp=2)
        assert str(v) == "(1 - 1/3*T)^-1 * X^2"

    def test_mixed_q_error(self):
        with pytest.raises(ValueError):
            ZetaValue.constant(2, 1) + ZetaValue.constant(3, 1)

    @given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-2, 2))
    @settings(max_examples=40)
    def test_ring_axioms(self, a, b, g):
        x = ZetaValue.monomial(self.q, a, t_exp=1, x_exp=g)
        y = from_fraction(self.q, [1, b], [1, 0, 1])
        z = ZetaValue.constant(self.q, b) + ZetaValue.monomial(self.q, 1, x_exp=1)
        assert (x + y) * z == x * z + y * z
        assert (x * y) * z == x * (y * z)


def euclid_reduce(num, den):
    """The general reduction of num/den: divide both by their gcd, then
    scale the lowest nonzero denominator coefficient to 1.  Reference for
    the monomial-denominator branch of ZetaValue._reduce."""
    num, den = _ptrim(num), _ptrim(den)
    if not num:
        return (), (CycRat.from_rational(1),)
    g = _cgcd(num, den)
    if len(g) > 1 or not g[0] == 1:
        num, _ = _pdivmod(num, g, cyc_zero())
        den, _ = _pdivmod(den, g, cyc_zero())
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


# -- the modular image as an independent check of ZetaValue ----------------
# A tree is ("leaf", num, den, x_exp), (op, tree, tree) for op in + - *,
# ("/", tree, leaf), ("dual", tree) or ("scale", tree, c, k).  Its value is
# built by exactnum; its image is computed in F_P from the leaves up, with
# each substitution applied to the point instead.

Q = 3
OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
       "/": operator.truediv}


# small rationals times the roots of unity of orders 1, 3, 4, 6 and 12
NONZERO = [Fraction(a, b) * zeta(n, k) for a in (-2, -1, 1, 3) for b in (1, 2)
           for n in (1, 3, 4, 6, 12) for k in range(n)]


@st.composite
def leaves(draw):
    c = st.sampled_from(NONZERO)
    num = draw(st.lists(c, min_size=1, max_size=3))
    # c T^k, 1 + c T or c + c' T^2
    den = draw(st.one_of(
        st.tuples(st.integers(0, 2), c).map(lambda kc: (0,) * kc[0] + kc[1:]),
        st.tuples(st.just(1), c),
        st.tuples(c, st.just(0), c)))
    return ("leaf", tuple(num), den, draw(st.integers(-1, 1)))


def trees(max_leaves):
    return st.recursive(leaves(), lambda kids: st.one_of(
        st.tuples(st.sampled_from("+-*"), kids, kids),
        st.tuples(st.just("/"), kids, leaves()),
        st.tuples(st.just("dual"), kids),
        st.tuples(st.just("scale"), kids, st.sampled_from(NONZERO),
                  st.integers(1, 2))), max_leaves=max_leaves)


def build(tree):
    op, *args = tree
    if op == "leaf":
        num, den, g = args
        return from_fraction(Q, num, den, x_exp=g)
    if op == "dual":
        return build(args[0]).subst_dual()
    if op == "scale":
        return build(args[0]).subst_scale(args[1], args[2])
    return OPS[op](build(args[0]), build(args[1]))


def tree_image(tree, t, x):
    P = modoracle.P
    op, *args = tree
    if op == "leaf":
        num, den, g = args
        return modoracle.fraction(num, den, t) * pow(x, g, P) % P
    if op == "dual":
        return tree_image(args[0], pow(Q * Q * t, -1, P), x)
    if op == "scale":
        c, k = args[1:]
        return tree_image(args[0], modoracle.scalar(c) * pow(t, k, P) % P, x)
    a, b = (tree_image(arg, t, x) for arg in args)
    if op == "/":
        op, b = "*", pow(b, -1, P)
    return OPS[op](a, b) % P


# two fractions over distinct binomials of one length, added
BINOMIAL_SUM = ("+", ("leaf", (1,), (1, 2), 0), ("leaf", (1,), (1, 3), 0))
LEAF = ("leaf", (1, 2), (1, -1), 1)


class TestModularImage:
    @given(trees(4))
    @example(BINOMIAL_SUM)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=OWN_INSTANCE)
    def test_value_has_the_image_of_its_tree(self, tree):
        v = build(tree)
        for t, x in modoracle.points(7):
            assert modoracle.image(v, t, x) == tree_image(tree, t, x)

    @given(trees(2), trees(2), trees(2), leaves())
    @example(LEAF, LEAF, LEAF, LEAF)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=OWN_INSTANCE)
    def test_ring_laws_agree_with_images(self, a, b, c, leaf):
        u, v, w, e = build(a), build(b), build(c), build(leaf)
        equal = [(u + v, v + u), ((u + v) * w, u * w + v * w),
                 ((u * v) * w, u * (v * w)), (u - u, 0),
                 (u.subst_dual().subst_dual(), u), (e * e.inverse(), 1),
                 (e.subst_scale(1, 1), e)]
        pts = modoracle.points(8)
        for lhs, rhs in equal:
            assert lhs == rhs and modoracle.same_image(lhs, rhs, pts)
        assert not u + e == u and not modoracle.same_image(u + e, u, pts)

    @given(trees(3), st.sampled_from(NONZERO), st.sampled_from([1, 4, 12]))
    @example(LEAF, NONZERO[0], 12)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=OWN_INSTANCE)
    def test_division_by_a_constant(self, tree, c, m):
        # the constant 1, held at any order, divides as nothing, and any
        # other constant as the product with its inverse
        v = build(tree)
        assert v / ZetaValue.constant(Q, CycRat.from_rational(1, m)) == v
        got = v / ZetaValue.constant(Q, c)
        assert got == v * ZetaValue.constant(Q, c).inverse()
        assert (got == v) == (c == 1 or v.is_zero())

    def test_every_verdict_of_a_verify_run(self, monkeypatch, tmp_path):
        verdicts = []
        eq = ZetaValue.__eq__

        def spy(self, other):
            got = eq(self, other)
            if got is not NotImplemented:
                verdicts.append((self, other, got))
            return got

        monkeypatch.setattr(ZetaValue, "__eq__", spy)
        assert cli.main(["verify", "--q", "2", "--out-dir",
                         str(tmp_path)]) == 0
        assert verdicts
        pts = modoracle.points(9)
        for a, b, got in verdicts:
            assert got == modoracle.same_image(a, b, pts), (str(a), str(b))


@st.composite
def l_fractions(draw):
    """A sum of one or two fractions c(T) X^g over an L-factor
    denominator 1 - aT or (1 - aT)(1 - bT), over c T^k or over 1, with
    every coefficient and root a, b drawn from the cyclotomic NONZERO."""
    c = st.sampled_from(NONZERO)
    total = ZetaValue.zero(Q)
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(c), draw(c)
        den = draw(st.sampled_from([
            (1, -a), (1, -a - b, a * b),
            (0,) * draw(st.integers(0, 2)) + (b,)]))
        total = total + from_fraction(
            Q, draw(st.lists(c, min_size=1, max_size=3)), den,
            x_exp=draw(st.integers(-1, 1)))
    return total


class TestDualSubstitution:
    # T -> q^-2 T^-1 is a ring homomorphism and an involution; FE2's
    # check multiplies the dual sides of two variables on this ground
    @given(l_fractions(), l_fractions())
    @settings(max_examples=40, deadline=None)
    def test_ring_homomorphism_and_involution(self, u, v):
        assert (u + v).subst_dual() == u.subst_dual() + v.subst_dual()
        assert (u * v).subst_dual() == u.subst_dual() * v.subst_dual()
        assert u.subst_dual().subst_dual() == u
        assert ZetaValue.constant(Q, 1).subst_dual() == 1


# a zero among the scalars, so that sum_scaled and constant see one
SCALARS = NONZERO + [CycRat.from_rational(0)]
ONE = CycRat.from_rational(1)


# products of values over 1 whose terms meet at X^1: there (1 + X)(1 - X),
# without T, and (T + X)(T - X), with T, cancel, and (T + X)(1 + 2X) does
# not
def _x_binomial(c0, c1):
    return ("+", ("leaf", c0, (1,), 0), ("leaf", c1, (1,), 1))


MERGING_PRODUCTS = [
    (_x_binomial((1,), (1,)), _x_binomial((1,), (-1,))),
    (_x_binomial((0, 1), (1,)), _x_binomial((0, 1), (-1,))),
    (_x_binomial((0, 1), (1,)), _x_binomial((1,), (2,))),
]


@st.composite
def over_one_leaves(draw):
    # over 1 at X^-1, X^0 or X^1, a constant or a polynomial in T
    c = st.sampled_from(NONZERO)
    return ("leaf", tuple(draw(st.lists(c, min_size=1, max_size=2))), (1,),
            draw(st.integers(-1, 1)))


@st.composite
def laurent_leaves(draw):
    # over c T^k, k >= 1, at X^0: two of them with different k, or whose
    # constant terms cancel, add to a fraction that must be settled
    c = st.sampled_from(NONZERO)
    k = draw(st.integers(1, 2))
    return ("leaf", tuple(draw(st.lists(c, min_size=1, max_size=3))),
            (0,) * k + (draw(c),), 0)


class TestSettledForm:
    @given(st.lists(st.one_of(laurent_leaves(), leaves(),
                              over_one_leaves()), min_size=2, max_size=4),
           st.data())
    @settings(max_examples=60, deadline=None,
              suppress_health_check=OWN_INSTANCE)
    def test_arithmetic_keeps_every_fraction_settled(self, leaf_trees, data):
        # +, -, unary -, *, sum_scaled and constant store settled
        # fractions only, so settling them again changes nothing, and
        # what cancels is gone: a zero sum is_zero, and u + v - u keeps
        # no exponent that only u had; one of the values joins the pool.
        # A product of fractions over 1 is settled only where its terms
        # meet at one X exponent
        for a, b in MERGING_PRODUCTS:
            w = build(a) * build(b)
            assert ZetaValue(Q, w._fr)._fr == w._fr
        pool = [build(t) for t in leaf_trees]
        for _ in range(data.draw(st.integers(1, 6))):
            pick = st.sampled_from(tuple(pool))
            u, v = data.draw(pick), data.draw(pick)
            c = data.draw(st.sampled_from(NONZERO))
            for zero in (u - u, u + -u, ZetaValue.sum_scaled(
                    Q, [(u, c, 1), (u, -c, 1)])):
                assert zero.is_zero()
            kept = ZetaValue.sum_scaled(Q, [(u, c, 0), (v, ONE, 0),
                                            (u, -c, 0)])
            assert kept == v and (u + v) - u == v
            built = [u + v, u - v, u * v, -u, kept, ZetaValue.constant(
                Q, data.draw(st.sampled_from(SCALARS))),
                ZetaValue.sum_scaled(Q, data.draw(st.lists(st.tuples(
                    pick, st.sampled_from(SCALARS), st.integers(-1, 1)),
                    max_size=4)))]
            for w in built:
                assert ZetaValue(Q, w._fr)._fr == w._fr
            pool.append(data.draw(st.sampled_from(built)))
