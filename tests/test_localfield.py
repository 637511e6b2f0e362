from fractions import Fraction
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from liftzeta import lift2d
from liftzeta.exactnum import CycRat, cyc_zero
from liftzeta.localfield import (
    AdditiveCharacter, KCoset, KElement, KSingleton, QuasiCharacter,
    _unit_keys, enumerate_characters, gauss_sum,
)
from builders import parse_k as ke


def random_kelement(q, rng, lo=-3, hi=4):
    return KElement(q, {e: rng.randrange(q) for e in range(lo, hi)})


class TestKElement:
    def test_parse_and_str(self):
        x = ke(3, "2*u^-1 + 1 + u^3")
        assert x.digits == {-1: 2, 0: 1, 3: 1}
        assert str(x) == "2*u^-1 + 1 + u^3"

    def test_arith(self):
        q = 2
        assert (ke(q, "u^-1 + 1") * ke(q, "u")) == ke(q, "1 + u")

    def test_valuation(self):
        assert ke(5, "u^3 + u^5").valuation() == 3
        assert KElement.zero(5).valuation() == math.inf

    def test_invert(self):
        q = 2
        inv = ke(q, "1 + u").invert(3)
        assert inv == ke(q, "1 + u + u^2")
        prod = ke(q, "1 + u") * inv
        assert (prod - KElement.one(q)).valuation() >= 3

    @given(st.integers(0, 10 ** 6), st.integers(0, 2))
    @settings(max_examples=30)
    def test_invert_random(self, seed, qi):
        q = [2, 3, 5][qi]
        rng = random.Random(seed)
        x = random_kelement(q, rng)
        if x.is_zero():
            return
        y = x.invert(4)
        assert ((x * y) - KElement.one(q)).valuation() >= 4

    def test_invert_zero(self):
        with pytest.raises(ZeroDivisionError):
            KElement.zero(3).invert(2)

    def test_truncate_keeps_self_when_it_drops_nothing(self):
        x = ke(3, "2*u^-1 + 1 + u^3")
        assert x.truncate(4) is x and x.truncate(10) is x
        assert KElement.zero(3).truncate(-5).is_zero()
        y = x.truncate(3)
        assert y is not x and y == ke(3, "2*u^-1 + 1")
        assert x.digits == {-1: 2, 0: 1, 3: 1}


class TestKCoset:
    def test_relations(self):
        q = 3
        o = KCoset.ideal(q, 0)
        pio = KCoset.ideal(q, 1)
        one = KCoset(q, KElement.one(q), 1)
        assert pio.relation(o) == "in"
        assert o.relation(pio) == "contains"
        assert pio.relation(one) == "disjoint"
        assert pio.relation(KCoset.ideal(q, 1)) == "equal"

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=50)
    def test_trichotomy(self, seed):
        rng = random.Random(seed)
        q = rng.choice([2, 3, 5])
        a = KCoset(q, random_kelement(q, rng), rng.randrange(-2, 3))
        b = KCoset(q, random_kelement(q, rng), rng.randrange(-2, 3))
        rel = a.relation(b)
        # cross-check by sampling subcoset representatives
        lev = max(a.level, b.level) + 1
        pts_a = {c.rep for c in a.subcosets(lev)}
        pts_b = {c.rep for c in b.subcosets(lev)}
        both = pts_a & pts_b
        if rel == "disjoint":
            assert not both
        elif rel == "equal":
            assert pts_a == pts_b
        elif rel == "in":
            assert pts_a < pts_b
        else:
            assert pts_b < pts_a

    def test_subcosets_partition(self):
        q = 2
        cs = KCoset.ideal(q, 0).subcosets(2)
        assert len(cs) == 4
        reps = {c.rep for c in cs}
        assert len(reps) == 4

    def test_valuation_is_the_least_of_its_points(self):
        q = 3
        assert KCoset.ideal(q, 2).valuation() == 2
        assert KCoset.ideal(q, -1).valuation() == -1
        assert KCoset(q, ke(q, "u^-1 + 2"), 1).valuation() == -1
        # digits at or above the level are cut away, leaving an ideal
        assert KCoset(q, ke(q, "u^2 + u^3"), 2).valuation() == 2
        rng = random.Random(4)
        for _ in range(40):
            c = KCoset(q, random_kelement(q, rng), rng.randrange(-2, 3))
            assert c.valuation() == min(
                s.rep.valuation() for s in c.subcosets(c.level + 1))


class TestAdditiveCharacter:
    def test_conductor_zero(self):
        psi = AdditiveCharacter(3, 0)
        assert psi(ke(3, "u^-1")) == CycRat.root_of_unity(3)
        assert psi(KElement.one(3)) == 1

    def test_conductor_one_p3(self):
        psi = AdditiveCharacter(3, 1)
        assert psi(ke(3, "2 + u")) == CycRat.root_of_unity(3, 2)

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=40)
    def test_homomorphism(self, seed):
        rng = random.Random(seed)
        q = rng.choice([2, 3, 5])
        psi = AdditiveCharacter(q, rng.randrange(-1, 3))
        x, y = random_kelement(q, rng), random_kelement(q, rng)
        assert psi(x + y) == psi(x) * psi(y)

    def test_conductor_exactness(self):
        for q in (2, 3, 5):
            for d in (-1, 0, 1, 2):
                psi = AdditiveCharacter(q, d)
                assert psi(KElement.uniformizer(q, d)) == 1
                assert not psi(KElement.uniformizer(q, d - 1)) == 1

    def test_nonprime_rejected(self):
        with pytest.raises(ValueError):
            AdditiveCharacter(4, 0)


class TestQuasiCharacter:
    def test_enumeration_counts(self):
        assert len(enumerate_characters(3, 1)) == 2
        assert len(enumerate_characters(2, 2)) == 2
        assert len(enumerate_characters(3, 2)) == 6
        assert len(enumerate_characters(5, 2)) == 20

    def test_exact_conductors(self):
        chars = enumerate_characters(2, 2)
        conds = sorted(w.r for w in chars)
        assert conds == [0, 2]  # trivial, and the 1+u digit character

    def test_trivial_eval(self):
        w = QuasiCharacter.trivial(3)
        assert w(ke(3, "2*u^5")) == 1

    def test_quadratic_on_f3(self):
        chars = [w for w in enumerate_characters(3, 1) if w.r == 1]
        assert len(chars) == 1
        w = chars[0]
        # residue 2 is the non-square of F_3
        assert w(ke(3, "2*u^5")) == -1
        assert w(ke(3, "u^2")) == 1

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_multiplicative(self, seed):
        rng = random.Random(seed)
        q = rng.choice([2, 3])
        chars = enumerate_characters(q, 2)
        w = rng.choice(chars).with_pi_value(CycRat.root_of_unity(4))
        x, y = random_kelement(q, rng), random_kelement(q, rng)
        if x.is_zero() or y.is_zero():
            return
        assert w(x * y) == w(x) * w(y)

    def test_orthogonality(self):
        for q, r in ((2, 2), (3, 1), (3, 2), (5, 1), (5, 2)):
            for w in enumerate_characters(q, r):
                if w.r == 0:
                    continue
                # sum over representatives at the enumeration level r
                total = cyc_zero()
                for key in _unit_keys(q, r):
                    x = KElement(q, dict(enumerate(key)))
                    total = total + w(x)
                assert total.is_zero()

    @pytest.mark.parametrize("q,r", [(2, 3), (3, 3), (5, 2), (7, 1)])
    def test_every_character_on_every_unit(self, q, r):
        # exhaustive over O^x/(1+pi^r O): multiplicative, inverted by
        # inverse(), valued at order n, and told apart by the values
        units = [KElement(q, dict(enumerate(key)))
                 for key in _unit_keys(q, r)]
        chars = enumerate_characters(q, r)
        tables = set()
        for w in chars:
            values = {x: w(x) for x in units}
            inv = w.inverse()
            for x, v in values.items():
                assert v.m == w.n
                assert inv(x) * v == 1
                for y in units:
                    assert v * values[y] == w(x * y)
            tables.add(tuple(values.values()))
        assert len(tables) == len(chars)

    def test_inverse(self):
        for w in enumerate_characters(3, 2):
            wi = w.inverse()
            x = ke(3, "2 + u")
            assert w(x) * wi(x) == 1

    def test_q4_rejected(self):
        with pytest.raises(ValueError):
            enumerate_characters(4, 1)


def gauss_sum_by_theta(omega, psi, x, level):
    """The Gauss sum term by term: omega and psi evaluated at each unit
    representative theta.  The reference for gauss_sum, which sums
    integer exponents."""
    q = omega.q
    total = cyc_zero()
    for key in _unit_keys(q, level):
        theta = KElement(q, {i: dig for i, dig in enumerate(key) if dig})
        total = total + omega(theta) * psi(x * theta)
    return total


CHARACTERS = {q: enumerate_characters(q, 3) for q in (2, 3, 5)}


@st.composite
def kelements(draw, q, nonzero=False):
    """Up to four digits from u^-3 on; the first one nonzero if asked."""
    lo = draw(st.integers(-3, 1))
    digits = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=4))
    if nonzero:
        digits[0] = draw(st.integers(1, q - 1))
    return KElement(q, dict(enumerate(digits, lo)))


class TestGaussSum:
    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_sum_over_representatives(self, q, data):
        # at the conductor and one level finer; equal strings pin the
        # order lcm(n, q)
        omega = data.draw(st.sampled_from(CHARACTERS[q]))
        psi = AdditiveCharacter(q, data.draw(st.integers(-1, 2)))
        x = data.draw(kelements(q))
        for level in {max(omega.r, 1), omega.r + 1}:
            got = gauss_sum(omega, psi, x, level)
            want = gauss_sum_by_theta(omega, psi, x, level)
            assert got == want and str(got) == str(want)

    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_at_the_levels_of_the_principal_value(self, q, data):
        # every call lift2d._pv_gauss makes, shell by shell
        omega = data.draw(st.sampled_from(CHARACTERS[q]))
        d = data.draw(st.integers(-1, 2))
        c = data.draw(kelements(q, nonzero=True))
        seen = []

        def recorded(*args):
            out = gauss_sum(*args)
            seen.append((args, out))
            return out
        with mock.patch.object(lift2d, "gauss_sum", recorded):
            lift2d._pv_gauss(q, Fraction(1), c, omega, d)
        assert seen
        for args, got in seen:
            want = gauss_sum_by_theta(*args)
            assert got == want and str(got) == str(want)

    def test_mixed_residue_sizes_rejected(self):
        omega = next(w for w in enumerate_characters(3, 1) if w.r == 1)
        for psi, x in ((AdditiveCharacter(5, 0), KElement.one(3)),
                       (AdditiveCharacter(3, 0), KElement.one(5))):
            with pytest.raises(ValueError, match="mixed residue sizes"):
                gauss_sum(omega, psi, x, 1)


def test_singleton():
    s = KSingleton(3, KElement.one(3))
    assert s.contains(KElement.one(3))
    assert not s.contains(KElement.zero(3))
