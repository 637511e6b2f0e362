import random
from fractions import Fraction

import pytest

from liftzeta import zeta2d
from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.localfield import (
    AdditiveCharacter, KCoset, KElement, QuasiCharacter,
    enumerate_characters,
)
from liftzeta.schwartz import SBFunction
from liftzeta.zeta1d import SBTensor, l_function, rho0, _delta_parity
from liftzeta.zeta2d import (
    ChiCharacter, epsilon2, verify_FE2, zeta2, zeta_rho2,
)
from builders import char_point, star_tensor


def trivial(q, pi_value=None):
    return QuasiCharacter.trivial(
        q, pi_value=CycRat.from_rational(1) if pi_value is None
        else pi_value)


def all_chars(q, rmax, pi_value):
    return [w.with_pi_value(pi_value) for w in enumerate_characters(q, rmax)]


def one(q):
    return ZetaValue.constant(q, 1)


def zeta2_direct(tensor, chi):
    """The same integral as the product of the two shell decompositions
    of each pure summand; an independent path used as an oracle for
    zeta2.  _shell_zeta is read through its module, so that a patched
    one is seen."""
    total = ZetaValue.zero(tensor.q)
    for f, g in tensor.pairs:
        total = total + zeta2d._shell_zeta(f, chi.omega1) * zeta2d._shell_zeta(
            g, chi.omega2)
    return total


def t_mon(q, c=1, k=1):
    return ZetaValue.monomial(q, c, t_exp=k)


class TestZeta2:
    def test_char_o_squared_trivial_chi(self):
        q = 3
        chi = ChiCharacter(trivial(q), trivial(q))
        f = SBTensor.pure(SBFunction.char_ideal(q, 0),
                          SBFunction.char_ideal(q, 0))
        base = ZetaValue.constant(q, Fraction(q - 1, q)) * (
            one(q) - t_mon(q)).inverse()
        assert zeta2(f, chi) == base * base

    def test_zero_function(self):
        q = 3
        chi = ChiCharacter(trivial(q), trivial(q))
        assert zeta2(SBTensor(q), chi).is_zero()

    def test_direct_path_agrees(self):
        # the reduction to K equals the shell-pair computation on lifts
        q = 3
        rng = random.Random(2)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))

        def rnd():
            return SBFunction.char(
                KCoset(q, KElement(q, {k: rng.randrange(q)
                                       for k in (-1, 0)}),
                       rng.randrange(-1, 2)), rng.choice([1, 2, -1]))

        for _ in range(25):
            t = SBTensor.pure(rnd(), rnd())
            if rng.random() < 0.5:
                t = t + SBTensor.pure(rnd(), rnd())
            chi = ChiCharacter(rng.choice(chars), rng.choice(chars))
            assert zeta2_direct(t, chi) == zeta2(t, chi)
        # the shells above the window take the ideal term's coefficient,
        # not the value at 0, which a point mass there changes
        chi = ChiCharacter(trivial(q, CycRat.root_of_unity(4)), trivial(q))
        g = SBFunction.char_ideal(q, 0) + char_point(
            q, KElement.zero(q), 5)
        t = SBTensor.pure(g, SBFunction.char_ideal(q, 0))
        assert zeta2_direct(t, chi) == zeta2(t, chi)


class TestEpsilon2:
    def test_trivial_character_d0(self):
        q = 3
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        chi = ChiCharacter(trivial(q), trivial(q))
        assert epsilon2(chi, psi, pi) == one(q)

    @pytest.mark.parametrize("d", [0, 1])
    def test_ramified_unramified_closed_form(self, d):
        q = 3
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        for om1 in all_chars(q, 1, CycRat.root_of_unity(4)):
            if om1.r == 0:
                continue
            r = om1.r
            chi = ChiCharacter(om1, trivial(q))
            k1 = -((d - r) // 2)
            k0 = -(-d // 2)
            want = ZetaValue.monomial(
                q,
                CycRat.from_rational(Fraction(q) ** (2 * (k1 - k0)))
                * chi.omega1.pi_value ** k1 * CycRat.sqrt_q(q, -r)
                * CycRat.from_rational(_delta_parity(q, d - r))
                * rho0(om1.inverse(), psi, pi),
                t_exp=k1 - k0)
            assert epsilon2(chi, psi, pi) == want

    def test_exponential_type(self):
        q = 3
        psi = AdditiveCharacter(q, 1)
        pi = KElement.uniformizer(q)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))
        for om1 in chars:
            for om2 in chars:
                eps = epsilon2(ChiCharacter(om1, om2), psi, pi)
                assert eps.is_exponential_type() is not None

    def test_product_identity(self):
        # eps(chi, s) eps(chi^-1, 2-s) is the product of the two
        # one-variable constants
        q = 3
        d = 1
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))
        for om1 in chars:
            for om2 in chars[:2]:
                chi = ChiCharacter(om1, om2)
                a = epsilon2(chi, psi, pi)
                b = epsilon2(chi.inverse(), psi, pi).subst_dual()
                c = CycRat.from_rational(Fraction(q) ** (-d))
                want = ZetaValue.constant(
                    q,
                    c * CycRat.from_rational(_delta_parity(q, d - om1.r))
                    * c * CycRat.from_rational(_delta_parity(q, d - om2.r))
                    * om1.at_minus_one() * om2.at_minus_one())
                assert a * b == want


class TestFE2:
    def basis(self, q, maxlev):
        out = [SBFunction.char_ideal(q, n) for n in range(0, maxlev + 1)]
        for lev in range(1, maxlev + 1):
            for c in KCoset.ideal(q, 0).subcosets(lev):
                if not c.rep.is_zero():
                    out.append(SBFunction.char(c))
        return out

    @pytest.mark.parametrize("q", [2, 3])
    def test_functional_equation(self, q):
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))
        basis = self.basis(q, 2)
        pairs = [(a, b) for a in basis[:3] for b in basis[:3]]
        pairs += [(basis[-1], basis[1]), (basis[2], basis[-1])]
        for om1 in chars:
            for om2 in chars[:2]:
                chi = ChiCharacter(om1, om2)
                eps = epsilon2(chi, psi, pi)
                for a, b in pairs:
                    t = SBTensor.pure(a, b)
                    assert verify_FE2(t, star_tensor(t, psi, pi), chi, eps)

    def test_sums_of_tensors(self):
        q = 3
        psi = AdditiveCharacter(q, 1)
        pi = KElement.uniformizer(q)
        chi = ChiCharacter(trivial(q, CycRat.root_of_unity(4)), trivial(q))
        t = (SBTensor.pure(SBFunction.char_ideal(q, 0),
                           SBFunction.char(KCoset(q, KElement.one(q), 1)))
             + SBTensor.pure(SBFunction.char_ideal(q, 1, -2),
                             SBFunction.char_ideal(q, 0)))
        assert verify_FE2(t, star_tensor(t, psi, pi), chi,
                          epsilon2(chi, psi, pi))

    def test_empty_tensor(self):
        q = 3
        psi = AdditiveCharacter(q, 0)
        chi = ChiCharacter(trivial(q), trivial(q))
        pi = KElement.uniformizer(q)
        assert verify_FE2(SBTensor(q), SBTensor(q), chi,
                          epsilon2(chi, psi, pi))

    def test_mixed_measures_rejected(self):
        q = 3
        psi, pi = AdditiveCharacter(q, 0), KElement.uniformizer(q)
        chi = ChiCharacter(trivial(q), trivial(q))
        t = (SBTensor.pure(SBFunction.char_ideal(q, 0),
                           SBFunction.char_ideal(q, 0))
             + SBTensor.pure(SBFunction.char_ideal(q, 0, 1, Fraction(2)),
                             SBFunction.char_ideal(q, 0)))
        with pytest.raises(ValueError, match="share measure"):
            verify_FE2(t, star_tensor(t, psi, pi), chi, epsilon2(chi, psi, pi))


class TestZetaRho2:
    def test_identity_on_examples(self):
        q = 3
        z = CycRat.root_of_unity(4)
        gs = [SBFunction.char_ideal(q, 0),
              SBFunction.char_ideal(q, 0) - SBFunction.char_ideal(q, 1),
              SBFunction.char(KCoset(q, KElement.one(q), 1)),
              SBFunction.zero(q),
              SBFunction.char_ideal(q, 0) + char_point(
                  q, KElement.zero(q), 5)]
        oms = [trivial(q), trivial(q, z)] + all_chars(q, 1, z)
        for g in gs:
            for om in oms:
                left, right, equal = zeta_rho2(g, om)
                assert equal, (om.label, str(left), str(right))

    def test_frozen_example(self):
        q = 3
        left, right, equal = zeta_rho2(SBFunction.char_ideal(q, 0),
                                       trivial(q))
        t = t_mon(q)
        units = ZetaValue.constant(q, Fraction(q - 1, q))
        want = units * (one(q) + t) * (one(q) - t).inverse() * units * (
            one(q) - t * t).inverse()
        assert equal and left == want

    def test_unit_support_gives_polynomials(self):
        q = 3
        g = SBFunction.char_ideal(q, 0) - SBFunction.char_ideal(q, 1)
        for om in [trivial(q)] + all_chars(q, 1, CycRat.root_of_unity(4)):
            left, right, equal = zeta_rho2(g, om)
            assert equal
            probe = left * (one(q) - t_mon(q, om.pi_value))
            assert all(len(den) == 1 for _, den in probe.terms.values())

    def test_corollary_denominator(self):
        # left side divided by L(omega) (1 - omega(pi) T)^{-1} has no
        # remaining denominator
        q = 3
        for om in [trivial(q)] + all_chars(q, 1, CycRat.root_of_unity(4)):
            left, _, _ = zeta_rho2(SBFunction.char_ideal(q, 0), om)
            reduced = left * (one(q) - t_mon(q, om.pi_value)) / \
                l_function(om)
            assert all(len(den) == 1 for _, den in reduced.terms.values())
