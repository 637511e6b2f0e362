import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftzeta import zeta2d
from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.localfield import (
    AdditiveCharacter, KCoset, KElement, QuasiCharacter,
    enumerate_characters,
)
from liftzeta.schwartz import SBFunction
from liftzeta.zeta1d import (
    epsilon_star, l_function, rho0, z_normalized, _delta_parity,
)
from liftzeta.zeta2d import epsilon2, verify_FE2, zeta_rho2
from builders import coset_basis, fe2_factors


def trivial(q, pi_value=None):
    return QuasiCharacter.trivial(
        q, pi_value=CycRat.from_rational(1) if pi_value is None
        else pi_value)


def all_chars(q, rmax, pi_value):
    return [w.with_pi_value(pi_value) for w in enumerate_characters(q, rmax)]


def one(q):
    return ZetaValue.constant(q, 1)


def zeta2_direct(pairs, w1, w2):
    """The two-variable zeta of the sum of the pure tensors f (x) g of
    pairs under the character (w1, w2) as the sum of the products of the
    two shell decompositions of each summand; an independent path used
    as an oracle for the one-variable factors that the sides of
    verify_FE2 are built from.  _shell_zeta is read through its module,
    so that a patched one is seen."""
    total = ZetaValue.zero(w1.q)
    for f, g in pairs:
        total = total + zeta2d._shell_zeta(f, w1) * zeta2d._shell_zeta(g, w2)
    return total


def normalized_value(pairs, w1, w2):
    """The sum of the products of the normalized one-variable factors of
    each pure summand."""
    return sum(z_normalized(f, w1) * z_normalized(g, w2) for f, g in pairs)


def product_form(pairs, w1, w2, psi, pi, mu):
    """Both sides of the functional equation of the sum of the pure
    tensors f (x) g of pairs under the character (w1, w2), formed as two
    two-variable values before anything is factored: subst_dual of the
    normalized zeta of the starred tensor under the inverse character, and
    epsilon_star(w1) epsilon_star(w2), at the measure mu, times the
    normalized zeta of the tensor."""
    v1, v2 = w1.inverse(), w2.inverse()
    starred = sum(z_normalized(f.star(psi, pi), v1)
                  * z_normalized(g.star(psi, pi), v2) for f, g in pairs)
    eps = epsilon_star(w1, psi, pi, mu) * epsilon_star(w2, psi, pi, mu)
    return starred.subst_dual(), eps * normalized_value(pairs, w1, w2)


def measured_basis(q, mu):
    """The ideals pi^-1 O, O and pi O and the nonzero cosets refining O
    at level 1, each at the measure mu."""
    cosets = [KCoset.ideal(q, n) for n in (-1, 0, 1)]
    cosets += [c for c in KCoset.ideal(q, 0).subcosets(1)
               if not c.rep.is_zero()]
    return [SBFunction.char(c, 1, mu) for c in cosets]


def t_mon(q, c=1, k=1):
    return ZetaValue.monomial(q, c, t_exp=k)


class TestZeta2:
    def test_char_o_squared_trivial_chi(self):
        q = 3
        chi = trivial(q), trivial(q)
        f = SBFunction.char_ideal(q, 0)
        base = ZetaValue.constant(q, Fraction(q - 1, q)) * (
            one(q) - t_mon(q)).inverse()
        assert zeta2_direct([(f, f)], *chi) == base * base
        # the L-factors cancel the poles: mu(units)^2 is left
        assert normalized_value([(f, f)], *chi) == ZetaValue.constant(
            q, Fraction(q - 1, q) ** 2)

    def test_zero_function(self):
        q = 3
        chi = trivial(q), trivial(q)
        pairs = [(SBFunction(q), SBFunction.char_ideal(q, 0))]
        assert zeta2_direct(pairs, *chi).is_zero()
        assert normalized_value(pairs, *chi).is_zero()

    def test_direct_path_agrees(self):
        # the product of the normalized one-variable factors equals the
        # shell-pair computation on lifts over L(omega1) L(omega2)
        q = 3
        rng = random.Random(2)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))

        def rnd():
            return SBFunction.char(
                KCoset(q, KElement(q, {k: rng.randrange(q)
                                       for k in (-1, 0)}),
                       rng.randrange(-1, 2)), rng.choice([1, 2, -1]))

        def agrees(pairs, w1, w2):
            want = zeta2_direct(pairs, w1, w2) / (
                l_function(w1) * l_function(w2))
            return normalized_value(pairs, w1, w2) == want

        for _ in range(25):
            pairs = [(rnd(), rnd())]
            if rng.random() < 0.5:
                pairs.append((rnd(), rnd()))
            assert agrees(pairs, rng.choice(chars), rng.choice(chars))


class TestEpsilon2:
    def test_trivial_character_d0(self):
        q = 3
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        assert epsilon2(trivial(q), trivial(q), psi, pi) == one(q)

    def test_mixed_residue_sizes_rejected(self):
        psi, pi = AdditiveCharacter(3, 0), KElement.uniformizer(3)
        with pytest.raises(ValueError, match="mixed residue sizes"):
            epsilon2(trivial(3), trivial(5), psi, pi)

    def test_product_of_the_one_variable_factors_at_mu(self):
        # takes no fixtures: tests/test_mutants.py runs it as a named
        # check, and epsilon2 is read through its module, so that a
        # patched one is seen.  Each factor is linear in the measure, so
        # the product is mu^2 times the product at mu = 1
        q, mu = 3, Fraction(5, 4)
        pi = KElement.uniformizer(q)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))
        for d in (0, 1):
            psi = AdditiveCharacter(q, d)
            for om1 in chars:
                for om2 in chars[:2]:
                    eps = zeta2d.epsilon2(om1, om2, psi, pi, mu)
                    assert eps == epsilon_star(om1, psi, pi, mu) * \
                        epsilon_star(om2, psi, pi, mu)
                    assert eps == ZetaValue.constant(q, mu * mu) * \
                        zeta2d.epsilon2(om1, om2, psi, pi)

    @pytest.mark.parametrize("d", [0, 1])
    def test_ramified_unramified_closed_form(self, d):
        q = 3
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        for om1 in all_chars(q, 1, CycRat.root_of_unity(4)):
            if om1.r == 0:
                continue
            r = om1.r
            k1 = -((d - r) // 2)
            k0 = -(-d // 2)
            want = ZetaValue.monomial(
                q,
                CycRat.from_rational(Fraction(q) ** (2 * (k1 - k0)))
                * om1.pi_value ** k1 * CycRat.sqrt_q(q, -r)
                * CycRat.from_rational(_delta_parity(q, d - r))
                * rho0(om1.inverse(), psi, pi),
                t_exp=k1 - k0)
            assert epsilon2(om1, trivial(q), psi, pi) == want

    def test_exponential_type(self):
        q = 3
        psi = AdditiveCharacter(q, 1)
        pi = KElement.uniformizer(q)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))
        for om1 in chars:
            for om2 in chars:
                eps = epsilon2(om1, om2, psi, pi)
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
                a = epsilon2(om1, om2, psi, pi)
                b = epsilon2(om1.inverse(), om2.inverse(),
                             psi, pi).subst_dual()
                c = CycRat.from_rational(Fraction(q) ** (-d))
                want = ZetaValue.constant(
                    q,
                    c * CycRat.from_rational(_delta_parity(q, d - om1.r))
                    * c * CycRat.from_rational(_delta_parity(q, d - om2.r))
                    * om1.at_minus_one() * om2.at_minus_one())
                assert a * b == want


class TestFE2:
    @pytest.mark.parametrize("q", [2, 3])
    def test_functional_equation(self, q):
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        chars = all_chars(q, 1, CycRat.root_of_unity(4))
        basis = coset_basis(q, 2, top=0)
        pairs = [(a, b) for a in basis[:3] for b in basis[:3]]
        pairs += [(basis[-1], basis[1]), (basis[2], basis[-1])]
        for om1 in chars:
            for om2 in chars[:2]:
                for pair in pairs:
                    assert verify_FE2(
                        *fe2_factors([pair], om1, om2, psi, pi))

    def test_sums_of_tensors(self):
        q = 3
        psi = AdditiveCharacter(q, 1)
        pi = KElement.uniformizer(q)
        chi = trivial(q, CycRat.root_of_unity(4)), trivial(q)
        pairs = [(SBFunction.char_ideal(q, 0),
                  SBFunction.char(KCoset(q, KElement.one(q), 1))),
                 (SBFunction.char_ideal(q, 1, -2),
                  SBFunction.char_ideal(q, 0))]
        assert verify_FE2(*fe2_factors(pairs, *chi, psi, pi))

    def test_empty_tensor(self):
        assert verify_FE2([], [])

    def test_mixed_measures_rejected(self):
        # the epsilon sides take the measure of their epsilon_star, which
        # is linear in mu: a summand at mu = 2 under the epsilon_star of
        # mu = 1 breaks the equation
        q = 3
        psi, pi = AdditiveCharacter(q, 0), KElement.uniformizer(q)
        chi = trivial(q), trivial(q)
        pairs = [(SBFunction.char_ideal(q, 0), SBFunction.char_ideal(q, 0)),
                 (SBFunction.char_ideal(q, 0, 1, Fraction(2)),
                  SBFunction.char_ideal(q, 0))]
        assert verify_FE2(*fe2_factors(pairs[:1], *chi, psi, pi))
        assert not verify_FE2(*fe2_factors(pairs, *chi, psi, pi))

    @given(st.sampled_from([2, 3]), st.sampled_from([0, 1]),
           st.sampled_from([Fraction(1), Fraction(5, 4)]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_the_product_form(self, q, d, mu, data):
        # the factored sides give the two values of the product form, and
        # so its verdict; a summand whose functions are not at the measure
        # of epsilon_star makes both forms fail
        psi, pi = AdditiveCharacter(q, d), KElement.uniformizer(q)
        char = st.sampled_from(all_chars(q, 1, CycRat.root_of_unity(4)))
        w1, w2 = data.draw(char), data.draw(char)

        def summand(nu):
            function = st.sampled_from(measured_basis(q, nu))
            return st.tuples(function, function)
        pairs = data.draw(st.lists(
            st.sampled_from([Fraction(1), Fraction(5, 4)]).flatmap(summand),
            min_size=1, max_size=3))
        duals, epsilons = fe2_factors(pairs, w1, w2, psi, pi, mu)
        lhs, rhs = product_form(pairs, w1, w2, psi, pi, mu)
        assert sum(d1 * d2 for d1, d2 in duals) == lhs
        assert sum(e1 * e2 for e1, e2 in epsilons) == rhs
        assert verify_FE2(duals, epsilons) == (lhs == rhs)


class TestZetaRho2:
    def test_identity_on_examples(self):
        q = 3
        z = CycRat.root_of_unity(4)
        gs = [SBFunction.char_ideal(q, 0),
              SBFunction.char_ideal(q, 0) - SBFunction.char_ideal(q, 1),
              SBFunction.char(KCoset(q, KElement.one(q), 1)),
              SBFunction(q),
              # level 2, above the initial end of the shell window
              SBFunction.char_ideal(q, 2),
              SBFunction.char(KCoset(q, KElement.uniformizer(q), 2))]
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
