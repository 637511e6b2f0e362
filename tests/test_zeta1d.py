import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftzeta.exactnum import (
    CycRat, ZetaValue, _padd, _pdivmod, _pmul, _ptrim, _reduce_mod_cyc,
    cyclotomic_poly,
)
from liftzeta.localfield import (
    AdditiveCharacter, KCoset, KElement, KSingleton, QuasiCharacter,
    enumerate_characters,
)
from liftzeta import zeta1d as zeta1d_module
from liftzeta.schwartz import SBFunction
from liftzeta.zeta1d import (
    SBTensor, check_identity_A, double_star_invariance, epsilon_star,
    l_function, rho0, z_normalized, zeta,
)
from liftzeta.zeta2d import ChiCharacter, zeta2
from builders import char_point, from_fraction


def coset_basis(q, maxlev):
    """Ideals and all nonzero cosets refining pi^-1 O up to maxlev."""
    out = [SBFunction.char_ideal(q, n) for n in range(-1, maxlev + 1)]
    for lev in range(0, maxlev + 1):
        for c in KCoset.ideal(q, -1).subcosets(lev):
            if not c.rep.is_zero():
                out.append(SBFunction.char(c))
    return out


def ramified_chars(q, rmax, pi_value=None):
    out = []
    for w in enumerate_characters(q, rmax):
        if w.r > 0:
            out.append(w if pi_value is None else w.with_pi_value(pi_value))
    return out


def zeta_by_atoms(g, omega):
    """The zeta integral summed atom by atom: each coset of the normal
    form split into subcosets on which omega and |.| are constant, and
    omega evaluated at each one's representative.  The reference for
    zeta, which sums character exponents on digit keys."""
    q = g.q
    tails = ZetaValue.zero(q)
    monomials = []
    for atom, coeff in g.normalize().terms:
        if isinstance(atom, KSingleton):
            continue
        v = atom.valuation()
        if v < atom.level:
            need = v + max(omega.r, 1)
            subs = [atom] if atom.level >= need else atom.subcosets(need)
            monomials += [(v, coeff * omega(sub.rep) * CycRat.from_rational(
                g.mu * Fraction(q) ** (v - sub.level))) for sub in subs]
        elif omega.r == 0:
            tails = tails + ZetaValue.geometric(
                q, coeff * CycRat.from_rational(g.mu * Fraction(q - 1, q)),
                omega.pi_value, atom.level)
    return tails + ZetaValue.laurent(q, monomials)


# every character of conductor <= 3 at each q, and omega(pi) values of
# orders 1 and 4 and of absolute value 2
CHARACTERS = {q: enumerate_characters(q, 3) for q in (2, 3, 5)}
PI_VALUES = [CycRat.from_rational(1), CycRat.root_of_unity(4),
             CycRat.from_rational(2)]
COEFFS = [1, -1, 2, Fraction(1, 3), Fraction(-3, 2), CycRat.root_of_unity(3),
          CycRat.root_of_unity(4) + 1]


@st.composite
def sb_functions(draw, q):
    """Sums of ideals, point masses and cosets with cyclotomic
    coefficients: keys of one to five digits, shorter and longer than a
    conductor <= 3, at bases down to -7."""
    mu = draw(st.sampled_from([Fraction(1), Fraction(5, 4), Fraction(1, 3)]))
    pieces = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["ideal", "point", "coset"]))
        c = draw(st.sampled_from(COEFFS))
        if kind == "ideal":
            pieces.append(SBFunction.char_ideal(
                q, draw(st.integers(-2, 2)), c, mu))
        elif kind == "point":
            x = KElement(q, {draw(st.integers(-2, 2)):
                             draw(st.integers(1, q - 1))})
            pieces.append(char_point(q, x, c, mu))
        else:
            lev = draw(st.integers(-2, 4))
            digits = draw(st.lists(st.integers(0, q - 1),
                                   min_size=1, max_size=5))
            rep = KElement(q, dict(enumerate(digits, lev - len(digits))))
            pieces.append(SBFunction.char(KCoset(q, rep, lev), c, mu))
    return sum(pieces[1:], pieces[0])


class TestZeta:
    def test_char_o_trivial(self):
        q = 3
        got = zeta(SBFunction.char_ideal(q, 0), QuasiCharacter.trivial(q))
        expect = from_fraction(q, [Fraction(q - 1, q)], [1, -1])
        assert got == expect
        assert z_normalized(SBFunction.char_ideal(q, 0),
                            QuasiCharacter.trivial(q)) == \
            ZetaValue.constant(q, Fraction(q - 1, q))

    def test_conductor_coset_is_constant(self):
        # the unit coset at the exact conductor integrates to its own
        # multiplicative measure, with no T dependence
        q = 3
        for w in ramified_chars(q, 2):
            r = w.r
            g = SBFunction.char(KCoset(q, KElement.one(q), r))
            got = zeta(g, w)
            assert got == ZetaValue.constant(q, Fraction(q) ** (-r))

    def test_shell_vanishes_for_ramified(self):
        q = 3
        w = ramified_chars(q, 1)[0]
        g = (SBFunction.char_ideal(q, 1)
             + SBFunction.char_ideal(q, 0, Fraction(-1, q)))
        assert zeta(g, w).is_zero()

    def test_mu_scaling(self):
        q = 2
        mu = Fraction(3, 7)
        got = zeta(SBFunction.char_ideal(q, 0, 1, mu),
                   QuasiCharacter.trivial(q))
        expect = from_fraction(q, [mu * Fraction(q - 1, q)], [1, -1])
        assert got == expect

    def test_one_power_of_omega_pi_per_shell(self, monkeypatch):
        # a ramified character and a function on three shells, with keys
        # shorter and longer than the conductor: zeta evaluates no
        # character and raises omega(pi) once per shell
        q = 3
        omega = next(w for w in enumerate_characters(q, 2) if w.r == 2)
        omega = omega.with_pi_value(CycRat.root_of_unity(4))
        g = (SBFunction.char(KCoset(q, KElement(q, {-1: 1}), 0))
             + SBFunction.char(KCoset(q, KElement(q, {0: 2, 2: 1}), 3), 2)
             + SBFunction.char(KCoset(q, KElement(q, {1: 1}), 2), -1))
        want = zeta_by_atoms(g, omega)
        calls, powers, depth = [], [], [0]
        call, power = QuasiCharacter.__call__, CycRat.__pow__

        def counted_call(self, x):
            calls.append(x)
            return call(self, x)

        def counted_power(self, n):
            # top-level powers only: a negative one recurses once
            if not depth[0]:
                powers.append(n)
            depth[0] += 1
            try:
                return power(self, n)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(QuasiCharacter, "__call__", counted_call)
        monkeypatch.setattr(CycRat, "__pow__", counted_power)
        got = zeta(g, omega)
        monkeypatch.undo()
        assert calls == []
        assert sorted(powers) == [-1, 0, 1]
        assert got == want and str(got) == str(want)

    def test_scaling_covariance(self):
        q = 3
        rng = random.Random(1)
        triv = QuasiCharacter.trivial(q)
        wram = ramified_chars(q, 1)[0]
        for _ in range(12):
            rep = KElement(q, {e: rng.randrange(q) for e in range(-1, 2)})
            g = SBFunction.char(KCoset(q, rep, rng.randrange(0, 3)))
            alpha = KElement(q, {rng.randrange(-2, 2): rng.randrange(1, q)})
            w = rng.choice([triv, wram])
            lhs = zeta(g.dilate(alpha), w)
            rhs = ZetaValue.monomial(
                q, w.inverse()(alpha), t_exp=-alpha.valuation()) * zeta(g, w)
            assert lhs == rhs


def euclid_inverse(x):
    """x^-1 by the extended Euclid against the cyclotomic polynomial: the
    reference for CycRat.inverse, the rational fast path and the norm."""
    r0, r1 = list(cyclotomic_poly(x.m)), _ptrim(list(x.a))
    s0, s1 = [], [Fraction(1)]
    while r1:
        qq, r = _pdivmod(r0, r1, Fraction(0))
        r0, r1 = r1, r
        s0, s1 = s1, _padd(s0, [-c for c in _pmul(qq, s1, Fraction(0))])
    return CycRat(x.m, _reduce_mod_cyc([c / r0[0] for c in s0], x.m))


class TestZetaAdditive:
    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_sum_over_atoms(self, q, data):
        omega = data.draw(st.sampled_from(enumerate_characters(q, 2)))
        if data.draw(st.booleans()):
            omega = omega.with_pi_value(CycRat.root_of_unity(4))
        mu = data.draw(st.sampled_from([Fraction(1), Fraction(5, 4)]))
        pieces = []
        for _ in range(data.draw(st.integers(1, 5))):
            kind = data.draw(st.sampled_from(["ideal", "point", "coset"]))
            c = data.draw(st.sampled_from(
                [1, -1, 2, Fraction(1, 3), Fraction(-3, 2)]))
            if kind == "ideal":
                n = data.draw(st.integers(-2, 2))
                pieces.append(SBFunction.char_ideal(q, n, c, mu))
            elif kind == "point":
                x = KElement(q, {data.draw(st.integers(-1, 2)):
                                 data.draw(st.integers(1, q - 1))})
                pieces.append(char_point(q, x, c, mu))
            else:
                lev = data.draw(st.integers(-2, 3))
                digits = data.draw(st.lists(st.integers(0, q - 1),
                                            min_size=3, max_size=3))
                rep = KElement(q, {lev - 3 + i: b
                                   for i, b in enumerate(digits)})
                pieces.append(SBFunction.char(KCoset(q, rep, lev), c, mu))
        g = sum(pieces[1:], pieces[0])
        assert zeta(g, omega) == sum((zeta(p, omega) for p in pieces),
                                     ZetaValue.zero(q))

        # the rational inverse keeps the order, as the Euclid one does
        m = math.lcm(omega.pi_value.m, omega.n)
        for p in pieces:
            (_, c), = p.terms
            x = (c * mu).embed(m)
            got, want = x.inverse(), euclid_inverse(x)
            assert (got.m, got.a) == (want.m, want.a)


class TestZetaOnKeys:
    @given(st.sampled_from([2, 3, 5]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_sum_over_atoms(self, q, data):
        # equal strings pin each shell's order: lcm(coeff.m, n), and
        # omega(pi)'s order too off the shell of valuation 0
        g = data.draw(sb_functions(q))
        omega = data.draw(st.sampled_from(CHARACTERS[q])).with_pi_value(
            data.draw(st.sampled_from(PI_VALUES)))
        got, want = zeta(g, omega), zeta_by_atoms(g, omega)
        assert got == want
        assert str(got) == str(want)

    def test_star_transforms_of_the_basis(self):
        # the inputs of the epsilon and identity-A suites
        q = 3
        pi = KElement.uniformizer(q)
        chars = [w.with_pi_value(CycRat.root_of_unity(4))
                 for w in CHARACTERS[q] if w.r < 3]
        for d in (0, 1):
            psi = AdditiveCharacter(q, d)
            for f in coset_basis(q, 2):
                fs = f.star(psi, pi)
                for w in chars:
                    got, want = zeta(fs, w), zeta_by_atoms(fs, w)
                    assert got == want and str(got) == str(want)


class TestMixedResidueSizes:
    def test_rho0_and_epsilon_star_reject_psi_of_another_q(self):
        omega = next(w for w in enumerate_characters(3, 1) if w.r == 1)
        psi, u = AdditiveCharacter(5, 0), KElement.uniformizer(3)
        with pytest.raises(ValueError, match="mixed residue sizes"):
            rho0(omega, psi, u)
        with pytest.raises(ValueError, match="mixed residue sizes"):
            epsilon_star(omega, psi, u)


class TestLFunction:
    def test_trivial(self):
        q = 3
        assert l_function(QuasiCharacter.trivial(q)) == \
            from_fraction(q, [1], [1, -1])

    def test_ramified(self):
        q = 3
        for w in ramified_chars(q, 2):
            assert l_function(w) == ZetaValue.constant(q, 1)

    def test_nontrivial_pi_value(self):
        q = 2
        w = QuasiCharacter.trivial(q, CycRat.root_of_unity(4))
        got = l_function(w)
        assert got.inverse() == (
            ZetaValue.constant(q, 1)
            - ZetaValue.monomial(q, CycRat.root_of_unity(4), t_exp=1))


class TestRho0:
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_unit_modulus(self, q):
        pi = KElement.uniformizer(q)
        psi = AdditiveCharacter(q, 0)
        seen = False
        for w in ramified_chars(q, 2):
            r = rho0(w, psi, pi)
            assert r * r.conjugate() == 1
            seen = True
        assert seen

    def test_conjugation_relation(self):
        q = 3
        pi = KElement.uniformizer(q)
        for d in (0, 1):
            psi = AdditiveCharacter(q, d)
            for w in ramified_chars(q, 2):
                lhs = rho0(w.inverse(), psi, pi)
                rhs = w.at_minus_one() * rho0(w, psi, pi).conjugate()
                assert lhs == rhs

    def test_unramified_rejected(self):
        q = 3
        with pytest.raises(ValueError):
            rho0(QuasiCharacter.trivial(q), AdditiveCharacter(q, 0),
                 KElement.uniformizer(q))

    def test_q2_r1_empty(self):
        # the unit group mod 1+piO is trivial for q = 2, so no character
        # of exact conductor 1 exists
        assert [w for w in enumerate_characters(2, 1) if w.r == 1] == []


class TestEpsilonStar:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    def test_unramified_closed_form(self, q, d):
        pi = KElement.uniformizer(q)
        eps = epsilon_star(QuasiCharacter.trivial(q),
                           AdditiveCharacter(q, d), pi)
        a, b = eps.is_exponential_type()
        k = math.ceil(d / 2)
        assert b == -k
        assert a == CycRat.from_rational(Fraction(q) ** (-2 * k))

    def test_unramified_mu(self):
        q = 3
        eps = epsilon_star(QuasiCharacter.trivial(q),
                           AdditiveCharacter(q, 1), KElement.uniformizer(q),
                           mu=Fraction(2, 5))
        a, b = eps.is_exponential_type()
        assert b == -1 and a == CycRat.from_rational(
            Fraction(2, 5) * Fraction(q) ** (-2))

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("d", [0, 1])
    def test_ramified_closed_form(self, q, d):
        pi = KElement.uniformizer(q)
        psi = AdditiveCharacter(q, d)
        for w in ramified_chars(q, 2, CycRat.root_of_unity(4)):
            r = w.r
            k = math.ceil((r - d) / 2)
            delta = Fraction(1) if (d - r) % 2 == 0 else Fraction(1, q)
            expect = (
                ZetaValue.monomial(q, Fraction(q) ** (2 * k), t_exp=k)
                * ZetaValue.constant(q, w.pi_value ** k)
                * ZetaValue.constant(q, CycRat.sqrt_q(q, -r))
                * ZetaValue.constant(q, delta)
                * ZetaValue.constant(q, rho0(w.inverse(), psi, pi)))
            assert epsilon_star(w, psi, pi) == expect

    def test_product_identity(self):
        q = 3
        pi = KElement.uniformizer(q)
        for d in (0, 1):
            psi = AdditiveCharacter(q, d)
            for w in enumerate_characters(q, 2):
                w = w.with_pi_value(CycRat.root_of_unity(5))
                prod = (epsilon_star(w, psi, pi)
                        * epsilon_star(w.inverse(), psi, pi).subst_dual())
                delta = Fraction(1) if (d - w.r) % 2 == 0 else Fraction(1, q)
                expect = ZetaValue.constant(
                    q, CycRat.from_rational(Fraction(q) ** (-d) * delta)
                    * w.at_minus_one())
                assert prod == expect

    @pytest.mark.parametrize("calls,factor,message", [
        # the second test function's integral doubled
        ({2}, ZetaValue.constant(3, 2),
         "epsilon depends on the test function"),
        # both test functions' integrals times 1 + T
        ({0, 2}, ZetaValue.constant(3, 1) + ZetaValue.monomial(3, 1, 1),
         "epsilon not of exponential type"),
    ], ids=["test-function", "exponential-type"])
    def test_inconsistent_integrals_raise(self, calls, factor, message,
                                          monkeypatch):
        # epsilon_star integrates g1, g1*, g2, g2* in this order
        real = zeta1d_module.z_normalized
        seen = []

        def bent(g, omega):
            seen.append(g)
            z = real(g, omega)
            return z * factor if len(seen) - 1 in calls else z

        monkeypatch.setattr(zeta1d_module, "z_normalized", bent)
        q = 3
        with pytest.raises(ArithmeticError, match=message):
            epsilon_star(QuasiCharacter.trivial(q), AdditiveCharacter(q, 0),
                         KElement.uniformizer(q))
        assert len(seen) == 4

    def test_nowhere_vanishing(self):
        q = 3
        pi = KElement.uniformizer(q)
        psi = AdditiveCharacter(q, 1)
        for w in enumerate_characters(q, 2):
            a, _ = epsilon_star(w, psi, pi).is_exponential_type()
            assert not a.is_zero()

    @pytest.mark.parametrize("q", [2, 3])
    def test_functional_equation_on_basis(self, q):
        pi = KElement.uniformizer(q)
        chars = [w.with_pi_value(CycRat.root_of_unity(4))
                 for w in enumerate_characters(q, 2)]
        for d in (0, 1):
            psi = AdditiveCharacter(q, d)
            starred = [(f, f.star(psi, pi)) for f in coset_basis(q, 2)]
            for w in chars:
                eps = epsilon_star(w, psi, pi)
                winv = w.inverse()
                for f, fs in starred:
                    lhs = z_normalized(fs, winv).subst_dual()
                    assert lhs == eps * z_normalized(f, w)


def double_star(f, psi):
    pi = KElement.uniformizer(f.q)
    return f.star(psi, pi).star(psi, pi)


class TestIdentityA:
    def test_char_o_trivial(self):
        q = 3
        f, psi = SBFunction.char_ideal(q, 0), AdditiveCharacter(q, 0)
        assert check_identity_A(f, QuasiCharacter.trivial(q), psi,
                                double_star(f, psi))

    def test_unit_coset_all_characters(self):
        q = 3
        f = SBFunction.char(KCoset(q, KElement.one(q), 2))
        for d in (0, 1):
            psi = AdditiveCharacter(q, d)
            ff = double_star(f, psi)
            for w in enumerate_characters(q, 2):
                w = w.with_pi_value(CycRat.root_of_unity(3))
                assert check_identity_A(f, w, psi, ff)

    def test_zero_function(self):
        q = 2
        f, psi = SBFunction.zero(q), AdditiveCharacter(q, 0)
        assert check_identity_A(f, QuasiCharacter.trivial(q), psi,
                                double_star(f, psi))


class TestDoubleStar:
    def test_prime_independence(self):
        q = 3
        u = KElement.uniformizer(q)
        pi2 = u * (KElement.one(q) + u)
        f = SBFunction.char(KCoset(q, KElement.one(q), 2))
        assert double_star_invariance(f, u, pi2, AdditiveCharacter(q, 0),
                                      AdditiveCharacter(q, 2))

    def test_parity_mismatch_composition(self):
        q = 3
        u = KElement.uniformizer(q)
        pi2 = u * (KElement.one(q) + u)
        for f in (SBFunction.char_ideal(q, 0),
                  SBFunction.char(KCoset(q, KElement.one(q), 1))):
            assert double_star_invariance(f, u, pi2, AdditiveCharacter(q, 0),
                                          AdditiveCharacter(q, 1))

    def test_parity_mismatch_composition_from_conductor_one(self):
        # d1 = 1, d2 = 2: the composition scales by q^(-d1-d2-1) = q^-4
        q = 3
        u = KElement.uniformizer(q)
        pi2 = u * (KElement.one(q) + u)
        for f in (SBFunction.char_ideal(q, 0),
                  SBFunction.char(KCoset(q, KElement.one(q), 1))):
            assert double_star_invariance(f, u, pi2, AdditiveCharacter(q, 1),
                                          AdditiveCharacter(q, 2))

    @pytest.mark.parametrize("d2", [1, 2])
    def test_six_star_transforms_in_either_parity(self, d2, monkeypatch):
        # two double stars with pi1 and pi2 for psi1, then one more for
        # psi2: the scaled one (d2 even) or the composed one (d2 odd)
        q = 3
        u = KElement.uniformizer(q)
        calls = []
        star = SBFunction.star

        def counted(self, psi, pi):
            calls.append(psi.d)
            return star(self, psi, pi)
        monkeypatch.setattr(SBFunction, "star", counted)
        f = SBFunction.char(KCoset(q, KElement.one(q), 2))
        assert double_star_invariance(f, u, u * (KElement.one(q) + u),
                                      AdditiveCharacter(q, 0),
                                      AdditiveCharacter(q, d2))
        assert calls == [0, 0, 0, 0, d2, d2]

    def test_non_uniformizer_pi1_rejected(self):
        q = 3
        u = KElement.uniformizer(q)
        for pi1 in (u * u, KElement.one(q)):
            with pytest.raises(ValueError):
                double_star_invariance(SBFunction.char_ideal(q, 0), pi1, u,
                                       AdditiveCharacter(q, 0),
                                       AdditiveCharacter(q, 1))

    def test_non_uniformizer_rejected(self):
        q = 3
        u = KElement.uniformizer(q)
        with pytest.raises(ValueError):
            double_star_invariance(SBFunction.char_ideal(q, 0), u, u * u,
                                   AdditiveCharacter(q, 0),
                                   AdditiveCharacter(q, 0))


class TestTensor:
    def test_product_value(self):
        q = 3
        t = SBTensor.pure(SBFunction.char_ideal(q, 0),
                          SBFunction.char_ideal(q, 0))
        triv = QuasiCharacter.trivial(q)
        one_var = zeta(SBFunction.char_ideal(q, 0), triv)
        assert zeta2(t, ChiCharacter(triv, triv)) == one_var * one_var

    def test_zero_tensor(self):
        q = 3
        t = SBTensor.pure(SBFunction.zero(q), SBFunction.char_ideal(q, 0))
        assert not t.pairs
        triv = QuasiCharacter.trivial(q)
        assert zeta2(t, ChiCharacter(triv, triv)).is_zero()

    def test_functional_equation(self):
        q = 3
        pi = KElement.uniformizer(q)
        psi = AdditiveCharacter(q, 0)
        t = (SBTensor.pure(SBFunction.char_ideal(q, 0),
                           SBFunction.char(KCoset(q, KElement.one(q), 1)))
             + SBTensor.pure(SBFunction.char_ideal(q, 1),
                             SBFunction.char_ideal(q, 0)))
        triv = QuasiCharacter.trivial(q)
        wram = ramified_chars(q, 1)[0]
        for wa in (triv, wram):
            for wb in (triv, wram):
                lhs = (zeta2(t.star(psi, pi),
                             ChiCharacter(wa.inverse(), wb.inverse()))
                       / (l_function(wa.inverse())
                          * l_function(wb.inverse()))).subst_dual()
                rhs = (epsilon_star(wa, psi, pi) * epsilon_star(wb, psi, pi)
                       * zeta2(t, ChiCharacter(wa, wb))
                       / (l_function(wa) * l_function(wb)))
                assert lhs == rhs
