import random
from fractions import Fraction

import pytest

from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.lift2d import (
    DistinguishedFamily, DistinguishedSetF, FElement, GoodCharacter,
    LiftedFn, LiftedFn2, abs_F, measure_F, zeta_F1,
    zeta_F1_regularized,
)
from liftzeta.localfield import (
    KCoset, KElement, QuasiCharacter, enumerate_characters,
)
from liftzeta.schwartz import SBFunction, cyc_abs
from liftzeta.setring import DddSet
from liftzeta.zeta1d import rho0, zeta as zeta_k


def fe(q, text):
    return FElement.parse(q, text)


def rand_felement(q, rng, exps=(-1, 0, 1), density=0.6):
    return FElement(q, {e: KElement(q, {k: rng.randrange(q)
                                        for k in (-1, 0, 1)})
                        for e in exps if rng.random() < density})


def mult_char(f, c):
    """f times the character x -> psi(c x)."""
    return LiftedFn(f.q, [(g, a, gamma, c if b is None else b + c, coeff)
                          for g, a, gamma, b, coeff in f.terms])


def rand_lifted(q, rng, twisted=True, nterms=(1, 3)):
    terms = []
    for _ in range(rng.randrange(*nterms)):
        g = SBFunction.char(
            KCoset(q, KElement(q, {k: rng.randrange(q) for k in (-1, 0)}),
                   rng.randrange(-1, 2)), rng.choice([1, -1, 2]))
        a = FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                         for e in (-1, 0, 1) if rng.random() < 0.6})
        b = None
        if twisted and rng.random() < 0.5:
            b = FElement(q, {e: KElement(q, {0: rng.randrange(q)})
                             for e in (-1, 0)})
            if b.is_zero():
                b = None
        terms.append((g, a, rng.randrange(-1, 2), b, 1))
    return LiftedFn(q, terms)


def probe_grid(f):
    q = f.q
    pts = [FElement.zero(q)]
    kappas = [KElement.zero(q), KElement.one(q), KElement.constant(q, 2 % q),
              KElement.uniformizer(q), KElement.uniformizer(q, -1),
              KElement(q, {-1: 1, 0: 1})]
    gammas = sorted({t[2] for t in f.terms})
    for _, a, _, _, _ in f.terms:
        pts.append(a)
        for g2 in gammas + [max(gammas) + 1]:
            for k in kappas:
                pts.append(a + FElement(q, {g2: k}))
    return pts


class TestFElement:
    def test_parse_and_str(self):
        x = fe(3, "u^-1 + (1+u)*t + 2*t^3")
        assert str(x) == "u^-1 + (1 + u)*t + 2*t^3"
        assert x.coeff(1) == KElement.parse(3, "1+u")

    def test_valuation_leading(self):
        x = fe(5, "3*t^-2 + t")
        assert x.nu() == -2
        assert x.eta() == KElement.constant(5, 3)
        assert FElement.zero(5).nu() == float("inf")

    def test_residue(self):
        assert fe(3, "2 + u*t").rho() == KElement.constant(3, 2)
        with pytest.raises(ValueError):
            fe(3, "t^-1").rho()

    def test_arithmetic(self):
        q = 3
        x, y = fe(q, "1 + t"), fe(q, "2 + 2*t + t^2")
        # coefficients live in K, not in the residue field: 1 + 2 = 3
        assert (x + y).coeff(0) == KElement.constant(q, 3)
        assert x * x == fe(q, "1 + 2*t + t^2")

    def test_invert_exact_leading_monomial(self):
        q = 5
        x = fe(q, "2*u^-1 + (1+u)*t + 3*t^2")
        inv = x.invert(7)
        assert (x * inv).truncate_t(5) == fe(q, "1")

    def test_invert_shifted(self):
        q = 3
        x = fe(q, "u*t^-2 + t")
        inv = x.invert(8)
        assert (x * inv).truncate_t(4) == fe(q, "1")


class TestGoodCharacter:
    def test_reads_constant_coefficient(self):
        psi = GoodCharacter(3, 1)
        x = fe(3, "1 + u*t")
        assert psi(x) == CycRat.root_of_unity(3)
        assert psi(fe(3, "t")) == CycRat.from_rational(1)

    def test_twist_conductor_and_residue(self):
        psi = GoodCharacter(3, 0)
        a = fe(3, "2*t^-2 + t")
        assert psi.twist_conductor(a) == 3
        assert psi.twist_residue(a) == KElement.constant(3, 2)


class TestIntegral:
    def test_ideal_volumes(self):
        q = 3
        psi = GoodCharacter(q, 0)
        for gamma in (-2, 0, 3):
            f = LiftedFn.lift(SBFunction.char_ideal(q, 0), gamma=gamma)
            assert f.integrate(psi) == ZetaValue.monomial(q, 1, x_exp=gamma)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_value_table_for_unit_shells(self, q):
        # integral of psi_a over the lift of pi^j O^x at level gamma:
        # zero, -q^(-j-1) X^gamma, or q^(-j)(1-1/q) X^gamma according to
        # the position of the valuation of a relative to (-j, -gamma)
        psi = GoodCharacter(q, 1)
        for j in (-1, 0, 1):
            g = SBFunction.char_ideal(q, j) - SBFunction.char_ideal(q, j + 1)
            for gamma in (-1, 0, 1):
                cases = [(FElement.zero(q), "gt")]
                for m in (-gamma - 1, -gamma, -gamma + 1):
                    for k in (-j - 1, -j, -j + 1):
                        a = FElement(q, {m: KElement.uniformizer(q, k)})
                        if m > -gamma or (m == -gamma and k > -j):
                            rel = "gt"
                        elif m == -gamma and k == -j:
                            rel = "eq"
                        else:
                            rel = "lt"
                        cases.append((a, rel))
                        cases.append(
                            (a + FElement.t_power(q, m + 2), rel))
                for a, rel in cases:
                    got = LiftedFn.lift(g, gamma=gamma,
                                        b=a).integrate(psi)
                    if rel == "lt":
                        want = ZetaValue.zero(q)
                    elif rel == "eq":
                        want = ZetaValue.monomial(
                            q, -Fraction(q) ** (-j - 1), x_exp=gamma)
                    else:
                        want = ZetaValue.monomial(
                            q, Fraction(q) ** (-j) * Fraction(q - 1, q),
                            x_exp=gamma)
                    assert got == want, (q, j, gamma, rel, str(a))

    def test_translation_invariance_across_twists(self):
        q = 3
        psi = GoodCharacter(q, 1)
        rng = random.Random(40)
        for _ in range(50):
            f = rand_lifted(q, rng)
            tau = rand_felement(q, rng, exps=(-2, 0, 1))
            moved = f.translate_var(tau, psi)
            assert moved.integrate(psi) == f.integrate(psi)

    def test_scaling_law(self):
        q = 3
        psi = GoodCharacter(q, 0)
        rng = random.Random(41)
        for _ in range(30):
            f = rand_lifted(q, rng)
            alpha = FElement(q, {rng.randrange(-1, 2):
                                 KElement.uniformizer(q, rng.randrange(-1, 2))
                                 * KElement.constant(q, rng.randrange(1, q))})
            got = f.scale_var(alpha).integrate(psi)
            assert got == f.integrate(psi) * abs_F(alpha).inverse()

    def test_refinement_cancels(self):
        # the same function written whole and as a sum over residue cosets
        q = 3
        a = fe(q, "u*t^-1")
        whole = LiftedFn.lift(SBFunction.char_ideal(q, 0), a=a, gamma=1)
        parts = LiftedFn.zero(q)
        for c in range(q):
            parts = parts + LiftedFn.lift(
                SBFunction.char(KCoset(q, KElement.constant(q, c), 1)),
                a=a, gamma=1)
        diff = whole - parts
        assert diff.is_zero_function()
        psi = GoodCharacter(q, 1)
        assert diff.integrate(psi).is_zero()


class TestAbsF:
    def test_monomial_value(self):
        q = 3
        alpha = FElement(q, {2: KElement(q, {-1: 2}), 3: KElement.one(q)})
        assert abs_F(alpha) == ZetaValue.monomial(
            q, CycRat.sqrt_q(q, 2), x_exp=2)
        with pytest.raises(ValueError):
            abs_F(FElement.zero(q))

    def test_multiplicative(self):
        q = 5
        rng = random.Random(3)
        for _ in range(20):
            x = rand_felement(q, rng)
            y = rand_felement(q, rng)
            if x.is_zero() or y.is_zero():
                continue
            assert abs_F(x * y) == abs_F(x) * abs_F(y)


class TestAbsLifted:
    def test_matches_pointwise_oracle(self):
        q = 3
        rng = random.Random(17)
        for _ in range(50):
            f = rand_lifted(q, rng, twisted=False)
            af = f.abs_pointwise()
            for p in probe_grid(f):
                want = cyc_abs(f.evaluate(p).constant_value(), q)
                assert af.evaluate(p).constant_value() == want

    def test_twisted_rejected(self):
        q = 3
        f = LiftedFn.lift(SBFunction.char_ideal(q, 0),
                          b=FElement.from_k(KElement.one(q)))
        with pytest.raises(ValueError):
            f.abs_pointwise()

    def test_integral_of_abs_can_vanish_while_integral_does_not(self):
        # a nonnegative-looking pathology: the function is -2 on a set of
        # measure X^gamma and 1 on a measure-zero neighbourhood of it
        q = 3
        gamma = 2
        psi = GoodCharacter(q, 0)
        f = (LiftedFn.lift(SBFunction.char_point(q, KElement.zero(q)))
             + LiftedFn.lift(SBFunction.char_ideal(q, 0), gamma=gamma,
                             coeff=-2))
        assert f.integrate(psi) == ZetaValue.monomial(q, -2, x_exp=gamma)
        assert f.abs_pointwise().integrate(psi).is_zero()


class TestFourier:
    @pytest.mark.parametrize("d", [-1, 0, 1])
    def test_transform_is_the_twisted_integral(self, d):
        q = 3
        psi = GoodCharacter(q, d)
        rng = random.Random(9 + d)
        for _ in range(25):
            f = rand_lifted(q, rng)
            fh = f.fourier(psi)
            for _ in range(4):
                x = FElement(q, {e: KElement(q, {k: rng.randrange(q)
                                                 for k in (-1, 0)})
                                 for e in (-2, -1, 0, 1)
                                 if rng.random() < 0.5})
                assert fh.evaluate(x, psi) == mult_char(f, x).integrate(psi)

    @pytest.mark.parametrize("d", [-1, 0, 2])
    def test_double_transform(self, d):
        q = 3
        psi = GoodCharacter(q, d)
        rng = random.Random(31)
        lam = ZetaValue.constant(q, Fraction(q) ** (-d))
        for _ in range(10):
            f = rand_lifted(q, rng)
            ff = f.fourier(psi).fourier(psi)
            for p in [FElement.zero(q), fe(q, "u*t^-1"), fe(q, "1"),
                      rand_felement(q, rng)]:
                assert ff.evaluate(p, psi) == lam * f.evaluate(-p, psi)

    def test_value_at_zero_is_the_integral(self):
        q = 5
        psi = GoodCharacter(q, 1)
        rng = random.Random(8)
        for _ in range(20):
            f = rand_lifted(q, rng)
            assert f.fourier(psi).evaluate(FElement.zero(q), psi) == \
                f.integrate(psi)


class TestDistinguishedSets:
    def setup_method(self):
        self.q = 3
        self.fam = DistinguishedFamily(self.q)

    def dset(self, a, gamma, cosets):
        S = None
        for c in cosets:
            piece = DddSet.atom(self.fam.kfam, c)
            S = piece if S is None else S.union(piece)
        return DistinguishedSetF(self.q, a, gamma, S)

    def rand_atom(self, rng):
        q = self.q
        a = rand_felement(q, rng, density=0.7)
        gamma = rng.randrange(-1, 3)
        if rng.random() < 0.15:
            return DistinguishedSetF.null_ideal(q, gamma, a)
        cosets = [KCoset(q, KElement(q, {k: rng.randrange(q)
                                         for k in (-1, 0, 1)}),
                         rng.randrange(-1, 3))
                  for _ in range(rng.randrange(1, 3))]
        return self.dset(a, gamma, cosets)

    def test_atom_measure(self):
        A = self.dset(fe(3, "u*t^-1"), 2, [KCoset.ideal(3, 1)])
        got = measure_F(DddSet.atom(self.fam, A), self.fam)
        assert got == ZetaValue.monomial(3, Fraction(1, 3), x_exp=2)

    def test_full_ideal_has_measure_zero(self):
        N = DistinguishedSetF.null_ideal(3, 2)
        assert measure_F(DddSet.atom(self.fam, N), self.fam).is_zero()
        # and it sits inside the enclosing level-1 set
        B = self.dset(FElement.zero(3), 1, [KCoset.ideal(3, 0)])
        assert self.fam.nested(N, B)

    def test_complement_inside_measure_zero_ideal(self):
        big = DddSet.atom(self.fam, DistinguishedSetF.null_ideal(3, 2))
        sub = DddSet.atom(self.fam, self.dset(
            FElement.zero(3), 2, [KCoset(3, KElement.one(3), 1)]))
        got = measure_F(big.difference(sub), self.fam)
        assert got == ZetaValue.monomial(3, Fraction(-1, 3), x_exp=2)

    def test_additivity_and_membership_on_random_pairs(self):
        rng = random.Random(5)
        for _ in range(80):
            x = DddSet.atom(self.fam, self.rand_atom(rng))
            y = DddSet.atom(self.fam, self.rand_atom(rng))
            yd = y.difference(x)
            u = x.union(yd)
            assert measure_F(u, self.fam) == \
                measure_F(x, self.fam) + measure_F(yd, self.fam)
            for p in self.fam.probe_points(x.atoms() + y.atoms()):
                assert u.contains(p) == (x.contains(p) or y.contains(p))

    def test_random_expression_membership(self):
        rng = random.Random(6)

        def expr(depth):
            if depth == 0:
                a = self.rand_atom(rng)
                return (DddSet.atom(self.fam, a),
                        lambda x, a=a: a.contains(x))
            l, lf = expr(depth - 1)
            r, rf = expr(depth - 1)
            op = rng.choice("udi")
            if op == "u":
                return l.union(r), lambda x: lf(x) or rf(x)
            if op == "d":
                return l.difference(r), lambda x: lf(x) and not rf(x)
            return l.intersection(r), lambda x: lf(x) and rf(x)

        for _ in range(40):
            s, oracle = expr(2)
            pts = (self.fam.probe_points(s.atoms()) if s.atoms()
                   else [FElement.zero(self.q)])
            for p in pts:
                assert s.contains(p) == oracle(p)


class TestZetaOnF:
    def setup_method(self):
        self.q = 3
        self.psi = GoodCharacter(self.q, 1)
        self.om = QuasiCharacter.trivial(
            self.q, pi_value=CycRat.root_of_unity(4))

    def test_vanishing_cases(self):
        q = self.q
        g = SBFunction.char_ideal(q, 0)
        for a, gamma in [(fe(q, "t^-2"), -1), (fe(q, "t"), 2),
                         (fe(q, "t^2"), 1)]:
            f = LiftedFn.lift(g, a=a, gamma=gamma)
            assert zeta_F1(f, self.om, self.psi).is_zero()

    def test_unit_coset_case(self):
        # support inside the unit group: the character is constant there
        q = self.q
        a = FElement.from_k(KElement(q, {1: 1, 2: 1}))
        f = LiftedFn.lift(SBFunction.char_ideal(q, 0), a=a, gamma=2)
        want = ZetaValue.monomial(
            q, self.om(a.coeff(0)) * CycRat.sqrt_q(q, 2), t_exp=1, x_exp=2)
        assert zeta_F1(f, self.om, self.psi) == want

    def test_residue_case_matches_one_dimensional_zeta(self):
        q = self.q
        g = SBFunction.char(KCoset(q, KElement.one(q), 2))
        a = FElement.from_k(KElement.constant(q, 2))
        f = LiftedFn.lift(g, a=a, gamma=0)
        g1 = g.translate(-a.coeff(0))
        for om in [self.om] + [w for w in enumerate_characters(q, 1)
                               if w.r == 1][:1]:
            assert zeta_F1(f, om, self.psi) == zeta_k(g1, om)

    def test_residue_case_with_unit_twist(self):
        # frozen value of the twisted residue integral for the trivial
        # character: a ramified-shell head plus a geometric tail
        q = self.q
        z = self.om.pi_value
        f = LiftedFn.lift(SBFunction.char_ideal(q, 0), gamma=0,
                          b=FElement.from_k(KElement.one(q)))
        head = ZetaValue.constant(q, Fraction(-1, q))
        geo = ZetaValue.monomial(
            q, z * CycRat.from_rational(Fraction(q - 1, q)), t_exp=1) * (
            ZetaValue.constant(q, 1)
            - ZetaValue.monomial(q, z, t_exp=1)).inverse()
        assert zeta_F1(f, self.om, self.psi) == head + geo

    def test_negative_twist_valuation_kills(self):
        q = self.q
        f = LiftedFn.lift(SBFunction.char_ideal(q, 0), gamma=0,
                          b=fe(q, "t^-1"))
        assert zeta_F1(f, self.om, self.psi).is_zero()

    def test_uncovered_case_raises(self):
        q = self.q
        f = LiftedFn.lift(SBFunction.char_ideal(q, 0),
                          a=fe(q, "t^-1"), gamma=-1)
        with pytest.raises(ValueError):
            zeta_F1(f, self.om, self.psi)


class TestZetaRegularized:
    def _pv_function(self, q, b=None):
        return LiftedFn.lift(SBFunction.char_ideal(q, 0),
                             a=FElement.t_power(q, -1), gamma=-1, b=b)

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_ramified_value_is_a_gauss_sum(self, d):
        q = 3
        psi = GoodCharacter(q, d)
        u = KElement.uniformizer(q)
        one = FElement.from_k(KElement.one(q))
        for om in enumerate_characters(q, 1):
            if om.r == 0:
                continue
            om = om.with_pi_value(CycRat.root_of_unity(4))
            got = zeta_F1_regularized(self._pv_function(q, one), om, psi)
            want = ZetaValue.monomial(
                q, om.pi_value ** (d - om.r) * CycRat.sqrt_q(q, -om.r)
                * rho0(om, psi.base, u), t_exp=d - om.r)
            assert got == want

    @pytest.mark.parametrize("d", [0, 1, 2])
    def test_unramified_value(self, d):
        q = 3
        psi = GoodCharacter(q, d)
        z = CycRat.root_of_unity(4)
        om = QuasiCharacter.trivial(q, pi_value=z)
        one = FElement.from_k(KElement.one(q))
        got = zeta_F1_regularized(self._pv_function(q, one), om, psi)
        head = ZetaValue.monomial(
            q, -(z ** (d - 1)) * CycRat.from_rational(Fraction(1, q)),
            t_exp=d - 1)
        geo = ZetaValue.monomial(
            q, z ** d * CycRat.from_rational(Fraction(q - 1, q)),
            t_exp=d) * (ZetaValue.constant(q, 1)
                        - ZetaValue.monomial(q, z, t_exp=1)).inverse()
        assert got == head + geo

    def test_trivial_twist_needs_ramification(self):
        q = 3
        psi = GoodCharacter(q, 1)
        om = QuasiCharacter.trivial(q, pi_value=CycRat.root_of_unity(4))
        with pytest.raises(ValueError):
            zeta_F1_regularized(self._pv_function(q), om, psi)
        ram = [w for w in enumerate_characters(q, 1) if w.r == 1][0]
        assert zeta_F1_regularized(self._pv_function(q), ram, psi).is_zero()

    def test_agrees_with_plain_zeta_on_covered_cases(self):
        q = 3
        psi = GoodCharacter(q, 1)
        om = QuasiCharacter.trivial(q, pi_value=CycRat.root_of_unity(4))
        rng = random.Random(12)
        for _ in range(20):
            f = LiftedFn.lift(
                SBFunction.char_ideal(q, rng.randrange(-1, 2)),
                a=FElement.from_k(KElement.constant(q, rng.randrange(q))),
                gamma=0,
                b=rand_felement(q, rng, exps=(0, 1), density=0.5) or None)
            assert zeta_F1_regularized(f, om, psi) == zeta_F1(f, om, psi)


class TestProducts:
    def test_tensor_factorization(self):
        q = 3
        psi = GoodCharacter(q, 0)
        rng = random.Random(20)
        for _ in range(20):
            f1 = rand_lifted(q, rng, twisted=False)
            f2 = rand_lifted(q, rng, twisted=False)
            t = LiftedFn2.outer(f1, f2)
            assert t.integrate() == f1.integrate(psi) * f2.integrate(psi)

    def test_translation_invariance(self):
        q = 3
        rng = random.Random(21)
        for _ in range(15):
            t = LiftedFn2.outer(rand_lifted(q, rng, twisted=False),
                                rand_lifted(q, rng, twisted=False))
            moved = t.translate(rand_felement(q, rng),
                                rand_felement(q, rng))
            assert moved.integrate() == t.integrate()

    def test_evaluation(self):
        q = 3
        f1 = LiftedFn.lift(SBFunction.char_ideal(q, 0), gamma=1)
        f2 = LiftedFn.lift(SBFunction.char_ideal(q, 1), gamma=0)
        t = LiftedFn2.outer(f1, f2)
        x, y = fe(q, "t"), fe(q, "u")
        assert t.evaluate(x, y) == ZetaValue.constant(q, 1)
        assert t.evaluate(x, fe(q, "1")).is_zero()
