"""End-to-end acceptance checks for the exact identities the package
implements, at desk scale: residue sizes q in {2, 3, 5}, additive
conductors d in {-1, 0, 1, 2}, multiplicative conductors up to 2, coset
levels up to 4.  Everything except the archimedean suite is exact."""

import random
from fractions import Fraction

import pytest

from liftzeta.archfe import (
    fe_product_check, gamma_zeta_closed_form, gaussian, gaussian_nabla,
    star_numeric, zeta_numeric,
)
from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.lift2d import (
    DistinguishedFamily, DistinguishedSetF, FElement, GoodCharacter,
    LiftedFn, measure_F,
)
from liftzeta.localfield import (
    AdditiveCharacter, KCoset, KElement, QuasiCharacter,
    enumerate_characters,
)
from liftzeta.schwartz import SBFunction
from liftzeta.setring import DddSet, KCosetFamily
from liftzeta.zeta1d import (
    double_star_invariance, epsilon_star, rho0, z_normalized, zeta,
)
from liftzeta.zeta2d import ChiCharacter, epsilon2, zeta_rho2
from builders import lift_finite
from setoracle import (
    IntervalFamily, atoms, probe_points, rand_coset, rand_expr, rand_interval,
)

QS = (2, 3, 5)
Z4 = CycRat.root_of_unity(4)


def coset_basis(q, maxlev):
    """Ideals and all nonzero cosets refining pi^-1 O up to maxlev."""
    out = [SBFunction.char_ideal(q, n) for n in range(-1, maxlev + 1)]
    for lev in range(0, maxlev + 1):
        for c in KCoset.ideal(q, -1).subcosets(lev):
            if not c.rep.is_zero():
                out.append(SBFunction.char(c))
    return out


def characters(q, rmax):
    return [w.with_pi_value(Z4) for w in enumerate_characters(q, rmax)]


class TestFourierIdealRule:
    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    @pytest.mark.parametrize("r", [-2, -1, 0, 1, 2])
    def test_transform_of_ideals(self, q, d, r):
        psi = AdditiveCharacter(q, d)
        got = SBFunction.char_ideal(q, r).fourier(psi)
        expect = SBFunction.char_ideal(q, d - r, Fraction(q) ** (-r))
        assert got.equals(expect)

    def test_measure_scaling(self):
        q, mu = 3, Fraction(3, 7)
        psi = AdditiveCharacter(q, 1)
        got = SBFunction.char_ideal(q, 2, 1, mu).fourier(psi)
        expect = SBFunction.char_ideal(q, -1, mu * Fraction(q) ** (-2), mu)
        assert got.equals(expect)


class TestStarIdealRule:
    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    @pytest.mark.parametrize("r", [-2, -1, 0, 1, 2])
    def test_star_of_ideals(self, q, d, r):
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        got = SBFunction.char_ideal(q, r).star(psi, pi)
        expect = SBFunction.char_ideal(q, -(-d // 2) - r,
                                       Fraction(q) ** (-2 * r))
        assert got.equals(expect)

    def test_measure_scaling(self):
        q, mu = 2, Fraction(5, 4)
        psi = AdditiveCharacter(q, 2)
        pi = KElement.uniformizer(q)
        got = SBFunction.char_ideal(q, -1, 1, mu).star(psi, pi)
        expect = SBFunction.char_ideal(q, 2, mu * Fraction(q) ** 2, mu)
        assert got.equals(expect)


class TestDoubleStarWorkedExample:
    @pytest.mark.parametrize("q", QS)
    def test_unit_coset_level_two(self, q):
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        h = SBFunction.char(KCoset(q, KElement.one(q), 2))
        got = h.star(psi, pi).star(psi, pi)
        minus1 = KElement.constant(q, q - 1)
        expect = (SBFunction.char_units(q).scale(Fraction(1, q * q))
                  + SBFunction.char(KCoset(q, minus1, 1),
                                    -Fraction(1, q) * (1 - Fraction(1, q)))
                  + SBFunction.char(KCoset(q, minus1, 2)))
        assert got.equals(expect)


class TestEpsilonClosedForms:
    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize("d", [0, 1])
    def test_every_character_is_exponential_type(self, q, d):
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        k0 = -(-d // 2)
        for w in characters(q, 2):
            eps = epsilon_star(w, psi, pi)
            assert eps.is_exponential_type() is not None
            if w.r == 0:
                # unramified: a pure power of q at the shifted exponent
                expect = ZetaValue.monomial(
                    q, Fraction(q) ** (-2 * k0) * w.pi_value ** (-k0),
                    t_exp=-k0)
                assert eps == expect
            else:
                k = -((d - w.r) // 2)
                delta = 1 if (d - w.r) % 2 == 0 else Fraction(1, q)
                expect = (
                    ZetaValue.monomial(q, Fraction(q) ** (2 * k), t_exp=k)
                    * ZetaValue.constant(q, w.pi_value ** k)
                    * ZetaValue.constant(q, CycRat.sqrt_q(q, -w.r))
                    * ZetaValue.constant(q, CycRat.from_rational(delta))
                    * ZetaValue.constant(q, rho0(w.inverse(), psi, pi)))
                assert eps == expect

    def test_unramified_measure_scaling(self):
        q, mu = 3, Fraction(2, 5)
        eps = epsilon_star(QuasiCharacter.trivial(q),
                           AdditiveCharacter(q, 1),
                           KElement.uniformizer(q), mu=mu)
        a, b = eps.is_exponential_type()
        assert b == -1 and a == CycRat.from_rational(
            mu * Fraction(q) ** (-2))


class TestDoubleStarZetaIdentity:
    @pytest.mark.parametrize("q,d", [(2, 0), (2, 1), (3, 0), (3, 1)])
    def test_level_three_basis_all_characters(self, q, d):
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        chars = characters(q, 2)
        for f in coset_basis(q, 3):
            fss = f.star(psi, pi).star(psi, pi)
            for w in chars:
                delta = 1 if (d - w.r) % 2 == 0 else Fraction(1, q)
                factor = CycRat.from_rational(
                    Fraction(q) ** (-d) * delta) * w.at_minus_one()
                assert zeta(fss, w) == \
                    zeta(f, w) * ZetaValue.constant(q, factor)


class TestDoubleStarInvariance:
    @pytest.mark.parametrize("q,part", [(2, 0)] + [(3, k) for k in range(4)])
    def test_prime_independence_and_parity_composition(self, q, part):
        u = KElement.uniformizer(q)
        pi2 = u * (KElement.one(q) + u)
        psi0 = AdditiveCharacter(q, 0)
        psi1 = AdditiveCharacter(q, 1)
        basis = coset_basis(q, 3)
        chunk = basis if q == 2 else basis[part::4]
        for f in chunk:
            assert double_star_invariance(f, u, pi2, psi0, psi1)


class TestStarAsScaledFourierOnLifts:
    def test_scaled_transform_identity(self):
        # For a lift f of h at level r and a conductor-zero psi,
        #   f* = q^(-r-1) f^ + q^(-2r-1) S(h) Char(pi^-r O),
        # where S(h) is the sum of h over the nonzero residues.  It is
        # asserted on the delta basis, which spans every h, and on the
        # differences delta_c - delta_1 (2 <= c < q); these and delta_0
        # span the subspace S(h) = 0, where the strong form
        # f* = q^(-r-1) f^ is asserted without the radial term.
        for q in QS:
            psi = AdditiveCharacter(q, 0)
            pi = KElement.uniformizer(q)
            hs = ([{c: 1} for c in range(q)]
                  + [{c: 1, 1: -1} for c in range(2, q)])
            for r in (-1, 0, 1):
                for h in hs:
                    f = lift_finite(h, r, q)
                    lhs = f.star(psi, pi)
                    rhs = f.fourier(psi).scale(Fraction(q) ** (-(r + 1)))
                    tail = sum(v for c, v in h.items() if c != 0)
                    if tail:
                        rhs = rhs + SBFunction.char_ideal(
                            q, -r, Fraction(q) ** (-2 * r - 1) * tail)
                    assert lhs.equals(rhs), (q, r, h)


class TestLiftedIntegralTable:
    @pytest.mark.parametrize("q", QS)
    def test_unit_shell_values(self, q):
        # the integral of psi(a x) over the lift of pi^j O^x at level
        # gamma takes one of three values according to how the weight of
        # a compares with (-j, -gamma)
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
                            (a + FElement(q, {m + 2: KElement.one(q)}), rel))
                for a, rel in cases:
                    got = LiftedFn.lift(g, gamma=gamma, b=a).integrate(psi)
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


class TestLiftedMeasure:
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
        a = FElement(q, {e: KElement(q, {k: rng.randrange(q)
                                         for k in (-1, 0, 1)})
                         for e in (-1, 0, 1) if rng.random() < 0.7})
        gamma = rng.randrange(-1, 3)
        if rng.random() < 0.15:
            return DistinguishedSetF.null_ideal(q, gamma, a)
        cosets = [KCoset(q, KElement(q, {k: rng.randrange(q)
                                         for k in (-1, 0, 1)}),
                         rng.randrange(-1, 3))
                  for _ in range(rng.randrange(1, 3))]
        return self.dset(a, gamma, cosets)

    def test_atom_value(self):
        a = FElement(3, {-1: KElement.one(3)})
        A = self.dset(a, 2, [KCoset.ideal(3, 1)])
        assert measure_F(DddSet.atom(self.fam, A), self.fam) == \
            ZetaValue.monomial(3, Fraction(1, 3), x_exp=2)

    def test_full_fractional_ideal_is_null(self):
        N = DistinguishedSetF.null_ideal(3, 2)
        assert measure_F(DddSet.atom(self.fam, N), self.fam).is_zero()

    def test_complement_has_opposite_value(self):
        big = DddSet.atom(self.fam, DistinguishedSetF.null_ideal(3, 2))
        sub = DddSet.atom(self.fam, self.dset(
            FElement.zero(3), 2, [KCoset(3, KElement.one(3), 1)]))
        assert measure_F(big.difference(sub), self.fam) == \
            ZetaValue.monomial(3, Fraction(-1, 3), x_exp=2)

    def test_additivity_on_200_random_disjoint_pairs(self):
        rng = random.Random(11)
        for _ in range(200):
            x = DddSet.atom(self.fam, self.rand_atom(rng))
            y = DddSet.atom(self.fam, self.rand_atom(rng)).difference(x)
            assert measure_F(x.union(y), self.fam) == \
                measure_F(x, self.fam) + measure_F(y, self.fam)


class TestTwoVariableFunctionalEquation:
    def basis(self, q, maxlev):
        out = [SBFunction.char_ideal(q, n) for n in range(0, maxlev + 1)]
        for lev in range(1, maxlev + 1):
            for c in KCoset.ideal(q, 0).subcosets(lev):
                if not c.rep.is_zero():
                    out.append(SBFunction.char(c))
        return out

    @pytest.mark.parametrize("q", [2, 3])
    def test_all_characters_all_basis_tensors(self, q):
        d = 0
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        chars = characters(q, 2)
        basis = self.basis(q, 2)
        starred = [f.star(psi, pi) for f in basis]
        znorm = {}
        zdual = {}
        for i, f in enumerate(basis):
            for j, w in enumerate(chars):
                znorm[i, j] = z_normalized(f, w)
                zdual[i, j] = z_normalized(starred[i],
                                           w.inverse()).subst_dual()
        eps = {j: epsilon_star(chars[j], psi, pi)
               for j in range(len(chars))}
        for j1 in range(len(chars)):
            for j2 in range(len(chars)):
                e = eps[j1] * eps[j2]
                for i1 in range(len(basis)):
                    for i2 in range(len(basis)):
                        lhs = zdual[i1, j1] * zdual[i2, j2]
                        rhs = e * znorm[i1, j1] * znorm[i2, j2]
                        assert lhs == rhs, (q, j1, j2, i1, i2)

    @pytest.mark.parametrize("d", [0, 1])
    def test_ramified_unramified_epsilon_closed_form(self, d):
        q = 3
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        for om1 in characters(q, 2):
            if om1.r == 0:
                continue
            r = om1.r
            chi = ChiCharacter(om1, QuasiCharacter.trivial(q))
            k1 = -((d - r) // 2)
            k0 = -(-d // 2)
            delta = 1 if (d - r) % 2 == 0 else Fraction(1, q)
            want = ZetaValue.monomial(
                q,
                CycRat.from_rational(Fraction(q) ** (2 * (k1 - k0)))
                * chi.omega1.pi_value ** k1 * CycRat.sqrt_q(q, -r)
                * CycRat.from_rational(delta)
                * rho0(om1.inverse(), psi, pi),
                t_exp=k1 - k0)
            assert epsilon2(chi, psi, pi) == want


class TestBoundaryLiftingIdentity:
    @pytest.mark.parametrize("q", [2, 3])
    def test_unramified_characters(self, q):
        gs = [SBFunction.char_ideal(q, 0),
              SBFunction.char_ideal(q, 0) - SBFunction.char_ideal(q, 1),
              SBFunction.char(KCoset(q, KElement.one(q), 1))]
        oms = [QuasiCharacter.trivial(q),
               QuasiCharacter.trivial(q, Z4),
               QuasiCharacter.trivial(q, CycRat.sqrt_q(q))]
        for g in gs:
            for om in oms:
                left, right, equal = zeta_rho2(g, om)
                assert equal, (str(g), om.label, str(left), str(right))


class TestSetRingRandomized:
    def run_family(self, family, atom_maker, measure, seed, count):
        rng = random.Random(seed)
        prev = None
        for _ in range(count):
            expr, oracle = rand_expr(family, rng, atom_maker, 2)
            for pt in probe_points(atoms(expr)):
                assert expr.contains(pt) == oracle(pt)
            if prev is not None:
                x, y = prev, expr
                parts = [x.difference(y), x.intersection(y),
                         y.difference(x)]
                assert x.union(y).measure(measure) == \
                    sum(p.measure(measure) for p in parts)
            prev = expr

    def test_interval_atoms(self):
        fam = IntervalFamily()
        self.run_family(fam, rand_interval, fam.length, 3, 500)

    def test_coset_atoms(self):
        q = 3
        fam = KCosetFamily(q)
        self.run_family(fam, lambda rng: rand_coset(q, rng), fam.haar, 4,
                        500)


class TestArchimedean:
    def test_gaussian_star_on_grid(self):
        g = gaussian()
        for k in range(20):
            y = -2.0 + 0.2 * k
            assert abs(star_numeric(g, y) - g.star_closed_form(y)) < 1e-6

    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_gamma_closed_form(self, s):
        got = zeta_numeric(gaussian_nabla(), 1, s)
        assert abs(got - gamma_zeta_closed_form(s)) < 1e-8

    @pytest.mark.parametrize("s", [1, 1 + 0.3j])
    def test_product_functional_equation(self, s):
        assert fe_product_check(gaussian_nabla(), gaussian(), 1, s,
                                tol=1e-6)
