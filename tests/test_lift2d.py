import random
from fractions import Fraction

import pytest

from liftzeta import zeta2d
from liftzeta.exactnum import CycRat, ZetaValue
from liftzeta.lift2d import (
    DistinguishedFamily, DistinguishedSetF, FElement, GoodCharacter,
    LiftedFn, abs_F, measure_F, zeta_F1, zeta_F1_regularized,
)
from liftzeta.localfield import (
    KCoset, KElement, QuasiCharacter, enumerate_characters,
)
from liftzeta.schwartz import SBFunction
from liftzeta.setring import DddSet, KCosetFamily, refine_disjoint
from liftzeta.zeta1d import rho0
from builders import parse_f as fe, parse_k
from liftoracle import integrate_reference, measure_reference
from setoracle import atoms, measure_relation, probe_points, rand_expr


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


def empty_residue_set(kfam):
    """O minus its q level-1 subcosets: the component ([O], (q subcosets))
    denotes the empty set."""
    O = KCoset.ideal(kfam.q, 0)
    S = DddSet.atom(kfam, O)
    for c in O.subcosets(1):
        S = S.difference(DddSet.atom(kfam, c))
    return S


def rand_residue_set(kfam, rng):
    """Up to three cosets inside O joined, then up to two of level at
    least 1 cut out: several components, inners at several levels."""
    q = kfam.q

    def coset(lowest):
        rep = KElement(q, {e: rng.randrange(q) for e in range(3)})
        return DddSet.atom(kfam, KCoset(q, rep, rng.randrange(lowest, 4)))
    S = DddSet(kfam)
    for _ in range(rng.randrange(1, 4)):
        S = S.union(coset(0))
    for _ in range(rng.randrange(3)):
        S = S.difference(coset(1))
    return S


class TestFElement:
    def test_parse_and_str(self):
        x = fe(3, "u^-1 + (1+u)*t + 2*t^3")
        assert str(x) == "u^-1 + (1 + u)*t + 2*t^3"
        assert x.coeff(1) == parse_k(3, "1+u")

    def test_valuation_leading(self):
        x = fe(5, "3*t^-2 + t")
        assert x.nu() == -2
        assert x.eta() == KElement.constant(5, 3)
        assert FElement.zero(5).nu() == float("inf")

    def test_equal_elements_hash_equal(self):
        # the same element built in other dict orders, and once with a
        # zero coefficient that the constructor drops
        q = 3
        k0, k2 = KElement(q, {0: 1, 1: 2}), KElement(q, {1: 2, 0: 1})
        one = KElement.one(q)
        x = FElement(q, {-1: one, 0: k0, 2: k2})
        y = FElement(q, {2: k0, -1: one, 0: k2})
        z = FElement(q, {0: k0, 5: KElement.zero(q), 2: k2, -1: one})
        assert x == y == z and hash(x) == hash(y) == hash(z)
        assert len({x, y, z, x + one}) == 2

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
                            (a + FElement(q, {m + 2: KElement.one(q)}), rel))
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

    @pytest.mark.parametrize("q,d", [(3, 0), (5, 1)])
    def test_integrate_matches_the_per_term_sum(self, q, d):
        # coefficients T-free, T-monomial or over 1 - aT, at several X
        # exponents; a fifth of the functions cancel to zero
        psi = GoodCharacter(q, d)
        rng = random.Random(42 + q)

        def scalar():
            return (CycRat.root_of_unity(4 * q, rng.randrange(4 * q))
                    * Fraction(rng.randrange(1, 5), rng.randrange(1, 4)))

        def coeff():
            r = rng.random()
            if r < 0.25:
                return 1
            x = ZetaValue.monomial(q, scalar(), t_exp=rng.randrange(-2, 3),
                                   x_exp=rng.randrange(-1, 2))
            if r < 0.6:
                return x
            return x + ZetaValue.geometric(
                q, scalar(), CycRat.root_of_unity(q) * Fraction(1, q),
                rng.randrange(-1, 2))

        shapes = set()
        for _ in range(60):
            f = rand_lifted(q, rng, nterms=(1, 5))
            f = LiftedFn(q, [(g, a, gamma, b, coeff())
                             for g, a, gamma, b, _ in f.terms])
            if rng.random() < 0.2:
                f = f + f.scale(-1)
            got = f.integrate(psi)
            assert got == integrate_reference(f, psi)
            if got.is_zero():
                shapes.add("zero")
            if len(got.terms) > 1:
                shapes.add("several X exponents")
            if any(sum(1 for c in den if c) > 1
                   for _, den in got.terms.values()):
                shapes.add("binomial denominator")
        assert shapes == {"zero", "several X exponents",
                          "binomial denominator"}

    def test_refinement_cancels(self):
        # the same function written whole and as a sum over residue cosets
        q = 3
        a = fe(q, "u*t^-1")
        whole = LiftedFn.lift(SBFunction.char_ideal(q, 0), a=a, gamma=1)
        parts = LiftedFn(q)
        for c in range(q):
            parts = parts + LiftedFn.lift(
                SBFunction.char(KCoset(q, KElement.constant(q, c), 1)),
                a=a, gamma=1)
        diff = whole - parts
        grid = probe_grid(diff)
        assert any(not whole.evaluate(x).is_zero() for x in grid)
        assert all(diff.evaluate(x).is_zero() for x in grid)
        psi = GoodCharacter(q, 1)
        assert diff.integrate(psi).is_zero()


class TestScaleVar:
    def test_non_monomial_leading_coefficient_raises(self):
        # 1 + u has no finite inverse in K; an inverse cut at 16 digits
        # made the scaled function read 0 at a point where f(alpha x) = 1
        q = 3
        alpha = fe(q, "1+u")
        g = SBFunction.char(KCoset(q, KElement(q, {0: 1, 16: 1}), 17))
        f = LiftedFn.lift(g, a=fe(q, "1"))
        with pytest.raises(ValueError, match="not a K monomial"):
            f.scale_var(alpha)
        with pytest.raises(ValueError, match="not a K monomial"):
            fe(q, "(1+u)*t + t^2").invert(4)

    def test_pointwise_law(self):
        # f.scale_var(alpha)(x) == f(alpha x) for alpha with a monomial
        # leading coefficient and several t terms
        q = 3
        psi = GoodCharacter(q, 1)
        rng = random.Random(17)
        checked = nonzero = 0
        for _ in range(40):
            f = rand_lifted(q, rng)
            n = rng.randrange(-1, 2)
            lead = KElement(q, {rng.randrange(-1, 2): rng.randrange(1, q)})
            alpha = FElement(q, {n: lead}) + rand_felement(
                q, rng, exps=(n + 1, n + 2, n + 3))
            scaled = f.scale_var(alpha)
            for x in probe_grid(scaled):
                want = f.evaluate(alpha * x, psi)
                assert scaled.evaluate(x, psi) == want
                checked += 1
                nonzero += not want.is_zero()
        assert nonzero > checked // 10


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

    def rand_cosets(self, rng):
        q = self.q
        return [KCoset(q, KElement(q, {k: rng.randrange(q)
                                       for k in (-1, 0, 1)}),
                       rng.randrange(-1, 3))
                for _ in range(rng.randrange(1, 3))]

    def rand_atom(self, rng, a=None):
        q = self.q
        a = rand_felement(q, rng, density=0.7) if a is None else a
        gamma = rng.randrange(-1, 3)
        if rng.random() < 0.15:
            return DistinguishedSetF.null_ideal(q, gamma, a)
        return self.dset(a, gamma, self.rand_cosets(rng))

    def test_atom_measure(self):
        A = self.dset(fe(3, "u*t^-1"), 2, [KCoset.ideal(3, 1)])
        got = measure_F(DddSet.atom(self.fam, A), self.fam)
        assert got == ZetaValue.monomial(3, Fraction(1, 3), x_exp=2)

    def test_full_ideal_has_measure_zero(self):
        N = DistinguishedSetF.null_ideal(3, 2)
        assert measure_F(DddSet.atom(self.fam, N), self.fam).is_zero()
        # and it sits inside the enclosing level-1 set
        B = self.dset(FElement.zero(3), 1, [KCoset.ideal(3, 0)])
        assert self.fam.relation(N, B)[0] == "in"

    def test_carved_empty_when_an_inner_covers_outer(self):
        q, fam = self.q, self.fam
        O = KCoset.ideal(q, 0)
        outer = self.dset(FElement.zero(q), 1, [O])
        copy = self.dset(FElement.zero(q), 1, [O])
        self.assert_difference(outer, [copy], 0)
        # O minus (1 + pi O) and O minus (2 + pi O) overlap in pi O and
        # merge into a residue set that denotes O
        halves = [DistinguishedSetF(q, FElement.zero(q), 1, DddSet.carved(
            fam.kfam, O, [KCoset(q, KElement.constant(q, c), 1)]))
            for c in (1, 2)]
        assert not DddSet.carved(fam, outer, halves).components
        assert DddSet.carved(fam, outer, halves[:1]).components

    def assert_removed(self, got, outer, inners, n_components):
        assert len(got.components) == n_components
        for p in probe_points([outer, *inners]):
            assert got.contains(p) == (
                outer.contains(p) and not any(a.contains(p) for a in inners))

    def assert_carved(self, outer, inners, n_components):
        got = DddSet.carved(self.fam, outer, inners)
        self.assert_removed(got, outer, inners, n_components)

    def assert_difference(self, outer, inners, n_components):
        cut = DddSet(self.fam)
        for a in inners:
            cut = cut.union(DddSet.atom(self.fam, a))
        got = DddSet.atom(self.fam, outer).difference(cut)
        self.assert_removed(got, outer, inners, n_components)

    def test_difference_by_an_atom_equal_to_or_containing_outer(self):
        q = self.q
        a = fe(q, "u*t^-1")
        outer = self.dset(a, 1, [KCoset(q, KElement.one(q), 1)])
        # the same set from a base that differs at t^2
        equal = self.dset(a + fe(q, "t^2"), 1,
                          [KCoset(q, KElement.one(q), 1)])
        wider = self.dset(a, 1, [KCoset.ideal(q, 0)])
        lower = self.dset(a, 0, [KCoset.ideal(q, -1)])
        for inner in (equal, wider, lower):
            self.assert_difference(outer, [inner], 0)
        small = self.dset(a, 1, [KCoset(q, KElement(q, {0: 1, 1: 1}), 2)])
        for inner in (equal, wider, lower):
            self.assert_difference(outer, [small, inner], 0)

    def test_carved_overlapping_inners_joining_to_outer(self):
        # each inner is two of the three level-1 subcosets of O at t^1:
        # they overlap pairwise and no one of them covers O
        q, a = self.q, fe(self.q, "u*t^-1")
        outer = self.dset(a, 1, [KCoset.ideal(q, 0)])
        subs = [KCoset(q, KElement.constant(q, c), 1) for c in range(q)]
        pairs = [self.dset(a, 1, [subs[i], subs[(i + 1) % q]])
                 for i in range(q)]
        self.assert_carved(outer, pairs[:2], 0)
        self.assert_carved(outer, pairs, 0)
        # disjoint inners are not merged, so these two that cover O
        # leave a component that denotes the empty set
        self.assert_carved(outer, [pairs[0], self.dset(a, 1, [subs[2]])], 1)

    def test_carved_inners_refining_to_a_proper_subset(self):
        q, a = self.q, fe(self.q, "u*t^-1")
        outer = self.dset(a, 1, [KCoset.ideal(q, -1)])
        inners = [self.dset(a, 1, [KCoset(q, KElement.constant(q, c), 1),
                                   KCoset(q, KElement.constant(q, c + 1), 1)])
                  for c in (0, 1)]
        inners.append(self.dset(a, 2, [KCoset.ideal(q, 0)]))
        inners.append(self.dset(fe(q, "t"), 1, [KCoset.ideal(q, 0)]))
        self.assert_carved(outer, inners, 1)

    def test_measure_matches_the_per_atom_sum(self):
        # random sets with null atoms and atoms at several levels, at
        # q = 3 and mu = 1, and at q = 5 and mu = 5/4
        shapes = set()
        for q, mu in ((3, 1), (5, Fraction(5, 4))):
            fam = DistinguishedFamily(q, mu)
            rng = random.Random(30 + q)

            def rand_atom(rng):
                a = rand_felement(q, rng, density=0.7)
                gamma = rng.randrange(-1, 3)
                if rng.random() < 0.2:
                    return DistinguishedSetF.null_ideal(q, gamma, a)
                S = DddSet(fam.kfam)
                for _ in range(rng.randrange(1, 3)):
                    S = S.union(DddSet.atom(fam.kfam, KCoset(
                        q, KElement(q, {k: rng.randrange(q)
                                        for k in (-1, 0, 1)}),
                        rng.randrange(-1, 3))))
                return DistinguishedSetF(q, a, gamma, S)

            for _ in range(50):
                s, _ = rand_expr(fam, rng, rand_atom, 2)
                got, want = measure_F(s, fam), measure_reference(s, fam)
                assert got == want and str(got) == str(want)
                if any(A.is_null() for A in atoms(s)):
                    shapes.add("null atom")
                if len(got.terms) > 1:
                    shapes.add("several X exponents")
                if got.is_zero():
                    shapes.add("zero")
        assert shapes == {"null atom", "several X exponents", "zero"}

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
            for p in probe_points(atoms(x) + atoms(y)):
                assert u.contains(p) == (x.contains(p) or y.contains(p))

    def test_random_expression_membership(self):
        rng = random.Random(6)
        for _ in range(40):
            s, oracle = rand_expr(self.fam, rng, self.rand_atom, 2)
            pts = (probe_points(atoms(s)) if atoms(s)
                   else [FElement.zero(self.q)])
            for p in pts:
                assert s.contains(p) == oracle(p)

    def test_residue_set_empty_but_not_structurally(self):
        # O minus its q level-1 subcosets keeps the component
        # ([O], (three subcosets)) although it denotes the empty set
        q = self.q
        S = empty_residue_set(self.fam.kfam)
        assert len(S.components) == 1 and len(S.components[0][1]) == q
        a = fe(q, "u*t^-1")
        E = DistinguishedSetF(q, a, 1, S)
        for n in (1, 0):
            B = self.dset(a, 1, [KCoset.ideal(q, n)])
            assert self.fam.relation(E, B)[0] == "disjoint"
            assert self.fam.relation(B, E)[0] == "disjoint"
        assert measure_F(DddSet.atom(self.fam, E), self.fam).is_zero()

    def test_empty_residue_set_equals_itself(self):
        # |E & E| = |E| = 0: equal is decided before disjoint, so an
        # empty residue set is equal to itself and to a separate copy
        q, kfam = self.q, self.fam.kfam
        E, copy = (DistinguishedSetF(q, FElement.zero(q), 0,
                                     empty_residue_set(kfam))
                   for _ in range(2))
        for other in (E, copy):
            assert self.fam.relation(E, other) == ("equal", None)
            assert refine_disjoint(self.fam, [E, other]) == [E]
            assert not DddSet.atom(self.fam, E).difference(
                DddSet.atom(self.fam, other)).components

    def test_same_level_relations_match_membership(self):
        q, kfam = self.q, self.fam.kfam
        rng = random.Random(11)

        def residue_atom(a, gamma):
            if rng.random() < 0.3:
                return DistinguishedSetF.null_ideal(q, gamma + 1, a)
            return self.dset(a, gamma, self.rand_cosets(rng))

        kinds = set()
        for _ in range(200):
            a = rand_felement(q, rng, density=0.7)
            gamma = rng.randrange(-1, 3)
            x = residue_atom(a, gamma)
            if rng.random() < 0.2 and not x.is_null():
                # the same set through a different description
                extra = DddSet.atom(kfam, KCoset(
                    q, KElement(q, {k: rng.randrange(q) for k in (0, 1)}),
                    rng.randrange(0, 3)))
                y = DistinguishedSetF(
                    q, a, gamma, x.S.union(x.S.intersection(extra)))
            elif rng.random() < 0.4:
                # a base t^gamma kappa away keeps the same-level branch
                # and moves y's residue set by kappa
                kappa = KElement(q, {k: rng.randrange(q) for k in (0, 1)})
                y = residue_atom(a + FElement(q, {gamma: kappa}), gamma)
            else:
                y = residue_atom(a, gamma)
            pts = probe_points([x, y])
            inx = [x.contains(p) for p in pts]
            iny = [y.contains(p) for p in pts]
            x_in_y = all(v <= w for v, w in zip(inx, iny))
            y_in_x = all(w <= v for v, w in zip(inx, iny))
            meets = any(v and w for v, w in zip(inx, iny))
            kind = self.fam.relation(x, y)[0]
            mirror = self.fam.relation(y, x)[0]
            assert (kind in ("equal", "in")) == x_in_y
            assert (mirror in ("equal", "in")) == y_in_x
            assert (kind == "disjoint") == (not meets)
            assert (kind == "equal") == (x_in_y and y_in_x)
            kinds.add((x_in_y, y_in_x, meets))
        # disjoint, equal, either nesting and a proper overlap all occur
        assert len(kinds) == 5

    def test_coset_counts_match_the_measure_oracle(self):
        # _s_relation decides by coset counts; the oracle builds the meet
        # and compares Haar measures
        kinds = set()
        for q in (3, 5):
            fam = DistinguishedFamily(q)
            kfam = fam.kfam
            rng = random.Random(20 + q)
            E = empty_residue_set(kfam)
            pairs = [(E, E), (E, empty_residue_set(kfam))]
            for _ in range(160):
                S1 = rand_residue_set(kfam, rng)
                r = rng.random()
                if r < 0.1:
                    S2 = E
                elif r < 0.25:
                    # a set equal to S1, built by set operations
                    S2 = S1.union(S1.intersection(
                        rand_residue_set(kfam, rng)))
                else:
                    S2 = rand_residue_set(kfam, rng)
                pairs += [(S1, S2), (S2, S1)]
            for S1, S2 in pairs:
                kind, meet = fam._s_relation(S1, S2)
                want, want_meet = measure_relation(kfam, S1, S2)
                assert kind == want
                if kind == "overlap":
                    assert meet.components == want_meet.components
                else:
                    assert meet is None
                kinds.add(kind)
            sets = [S for pair in pairs for S in pair]
            assert any(len(S.components) > 1 for S in sets)
            assert any(len({a.level for a in inners}) > 1
                       for S in sets for _, inners in S.components)
        assert kinds == {"equal", "disjoint", "in", "contains", "overlap"}

    def test_relation_is_mirrored(self):
        # relation(B, A) swaps "in" and "contains" of relation(A, B) and
        # keeps the other kinds, whichever of A and B lies lower
        q, fam = self.q, self.fam
        rng = random.Random(12)
        mirror = {"in": "contains", "contains": "in"}
        seen = set()
        for _ in range(300):
            A = self.rand_atom(rng)
            if rng.random() < 0.1:
                # A itself, from a base that differs above A's level
                g = A.gamma + 1
                B = DistinguishedSetF(
                    q, A.a + rand_felement(q, rng, exps=(g,)), A.gamma, A.S)
            else:
                # a base that agrees with A's below a random level, so
                # that the residue sets or the lower set decide
                g = rng.randrange(-1, 3)
                B = self.rand_atom(rng, A.a.truncate_t(g) + rand_felement(
                    q, rng, exps=(g, g + 1)))
            ab, ba = fam.relation(A, B), fam.relation(B, A)
            assert ba[0] == mirror.get(ab[0], ab[0])
            if ab[0] == "overlap":
                for p in probe_points([A, B]):
                    both = A.contains(p) and B.contains(p)
                    assert ab[1].contains(p) == ba[1].contains(p) == both
            seen.add((ab[0], (A.gamma > B.gamma) - (A.gamma < B.gamma)))
        # the lower set contains the other, with A the lower and with B
        # the lower, and every kind occurs at one level
        assert {("contains", -1), ("in", 1)} <= seen
        assert {k for k, lev in seen if lev == 0} == {
            "equal", "disjoint", "in", "contains", "overlap"}

    @pytest.mark.parametrize("cls,mu", [
        (KCosetFamily, 0), (DistinguishedFamily, -1),
    ], ids=["KCosetFamily-0", "DistinguishedFamily-neg1"])
    def test_non_positive_mu_rejected(self, cls, mu):
        with pytest.raises(ValueError, match="must be positive"):
            cls(3, mu)


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
        # at level 0 the lift of g at a reads g at the t^0 coefficient
        # minus a, so the K integral is over the coset a + 1 + pi^2 O,
        # written out here (1 + 2 = 0 at q = 3); zeta2d's shell
        # decomposition integrates it on atoms, sharing no code with zeta
        q = self.q
        g = SBFunction.char(KCoset(q, KElement.one(q), 2))
        chars = [self.om] + [w for w in enumerate_characters(q, 1)
                             if w.r == 1][:1]
        for c, moved in [(1, KCoset(q, KElement.constant(q, 2), 2)),
                         (2, KCoset.ideal(q, 2))]:  # 1 + 2 = 0 mod 3
            f = LiftedFn.lift(g, a=FElement.from_k(KElement.constant(q, c)),
                              gamma=0)
            for om in chars:
                want = zeta2d._shell_zeta(SBFunction.char(moved), om)
                assert zeta_F1(f, om, self.psi) == want

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
                             a=FElement(q, {-1: KElement.one(q)}), gamma=-1,
                             b=b)

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

