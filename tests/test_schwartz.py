import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftzeta import schwartz
from liftzeta.exactnum import CycRat, _pmul, _reduce_mod_cyc, cyc_zero
from liftzeta.localfield import AdditiveCharacter, KCoset, KElement, KSingleton
from liftzeta.schwartz import TERM_CAP, SBFunction, _canonical
from builders import lift_finite, parse_k, parse_sb
import staroracle


def ideal(q, n):
    return KCoset.ideal(q, n)


def window_points(q, lo, hi):
    """All canonical representatives with digits at exponents lo..hi-1."""
    pts = [KElement.zero(q)]
    for e in range(lo, hi):
        pts = [p + KElement(q, {e: d}) for p in pts for d in range(q)]
    return pts


def pi_power(q, k):
    return KElement(q, {k: 1})


def w_ref(f, x):
    """W by its definition, exact for pi = u."""
    if x.is_zero():
        return f.evaluate(x)
    w = x.valuation()
    shift = -w // 2 if w % 2 == 0 else (-w - 1) // 2
    return f.evaluate(x.shift(shift))


def nabla_ref(f, x):
    if x.is_zero():
        return f.evaluate(x)
    return f.evaluate(x.shift(x.valuation()))


def polynomial_mul(x, y):
    """x * y through the polynomial product at the lcm order, with no
    shortcut for a rational factor."""
    x, y = x._align(y)
    return CycRat(x.m, _reduce_mod_cyc(_pmul(x.a, y.a, Fraction(0)), x.m))


def reference_normalize(q, terms, psi):
    """The normal form of the sum over (atom, b, coeff) in terms of
    coeff * psi(b x) * Char(atom), b None for no twist, with one CycRat
    summand coeff * zeta_q^t per expanded key, t read off the digit d - 1
    of the product b x itself.  A twisted term is bound to psi as its own
    normal form, so a rational summand is held at order 1."""
    pending = []
    for atom, twist, coeff in terms:
        if twist is None or twist.is_zero():
            pending.append((atom.rep.digits, atom.level, coeff))
            continue
        lev = max(atom.level, psi.d - twist.valuation())
        if q ** (lev - atom.level) > TERM_CAP:
            raise ValueError("term cap exceeded")
        vals = [polynomial_mul(coeff, CycRat.root_of_unity(q, t))
                for t in range(q)]
        vals = [v if any(v.n[1:]) else CycRat.from_rational(v.a[0])
                for v in vals]
        for tail in itertools.product(range(q), repeat=lev - atom.level):
            xd = dict(atom.rep.digits)
            xd.update((e, d) for e, d in zip(range(atom.level, lev), tail)
                      if d)
            t = (twist * KElement(q, xd)).digit(psi.d - 1)
            pending.append((xd, lev, vals[t]))
    out = []
    if pending:
        base = min(min(lev, min(dg, default=lev)) for dg, lev, _ in pending)
        keymap = {}
        for dg, lev, coeff in pending:
            key = tuple(dg.get(e, 0) for e in range(base, lev))
            keymap[key] = keymap[key] + coeff if key in keymap else coeff
        keymap = _canonical(q, keymap)
        for key in sorted(keymap, key=lambda k: (len(k), k)):
            rep = KElement(q, {base + i: d for i, d in enumerate(key)})
            out.append((KCoset(q, rep, base + len(key)), keymap[key]))
    return SBFunction(q, out)


def twisted_sum(q, terms, psi):
    """The normal form of the sum over (atom, b, coeff) in terms of
    coeff * psi(b x) * Char(atom), each twisted term bound to psi by
    twisted(b, psi)."""
    total = SBFunction(q)
    for atom, b, coeff in terms:
        g = SBFunction(q, [(atom, coeff)])
        total = total + (g if b is None else g.twisted(b, psi))
    return total.normalize()


def twisted_value(terms, x, psi):
    """The same sum evaluated at x term by term."""
    total = cyc_zero()
    for atom, b, coeff in terms:
        if atom.contains(x):
            total = total + (coeff if b is None else coeff * psi(b * x))
    return total


@st.composite
def twisted_terms(draw):
    """(q, terms, psi): 1-6 (coset, b, coeff) terms at levels -2..3, most
    of them twisted by b with w(b) in -2..2; psi of conductor -1..2; coefficients rational, cyclotomic of order 3,
    4, 5, 12 or 20, or with a factor sqrt(q)."""
    q = draw(st.sampled_from([2, 3, 5]))
    digit = st.integers(0, q - 1)

    def element(lo, hi):
        return KElement(q, {e: draw(digit) for e in range(lo, hi)})

    def coeff():
        c = CycRat.from_rational(Fraction(draw(st.integers(-4, 4)) or 1,
                                          draw(st.integers(1, 6))))
        kind = draw(st.sampled_from(["rational", "cyclotomic", "sqrt_q"]))
        if kind == "cyclotomic":
            c = (c * CycRat.root_of_unity(draw(st.sampled_from(
                [3, 4, 5, 12, 20])), draw(st.integers(1, 19)))
                + draw(st.integers(-1, 1)))
        elif kind == "sqrt_q":
            c = c * CycRat.sqrt_q(q, draw(st.sampled_from([-1, 1, 3])))
        return c

    def twist():
        if draw(st.integers(0, 3)) == 0:
            return None
        w = draw(st.integers(-2, 2))
        return KElement(q, {w: draw(st.integers(1, q - 1))}) \
            + element(w + 1, w + 2)

    terms = []
    for _ in range(draw(st.integers(1, 6))):
        lev = draw(st.integers(-2, 3))
        terms.append((KCoset(q, element(lev - 2, lev), lev), twist(),
                      coeff()))
    psi = AdditiveCharacter(q, draw(st.integers(-1, 2)))
    # an SBFunction drops a zero coefficient, and with it its order
    return q, [t for t in terms if not t[2].is_zero()], psi


class TestNormalize:
    @given(twisted_terms())
    @settings(max_examples=150, deadline=None)
    def test_integer_expansion_matches_per_key_sums(self, case):
        q, terms, psi = case
        try:
            want = reference_normalize(q, terms, psi)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                twisted_sum(q, terms, psi)
            assert str(raised.value) == str(exc)
            return
        got = twisted_sum(q, terms, psi)
        assert len(got.terms) == len(want.terms)
        for (a, c), (b, e) in zip(got.terms, want.terms):
            assert a == b and c == e
            # a rational coefficient is held at order 1, an irrational
            # one at the order of its per-key sum
            assert c.m == (e.m if any(e.n[1:]) else 1)
        assert str(got) == str(want)

    def test_residues_merge(self):
        q = 3
        f = SBFunction(q, [(KCoset(q, KElement.constant(q, d), 1), 1)
                           for d in range(q)])
        assert f == SBFunction.char_ideal(q, 0)

    def test_constant_twist_absorbed(self):
        q = 3
        psi = AdditiveCharacter(q, 1)
        # w(b) = 1 >= d - n = 1 - 1 so psi(b x) is constant on 1 + pi O
        b = KElement.uniformizer(q, 1)
        coset = KCoset(q, KElement.one(q), 1)
        g = SBFunction.char(coset).twisted(b, psi)
        assert g.normalize() is g
        expect = SBFunction.char(coset, psi(b * KElement.one(q)))
        assert g.equals(expect)

    def test_zero_detection(self):
        q = 2
        f = (SBFunction.char_ideal(q, 0)
             - SBFunction.char_ideal(q, 1)
             - SBFunction.char(KCoset(q, KElement.one(q), 1)))
        g = f.normalize()
        assert not g.terms
        for x in window_points(q, -1, 3):
            assert f.evaluate(x).is_zero()

    def test_nonzero_survives(self):
        q = 3
        f = SBFunction.char_ideal(q, 2, Fraction(1, 2))
        assert f.normalize().terms

    def test_twist_free_form_computed_once(self):
        q = 3
        f = (SBFunction.char_ideal(q, 0)
             - SBFunction.char(KCoset(q, parse_k(q, "1 + u"), 2), 2))
        g = f.normalize()
        assert f.normalize() is g
        assert g.normalize() is g

    def test_twisted_form_follows_psi(self):
        q = 3
        f = SBFunction.char_ideal(q, 0)
        b = KElement.uniformizer(q, -1)
        for d, size in ((0, q), (1, q * q), (0, q)):
            psi = AdditiveCharacter(q, d)
            g = f.twisted(b, psi)
            assert len(g.terms) == size
            for x in window_points(q, 0, 2):
                assert g.evaluate(x) == psi(b * x) * f.evaluate(x)
        # the pointwise law psi(b x) h(x) on more inputs
        h = parse_sb(q, "2*[u^-1 + u*O] - [1 + u^2*O]")
        for text in ("1", "u^-2", "2*u^-3 + u"):
            b = parse_k(q, text)
            for d in (-1, 0, 2):
                psi = AdditiveCharacter(q, d)
                g = h.twisted(b, psi)
                for x in window_points(q, -1, 3):
                    assert g.evaluate(x) == psi(b * x) * h.evaluate(x)

    @pytest.mark.parametrize("q,count", [(2, 15), (3, 10), (5, 6)])
    def test_canonical_random(self, q, count):
        rng = random.Random(40 + q)
        for _ in range(count):
            terms = []
            for _ in range(rng.randint(1, 4)):
                lev = rng.randint(0, 1)
                rep = KElement(q, {e: rng.randrange(q)
                                   for e in range(lev - 2, lev)})
                twist = None
                if rng.random() < 0.4:
                    twist = KElement(q, {e: rng.randrange(q)
                                         for e in (-1, 0)})
                terms.append((KCoset(q, rep, lev), twist,
                              rng.choice([1, -1, 2])))
            psi = AdditiveCharacter(q, rng.randint(0, 1))
            g = twisted_sum(q, terms, psi)
            assert SBFunction(q, g.terms).normalize().terms == g.terms
            for x in window_points(q, -2, 2):
                assert g.evaluate(x) == twisted_value(terms, x, psi)
            split = [(sub, t, c) for a, t, c in terms
                     for sub in a.subcosets(a.level + 1)]
            assert twisted_sum(q, split, psi).terms == g.terms

    def test_term_cap(self):
        q = 3
        psi = AdditiveCharacter(q, 0)
        # 50 distinct cosets of level 0, each splitting into 3^8 pieces
        cosets = [KCoset(q, KElement(q, {-1 - i: j // q ** i
                                         for i in range(4)}), 0)
                  for j in range(50)]
        assert len(set(cosets)) == 50
        f = SBFunction(q, [(c, 1) for c in cosets])
        with pytest.raises(ValueError, match="term cap exceeded"):
            f.twisted(KElement.uniformizer(q, -8), psi)


class TestHaar:
    def test_values(self):
        q = 5
        assert SBFunction.char_ideal(q, 0).haar_integral() == 1
        coset = KCoset(q, parse_k(q, "2 + u"), 2)
        assert SBFunction.char(coset).haar_integral() == Fraction(1, 25)
        assert SBFunction.char_units(q).haar_integral() == 1 - Fraction(1, q)

    def test_mu_scaling(self):
        q = 3
        mu = Fraction(7, 2)
        assert SBFunction.char_ideal(q, 1, mu=mu).haar_integral() == \
            mu * Fraction(1, 3)

    def test_translation_invariance(self):
        q = 3
        rng = random.Random(7)
        for _ in range(20):
            f = SBFunction.char(
                KCoset(q, KElement(q, {e: rng.randrange(q)
                                       for e in range(-1, 2)}),
                       rng.randrange(-1, 3)),
                rng.randrange(1, 5))
            tau = KElement(q, {e: rng.randrange(q) for e in range(-2, 2)})
            assert f.translate(tau).haar_integral() == f.haar_integral()


class TestFourier:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    @pytest.mark.parametrize("r", [-2, -1, 0, 1, 2])
    def test_ideal_rule(self, q, d, r):
        psi = AdditiveCharacter(q, d)
        got = SBFunction.char_ideal(q, r).fourier(psi)
        expect = SBFunction.char_ideal(q, d - r, Fraction(q) ** (-r))
        assert got.equals(expect)

    def test_pointwise_oracle(self):
        q = 3
        psi = AdditiveCharacter(q, 1)
        f = (SBFunction.char(KCoset(q, parse_k(q, "1 + u"), 2), 2)
             + SBFunction.char(KCoset(q, parse_k(q, "u^-1"), 0), -1))
        got = f.fourier(psi)
        L = 3
        reps = window_points(q, -2, L)
        measure = CycRat.from_rational(Fraction(1, q ** L))
        for y in window_points(q, -2, 2):
            oracle = cyc_zero()
            for x in reps:
                fx = f.evaluate(x)
                if not fx.is_zero():
                    oracle = oracle + fx * psi(x * y) * measure
            assert got.evaluate(y) == oracle

    def test_double_transform(self):
        q, d = 3, 0
        psi = AdditiveCharacter(q, d)
        g = SBFunction.char(KCoset(q, KElement.one(q), 2))
        gg = g.fourier(psi).fourier(psi)
        lam = CycRat.from_rational(Fraction(1, q ** d))
        for x in window_points(q, -1, 3):
            assert gg.evaluate(x) == lam * g.evaluate(-x)

    def test_zero(self):
        psi = AdditiveCharacter(3, 0)
        assert not SBFunction(3).fourier(psi).terms

    def test_linearity(self):
        q = 2
        psi = AdditiveCharacter(q, 1)
        a = SBFunction.char(KCoset(q, KElement.one(q), 2))
        b = SBFunction.char_ideal(q, -1, 3)
        assert (a + b).fourier(psi).equals(a.fourier(psi) + b.fourier(psi))


class TestWAndNabla:
    def test_w_ideal(self):
        q = 3
        pi = KElement.uniformizer(q)
        for r in (-2, -1, 0, 1, 2):
            got = SBFunction.char_ideal(q, r).w_operator(pi)
            assert got.equals(SBFunction.char_ideal(q, 2 * r))

    def test_w_unit_coset(self):
        q, r = 3, 2
        pi = KElement.uniformizer(q)
        h = SBFunction.char(KCoset(q, KElement.one(q), r))
        got = h.w_operator(pi)
        expect = (SBFunction.char(KCoset(q, KElement.one(q), r))
                  + SBFunction.char(KCoset(q, KElement.uniformizer(q), r + 1)))
        assert got.equals(expect)

    def test_w_negative_valuation_oracle(self):
        q = 2
        pi = KElement.uniformizer(q)
        f = SBFunction.char(KCoset(q, parse_k(q, "u^-1"), 1))
        got = f.w_operator(pi)
        for x in window_points(q, -3, 3):
            assert got.evaluate(x) == w_ref(f, x)

    def test_w_pointwise_random(self):
        q = 3
        pi = KElement.uniformizer(q)
        rng = random.Random(11)
        for _ in range(10):
            f = SBFunction.char(
                KCoset(q, KElement(q, {e: rng.randrange(q)
                                       for e in range(-2, 2)}),
                       rng.randrange(-2, 3)), rng.randrange(1, 4))
            got = f.w_operator(pi)
            for x in window_points(q, -2, 2):
                assert got.evaluate(x) == w_ref(f, x)

    def test_nabla_examples(self):
        q = 3
        pi = KElement.uniformizer(q)
        f = SBFunction.char(KCoset(q, KElement.one(q), 2))
        assert f.nabla_compose(pi).equals(f)
        g = SBFunction.char(KCoset(q, KElement.uniformizer(q), 3))
        assert not g.nabla_compose(pi).terms
        for d, m in ((0, 0), (2, -3), (1, 5)):
            h = SBFunction.char_ideal(q, m)
            assert h.nabla_compose(pi).equals(
                SBFunction.char_ideal(q, -(-m // 2)))

    def test_nabla_pointwise_random(self):
        q = 2
        pi = KElement.uniformizer(q)
        rng = random.Random(13)
        for _ in range(10):
            f = SBFunction.char(
                KCoset(q, KElement(q, {e: rng.randrange(q)
                                       for e in range(-2, 2)}),
                       rng.randrange(-2, 3)), rng.randrange(1, 4))
            got = f.nabla_compose(pi)
            for x in window_points(q, -2, 3):
                assert got.evaluate(x) == nabla_ref(f, x)


def test_point_atom_rejected():
    # a point has measure zero and no place among the locally constant
    # functions of compact support
    q = 3
    with pytest.raises(TypeError, match="KCoset"):
        SBFunction(q, [(KSingleton(q, parse_k(q, "u^-1 + 2")), 1)])


def w_untruncated(f, pi):
    """W with pi^v as the full product, or a power of the inverse of pi
    for v < 0, both left untruncated."""
    q, out = f.q, []
    for atom, coeff in f.normalize().terms:
        if atom.rep.is_zero():
            out.append((KCoset.ideal(q, 2 * atom.level), coeff))
            continue
        v = atom.rep.valuation()
        even = (pi ** v) * atom.rep if v >= 0 else \
            atom.rep * pi.invert(atom.level + 2 * abs(v) + 2) ** (-v)
        out.append((KCoset(q, even, atom.level + v), coeff))
        out.append((KCoset(q, even * pi, atom.level + v + 1), coeff))
    return SBFunction(q, out, f.mu).normalize()


def nabla_untruncated(f, pi):
    """nabla composition with untruncated powers of pi and its inverse."""
    q, out = f.q, []
    for atom, coeff in f.normalize().terms:
        if atom.rep.is_zero():
            out.append((KCoset.ideal(q, -(-atom.level // 2)), coeff))
            continue
        v = atom.rep.valuation()
        if v % 2:
            continue
        k = v // 2
        rep = atom.rep * pi.invert(atom.level + 2 * abs(k) + 2) ** k \
            if k > 0 else (pi ** (-k)) * atom.rep
        out.append((KCoset(q, rep, atom.level - k), coeff))
    return SBFunction(q, out, f.mu).normalize()


class TestMixedResidueSizes:
    def test_fourier_rejects_psi_of_another_q(self):
        with pytest.raises(ValueError, match="mixed residue sizes"):
            SBFunction.char_ideal(3, 0).fourier(AdditiveCharacter(5, 0))

    def test_w_and_nabla_reject_pi_of_another_q(self):
        f = SBFunction.char(KCoset(3, KElement.one(3), 1))
        for op in (f.w_operator, f.nabla_compose):
            with pytest.raises(ValueError, match="mixed residue sizes"):
                op(KElement.uniformizer(5))

    def test_twisted_rejects_b_or_psi_of_another_q(self):
        f = SBFunction.char_ideal(3, 0)
        for b, psi in [(KElement(3, {-1: 1}), AdditiveCharacter(5, 0)),
                       (KElement(5, {-1: 1}), AdditiveCharacter(3, 0))]:
            with pytest.raises(ValueError, match="mixed residue sizes"):
                f.twisted(b, psi)

    def test_translate_rejects_tau_of_another_q(self):
        f = SBFunction.char(KCoset(3, KElement.one(3), 1))
        with pytest.raises(ValueError, match="mixed residue sizes"):
            f.translate(KElement(5, {-1: 1}))

    def test_dilate_rejects_alpha_of_another_q(self):
        # a monomial alpha is one branch of dilate, any other the second
        f = SBFunction.char(KCoset(3, KElement.one(3), 2))
        for alpha in (KElement(5, {1: 2}), KElement(5, {1: 2, 2: 1})):
            with pytest.raises(ValueError, match="mixed residue sizes"):
                f.dilate(alpha)


class TestTruncatedPowers:
    @pytest.mark.parametrize("pi_text", ["u + u^2", "u + 2*u^3"])
    @pytest.mark.parametrize("d", [8, 12])
    def test_w_nabla_star_match_untruncated(self, d, pi_text):
        q = 3
        psi = AdditiveCharacter(q, d)
        pi = parse_k(q, pi_text)
        for text in ("[1 + u + u^2*O]", "[u^-2 + 2*u + u^2*O]",
                     "2*[u^-1 + u*O] - [2 + u^3*O]"):
            f = parse_sb(q, text)
            wf = w_untruncated(f, pi).fourier(psi)
            # cosets of level about d, where the untruncated powers of
            # the inverse of pi grow with d
            assert max(a.level for a, _ in wf.terms) >= d
            star = nabla_untruncated(wf, pi)
            assert f.star(psi, pi).normalize().terms == star.terms
            for g in (f, wf, star):
                assert g.w_operator(pi).normalize().terms == \
                    w_untruncated(g, pi).terms
                assert g.nabla_compose(pi).normalize().terms == \
                    nabla_untruncated(g, pi).terms


class TestCachedConstants:
    """The constants that the maps keep across calls, against ones made
    afresh: the digits of U^k for pi = u U, asked at two precisions in
    either order in one process, the Haar scales mu q^-L, and a rational
    embedded at order m.  A static method, so that a mutation check may
    run it from an instance of its own."""

    @staticmethod
    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_cached_constants_match_fresh_ones(data):
        q = data.draw(st.sampled_from([2, 3, 5]))
        digit = st.integers(0, q - 1)
        unit = KElement(q, dict(enumerate(
            [data.draw(st.integers(1, q - 1))]
            + data.draw(st.lists(digit, max_size=3)))))
        pi, k = unit.shift(1), data.draw(st.integers(-8, 8))
        for prec in data.draw(st.lists(st.integers(1, 6), min_size=2,
                                       max_size=2, unique=True)):
            fresh = unit.power_mod(k, prec)
            cached = schwartz._unit_power(
                q, tuple(sorted(unit.digits.items())), k, prec)
            assert cached == tuple(map(fresh.digit, range(prec)))
            a = tuple(data.draw(digit) for _ in range(prec))
            product = (KElement(q, dict(enumerate(a))) * fresh).truncate(prec)
            assert schwartz._times_unit_powers(q, pi, prec)(a, k) == \
                tuple(map(product.digit, range(prec)))
            ident = schwartz._times_unit_powers(q, KElement.uniformizer(q),
                                                prec)
            assert ident(a, k) == a
        x = Fraction(data.draw(st.integers(-9, 9)),
                     data.draw(st.integers(1, 9)))
        m = data.draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12, 20]))
        got, want = CycRat.from_rational(x).embed(m), CycRat.from_rational(x, m)
        assert (got.m, got.n, got.d) == (want.m, want.n, want.d)
        lev = data.draw(st.integers(-4, 4))
        for mu in (Fraction(1), Fraction(5, 4)):
            got = schwartz._haar_scale(mu, q, lev)
            want = CycRat.from_rational(mu * Fraction(q) ** -lev)
            assert (got.m, got.n, got.d) == (want.m, want.n, want.d)


@st.composite
def coset_sums(draw):
    """(f, psi, pi): a sum of 1-5 cosets at levels -1..1, representatives
    of valuation down to -3, coefficients of either sign, rational or
    times a power of z3; mu in {1, 3/2, 1/9}; psi of conductor -1..2; pi
    one of u, u + u^2 and u + 2u^3."""
    q = draw(st.sampled_from([2, 3]))
    mu = draw(st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(1, 9)]))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        lev = draw(st.integers(-1, 1))
        rep = KElement(q, {e: draw(st.integers(0, q - 1))
                           for e in range(lev - 2, lev)})
        c = CycRat.from_rational(Fraction(draw(st.integers(-3, 3)) or 1,
                                          draw(st.integers(1, 4))))
        if draw(st.booleans()):
            c = c * CycRat.root_of_unity(3, draw(st.integers(1, 2)))
        terms.append((KCoset(q, rep, lev), c))
    pi = parse_k(q, draw(st.sampled_from(["u", "u + u^2", "u + 2*u^3"])))
    return SBFunction(q, terms, mu), AdditiveCharacter(q, draw(
        st.integers(-1, 2))), pi


class TestTransformsOnCosetSums:
    @given(coset_sums())
    @settings(max_examples=40, deadline=None)
    def test_transforms_match_their_references(self, case):
        f, psi, pi = case
        q, d = f.q, psi.d
        assert f.w_operator(pi).normalize().terms == \
            w_untruncated(f, pi).terms
        assert f.nabla_compose(pi).normalize().terms == \
            nabla_untruncated(f, pi).terms
        # the oracle of TestFourier.test_pointwise_oracle: f is constant
        # on the cosets of level top, and f-hat is zero off pi^(d-top) O
        # and constant on the cosets of level d - lo there
        got = f.fourier(psi)
        lo = min(a.valuation() for a, _ in f.terms)
        top = max(a.level for a, _ in f.terms)
        measure = CycRat.from_rational(f.mu * Fraction(q) ** -top)
        values = [(x, f.evaluate(x)) for x in window_points(q, lo, top)]
        values = [(x, v) for x, v in values if not v.is_zero()]
        for y in window_points(q, d - top, d - lo):
            oracle = cyc_zero()
            for x, v in values:
                oracle = oracle + v * psi(x * y) * measure
            assert got.evaluate(y) == oracle
        assert got.evaluate(pi_power(q, d - top - 1)).is_zero()


@st.composite
def keyed_functions(draw):
    """(f, psi, pi): 1-4 terms stored as digit keys of 0-2 digits at base
    -1..0, each twisted or not, a twist of 1-2 digits (one at q = 5,
    where the key path's expansion of longer ones takes seconds);
    coefficients rational or times a power of z3; mu in {1, 3/2}; q in
    {2, 3, 5}; pi one of u, u(1+u) and u((q-1) + u + u^2); psi of
    conductor -1..2."""
    q = draw(st.sampled_from([2, 3, 5]))
    digits = st.lists(st.integers(0, q - 1), max_size=2).map(tuple)
    keys = []
    for _ in range(draw(st.integers(1, 4))):
        key = draw(digits)
        c = CycRat.from_rational(Fraction(draw(st.integers(-3, 3)) or 1,
                                          draw(st.integers(1, 4))))
        if draw(st.booleans()):
            c = c * CycRat.root_of_unity(3, draw(st.integers(1, 2)))
        twist = ()
        if draw(st.booleans()):
            twist = ((draw(st.integers(1, q - 1)),)
                     + draw(digits)[:1 if q < 5 else 0])
        keys.append((key, twist, c))
    mu = draw(st.sampled_from([Fraction(1), Fraction(3, 2)]))
    f = schwartz._keyed(q, mu, draw(st.integers(-1, 0)), keys)
    pi = draw(st.sampled_from(["u", "u + u^2", "%d*u + u^2 + u^3" % (q - 1)]))
    return f, AdditiveCharacter(q, draw(st.integers(-1, 2))), parse_k(q, pi)


class TestKeyPathReference:
    """The term maps against the earlier key path of tests/staroracle.py,
    which expands every twist into plain keys as soon as it appears."""

    @given(keyed_functions())
    @settings(max_examples=80, deadline=None)
    def test_maps_give_the_normal_forms_of_the_key_path(self, case):
        f, psi, pi = case
        star = f.star(psi, pi)
        ref = staroracle.star(f, psi, pi)
        for got, want in [
                (f.fourier(psi), staroracle.fourier(f, psi)),
                (f.w_operator(pi), staroracle.w_operator(f, pi)),
                (f.nabla_compose(pi), staroracle.nabla_compose(f, pi)),
                (star, ref)]:
            assert got.equals(want)
        assert star.star(psi, pi).equals(staroracle.star(ref, psi, pi))
        if f._has_twist():
            return
        # on a normal form, as the reports star, the coefficients sit at
        # the orders of the key path, so values read off a star print as
        # they did (an input that stores terms cancelling exactly is not
        # compared: the maps drop such a sum, whose order the key path
        # still takes)
        g = f.normalize()
        for got, want in [
                (g.fourier(psi), staroracle.fourier(g, psi)),
                (g.w_operator(pi), staroracle.w_operator(g, pi)),
                (g.nabla_compose(pi), staroracle.nabla_compose(g, pi)),
                (g.star(psi, pi), staroracle.star(g, psi, pi))]:
            assert str(got.normalize()) == str(want.normalize())

    @given(keyed_functions())
    @settings(max_examples=80, deadline=None)
    def test_nabla_after_w_is_the_identity(self, case):
        """nabla(pi^-k x) = x for w(x) in {2k - 1, 2k}, so composing with
        nabla undoes W; both run through one shell map."""
        f, _, pi = case
        assert f.w_operator(pi).nabla_compose(pi).equals(f)

    @given(keyed_functions())
    @settings(max_examples=80, deadline=None)
    def test_w_after_nabla_is_one_shell_map(self, case):
        """W reads nabla g at pi^-ceil(s/2) x, of valuation floor(s/2),
        so the pair is x -> g(pi^-(s mod 2) x): one shell map."""
        f, _, pi = case
        assert f.nabla_compose(pi).w_operator(pi).equals(
            f._w_after_nabla(pi))

    @given(keyed_functions())
    @settings(max_examples=80, deadline=None)
    def test_double_star_is_two_stars(self, case):
        """The five maps of a double star against two stars, and against
        two stars of the key path; on a normal form, as the reports
        double-star, its normal form prints as that of two stars."""
        f, psi, pi = case
        got = f.double_star(psi, pi)
        assert got.equals(f.star(psi, pi).star(psi, pi))
        assert got.equals(staroracle.star(staroracle.star(f, psi, pi),
                                          psi, pi))
        if f._has_twist():
            return
        g = f.normalize()
        assert str(g.double_star(psi, pi).normalize()) == \
            str(g.star(psi, pi).star(psi, pi).normalize())

    @given(keyed_functions())
    @settings(max_examples=80, deadline=None)
    def test_twisted_terms_as_their_expansion(self, case):
        """Translation, dilation (by pi and by a monomial) and the Haar
        integral read twisted terms as the plain keys of their normal
        form; every twist integrates to zero."""
        f, _, pi = case
        g, q = f.normalize(), f.q
        tau = pi.shift(-3) + KElement.one(q)
        assert f.haar_integral() == g.haar_integral()
        assert f.translate(tau).equals(g.translate(tau))
        for alpha in (pi, KElement(q, {-1: q - 1})):
            assert f.dilate(alpha).equals(g.dilate(alpha))


class TestStar:
    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("d", [-1, 0, 1, 2])
    @pytest.mark.parametrize("r", [-2, -1, 0, 1, 2])
    def test_ideal_rule(self, q, d, r):
        psi = AdditiveCharacter(q, d)
        pi = KElement.uniformizer(q)
        got = SBFunction.char_ideal(q, r).star(psi, pi)
        expect = SBFunction.char_ideal(q, -(-d // 2) - r,
                                       Fraction(q) ** (-2 * r))
        assert got.equals(expect)

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_double_star_worked_example(self, q):
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        h = SBFunction.char(KCoset(q, KElement.one(q), 2))
        hss = h.star(psi, pi).star(psi, pi)
        minus1 = KElement.constant(q, q - 1)
        expect = (SBFunction.char_units(q, ).scale(Fraction(1, q * q))
                  + SBFunction.char(KCoset(q, minus1, 1),
                                    -Fraction(1, q) * (1 - Fraction(1, q)))
                  + SBFunction.char(KCoset(q, minus1, 2)))
        assert hss.equals(expect)

    def test_one_normal_form_per_star(self, monkeypatch):
        """W, fourier and nabla map terms to terms, so a star builds no
        normal form; the first normalize of a result builds one, which
        every later call returns."""
        calls, normal_form = [], schwartz._normal_form

        def counted(*args):
            calls.append(args)
            return normal_form(*args)
        monkeypatch.setattr(schwartz, "_normal_form", counted)
        q = 3
        psi = AdditiveCharacter(q, 1)
        pi = KElement.uniformizer(q)
        f = (SBFunction.char(KCoset(q, KElement.one(q), 2))
             + SBFunction.char_ideal(q, -1, 2))
        g = f.star(psi, pi)
        gg = g.star(psi, pi)
        assert not calls
        h = gg.normalize()
        assert len(calls) == 1
        assert gg.normalize() is h and len(calls) == 1
        g.normalize()
        assert len(calls) == 2

    @pytest.mark.parametrize("pi", ["1", "u^2", "0", "int 1"])
    def test_non_uniformizer_rejected(self, pi):
        q = 3
        psi = AdditiveCharacter(q, 0)
        pi = 1 if pi == "int 1" else parse_k(q, pi)
        for f in (SBFunction.char_ideal(q, 0),
                  SBFunction.char(KCoset(q, KElement.one(q), 2))):
            with pytest.raises(ValueError, match="uniformizer"):
                f.star(psi, pi)

    def test_scaling_law(self):
        q = 3
        psi = AdditiveCharacter(q, 1)
        pi = KElement.uniformizer(q)
        rng = random.Random(17)
        for _ in range(6):
            g = SBFunction.char(
                KCoset(q, KElement(q, {e: rng.randrange(q)
                                       for e in range(-1, 2)}),
                       rng.randrange(-1, 3)), rng.randrange(1, 4))
            alpha = KElement(q, {rng.randrange(-1, 2): rng.randrange(1, q)})
            lhs = g.dilate(alpha).star(psi, pi)
            rhs = g.star(psi, pi).dilate(alpha.invert(6)).scale(
                Fraction(q) ** (2 * alpha.valuation()))
            assert lhs.equals(rhs)


class TestGeometry:
    def test_dilate(self):
        q = 3
        u = KElement.uniformizer(q)
        assert SBFunction.char_ideal(q, 0).dilate(u).equals(
            SBFunction.char_ideal(q, -1))

    def test_translate(self):
        q = 3
        one = KElement.one(q)
        f = SBFunction.char(KCoset(q, one, 1))
        assert f.translate(one).equals(SBFunction.char_ideal(q, 1))

    def test_haar_scaling(self):
        q = 3
        rng = random.Random(23)
        for _ in range(15):
            g = SBFunction.char(
                KCoset(q, KElement(q, {e: rng.randrange(q)
                                       for e in range(-1, 2)}),
                       rng.randrange(-1, 3)), rng.randrange(1, 5))
            alpha = KElement(q, {e: rng.randrange(q) for e in range(-1, 2)})
            if alpha.is_zero():
                continue
            w = alpha.valuation()
            assert g.dilate(alpha).haar_integral() == \
                CycRat.from_rational(Fraction(q) ** w) * g.haar_integral()


def rand_digits(q, rng, lo, hi):
    return KElement(q, {e: rng.randrange(q) for e in range(lo, hi)})


def rand_keyed(q, rng, lo):
    """1-4 cosets with digits from u^lo, levels lo + 1..lo + 3, the first
    of valuation lo, so the base is lo."""
    terms = []
    for i in range(rng.randint(1, 4)):
        lev = rng.randint(lo + 1, lo + 3)
        rep = rand_digits(q, rng, lo + 1, lev) + \
            KElement(q, {lo: rng.randrange(1 if i == 0 else 0, q)})
        terms.append((KCoset(q, rep, lev),
                      rng.choice([1, -1, 2, Fraction(1, 3)])))
    return SBFunction(q, terms)


def assert_pointwise(rng, window, got, want, fns):
    """got(x) == want(x) on the window (on 150 of its points when it is
    larger than 300) and at the representative of every coset of fns."""
    pts = rng.sample(window, 150) if len(window) > 300 else list(window)
    for f in fns:
        pts += [a.rep for a, _ in f.terms]
    for x in pts:
        assert got.evaluate(x) == want(x)


class TestKeyMaps:
    """Sums, scaling, translation and dilation work on digit keys without
    a normal form; each is checked against `evaluate` on the atom view."""

    UNITS = {3: ["1 + u", "2 + u + 2*u^2", "1 + 2*u^3"],
             5: ["1 + u", "2 + 3*u + u^2", "4 + 2*u^2"]}

    def test_linear_maps_pointwise(self):
        # takes no arguments: tests/test_mutants.py runs it as a named check
        for q in (3, 5):
            rng = random.Random(90 + q)
            window = window_points(q, -3, 2)
            for _ in range(5):
                f = rand_keyed(q, rng, -1)
                e = rand_keyed(q, rng, -1)
                g = rand_keyed(q, rng, 1)
                assert f._base < g._base
                s = f + g
                assert_pointwise(rng, window, s,
                                 lambda x: f.evaluate(x) + g.evaluate(x),
                                 [s, f, g])
                assert s.haar_integral() == \
                    f.haar_integral() + g.haar_integral()
                c = CycRat.root_of_unity(q) + 2
                assert_pointwise(rng, window, e.scale(c),
                                 lambda x: c * e.evaluate(x), [e])
                # tau has digits below the base of every function here
                tau = rand_digits(q, rng, -3, 2) + KElement(q, {-3: 1})
                for h in (e, g):
                    got = h.translate(tau)
                    assert_pointwise(rng, window, got,
                                     lambda x: h.evaluate(x + tau), [got])
                for text in self.UNITS[q]:
                    alpha = parse_k(q, text).shift(rng.randint(-1, 1))
                    got = f.dilate(alpha)
                    assert_pointwise(rng, window, got,
                                     lambda x: f.evaluate(alpha * x), [got])
                mono = KElement(q, {rng.randint(-1, 1): rng.randrange(2, q)})
                got = e.dilate(mono)
                assert_pointwise(rng, window, got,
                                 lambda x: e.evaluate(mono * x), [got])


class TestLiftFinite:
    def test_point_zero(self):
        q = 3
        f = lift_finite({0: 1}, 0, q)
        assert f.equals(SBFunction.char_ideal(q, 1))

    def test_constant(self):
        q = 3
        f = lift_finite({c: 1 for c in range(q)}, 2, q)
        assert f.equals(SBFunction.char_ideal(q, 2))

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_star_is_scaled_fourier_plus_tail(self, r):
        # for a lift of h at level r and a conductor-zero character,
        # star equals q^(-r-1) times the Fourier transform plus a
        # radial correction q^(-2r-1) * (sum of h over nonzero
        # residues) * Char(pi^-r O)
        q = 3
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        rng = random.Random(5)
        for _ in range(8):
            h = {c: rng.randrange(-2, 3) for c in range(q)}
            f = lift_finite(h, r, q)
            lhs = f.star(psi, pi)
            tail = sum(v for c, v in h.items() if c % q != 0)
            rhs = (f.fourier(psi).scale(Fraction(q) ** (-(r + 1)))
                   + SBFunction.char_ideal(
                       q, -r, Fraction(q) ** (-2 * r - 1) * tail))
            assert lhs.equals(rhs)

    @pytest.mark.parametrize("r", [-1, 0, 1])
    def test_star_is_scaled_fourier_on_balanced_lifts(self, r):
        # with no correction term when h sums to zero over the
        # nonzero residues
        q = 3
        psi = AdditiveCharacter(q, 0)
        pi = KElement.uniformizer(q)
        rng = random.Random(7)
        for _ in range(8):
            h = {c: rng.randrange(-2, 3) for c in range(1, q)}
            h[q - 1] -= sum(h.values())
            h[0] = rng.randrange(-2, 3)
            f = lift_finite(h, r, q)
            lhs = f.star(psi, pi)
            rhs = f.fourier(psi).scale(Fraction(q) ** (-(r + 1)))
            assert lhs.equals(rhs)


class TestParse:
    def test_round_trip(self):
        q = 3
        f = parse_sb(q, "1*[1 + u^2*O] - 2*[u^-1 + u*O]")
        assert f.evaluate(KElement.one(q)) == 1
        assert f.evaluate(parse_k(q, "u^-1")) == -2
        assert f.evaluate(KElement.uniformizer(q, 5)).is_zero()

    def test_plain_ideal(self):
        f = parse_sb(2, "[O]")
        assert f.equals(SBFunction.char_ideal(2, 0))
        g = parse_sb(2, "[u^2*O]")
        assert g.equals(SBFunction.char_ideal(2, 2))


class TestPrinting:
    def test_a_sum_coefficient_is_parenthesized(self):
        # zeta_3 at order 6 is z6 - 1, and 1 + z4 is a sum of two terms
        z3 = CycRat.root_of_unity(3).embed(6)
        assert str(SBFunction.char_ideal(2, 0, z3)) == "(-1 + z6)*[pi^0*O]"
        assert (str(SBFunction.char_ideal(3, 1, 1 + CycRat.root_of_unity(4)))
                == "(1 + z4)*[pi^1*O]")
        assert str(SBFunction.char_ideal(3, 1, -2)) == "-2*[pi^1*O]"
