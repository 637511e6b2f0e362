"""The two-dimensional field of Laurent series over the local field.

Elements are finite Laurent polynomials in t with coefficients in K.  A
function on this field is described by lifts: a Schwartz function g on K,
a base point a, and a level gamma give the function supported on
a + t^gamma O which reads the t^gamma coefficient of x - a through g.
Together with character twists psi_b these span the space that the
integral, the Fourier transform, the measure, and the one-variable zeta
integrals act on.  All values are exact elements of the T/X coefficient
ring.
"""

from fractions import Fraction
import math
import re

from .exactnum import CycRat, ZetaValue, cyc_one
from .localfield import (
    AdditiveCharacter, KCoset, KElement, KSingleton, gauss_sum,
)
from .schwartz import SBFunction, cyc_abs
from .setring import AtomFamily, DddSet, KCosetFamily


class FElement:
    """A finite Laurent polynomial in t over K."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else coeffs
        d = {}
        for e, k in items:
            if not isinstance(k, KElement):
                raise TypeError("coefficients must be K elements")
            if not k.is_zero():
                d[e] = k
        self.q = q
        self.coeffs = d

    @classmethod
    def zero(cls, q):
        return cls(q, {})

    @classmethod
    def from_k(cls, k):
        return cls(k.q, {0: k})

    @classmethod
    def t_power(cls, q, n, k=None):
        return cls(q, {n: KElement.one(q) if k is None else k})

    def coeff(self, i):
        return self.coeffs.get(i, KElement.zero(self.q))

    def is_zero(self):
        return not self.coeffs

    def nu(self):
        """The t-adic valuation; infinity for zero."""
        return min(self.coeffs) if self.coeffs else math.inf

    def eta(self):
        """Leading K coefficient."""
        if self.is_zero():
            raise ZeroDivisionError("zero has no leading coefficient")
        return self.coeffs[self.nu()]

    def rho(self):
        """Residue map on the ring of integers: the t^0 coefficient."""
        if self.coeffs and self.nu() < 0:
            raise ValueError("residue defined on integral elements only")
        return self.coeff(0)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, k in other.coeffs.items():
            out[e] = out.get(e, KElement.zero(self.q)) + k
        return FElement(self.q, out)

    def __neg__(self):
        return FElement(self.q, {e: -k for e, k in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def _coerce(self, other):
        if isinstance(other, FElement):
            if other.q != self.q:
                raise ValueError("mixed residue sizes")
            return other
        if isinstance(other, KElement):
            return FElement.from_k(other)
        raise TypeError("cannot combine with %r" % (other,))

    def __mul__(self, other):
        if isinstance(other, KElement):
            other = FElement.from_k(other)
        if isinstance(other, FElement):
            out = {}
            for e1, k1 in self.coeffs.items():
                for e2, k2 in other.coeffs.items():
                    e = e1 + e2
                    prod = k1 * k2
                    out[e] = out[e] + prod if e in out else prod
            return FElement(self.q, out)
        return NotImplemented

    __rmul__ = __mul__

    def t_shift(self, n):
        return FElement(self.q, {e + n: k for e, k in self.coeffs.items()})

    def truncate_t(self, n):
        """Drop coefficients at t-exponents >= n."""
        return FElement(self.q, {e: k for e, k in self.coeffs.items()
                                 if e < n})

    def invert(self, t_terms, u_precision=None):
        """Inverse as a Laurent series, truncated to t_terms coefficients
        starting at the valuation.

        When the leading coefficient is a K monomial its inverse is exact
        and the only truncation is in t; otherwise the K-level inversion
        is truncated at u_precision digits above its valuation.
        """
        if self.is_zero():
            raise ZeroDivisionError("division by zero in F")
        n = self.nu()
        lead = self.eta()
        if len(lead.digits) == 1:
            (e, d), = lead.digits.items()
            lead_inv = KElement(self.q, {-e: pow(d, -1, self.q)})
        else:
            prec = 16 if u_precision is None else u_precision
            lead_inv = lead.invert(prec + abs(lead.valuation()))
        unit = self.t_shift(-n)   # valuation 0, leading coefficient `lead`
        delta = FElement(self.q, {e: -(k * lead_inv)
                                  for e, k in unit.coeffs.items() if e > 0})
        # 1/unit = lead_inv * (1 + delta + delta^2 + ...)
        acc = FElement.from_k(KElement.one(self.q))
        power = acc
        for _ in range(1, t_terms):
            power = (power * delta).truncate_t(t_terms)
            if power.is_zero():
                break
            acc = acc + power
        inv_unit = FElement(self.q, {e: k * lead_inv
                                     for e, k in acc.truncate_t(
                                         t_terms).coeffs.items()})
        return inv_unit.t_shift(-n)

    def key(self):
        return tuple(sorted((e, tuple(sorted(k.digits.items())))
                            for e, k in self.coeffs.items()))

    def __eq__(self, other):
        if not isinstance(other, FElement):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, self.key()))

    def __str__(self):
        if self.is_zero():
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            k = self.coeffs[e]
            ks = str(k)
            if e == 0:
                bits.append(ks)
                continue
            t = "t" if e == 1 else "t^%d" % e
            if ks == "1":
                bits.append(t)
            elif len(k.digits) == 1 and "+" not in ks:
                bits.append("%s*%s" % (ks, t))
            else:
                bits.append("(%s)*%s" % (ks, t))
        return " + ".join(bits)

    @classmethod
    def parse(cls, q, text):
        """Literal syntax: "u^-1 + t*(1+u) + 2*t^3"."""
        text = text.strip()
        if text in ("", "0"):
            return cls.zero(q)
        out = {}
        for piece in re.split(r"\+(?![^(]*\))", text):
            piece = piece.strip()
            m = re.fullmatch(
                r"(?:\(([^)]*)\)\*?|([^t()]*?)\*?)?(t(?:\^(-?\d+))?)?",
                piece)
            if m is None or not piece:
                raise ValueError("bad term %r" % piece)
            kpart = m.group(1) if m.group(1) is not None else m.group(2)
            e = 0
            if m.group(3):
                e = int(m.group(4)) if m.group(4) else 1
            if kpart is None or kpart.strip() in ("", "1"):
                k = KElement.one(q)
            else:
                k = KElement.parse(q, kpart.strip())
            k = out.get(e, KElement.zero(q)) + k
            out[e] = k
        return cls(q, out)


class GoodCharacter:
    """The additive character reading the t^0 coefficient through the
    K-level character; its conductor in t is 1."""

    __slots__ = ("q", "d", "base")

    def __init__(self, q, d):
        self.q = q
        self.d = d
        self.base = AdditiveCharacter(q, d)

    conductor = 1

    def __call__(self, x):
        return self.base(x.coeff(0))

    def twist_conductor(self, a):
        """Conductor of x -> psi(a x)."""
        return self.conductor - a.nu()

    def twist_residue(self, a):
        """The K element c with the twist acting through psi_K(c .) on the
        residue level of its conductor."""
        return a.eta()


def _zcoeff(q, c):
    if isinstance(c, ZetaValue):
        if c.q != q:
            raise ValueError("mixed residue sizes")
        return c
    return ZetaValue.constant(q, c)


class LiftedFn:
    """Finite sum of coeff * g^(a,gamma) * psi_b terms.

    g is a plain Schwartz function on K, a and b are F elements, and
    coefficients live in the T/X value ring.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q, terms=()):
        cleaned = []
        for g, a, gamma, b, coeff in terms:
            if not g.is_plain():
                raise ValueError("lift data must be twist-free on K")
            coeff = _zcoeff(q, coeff)
            if b is not None and b.is_zero():
                b = None
            if not coeff.is_zero() and g.terms:
                cleaned.append((g, a, gamma, b, coeff))
        self.q = q
        self.terms = tuple(cleaned)

    @classmethod
    def lift(cls, g, a=None, gamma=0, b=None, coeff=1):
        a = FElement.zero(g.q) if a is None else a
        return cls(g.q, [(g, a, gamma, b, coeff)])

    @classmethod
    def zero(cls, q):
        return cls(q, ())

    def __add__(self, other):
        if not isinstance(other, LiftedFn) or other.q != self.q:
            return NotImplemented
        return LiftedFn(self.q, self.terms + other.terms)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _zcoeff(self.q, c)
        return LiftedFn(self.q, [(g, a, gamma, b, coeff * c)
                                 for g, a, gamma, b, coeff in self.terms])

    def is_untwisted(self):
        return all(b is None for _, _, _, b, _ in self.terms)

    def evaluate(self, x, psi=None):
        total = ZetaValue.zero(self.q)
        for g, a, gamma, b, coeff in self.terms:
            y = x - a
            if not (y.is_zero() or y.nu() >= gamma):
                continue
            v = g.evaluate(y.coeff(gamma))
            if v.is_zero():
                continue
            if b is not None:
                if psi is None:
                    raise ValueError("twisted term needs psi")
                v = v * psi(b * x)
            total = total + coeff * ZetaValue.constant(self.q, v)
        return total

    # -- canonical form -------------------------------------------------------
    def canonicalize(self):
        """Group terms by support coset, level and twist; constant
        coefficients are folded into the K-level functions."""
        grouped = {}
        for g, a, gamma, b, coeff in self.terms:
            if not coeff.is_constant():
                raise ValueError("canonical form needs scalar coefficients")
            base = a.truncate_t(gamma)
            shift = a.coeff(gamma)
            gc = g.translate(-shift) if not shift.is_zero() else g
            gc = gc.scale(coeff.constant_value())
            key = (gamma, base.key(), None if b is None else b.key())
            if key in grouped:
                prev_g, _, _, _ = grouped[key]
                grouped[key] = (prev_g + gc, base, gamma, b)
            else:
                grouped[key] = (gc, base, gamma, b)
        out = []
        for gc, base, gamma, b in grouped.values():
            gn = gc.normalize()
            if gn.terms:
                out.append((gn, base, gamma, b, 1))
        return LiftedFn(self.q, out)

    def is_zero_function(self):
        return not self.canonicalize().terms

    # -- integral -------------------------------------------------------------
    def integrate(self, psi):
        """The exact value of the F integral as a Laurent X polynomial."""
        total = ZetaValue.zero(self.q)
        for g, a, gamma, b, coeff in self.terms:
            xg = ZetaValue.monomial(self.q, 1, x_exp=gamma)
            if b is None or gamma > -b.nu():
                const = cyc_one() if b is None else psi(b * a)
                val = g.haar_integral()
            elif gamma == -b.nu():
                # the twist restricts to the residue character of eta(b)
                const = psi(b * a)
                val = g.twisted(b.eta()).haar_integral(psi.base)
            else:
                continue
            total = total + coeff * xg * ZetaValue.constant(
                self.q, const * val)
        return total

    # -- geometry -------------------------------------------------------------
    def scale_var(self, alpha, t_terms=None, u_precision=None):
        """x -> f(alpha x)."""
        if alpha.is_zero():
            raise ValueError("scaling by zero")
        na = alpha.nu()
        ea = alpha.eta()
        spans = [gamma - a.nu() for g, a, gamma, b, coeff in self.terms
                 if not a.is_zero()]
        span = max(spans + [8]) + 4
        inv = None
        out = []
        for g, a, gamma, b, coeff in self.terms:
            if not a.is_zero():
                if inv is None:
                    inv = alpha.invert(t_terms or span, u_precision)
                new_a = inv * a
            else:
                new_a = a
            new_b = None if b is None else alpha * b
            out.append((g.dilate(ea), new_a, gamma - na, new_b, coeff))
        return LiftedFn(self.q, out)

    def translate_var(self, tau, psi=None):
        """x -> f(x - tau)."""
        out = []
        for g, a, gamma, b, coeff in self.terms:
            c = coeff
            if b is not None:
                if psi is None:
                    raise ValueError("twisted term needs psi")
                c = c * ZetaValue.constant(self.q, psi(-(b * tau)))
            out.append((g, a + tau, gamma, b, c))
        return LiftedFn(self.q, out)

    # -- Fourier ---------------------------------------------------------------
    def fourier(self, psi):
        out = []
        for g, a, gamma, b, coeff in self.terms:
            ghat = g.fourier(psi.base)
            const = cyc_one() if b is None else psi(b * a)
            new_a = FElement.zero(self.q) if b is None else -b
            new_b = None if a.is_zero() else a
            c = coeff * ZetaValue.monomial(self.q, const, x_exp=gamma)
            out.append((ghat, new_a, -gamma, new_b, c))
        return LiftedFn(self.q, out)

    # -- absolute value ----------------------------------------------------------
    def abs_pointwise(self):
        """Pointwise |f|, again a lifted function."""
        if not self.is_untwisted():
            raise ValueError(
                "absolute value only defined for untwisted lifts")
        return _abs_rec(self.canonicalize())


def _support_ideal_level(g):
    """Largest m with the support of g inside pi^m O."""
    levels = []
    for atom, _, _ in g.normalize().terms:
        if isinstance(atom, KSingleton):
            if not atom.point.is_zero():
                levels.append(atom.point.valuation())
        else:
            v = atom.rep.valuation() if not atom.rep.is_zero() else atom.level
            levels.append(min(atom.level, v))
    return min(levels, default=0)


def _abs_rec(f):
    q = f.q
    terms = list(f.terms)
    if not terms:
        return LiftedFn.zero(q)
    if len(terms) == 1:
        g, a, gamma, _, coeff = terms[0]
        return LiftedFn(q, [(g.abs_pointwise(), a, gamma, None, coeff)])
    # split off a term of maximal level; the rest is constant on its
    # support coset, equal to its value at the base point
    idx = max(range(len(terms)), key=lambda i: terms[i][2])
    g, a, gamma, _, coeff = terms[idx]
    rest = LiftedFn(q, [t for i, t in enumerate(terms) if i != idx])
    c = rest.evaluate(a).constant_value()
    m = _support_ideal_level(g)
    backdrop = SBFunction.char_ideal(q, m, c, g.mu)
    phi = (g + backdrop).abs_pointwise() + SBFunction.char_ideal(
        q, m, -cyc_abs(c, q), g.mu)
    return _abs_rec(rest) + LiftedFn(q, [(phi.normalize(), a, gamma,
                                          None, coeff)])


# -- distinguished sets and their measure -------------------------------------

class _PointS:
    """A single K point in the role of a residue set; it carries no Haar
    measure and stands in for the intersection of all ideals."""

    __slots__ = ("point",)

    def __init__(self, point):
        self.point = point

    def contains(self, c):
        return c == self.point


class DistinguishedSetF:
    """The set a + t^gamma rho^(-1)(S) for a residue set S; with the null
    flag the residue set is the single point 0, so the set is the full
    ideal a + t^(gamma+1) O with measure zero."""

    __slots__ = ("q", "a", "gamma", "S")

    def __init__(self, q, a, gamma, S):
        self.q = q
        self.a = a
        self.gamma = gamma
        self.S = S

    @classmethod
    def null_ideal(cls, q, gamma, a=None):
        """The ideal a + t^gamma O as a level gamma-1 set with a measure
        zero residue part."""
        a = FElement.zero(q) if a is None else a
        return cls(q, a, gamma - 1, _PointS(KElement.zero(q)))

    def is_null(self):
        return isinstance(self.S, _PointS)

    def contains(self, x):
        d = x - self.a
        if not (d.is_zero() or d.nu() >= self.gamma):
            return False
        return self.S.contains(d.coeff(self.gamma))


class DistinguishedFamily(AtomFamily):
    """Distinguished subsets of F form an atom family: two meeting sets
    are nested unless they share a level, in which case the residue sets
    combine."""

    def __init__(self, q, mu=Fraction(1)):
        self.q = q
        self.kfam = KCosetFamily(q, mu)

    # residue-set helpers ------------------------------------------------------
    def _s_translate(self, S, c):
        if isinstance(S, _PointS):
            return _PointS(S.point + c)
        moved = []
        for outer, inners in S.components:
            moved.append((KCoset(self.q, outer.rep + c, outer.level),
                          tuple(KCoset(self.q, i.rep + c, i.level)
                                for i in inners)))
        return DddSet(S.family, moved)

    def _s_empty(self, S):
        if isinstance(S, _PointS):
            return False
        pts = self.kfam.probe_points(S.atoms())
        return not any(S.contains(p) for p in pts)

    def _s_nested(self, S1, S2):
        if isinstance(S1, _PointS):
            return S2.contains(S1.point)
        if isinstance(S2, _PointS):
            return self._s_empty(S1)
        return self._s_empty(S1.difference(S2))

    def _s_meet(self, S1, S2):
        """Intersection, or None when empty."""
        if isinstance(S1, _PointS):
            return S1 if S2.contains(S1.point) else None
        if isinstance(S2, _PointS):
            return S2 if S1.contains(S2.point) else None
        meet = S1.intersection(S2)
        return None if self._s_empty(meet) else meet

    def _s_join(self, S1, S2):
        if isinstance(S1, _PointS):
            return S2
        if isinstance(S2, _PointS):
            return S1
        return S1.union(S2)

    # family interface -----------------------------------------------------------
    def _rel(self, A, B):
        """(kind, payload): "disjoint", "a_in_b", "b_in_a", or
        ("overlap", meet-set in A coordinates)."""
        if A.gamma > B.gamma:
            kind, payload = self._rel(B, A)
            flip = {"a_in_b": "b_in_a", "b_in_a": "a_in_b"}
            return flip.get(kind, kind), payload
        d = B.a - A.a
        if not (d.is_zero() or d.nu() >= A.gamma):
            return "disjoint", None
        c = d.coeff(A.gamma)
        if A.gamma < B.gamma:
            return ("b_in_a", None) if A.S.contains(c) else ("disjoint",
                                                             None)
        sb = self._s_translate(B.S, c)
        meet = self._s_meet(A.S, sb)
        if meet is None:
            return "disjoint", None
        a_in = self._s_nested(A.S, sb)
        b_in = self._s_nested(sb, A.S)
        if a_in and b_in:
            return "equal", None
        if a_in:
            return "a_in_b", None
        if b_in:
            return "b_in_a", None
        return "overlap", (meet, sb)

    def nested(self, a, b):
        return self._rel(a, b)[0] in ("equal", "a_in_b")

    def disjoint(self, a, b):
        return self._rel(a, b)[0] == "disjoint"

    def intersection(self, a, b):
        kind, payload = self._rel(a, b)
        if kind == "disjoint":
            return None
        if kind in ("equal", "a_in_b"):
            return a
        if kind == "b_in_a":
            return b
        meet, _ = payload
        return DistinguishedSetF(self.q, a.a, a.gamma, meet)

    def union(self, a, b):
        kind, payload = self._rel(a, b)
        if kind == "disjoint":
            raise ValueError("union of disjoint sets is not distinguished")
        if kind in ("equal", "b_in_a"):
            return a
        if kind == "a_in_b":
            return b
        _, sb = payload
        return DistinguishedSetF(self.q, a.a, a.gamma,
                                 self._s_join(a.S, sb))

    def contains_point(self, a, x):
        return a.contains(x)

    def probe_points(self, atoms):
        if not atoms:
            return []
        levels = sorted({a.gamma for a in atoms})
        levels.append(levels[-1] + 2)
        pool = [KElement.zero(self.q), KElement.one(self.q),
                KElement.uniformizer(self.q, -1)]
        for a in atoms:
            if isinstance(a.S, _PointS):
                pool.append(a.S.point)
            else:
                pool.extend(self.kfam.probe_points(a.S.atoms()))
        pts = []
        for a in atoms:
            pts.append(a.a)
            for g in levels:
                for kappa in pool:
                    pts.append(a.a + FElement(self.q, {g: kappa}))
        return pts

    def measure_atom(self, a):
        if a.is_null():
            return ZetaValue.zero(self.q)
        return ZetaValue.monomial(self.q, a.S.measure(self.kfam.haar),
                                  x_exp=a.gamma)


def measure_F(W, family):
    """The finitely additive measure of a set from the ring generated by
    distinguished sets; values are Laurent polynomials in X."""
    value = W.measure(family.measure_atom)
    return ZetaValue.zero(family.q) if value == 0 else value


# -- multiplicative theory ------------------------------------------------------

def abs_F(alpha):
    """|alpha| as the monomial q^(-w(eta)) X^nu."""
    if alpha.is_zero():
        raise ValueError("zero has no absolute value")
    w = alpha.eta().valuation()
    return ZetaValue.monomial(alpha.q, CycRat.sqrt_q(alpha.q, -2 * w),
                              x_exp=alpha.nu())


def _pv_gauss(q, mu, c, omega, d):
    """Principal value of the integral over the nonzero K elements of
    psi_K(c x) omega(x) |x|^s against the multiplicative measure, for a
    nonzero K element c.  Shells far below vanish exactly; shells far
    above are a geometric tail."""
    r = omega.r
    wc = c.valuation()
    lo = d - max(r, 1) - 1 - wc
    hi = d - wc
    psi_k = AdditiveCharacter(q, d)
    shells = []
    for n in range(lo, hi):
        lev = max(r, d - wc - n, 1)
        shell = gauss_sum(omega, psi_k, c.shift(n), lev)
        shells.append((n, shell * omega.pi_value ** n
                       * CycRat.from_rational(mu * Fraction(q) ** (-lev))))
    total = ZetaValue.laurent(q, shells)
    if r == 0:
        total = total + ZetaValue.geometric(
            q, CycRat.from_rational(mu * Fraction(q - 1, q)),
            omega.pi_value, hi)
    return total


def _zeta_term(g, a, gamma, b, coeff, omega, psi, regularize):
    q = g.q
    na = a.nu()
    nb = math.inf if b is None else b.nu()
    if na < min(gamma, 0) or 0 < na < gamma or 0 < gamma <= na:
        return ZetaValue.zero(q)
    if na == 0 and na < gamma:
        # the support is a single unit coset where the character and the
        # absolute value are constant
        a0 = a.coeff(0)
        w0 = a0.valuation()
        factor = ZetaValue.monomial(
            q, omega(a0) * CycRat.sqrt_q(q, 2 * w0), t_exp=w0)
        whole = LiftedFn(q, [(g, a, gamma, b, coeff)]).integrate(psi)
        return factor * whole
    if gamma == 0 and na >= 0:
        if nb < 0:
            return ZetaValue.zero(q)
        g1 = g.translate(-a.coeff(0)) if not a.coeff(0).is_zero() else g
        if nb == 0:
            g1 = g1.twisted(b.eta()).normalize(psi.base)
        from .zeta1d import zeta as zeta_k
        return coeff * zeta_k(g1, omega)
    # remaining case: gamma < 0 <= nu(a) up to the earlier exclusions
    if not regularize:
        raise ValueError("gaussian-sum case: use the regularized variant")
    f0 = g.evaluate(-a.coeff(gamma))
    if f0.is_zero():
        return ZetaValue.zero(q)
    if nb < 0:
        return ZetaValue.zero(q)
    if nb > 0 or b is None:
        if omega.r == 0:
            raise ValueError("no principal value")
        return ZetaValue.zero(q)
    pv = _pv_gauss(q, g.mu, b.eta(), omega, psi.d)
    return coeff * ZetaValue.constant(q, f0) * pv


def zeta_F1(f, omega, psi):
    """One-variable zeta integral on F of a lifted function against a
    multiplicative character factoring through the residue map."""
    total = ZetaValue.zero(f.q)
    for g, a, gamma, b, coeff in f.terms:
        total = total + _zeta_term(g, a, gamma, b, coeff, omega, psi, False)
    return total


def zeta_F1_regularized(f, omega, psi):
    """Same as zeta_F1 but assigning the stabilized shell-sum value to
    the otherwise uncovered case; results there follow the principal
    value convention and should be labelled as regularized."""
    total = ZetaValue.zero(f.q)
    for g, a, gamma, b, coeff in f.terms:
        total = total + _zeta_term(g, a, gamma, b, coeff, omega, psi, True)
    return total


# -- products -------------------------------------------------------------------

class LiftedFn2:
    """Finite sums of lifted tensors on the product of two copies of F:
    terms (fa, fb, a1, a2, g1, g2, coeff) stand for coeff times the lift
    of fa at (a1, g1) in x times the lift of fb at (a2, g2) in y."""

    __slots__ = ("q", "terms")

    def __init__(self, q, terms=()):
        cleaned = []
        for fa, fb, a1, a2, g1, g2, coeff in terms:
            coeff = _zcoeff(q, coeff)
            if not coeff.is_zero():
                cleaned.append((fa, fb, a1, a2, g1, g2, coeff))
        self.q = q
        self.terms = tuple(cleaned)

    @classmethod
    def outer(cls, f1, f2):
        """The product f1(x) f2(y) of two untwisted lifted functions."""
        if not (f1.is_untwisted() and f2.is_untwisted()):
            raise ValueError("tensor products of untwisted lifts only")
        terms = []
        for ga, aa, gam_a, _, ca in f1.terms:
            for gb, ab, gam_b, _, cb in f2.terms:
                terms.append((ga, gb, aa, ab, gam_a, gam_b, ca * cb))
        return cls(f1.q, terms)

    def evaluate(self, x, y):
        total = ZetaValue.zero(self.q)
        for fa, fb, a1, a2, g1, g2, coeff in self.terms:
            dx, dy = x - a1, y - a2
            if not (dx.is_zero() or dx.nu() >= g1):
                continue
            if not (dy.is_zero() or dy.nu() >= g2):
                continue
            v = fa.evaluate(dx.coeff(g1)) * fb.evaluate(dy.coeff(g2))
            total = total + coeff * ZetaValue.constant(self.q, v)
        return total

    def translate(self, tau1, tau2):
        return LiftedFn2(self.q, [(fa, fb, a1 + tau1, a2 + tau2, g1, g2, c)
                                  for fa, fb, a1, a2, g1, g2, c
                                  in self.terms])

    def integrate(self):
        total = ZetaValue.zero(self.q)
        for fa, fb, _, _, g1, g2, coeff in self.terms:
            v = fa.haar_integral() * fb.haar_integral()
            total = total + coeff * ZetaValue.monomial(
                self.q, v, x_exp=g1 + g2)
        return total
