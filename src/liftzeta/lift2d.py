"""The two-dimensional field of Laurent series over the local field.

Elements are finite Laurent polynomials in t with coefficients in K.  A
function on this field is described by lifts: a Schwartz function g on K,
a base point a, and a level gamma give the function supported on
a + t^gamma O which reads the t^gamma coefficient of x - a through g.
Together with character twists psi_b these span the space that the
integral, the Fourier transform, the measure, and the one-variable zeta
integrals act on.  All values are exact elements of the T/X coefficient
ring.  The literal reader for F elements ("u^-1 + t*(1+u)") lives with
the tests, in tests/builders.py.
"""

from fractions import Fraction
import math

from .exactnum import CycRat, ZetaValue, cyc_one
from .localfield import (
    AdditiveCharacter, KCoset, KElement, KSingleton, gauss_sum,
)
from .setring import DddSet, KCosetFamily


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

    def invert(self, t_terms):
        """Inverse as a Laurent series, truncated to t_terms coefficients
        starting at the valuation.  Only a K monomial has a finite
        inverse in K, so any other leading coefficient raises ValueError."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in F")
        n = self.nu()
        lead = self.eta()
        if len(lead.digits) != 1:
            raise ValueError("leading coefficient %s is not a K monomial"
                             % lead)
        (e, d), = lead.digits.items()
        lead_inv = KElement(self.q, {-e: pow(d, -1, self.q)})
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

    def __eq__(self, other):
        if not isinstance(other, FElement):
            return NotImplemented
        return self.q == other.q and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.q, tuple(sorted(
            (e, tuple(sorted(k.digits.items())))
            for e, k in self.coeffs.items()))))

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


class GoodCharacter:
    """The additive character reading the t^0 coefficient through the
    K-level character; its conductor in t is 1."""

    __slots__ = ("q", "d", "base")

    def __init__(self, q, d):
        self.q = q
        self.d = d
        self.base = AdditiveCharacter(q, d)

    def __call__(self, x):
        return self.base(x.coeff(0))


def _zcoeff(q, c):
    if isinstance(c, ZetaValue):
        if c.q != q:
            raise ValueError("mixed residue sizes")
        return c
    return ZetaValue.constant(q, c)


class LiftedFn:
    """Finite sum of coeff * g^(a,gamma) * psi_b terms.

    g is a Schwartz function on K, a and b are F elements, and
    coefficients live in the T/X value ring.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q, terms=()):
        cleaned = []
        for g, a, gamma, b, coeff in terms:
            coeff = _zcoeff(q, coeff)
            if b is not None and b.is_zero():
                b = None
            if not coeff.is_zero() and g.has_terms():
                cleaned.append((g, a, gamma, b, coeff))
        self.q = q
        self.terms = tuple(cleaned)

    @classmethod
    def lift(cls, g, a=None, gamma=0, b=None, coeff=1):
        a = FElement.zero(g.q) if a is None else a
        return cls(g.q, [(g, a, gamma, b, coeff)])

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

    # -- integral -------------------------------------------------------------
    def integrate(self, psi):
        """The exact value of the F integral as a Laurent X polynomial:
        each term adds coeff times a K integral at X^gamma."""
        parts = []
        for g, a, gamma, b, coeff in self.terms:
            if b is None or gamma > -b.nu():
                const = cyc_one() if b is None else psi(b * a)
                val = g.haar_integral()
            elif gamma == -b.nu():
                # the twist restricts to the residue character of eta(b)
                const = psi(b * a)
                val = g.twisted(b.eta(), psi.base).haar_integral()
            else:
                continue
            parts.append((coeff, const * val, gamma))
        return ZetaValue.sum_scaled(self.q, parts)

    # -- geometry -------------------------------------------------------------
    def scale_var(self, alpha):
        """x -> f(alpha x).  A term's new base a/alpha matters modulo
        t^(gamma - nu(alpha) + 1), so alpha^-1 is taken to
        gamma - nu(a) + 1 t-terms."""
        if alpha.is_zero():
            raise ValueError("scaling by zero")
        na = alpha.nu()
        ea = alpha.eta()
        needed = [gamma - a.nu() + 1 for _, a, gamma, _, _ in self.terms
                  if not a.is_zero()]
        inv = alpha.invert(max(needed)) if needed else None
        out = []
        for g, a, gamma, b, coeff in self.terms:
            new_a = a if a.is_zero() else inv * a
            new_b = None if b is None else alpha * b
            out.append((g.dilate(ea), new_a, gamma - na, new_b, coeff))
        return LiftedFn(self.q, out)

    def translate_var(self, tau, psi):
        """x -> f(x - tau); a twisted term gains the factor psi(-b tau)."""
        out = []
        for g, a, gamma, b, coeff in self.terms:
            c = coeff
            if b is not None:
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


# -- distinguished sets and their measure -------------------------------------

class DistinguishedSetF:
    """The set a + t^gamma rho^(-1)(S) for a residue set S.  The set is
    null when S is a KSingleton (null_ideal builds one and is_null reads
    it): S = {0} makes the set the full ideal a + t^(gamma+1) O, which
    has measure zero."""

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
        return cls(q, a, gamma - 1, KSingleton(q, KElement.zero(q)))

    def is_null(self):
        return isinstance(self.S, KSingleton)

    def contains(self, x):
        d = x - self.a
        if not (d.is_zero() or d.nu() >= self.gamma):
            return False
        return self.S.contains(d.coeff(self.gamma))


class DistinguishedFamily:
    """Distinguished subsets of F form an atom family: two meeting sets
    are nested unless they share a level, in which case the residue sets
    combine.

    Residue sets are compared by integer coset counts, not by probing:
    |S| is the number of cosets of level L inside S, with L the deepest
    level among the atoms of both sets, which is the Haar measure of S
    divided by mu q^-L.  S1 and S2 are equal when |S1 & S2| = |S1| =
    |S2|, else disjoint when |S1 & S2| = 0, and S1 lies in S2 when
    |S1 & S2| = |S1|.  This is exact because every component of a DddSet
    is a coset minus disjoint proper subcosets, so it is either empty or
    contains a whole coset, and because mu > 0.  The meet S1 & S2 is
    built only for an overlap, the one kind that returns it."""

    def __init__(self, q, mu=Fraction(1)):
        self.q = q
        self.kfam = KCosetFamily(q, mu)

    # residue-set helpers ------------------------------------------------------
    def _s_translate(self, S, c):
        if isinstance(S, KSingleton):
            return KSingleton(self.q, S.point + c)
        moved = []
        for outer, inners in S.components:
            moved.append((KCoset(self.q, outer.rep + c, outer.level),
                          tuple(KCoset(self.q, i.rep + c, i.level)
                                for i in inners)))
        return DddSet(S.family, moved)

    def _s_relation(self, S1, S2):
        """(kind, meet) of two residue sets in the kinds of relation,
        decided by coset counts as the class docstring explains; equal
        comes first, so an empty residue set is equal to itself."""
        if isinstance(S1, KSingleton):
            if not S2.contains(S1.point):
                return "disjoint", None
            return ("equal" if isinstance(S2, KSingleton) else "in"), None
        if isinstance(S2, KSingleton):
            return ("contains" if S1.contains(S2.point) else "disjoint"), None
        m, m1, m2 = _coset_counts(self.q, S1, S2)
        if m == m1 == m2:
            return "equal", None
        if m == 0:
            return "disjoint", None
        if m == m1:
            return "in", None
        if m == m2:
            return "contains", None
        return "overlap", S1.intersection(S2)

    # family interface -----------------------------------------------------------
    def relation(self, A, B):
        """Sets at different levels are disjoint or the one at the lower
        level contains the other; at one level the residue sets decide,
        B's moved into A's coordinates."""
        lo, hi = (A, B) if A.gamma <= B.gamma else (B, A)
        g = lo.gamma
        if _below(lo.a, g) != _below(hi.a, g):
            return "disjoint", None
        c = hi.a.coeff(g) - lo.a.coeff(g)
        if g < hi.gamma:
            if not lo.S.contains(c):
                return "disjoint", None
            return ("contains" if lo is A else "in"), None
        kind, meet = self._s_relation(A.S, self._s_translate(B.S, c))
        if meet is not None:
            meet = DistinguishedSetF(self.q, A.a, A.gamma, meet)
        return kind, meet

    def join(self, A, B):
        """Two overlapping sets share a level and join their residue
        sets."""
        c = (B.a - A.a).coeff(A.gamma)
        return DistinguishedSetF(self.q, A.a, A.gamma,
                                 A.S.union(self._s_translate(B.S, c)))


def _below(x, n):
    """The t-coefficients of the F element x below t^n, by exponent."""
    return {e: k for e, k in x.coeffs.items() if e < n}


def _coset_counts(q, S1, S2):
    """|S1 & S2|, |S1| and |S2| for two residue sets, counted in cosets
    of the deepest level L among their atoms.

    Cosets are nested or disjoint, so |a & b| is the count of the finer
    one or 0.  A component is an outer o minus disjoint inners inside o,
    so two components (o1, I1) and (o2, I2) meet in
    |o1 & o2| - sum |a & o2| - sum |b & o1| + sum |a & b|
    over a in I1 and b in I2, and components of one set are disjoint."""
    L = max(_levels((S1, S2)), default=0)

    def n(a, b):
        return q ** (L - max(a.level, b.level)) if a.meets(b) else 0

    m = 0
    for o1, I1 in S1.components:
        for o2, I2 in S2.components:
            m += (n(o1, o2) - sum(n(a, o2) for a in I1)
                  - sum(n(b, o1) for b in I2)
                  + sum(n(a, b) for a in I1 for b in I2))
    return m, _coset_size(q, S1, L), _coset_size(q, S2, L)


def _levels(sets):
    """The levels of the atoms of the residue sets in sets."""
    return (a.level for S in sets for o, inners in S.components
            for a in (o, *inners))


def _coset_size(q, S, L):
    """|S|, the number of cosets of level L in the residue set S, for L
    at least every level in S: its Haar measure over mu q^-L."""
    return sum(q ** (L - o.level) - sum(q ** (L - a.level) for a in I)
               for o, I in S.components)


def measure_F(W, family):
    """The finitely additive measure of a set from the ring generated by
    distinguished sets; values are Laurent polynomials in X.  Every
    residue set is counted in cosets of the deepest level L among the
    residue atoms of W, as _coset_counts counts, so the value at X^gamma
    is mu q^-L times the signed count N_gamma of W's atoms at level
    gamma; a null atom counts 0."""
    q = family.q
    signed = [(A, s) for outer, inners in W.components
              for A, s in ((outer, 1), *((a, -1) for a in inners))
              if not A.is_null()]
    L = max(_levels(A.S for A, _ in signed), default=0)
    counts = {}
    for A, s in signed:
        counts[A.gamma] = counts.get(A.gamma, 0) + s * _coset_size(q, A.S, L)
    mu = family.kfam.mu  # mu q^-L as num/den
    num, den = mu.numerator * q ** max(-L, 0), mu.denominator * q ** max(L, 0)
    return ZetaValue(q, {g: ((CycRat.from_rational(Fraction(num * n, den)),),
                             (cyc_one(),)) for g, n in counts.items() if n})


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
            g1 = g1.twisted(b.eta(), psi.base)
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
