"""Schwartz functions on K: canonical forms, Haar integral, Fourier
transform, and the W / nabla / star operators.

An SBFunction is a finite sum of terms (atom, coeff), standing for
coeff * Char(atom), where the atom is a coset a + pi^n O or a single point
{c}.  A character twist psi(b x) is bound where it is applied, by
`twisted(b, psi)` and inside `fourier`, and expanded into plain terms on
the spot.  The canonical form has pairwise disjoint cosets and no full
family of q sibling cosets with equal coefficients; it is computed on digit
keys, once per function.  Point atoms ride along for the pointwise calculus
(evaluation, Haar integral, absolute value) but are rejected by the
transforms, which only make sense on locally constant functions.
"""

from fractions import Fraction
import math
import re

from .exactnum import CycRat, cyc_sums, cyc_zero
from .localfield import KCoset, KElement, KSingleton

TERM_CAP = 10 ** 5


def _isqrt_fraction(fr):
    """Exact square root of a nonnegative Fraction, or None."""
    n, d = fr.numerator, fr.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def cyc_abs(z, q):
    """|z| for a cyclotomic scalar, exact when z * conj(z) is a rational
    square times a power of q.  Raises otherwise."""
    n = z * z.conjugate()
    if not n.is_rational():
        raise ValueError("absolute value not exactly representable")
    fr = n.as_fraction()
    if fr == 0:
        return CycRat.from_rational(0)
    k = 0
    while fr.numerator % q == 0:
        fr /= q
        k += 1
    while fr.denominator % q == 0:
        fr *= q
        k -= 1
    root = _isqrt_fraction(fr)
    if root is None:
        raise ValueError("absolute value not exactly representable")
    return CycRat.sqrt_q(q, k) * CycRat.from_rational(root)


def _coerce_coeff(c):
    if isinstance(c, CycRat):
        return c
    return CycRat.from_rational(c)


def _normal_form(q, mu, terms, psi=None):
    """Canonical form of the sum of coeff * psi(b x) * Char(atom) over the
    (atom, b, coeff) in terms, b None for no twist: twist expansion into
    digit keys, then push-down and folding on the key trie.  A twist's
    zeta_q^t is a linear form in the tail digits; cyc_sums adds the terms
    per key as integers, each key's value at the lcm of coeff.m, or
    lcm(coeff.m, q) if twisted, over its terms."""
    singles = {}  # point -> coeff
    parts = []  # (coeff, root order, (key, t) pairs) per coset
    base = min((a.valuation() for a, _, _ in terms
                if not isinstance(a, KSingleton)), default=0)
    for atom, twist, coeff in terms:
        if isinstance(atom, KSingleton):
            v = coeff if twist is None else coeff * psi(twist * atom.point)
            key = atom.point
            singles[key] = singles[key] + v if key in singles else v
            continue
        keys = [tuple(map(atom.rep.digit, range(base, atom.level)))]
        if twist is None or twist.is_zero():
            parts.append((coeff, 1, [(keys[0], 0)]))
            continue
        # psi(b x) is constant on cosets of level d - w(b)
        lev = max(atom.level, psi.d - twist.valuation())
        if len(terms) * q ** (lev - atom.level) > TERM_CAP:
            raise ValueError("term cap exceeded")
        t0, weights = psi.twist_form(twist, atom.rep, atom.level, lev)
        ts = [t0]
        for w in weights:
            keys = [k + (x,) for k in keys for x in range(q)]
            ts = [(t + w * x) % q for t in ts for x in range(q)]
        parts.append((coeff, q, zip(keys, ts)))

    out = []
    if parts:
        keymap = _canonical(q, cyc_sums(parts))
        for key in sorted(keymap, key=lambda k: (len(k), k)):
            rep = KElement(q, {base + i: d for i, d in enumerate(key)})
            out.append((KCoset(q, rep, base + len(key)), keymap[key]))

    for pt in sorted(singles, key=lambda p: tuple(sorted(p.digits.items()))):
        if not singles[pt].is_zero():
            out.append((KSingleton(q, pt), singles[pt]))
    result = SBFunction(q, out, mu)
    result._canon = result
    return result


def _canonical(q, keymap):
    """Canonical digit-key map of the function sum c Char(key): every key
    with longer keys below it passes its coefficient down to its q
    children, then each full family of q equal siblings folds into its
    parent, deepest first, and zero coefficients drop out.  The trie is
    swept by prefix length, not recursively, so long keys do not hit the
    recursion limit."""
    inner = sorted({k[:i] for k in keymap for i in range(len(k))}, key=len)
    splits = 0
    for key in inner:
        c = keymap.pop(key, None)
        if c is None:
            continue
        splits += 1
        if splits > TERM_CAP:
            raise ValueError("term cap exceeded")
        for d in range(q):
            kid = key + (d,)
            keymap[kid] = keymap[kid] + c if kid in keymap else c
    mixed = set()  # inner keys whose subtree is not constant
    zero = cyc_zero()
    for key in reversed(inner):
        kids = [key + (d,) for d in range(q)]
        vals = [keymap.get(k, zero) for k in kids]
        if mixed.isdisjoint(kids) and all(v == vals[0] for v in vals[1:]):
            for k in kids:
                keymap.pop(k, None)
            keymap[key] = vals[0]
        else:
            mixed.add(key)
    return {k: v for k, v in keymap.items() if not v.is_zero()}


class SBFunction:
    """Finite combination of coset and point indicators on K."""

    __slots__ = ("q", "mu", "terms", "_canon")

    def __init__(self, q, terms=(), mu=Fraction(1)):
        self.q = q
        self.mu = Fraction(mu)
        cleaned = []
        for atom, coeff in terms:
            coeff = _coerce_coeff(coeff)
            if not coeff.is_zero():
                cleaned.append((atom, coeff))
        self.terms = tuple(cleaned)
        self._canon = None  # the normal form, once computed

    # -- constructors --------------------------------------------------------
    @classmethod
    def zero(cls, q, mu=Fraction(1)):
        return cls(q, (), mu)

    @classmethod
    def char(cls, coset, coeff=1, mu=Fraction(1)):
        return cls(coset.q, [(coset, coeff)], mu)

    @classmethod
    def char_ideal(cls, q, n, coeff=1, mu=Fraction(1)):
        return cls.char(KCoset.ideal(q, n), coeff, mu)

    @classmethod
    def char_point(cls, q, point, coeff=1, mu=Fraction(1)):
        return cls(q, [(KSingleton(q, point), coeff)], mu)

    @classmethod
    def char_units(cls, q, mu=Fraction(1)):
        """Indicator of O^x = O minus pi O."""
        return (cls.char_ideal(q, 0, 1, mu)
                + cls.char_ideal(q, 1, -1, mu))

    def twisted(self, b, psi):
        """The normal form of x -> psi(b x) g(x)."""
        return _normal_form(self.q, self.mu,
                            [(a, b, c) for a, c in self.terms], psi)

    # -- algebra ---------------------------------------------------------------
    def _check(self, other):
        if self.q != other.q or self.mu != other.mu:
            raise ValueError("mixed base field or measure normalization")

    def __add__(self, other):
        if not isinstance(other, SBFunction):
            return NotImplemented
        self._check(other)
        return SBFunction(self.q, self.terms + other.terms, self.mu)

    def __neg__(self):
        return SBFunction(self.q, [(a, -c) for a, c in self.terms], self.mu)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce_coeff(c)
        return SBFunction(self.q, [(a, c * co) for a, co in self.terms],
                          self.mu)

    def __mul__(self, c):
        if isinstance(c, SBFunction):
            return NotImplemented
        return self.scale(c)

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------------------
    def evaluate(self, x):
        total = cyc_zero()
        for atom, coeff in self.terms:
            if atom.contains(x):
                total = total + coeff
        return total

    # -- canonicalization ------------------------------------------------------------
    def normalize(self):
        """The canonical form, computed once and kept, so every later call
        returns the same object."""
        if self._canon is None:
            self._canon = _normal_form(
                self.q, self.mu, [(a, None, c) for a, c in self.terms])
        return self._canon

    def equals(self, other):
        return self.normalize().terms == other.normalize().terms

    def __eq__(self, other):
        if not isinstance(other, SBFunction):
            return NotImplemented
        return self.equals(other)

    # -- integral --------------------------------------------------------------------
    def haar_integral(self):
        total = cyc_zero()
        for atom, coeff in self.normalize().terms:
            if isinstance(atom, KSingleton):
                continue  # points have measure zero
            total = total + coeff * CycRat.from_rational(
                self.mu * Fraction(self.q) ** (-atom.level))
        return total

    # -- transforms ---------------------------------------------------------------------
    def _plain_cosets(self, op):
        g = self.normalize()
        for atom, _ in g.terms:
            if isinstance(atom, KSingleton):
                raise ValueError("%s undefined for point masses" % op)
        return g

    def fourier(self, psi):
        """g-hat(y) = integral of g(x) psi(xy) dx."""
        g = self._plain_cosets("fourier transform")
        out = []
        for atom, coeff in g.terms:
            scale = CycRat.from_rational(
                self.mu * Fraction(self.q) ** (-atom.level))
            ideal = KCoset.ideal(self.q, psi.d - atom.level)
            out.append((ideal, atom.rep, coeff * scale))
        return _normal_form(self.q, self.mu, out, psi)

    def w_operator(self, pi):
        g = self._plain_cosets("W operator")
        out = []
        for atom, coeff in g.terms:
            if atom.rep.is_zero():
                out.append((KCoset.ideal(self.q, 2 * atom.level), coeff))
            else:
                # pi^v rep mod pi^(level + v) needs pi^v mod pi^level
                v = atom.rep.valuation()
                even = atom.rep * pi.power_mod(v, atom.level)
                out.append((KCoset(self.q, even, atom.level + v), coeff))
                odd = even * pi
                out.append((KCoset(self.q, odd, atom.level + v + 1), coeff))
        return SBFunction(self.q, out, self.mu).normalize()

    def nabla_compose(self, pi):
        """x -> g(nabla x) with nabla x = pi^w(x) x."""
        g = self._plain_cosets("nabla composition")
        out = []
        for atom, coeff in g.terms:
            if atom.rep.is_zero():
                m = atom.level
                out.append((KCoset.ideal(self.q, -(-m // 2)), coeff))
            else:
                v = atom.rep.valuation()
                if v % 2:
                    continue
                # pi^-k rep mod pi^(level - k) needs pi^-k mod pi^(level - 3k)
                k = v // 2
                rep = atom.rep * pi.power_mod(-k, atom.level - 3 * k)
                out.append((KCoset(self.q, rep, atom.level - k), coeff))
        return SBFunction(self.q, out, self.mu).normalize()

    def star(self, psi, pi):
        """g* = (W g)-hat composed with nabla."""
        return self.w_operator(pi).fourier(psi).nabla_compose(pi)

    # -- geometry -----------------------------------------------------------------------
    def dilate(self, alpha):
        """x -> g(alpha x)."""
        if alpha.is_zero():
            raise ValueError("dilation by zero")
        wa = alpha.valuation()
        out = []
        for atom, coeff in self.terms:
            if isinstance(atom, KSingleton):
                if len(alpha.digits) != 1:
                    raise ValueError(
                        "point dilation needs a monomial scale factor")
                inv = KElement(self.q, {-wa: pow(alpha.digit(wa), -1, self.q)})
                out.append((KSingleton(self.q, inv * atom.point), coeff))
                continue
            lev = atom.level - wa
            if atom.rep.is_zero():
                rep = atom.rep
            else:
                prec = lev - atom.rep.valuation() + 1
                rep = alpha.invert(max(prec, 1)) * atom.rep
            out.append((KCoset(self.q, rep, lev), coeff))
        return SBFunction(self.q, out, self.mu)

    def translate(self, tau):
        """x -> g(x + tau)."""
        out = []
        for atom, coeff in self.terms:
            if isinstance(atom, KSingleton):
                out.append((KSingleton(self.q, atom.point - tau), coeff))
            else:
                out.append((KCoset(self.q, atom.rep - tau, atom.level), coeff))
        return SBFunction(self.q, out, self.mu)

    def abs_pointwise(self):
        """|g| as an SBFunction; coefficients must have exact absolute value."""
        g = self.normalize()
        out = []
        coset_terms = [(a, c) for a, c in g.terms if isinstance(a, KCoset)]
        for atom, c in coset_terms:
            out.append((atom, cyc_abs(c, self.q)))
        for atom, c in g.terms:
            if not isinstance(atom, KSingleton):
                continue
            backdrop = cyc_zero()
            for cs, cc in coset_terms:
                if cs.contains(atom.point):
                    backdrop = backdrop + cc
            correction = cyc_abs(backdrop + c, self.q) - cyc_abs(backdrop,
                                                                 self.q)
            out.append((atom, correction))
        return SBFunction(self.q, out, self.mu).normalize()

    # -- parsing / printing ---------------------------------------------------------------
    @classmethod
    def parse(cls, q, text, mu=Fraction(1)):
        """Literal syntax: "1*[1 + u^2*O] - 2*[u^-1 + u*O]"; "O" alone means
        the ring of integers, "u^k*O" the ideal pi^k O."""
        text = text.strip()
        if text in ("0", ""):
            return cls.zero(q, mu)
        terms = []
        pat = re.compile(r"([+-])?\s*([^+\-\[\]]*)\[([^\]]*)\]")
        spans = list(pat.finditer(text))
        covered = "".join(m.group(0) for m in spans)
        if covered.replace(" ", "") != text.replace(" ", ""):
            raise ValueError("unparsable term in %r" % text)
        for m in spans:
            sign, head, bracket = m.groups()
            neg = sign == "-"
            bracket = bracket.strip()
            head = head.rstrip("* ").strip()
            coeff = Fraction(head) if head else Fraction(1)
            if neg:
                coeff = -coeff
            parts = [s.strip() for s in bracket.split("+")]
            ideal_part = parts[-1]
            if not ideal_part.endswith("O"):
                raise ValueError("coset bracket must end with an ideal")
            ideal_part = ideal_part[:-1].rstrip("*").strip()
            if not ideal_part:
                level = 0
            elif ideal_part == "u":
                level = 1
            else:
                if not ideal_part.startswith("u^"):
                    raise ValueError("bad ideal %r" % ideal_part)
                level = int(ideal_part[2:])
            rep_text = " + ".join(parts[:-1]) if len(parts) > 1 else "0"
            rep = KElement.parse(q, rep_text)
            terms.append((KCoset(q, rep, level), coeff))
        return cls(q, terms, mu)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("%s*%s" % (c, a) for a, c in self.terms)

    __repr__ = __str__


def lift_finite(h, r, q, mu=Fraction(1)):
    """The function on K vanishing off pi^r O with value h(residue) there:
    sum over digits c of h(c) Char(c pi^r + pi^(r+1) O).

    For an additive character psi of conductor 0 its star transform is a
    scaled Fourier transform plus a radial term,
        f* = q^(-r-1) f^ + q^(-2r-1) mu S(h) Char(pi^-r O),
    where S(h) is the sum of h(c) over c != 0; so f* = q^(-r-1) f^
    exactly when S(h) = 0."""
    terms = []
    for c in range(q):
        coeff = h.get(c, 0) if isinstance(h, dict) else h(c)
        terms.append((KCoset(q, KElement(q, {r: c}), r + 1), coeff))
    return SBFunction(q, terms, mu).normalize()
