"""Schwartz functions on K: canonical forms, Haar integral, Fourier
transform, and the W / nabla / star operators.

An SBFunction is a finite sum of terms coeff * Char(atom), the atom a
coset a + pi^n O or a single point {c}, stored from construction on as
digit keys: a base b and pairs (key, coeff), the key (x_0, ..., x_(n-1))
standing for the coset sum x_i u^(b+i) + pi^(b+n) O, and point masses.
Keys may overlap; linear maps and the Haar integral take them as they
are.  The normal form has disjoint cosets, no full family of q siblings
of equal coefficient, and b the least valuation of their points, so
equal functions store equal keys; the transforms read and write it, and
`terms` builds atoms on first read.  A character twist psi(b x) is
expanded into plain keys where it is applied, by `twisted` and inside
`fourier`.  Points ride along for the pointwise calculus (evaluation,
Haar integral, absolute value) but are rejected by the transforms, which
only make sense on locally constant functions.
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


def _lead(key):
    """Index of the first nonzero digit of key, len(key) if there is none."""
    return next((i for i, x in enumerate(key) if x), len(key))


def _twist_pairs(q, d, base, key, b, width):
    """psi(b y) Char(key)(y) as pairs (key', t) standing for zeta_q^t
    Char(key'): the coset of key (at base) split until t, the digit d - 1
    of b y, is fixed on each part; b is nonzero, given by its digits
    (exponent -> digit).  width terms are expanded together, for the cap."""
    level = base + len(key)
    k = d - 1
    lev = max(level, d - min(b))
    if width * q ** (lev - level) > TERM_CAP:
        raise ValueError("term cap exceeded")
    t0 = sum(c * key[k - e - base] for e, c in b.items()
             if base <= k - e < level) % q
    pairs = [(key, t0)]
    for e in range(level, lev):
        w = b.get(k - e, 0)
        pairs = [(y + (x,), (t + w * x) % q)
                 for y, t in pairs for x in range(q)]
    return pairs


def _times_unit_powers(q, pi, keys):
    """(a, k) -> the digits of a U^k mod u^len(a), for pi = u U and digits
    a from u^0 no longer than the keys; each U^k is computed once."""
    if not isinstance(pi, KElement) or pi.valuation() != 1:
        raise ValueError("pi must be a uniformizer")
    if pi.q != q:
        raise ValueError("mixed residue sizes")
    unit, powers = pi.shift(-1), {}
    prec = max((len(k) for k, _ in keys), default=0)

    def times(a, k):
        if k not in powers:
            p = unit.power_mod(k, prec)
            powers[k] = tuple(map(p.digit, range(prec)))
        b = powers[k]
        return tuple(sum(a[j] * b[i - j] for j in range(i + 1)) % q
                     for i in range(len(a)))
    return times


def _normal_form(q, mu, base, parts, points=()):
    """The normal form of the sum of c zeta_n^t Char(key) over (c, n,
    pairs) in parts and (key, t) in pairs, keys at base (see cyc_sums and
    _canonical), plus the point masses (point, coeff)."""
    keymap = _canonical(q, cyc_sums(parts))
    cut = 0  # the leading digits that are zero in every key
    while keymap and all(cut < len(k) and not k[cut] for k in keymap):
        cut += 1
    keys = sorted(((k[cut:], c) for k, c in keymap.items()),
                  key=lambda kc: (len(kc[0]), kc[0]))
    singles = {}
    for pt, c in points:
        singles[pt] = singles[pt] + c if pt in singles else c
    order = sorted(singles, key=lambda p: tuple(sorted(p.digits.items())))
    f = _keyed(q, mu, base + cut if keys else 0, keys, [
        (p, singles[p]) for p in order if not singles[p].is_zero()])
    f._canon = f
    return f


def _keyed(q, mu, base, keys, points=()):
    """The SBFunction of nonzero (key, coeff) pairs at base, and points."""
    f = SBFunction(q, (), mu)
    f._base, f._keys, f._points = base, tuple(keys), tuple(points)
    return f


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
    """Finite combination of coset and point indicators on K: `_base`,
    the (key, coeff) pairs `_keys`, which may overlap, and `_points`."""

    __slots__ = ("q", "mu", "_terms", "_base", "_keys", "_points", "_canon")

    def __init__(self, q, terms=(), mu=Fraction(1)):
        self.q = q
        self.mu = Fraction(mu)
        terms = [(a, _coerce_coeff(c)) for a, c in terms]
        terms = [(a, c) for a, c in terms if not c.is_zero()]
        cosets = [(a, c) for a, c in terms if not isinstance(a, KSingleton)]
        self._base = base = min((a.valuation() for a, _ in cosets), default=0)
        self._keys = tuple((tuple(map(a.rep.digit, range(base, a.level))), c)
                           for a, c in cosets)
        self._points = tuple((a.point, c) for a, c in terms
                             if isinstance(a, KSingleton))
        self._terms = self._canon = None  # built on first use

    @property
    def terms(self):
        """The (atom, coeff) pairs, cosets then points, built once."""
        if self._terms is None:
            q, base = self.q, self._base
            self._terms = tuple(
                (KCoset(q, KElement(q, dict(enumerate(key, base))),
                        base + len(key)), c) for key, c in self._keys) + \
                tuple((KSingleton(q, p), c) for p, c in self._points)
        return self._terms

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
        g, q = self.normalize(), self.q
        if b.is_zero():
            return g
        parts = [(c, q, _twist_pairs(q, psi.d, g._base, k, b.digits,
                                     len(g._keys))) for k, c in g._keys]
        return _normal_form(q, self.mu, g._base, parts,
                            [(p, c * psi(b * p)) for p, c in g._points])

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, SBFunction):
            return NotImplemented
        if self.q != other.q or self.mu != other.mu:
            raise ValueError("mixed base field or measure normalization")
        base = min(self._base, other._base)
        keys = [((0,) * (f._base - base) + k, c)
                for f in (self, other) for k, c in f._keys]
        return _keyed(self.q, self.mu, base, keys,
                      self._points + other._points)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce_coeff(c)
        if c.is_zero():
            return SBFunction.zero(self.q, self.mu)
        return _keyed(self.q, self.mu, self._base,
                      [(k, c * co) for k, co in self._keys],
                      [(p, c * co) for p, co in self._points])

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
        """The normal form, computed once and kept, so every later call
        returns the same object."""
        if self._canon is None:
            self._canon = _normal_form(
                self.q, self.mu, self._base,
                [(c, 1, [(k, 0)]) for k, c in self._keys], self._points)
        return self._canon

    def equals(self, other):
        f, g = self.normalize(), other.normalize()
        return (f._base, f._keys, f._points) == (g._base, g._keys, g._points)

    def __eq__(self, other):
        if not isinstance(other, SBFunction):
            return NotImplemented
        return self.equals(other)

    # -- integral --------------------------------------------------------------------
    def haar_integral(self):
        """Sums c mu q^-(base + len(key)) over the keys, which may overlap."""
        total = cyc_zero()
        for key, coeff in self._keys:  # points have measure zero
            total = total + coeff * CycRat.from_rational(
                self.mu * Fraction(self.q) ** -(self._base + len(key)))
        return total

    # -- transforms ---------------------------------------------------------------------
    def _plain_keys(self, op):
        g = self.normalize()
        if g._points:
            raise ValueError("%s undefined for point masses" % op)
        return g._base, g._keys

    def fourier(self, psi):
        """g-hat(y) = integral of g(x) psi(xy) dx.  Char(a + pi^L O) goes to
        mu q^-L psi(a y) Char(pi^(d-L) O): the twist weights are the digits
        of a from u^(L-1) down to its valuation."""
        if psi.q != self.q:
            raise ValueError("mixed residue sizes")
        base, keys = self._plain_keys("fourier transform")
        q, d = self.q, psi.d
        out = d - base - max((len(k) for k, _ in keys), default=0)
        scale = {lev: CycRat.from_rational(self.mu * Fraction(q) ** -lev)
                 for lev in {base + len(k) for k, _ in keys}}
        parts = []
        for key, c in keys:
            lev = base + len(key)
            ideal = (0,) * (d - lev - out)
            rep = {e: x for e, x in enumerate(key, base) if x}
            parts.append((c * scale[lev], q, _twist_pairs(
                q, d, out, ideal, rep, len(keys))) if rep else
                (c * scale[lev], 1, [(ideal, 0)]))
        return _normal_form(q, self.mu, out, parts)

    def w_operator(self, pi):
        """x -> g(pi^-k x) for w(x) in {2k, 2k + 1}.  Char(a + pi^L O) with
        w(a) = v < L goes to the cosets of a pi^v mod pi^(L+v) and of
        a pi^(v+1) mod pi^(L+v+1); with pi = u U and a = u^v a', a pi^v
        is u^(2v) a' U^v."""
        base, keys = self._plain_keys("W operator")
        times = _times_unit_powers(self.q, pi, keys)
        parts = []
        for key, c in keys:
            j = _lead(key)
            if j == len(key):  # pi^L O goes to pi^2L O
                shells = [(0,) * (2 * j)]
            else:
                unit, v = key[j:], base + j
                even = (0,) * (2 * j) + times(unit, v)
                odd = (0,) * (2 * j + 1) + times(unit, v + 1)
                shells = [even, odd]
            parts.append((c, 1, [(k, 0) for k in shells]))
        return _normal_form(self.q, self.mu, 2 * base, parts)

    def nabla_compose(self, pi):
        """x -> g(nabla x) with nabla x = pi^w(x) x.  Char(a + pi^L O) with
        w(a) = 2k < L goes to the coset of a pi^-k mod pi^(L-k), u^k a' U^-k
        for a = u^2k a', and with w(a) odd to 0."""
        base, keys = self._plain_keys("nabla composition")
        out, times = base // 2, _times_unit_powers(self.q, pi, keys)
        parts = []
        for key, c in keys:
            j = _lead(key)
            if j == len(key):
                m = base + j
                parts.append((c, 1, [((0,) * (-(-m // 2) - out), 0)]))
            elif (base + j) % 2 == 0:
                k = (base + j) // 2
                rep = (0,) * (k - out) + times(key[j:], -k)
                parts.append((c, 1, [(rep, 0)]))
        return _normal_form(self.q, self.mu, out, parts)

    def star(self, psi, pi):
        """g* = (W g)-hat composed with nabla."""
        return self.w_operator(pi).fourier(psi).nabla_compose(pi)

    # -- geometry -----------------------------------------------------------------------
    def dilate(self, alpha):
        """x -> g(alpha x).  For alpha = u^w A, A a unit, a key at base b goes
        to key * A^-1 at base b - w: _times_unit_powers with pi = u A."""
        if alpha.is_zero():
            raise ValueError("dilation by zero")
        q, wa = self.q, alpha.valuation()
        if self._points and len(alpha.digits) != 1:
            raise ValueError("point dilation needs a monomial scale factor")
        times = _times_unit_powers(q, alpha.shift(1 - wa), self._keys)
        inv = KElement(q, {-wa: pow(alpha.digit(wa), -1, q)})
        return _keyed(q, self.mu, self._base - wa,
                      [(times(k, -1), c) for k, c in self._keys],
                      [(inv * p, c) for p, c in self._points])

    def translate(self, tau):
        """x -> g(x + tau): the keys lose tau's digits mod q, with no carry."""
        q, base = self.q, min([self._base, *tau.digits])
        pad = (0,) * (self._base - base)
        keys = [(tuple((x - tau.digit(e)) % q
                       for e, x in enumerate(pad + k, base)), c)
                for k, c in self._keys]
        return _keyed(q, self.mu, base, keys,
                      [(p - tau, c) for p, c in self._points])

    def abs_pointwise(self):
        """|g| as an SBFunction; coefficients must have exact absolute value."""
        g, q = self.normalize(), self.q
        out = []
        for atom, c in g.terms:
            if isinstance(atom, KSingleton):
                # g is c plus the value of its cosets at the point
                at = g.evaluate(atom.point)
                c = cyc_abs(at, q) - cyc_abs(at - c, q)
            else:
                c = cyc_abs(c, q)
            out.append((atom, c))
        return SBFunction(q, out, self.mu).normalize()

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
