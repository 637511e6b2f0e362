"""Schwartz functions on K: canonical forms, Haar integral, Fourier
transform, and the W / nabla / star operators.

An SBFunction is a finite sum of terms coeff * Char(atom), the atom a
coset a + pi^n O or a single point {c}, where a coset may carry a twist
psi_0(b x).  psi_0 is the residue character zeta_q^(digit -1 of y); psi
of conductor d is psi_0(u^-d .), so a twist needs no psi.  The terms are
stored from construction on as a base, one list of (key, twist, coeff)
triples and the point masses.  The key (x_0, ..., x_(n-1)) stands for
the coset sum x_i u^(base+i) + pi^(base+n) O.  The twist is () for none;
a twist (b_0, ..., b_(m-1)), b_0 nonzero, stands for b = sum b_i
u^(i-L-m) on a coset of level L: only the digits of b below -L vary on
the coset, and the constant psi_0 of the others is folded into the
coefficient.  Keys may overlap, and every map takes them as they are.
fourier, W and nabla map terms to terms and sum the terms of equal key
and twist.  fourier swaps key and twist (the translation rule of Tate's
thesis).  W and nabla are one shell rule, x -> g(pi^power(s) x) on the
shell s = w(x), with power(s) = -ceil(s/2) for W and s for nabla: it
moves each coset and its twist by a power of pi, and splits a twisted
ideal into twisted shells and an untwisted tail.  The normal form has
no twist, disjoint cosets, no full family of q siblings of equal
coefficient, and b the least valuation of their points, so equal
functions store equal keys.  It is built only where canonical keys are
read, by `normalize`, `equals` and zeta1d.zeta, which expand each twist
once into plain keys, and by `twisted`; `terms` shows the atoms as
stored, or those of the normal form when a twist is stored.  Points ride
along for the pointwise calculus (evaluation and Haar integral), but a
point that survives the normal form is rejected by the transforms,
which only make sense on locally constant functions.  The
constructors that only the tests use live in tests/builders.py: the
literal reader ("2*[u^-1 + u*O] - [1 + u^2*O]"), the point mass and the
lift of a function on the residue field to pi^r O.
"""

from fractions import Fraction
import math
import operator

from .exactnum import CycRat, cyc_sums, cyc_zero
from .localfield import KCoset, KElement, KSingleton

TERM_CAP = 10 ** 5


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


def _twist_digits(level, twist):
    """The digits (exponent -> digit) of the b of a twist on a coset of
    the given level."""
    return {i - level - len(twist): x for i, x in enumerate(twist) if x}


def _span(terms):
    """The most digits a map of these (key, twist, coeff) terms asks
    `times` for: the longest key and the longest twist together."""
    return (max((len(k) for k, _, _ in terms), default=0)
            + max((len(tw) for _, tw, _ in terms), default=0))


def _times_unit_powers(q, pi, prec):
    """(a, k) -> the digits of a U^k mod u^len(a), for pi = u U and digits
    a from u^0, at most prec of them; each U^k is computed once."""
    if not isinstance(pi, KElement) or pi.valuation() != 1:
        raise ValueError("pi must be a uniformizer")
    if pi.q != q:
        raise ValueError("mixed residue sizes")
    unit, powers = pi.shift(-1), {}

    def times(a, k):
        if k not in powers:
            p = unit.power_mod(k, prec)
            powers[k] = tuple(map(p.digit, range(prec)))
        b = powers[k]
        return tuple(sum(a[j] * b[i - j] for j in range(i + 1)) % q
                     for i in range(len(a)))
    return times


def _moved(q, times, digits, twist, k):
    """(a U^k, b U^-k, t) for a coset's digits a and its twist's b, under
    a map that multiplies the coset by U^k (see _times_unit_powers).  The
    twist keeps the places b had, those below the new level; the next
    len(a) digits of b U^-k are constant on the new coset, where their
    psi_0 is zeta_q^t: their digit i meets digit len(a) - 1 - i of a U^k
    at u^-1."""
    a = times(digits, k)
    if not twist:
        return a, twist, 0
    m = len(twist)
    b = times(twist + (0,) * len(a), -k)
    return a, b[:m], sum(map(operator.mul, b[m:], reversed(a))) % q


def _times_root(c, q, t):
    """c zeta_q^t."""
    return c * CycRat.root_of_unity(q, t) if t else c


def _at_order_q(c, q):
    """c at the order that its expansion gives it: a twist expanded into
    plain keys takes each coefficient to order lcm(m, q) (see cyc_sums),
    and a term that loses its twist in a map keeps that order."""
    return c.embed(math.lcm(c.m, q))


def _normal_form(q, mu, base, parts, points=()):
    """The normal form of the sum of c zeta_n^t Char(key) over (c, n,
    pairs) in parts and (key, t) in pairs, keys at base (see cyc_sums and
    _canonical), plus the point masses (point, coeff)."""
    keymap = _canonical(q, cyc_sums(parts))
    cut = 0  # the leading digits that are zero in every key
    while keymap and all(cut < len(k) and not k[cut] for k in keymap):
        cut += 1
    keys = sorted(((k[cut:], (), c) for k, c in keymap.items()),
                  key=lambda t: (len(t[0]), t[0]))
    singles = {}
    for pt, c in points:
        singles[pt] = singles[pt] + c if pt in singles else c
    order = sorted(singles, key=lambda p: tuple(sorted(p.digits.items())))
    f = _keyed(q, mu, base + cut if keys else 0, keys, [
        (p, singles[p]) for p in order if not singles[p].is_zero()])
    f._canon = f
    return f


def _keyed(q, mu, base, keys, points=()):
    """The SBFunction of nonzero (key, twist, coeff) terms at base, twist
    () for none, and points."""
    f = SBFunction(q, (), mu)
    f._base, f._keys, f._points = base, tuple(keys), tuple(points)
    return f


def _summed(q, mu, base, terms):
    """The SBFunction of the (key, twist, coeff) terms at base, twist ()
    for none, with the terms of equal key and twist summed."""
    acc = {}
    for key, twist, c in terms:
        kt = (key, twist)
        acc[kt] = acc[kt] + c if kt in acc else c
    return _keyed(q, mu, base, [(k, tw, c) for (k, tw), c in acc.items() if c])


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


def _coset(q, base, key):
    return KCoset(q, KElement(q, dict(enumerate(key, base))),
                  base + len(key))


class SBFunction:
    """Finite combination of coset and point indicators on K: `_base`,
    the (key, twist, coeff) terms `_keys`, twist () for none, which may
    overlap, and `_points`."""

    __slots__ = ("q", "mu", "_terms", "_base", "_keys", "_points", "_canon")

    def __init__(self, q, terms=(), mu=Fraction(1)):
        self.q = q
        self.mu = Fraction(mu)
        terms = [(a, _coerce_coeff(c)) for a, c in terms]
        terms = [(a, c) for a, c in terms if not c.is_zero()]
        cosets = [(a, c) for a, c in terms if not isinstance(a, KSingleton)]
        self._base = base = min((a.valuation() for a, _ in cosets), default=0)
        self._keys = tuple((tuple(map(a.rep.digit, range(base, a.level))),
                            (), c) for a, c in cosets)
        self._points = tuple((a.point, c) for a, c in terms
                             if isinstance(a, KSingleton))
        self._terms = self._canon = None  # built on first use

    def _stored_atoms(self):
        """The untwisted cosets and the points as stored, as (atom, coeff)."""
        q, base = self.q, self._base
        return (tuple((_coset(q, base, key), c)
                      for key, tw, c in self._keys if not tw)
                + tuple((KSingleton(q, p), c) for p, c in self._points))

    def _has_twist(self):
        """Does a stored term carry a twist?  A normal form has none."""
        return any(tw for _, tw, _ in self._keys)

    @property
    def terms(self):
        """The (atom, coeff) pairs, cosets then points, built once: as
        stored, or those of the normal form when a twist is stored."""
        if self._terms is None:
            self._terms = (self.normalize().terms if self._has_twist()
                           else self._stored_atoms())
        return self._terms

    def has_terms(self):
        """Does the function store a term?  One that stores none is zero;
        one that stores some may still sum to zero."""
        return bool(self._keys or self._points)

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
    def char_units(cls, q, mu=Fraction(1)):
        """Indicator of O^x = O minus pi O."""
        return (cls.char_ideal(q, 0, 1, mu)
                + cls.char_ideal(q, 1, -1, mu))

    def twisted(self, b, psi):
        """The normal form of x -> psi(b x) g(x)."""
        if b.q != self.q or psi.q != self.q:
            raise ValueError("mixed residue sizes")
        if b.is_zero():
            return self.normalize()
        g = self.normalize() if self._has_twist() else self
        q, base = self.q, g._base
        parts = [(c, q, _twist_pairs(q, psi.d, base, k, b.digits,
                                     len(g._keys))) for k, _, c in g._keys]
        return _normal_form(q, self.mu, base, parts,
                            [(p, c * psi(b * p)) for p, c in g._points])

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, SBFunction):
            return NotImplemented
        if self.q != other.q or self.mu != other.mu:
            raise ValueError("mixed base field or measure normalization")
        base = min(self._base, other._base)
        keys = [((0,) * (f._base - base) + k, tw, c)
                for f in (self, other) for k, tw, c in f._keys]
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
                      [(k, tw, c * co) for k, tw, co in self._keys],
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
        returns the same object; the stored keys are left as they are.
        Each twist is expanded here, against psi_0."""
        if self._canon is None:
            q, base = self.q, self._base
            width = sum(1 for _, tw, _ in self._keys if tw)
            parts = [(c, q, _twist_pairs(
                q, 0, base, k, _twist_digits(base + len(k), tw), width))
                if tw else (c, 1, [(k, 0)]) for k, tw, c in self._keys]
            self._canon = _normal_form(q, self.mu, base, parts, self._points)
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
        """Sums c mu q^-(base + len(key)) over the keys, which may overlap;
        a twisted coset integrates to 0, as b has a digit below -L."""
        total = cyc_zero()
        for key, tw, coeff in self._keys:  # points have measure zero
            if not tw:
                total = total + coeff * CycRat.from_rational(
                    self.mu * Fraction(self.q) ** -(self._base + len(key)))
        return total

    # -- transforms ---------------------------------------------------------------------
    def _plain_terms(self, op):
        """The stored base and terms, as the transforms read them.  Only a
        function with point masses is normalized first, so that points
        that cancel are accepted and a surviving one raises."""
        g = self.normalize() if self._points else self
        if g._points:
            raise ValueError("%s undefined for point masses" % op)
        return g._base, g._keys

    def fourier(self, psi):
        """g-hat(y) = integral of g(x) psi(xy) dx, term by term by the
        translation rule: c psi_0(b x) Char(a + pi^L O) goes to c mu q^-L
        psi_0(u^-d a y) Char(-u^d b + pi^(d-L) O)(y), as psi_0(a b) = 1
        for b below -L.  So the new key is the twist negated and the new
        twist is the key, cut of its leading zeros."""
        if psi.q != self.q:
            raise ValueError("mixed residue sizes")
        base, terms = self._plain_terms("fourier transform")
        q, d = self.q, psi.d
        out = min((d - base - len(k) - len(tw) for k, tw, _ in terms),
                  default=0)
        scale = {lev: CycRat.from_rational(self.mu * Fraction(q) ** -lev)
                 for lev in {base + len(k) for k, _, _ in terms}}

        def image():
            for key, tw, c in terms:
                lev = base + len(key)
                twist, c = key[_lead(key):], c * scale[lev]
                yield ((0,) * (d - lev - len(tw) - out)
                       + tuple(-x % q for x in tw), twist,
                       c if twist or not tw else _at_order_q(c, q))
        return _summed(q, self.mu, out, image())

    def _shell_map(self, pi, op, power, first):
        """x -> g(pi^power(s) x) on each shell s = w(x), where first(n) is
        the least s with s + power(s) >= n.  A coset a + pi^L O with
        w(a) = v < L is reached from the shells s with s + power(s) = v,
        first(v) up to first(v + 1), where it pulls back to
        a pi^-power(s) + pi^(L - power(s)) O: with pi = u U and
        a = u^v a', the key a' U^-power(s) at s, its twist b moved to
        b pi^power(s) (see _moved).  pi^L O pulls back to pi^first(L) O;
        with a twist b of m digits, each shell s from first(L) up to
        first(L + m) gives +Char(pi^s O) - Char(pi^(s+1) O) twisted by
        b pi^power(s), cut below the level of its piece, and the ideal
        pi^first(L + m) O, where the twist is trivial, is untwisted.  A
        piece that loses its twist keeps the order of its expansion."""
        base, terms = self._plain_terms(op)
        q, out = self.q, first(base)
        times = _times_unit_powers(q, pi, _span(terms))

        def image():
            for key, tw, c in terms:
                j = _lead(key)
                v = base + j
                if j < len(key):
                    for s in range(first(v), first(v + 1)):
                        a, b, t = _moved(q, times, key[j:], tw, -power(s))
                        yield (0,) * (s - out) + a, b, _times_root(c, q, t)
                    continue
                top = first(v + len(tw))
                for s in range(first(v), top):
                    k = power(s)
                    b, cut = times(tw, k), v + len(tw) - s - k
                    yield (0,) * (s - out), b[:cut], c
                    yield ((0,) * (s + 1 - out), b[:cut - 1],
                           -c if cut > 1 else _at_order_q(-c, q))
                yield (0,) * (top - out), (), _at_order_q(c, q) if tw else c
        return _summed(q, self.mu, out, image())

    def w_operator(self, pi):
        """x -> g(pi^-k x) for w(x) in {2k - 1, 2k}: a coset of valuation
        v goes to the shells 2v and 2v + 1, pi^L O to pi^2L O."""
        return self._shell_map(pi, "W operator", lambda s: -s // 2,
                               lambda n: 2 * n)

    def nabla_compose(self, pi):
        """x -> g(nabla x) with nabla x = pi^w(x) x: a coset of valuation
        2k goes to the shell k, one of odd valuation to 0, pi^L O to
        pi^ceil(L/2) O."""
        return self._shell_map(pi, "nabla composition", lambda s: s,
                               lambda n: -(-n // 2))

    def star(self, psi, pi):
        """g* = (W g)-hat composed with nabla.  Each map sends terms to
        terms, so a star builds no normal form."""
        return self.w_operator(pi).fourier(psi).nabla_compose(pi)

    # -- geometry -----------------------------------------------------------------------
    def dilate(self, alpha):
        """x -> g(alpha x).  For alpha = u^w A, A a unit, a key at base e goes
        to key * A^-1 at base e - w and a twist b to b alpha: _moved with
        pi = u A.  A monomial alpha = c u^w needs no inverse of A: it
        scales the key digits by c^-1 mod q and the twist digits by c."""
        if alpha.is_zero():
            raise ValueError("dilation by zero")
        if alpha.q != self.q:
            raise ValueError("mixed residue sizes")
        q, wa = self.q, alpha.valuation()
        if len(alpha.digits) == 1:
            lead = alpha.digit(wa)
            inv = pow(lead, -1, q)

            def scaled(key, x):
                return key if x == 1 else tuple(y * x % q for y in key)
            return _keyed(q, self.mu, self._base - wa,
                          [(scaled(k, inv), scaled(tw, lead), c)
                           for k, tw, c in self._keys],
                          [(KElement(q, {-wa: inv}) * p, c)
                           for p, c in self._points])
        if self._points:
            raise ValueError("point dilation needs a monomial scale factor")
        times = _times_unit_powers(q, alpha.shift(1 - wa), _span(self._keys))
        keys = []
        for k, tw, c in self._keys:
            a, b, t = _moved(q, times, k, tw, -1)
            keys.append((a, b, _times_root(c, q, t)))
        return _keyed(q, self.mu, self._base - wa, keys)

    def translate(self, tau):
        """x -> g(x + tau): the keys lose tau's digits mod q, with no carry,
        and a twisted term gains psi_0(b tau)."""
        if tau.q != self.q:
            raise ValueError("mixed residue sizes")
        q, base = self.q, min([self._base, *tau.digits])
        pad = (0,) * (self._base - base)
        keys = []
        for k, tw, c in self._keys:
            key = tuple((x - tau.digit(e)) % q
                        for e, x in enumerate(pad + k, base))
            # digit i of b, at u^(i-L-m), meets the digit L+m-1-i of tau
            top = self._base + len(k) + len(tw) - 1
            t = sum(x * tau.digit(top - i) for i, x in enumerate(tw)) % q
            keys.append((key, tw, _times_root(c, q, t)))
        return _keyed(q, self.mu, base, keys,
                      [(p - tau, c) for p, c in self._points])

    # -- printing -------------------------------------------------------------
    def __str__(self):
        """The terms as stored, a twisted one as c*psi0((b)*x)*[coset]."""
        q, base = self.q, self._base
        bits = ["%s*%s" % (c, a) for a, c in self._stored_atoms()]
        bits += ["%s*psi0((%s)*x)*%s" % (
            c, KElement(q, _twist_digits(base + len(k), tw)),
            _coset(q, base, k)) for k, tw, c in self._keys if tw]
        return " + ".join(bits) or "0"

    __repr__ = __str__
