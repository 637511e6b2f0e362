"""Schwartz functions on K: canonical forms, Haar integral, Fourier
transform, and the W / nabla / star operators.

An SBFunction is a Schwartz-Bruhat function on K, locally constant with
compact support: a finite sum of terms coeff * Char(a + pi^n O), where
a coset may carry a twist psi_0(b x).  psi_0 is the residue character
zeta_q^(digit -1 of y); psi of conductor d is psi_0(u^-d .), so a twist
needs no psi.  The terms are stored from construction on as a base and
one list of (key, twist, coeff) triples.  The key (x_0, ..., x_(n-1))
stands for the coset sum x_i u^(base+i) + pi^(base+n) O.  The twist is
() for none; a twist (b_0, ..., b_(m-1)), b_0 nonzero, stands for
b = sum b_i u^(i-L-m) on a coset of level L: only the digits of b below
-L vary on the coset, and the constant psi_0 of the others is folded
into the coefficient.  Keys may overlap, and every map takes them as
they are.  fourier, W and nabla map terms to terms and sum the terms of
equal key and twist.  fourier swaps key and twist (the translation rule
of Tate's thesis).  W and nabla are one shell rule, x -> g(pi^power(s) x)
on the shell s = w(x), with power(s) = -ceil(s/2) for W and s for nabla:
it moves each coset and its twist by a power of pi, and splits a twisted
ideal into twisted shells and an untwisted tail.  A double star runs
five maps, not six: the nabla of the first star and the W of the second
are the one shell map with power(s) = -(s mod 2), as W reads nabla g at
y = pi^-ceil(s/2) x, where nabla y = pi^(floor(s/2) - ceil(s/2)) x.  In
a star the input of fourier is a shell map's output, whose pairs of key
and twist are distinct; fourier keeps them distinct, so there its terms
are not summed.  With pi = u U, a map
reads the digits of U^k from `_unit_power` and fourier its Haar scales
mu q^-L from `_haar_scale`: both are lru caches that live as long as
the process, at most 4096 entries each, so W, nabla and dilate compute
each (U, k, precision) once and fourier each (mu, q, L) once; for
pi = u, U = 1 and the digits are not multiplied.  The normal form has
no twist, disjoint cosets, no full family of q siblings of equal
coefficient, and the base the least valuation of their points, so equal
functions store equal keys.  It is built only where canonical keys are
read, by `normalize`, `equals` and zeta1d.zeta, which expand each twist
once into plain keys, and by `twisted`; `terms` shows the cosets as
stored, or those of the normal form when a twist is stored.  A function
keeps, each built on first use: its normal form (`_canon`, itself for
a normal form), the cosets of `terms`, its Haar integral (`_haar`), and
on a normal form the key table that zeta1d.zeta reads for every
character (`_zeta_keys`).  The
constructors that only the tests use live in tests/builders.py: the
literal reader ("2*[u^-1 + u*O] - [1 + u^2*O]") and the lift of a
function on the residue field to pi^r O.
"""

from fractions import Fraction
from functools import lru_cache
import operator

from .exactnum import CycRat, _cyc, _paren, cyc_sums, cyc_zero
from .localfield import KCoset, KElement

TERM_CAP = 10 ** 5


@lru_cache(maxsize=4096)
def _haar_scale(mu, q, lev):
    """mu q^-lev, the measure of a coset of level lev, as a CycRat; kept
    for the life of the process, at most 4096 of them."""
    return CycRat.from_rational(mu * Fraction(q) ** -lev)


def _coerce_coeff(c):
    if isinstance(c, CycRat):
        return c
    return CycRat.from_rational(c)


def _lead(key):
    """Index of the first nonzero digit of key, len(key) if there is none."""
    for i, x in enumerate(key):
        if x:
            return i
    return len(key)


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


@lru_cache(maxsize=4096)
def _unit_power(q, unit, k, prec):
    """The digits u^0 .. u^(prec-1) of U^k, for the unit U with the given
    (exponent, digit) pairs.  Kept for the life of the process, at most
    4096 of them: a map asks for few (U, k, prec)."""
    p = KElement(q, dict(unit)).power_mod(k, prec)
    return tuple(map(p.digit, range(prec)))


def _times_unit_powers(q, pi, prec):
    """(a, k) -> the digits of a U^k mod u^len(a), for pi = u U and digits
    a from u^0, at most prec of them.  The digits of U^k come from
    _unit_power, so every map with this pi and prec shares them; for
    U = 1 (pi = u) a comes back as it is."""
    if not isinstance(pi, KElement) or pi.valuation() != 1:
        raise ValueError("pi must be a uniformizer")
    if pi.q != q:
        raise ValueError("mixed residue sizes")
    unit = tuple(sorted(pi.shift(-1).digits.items()))
    if unit == ((0, 1),):
        return lambda a, k: a

    def times(a, k):
        b = _unit_power(q, unit, k, prec)
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


def _normal_form(q, mu, base, parts):
    """The normal form of the sum of c zeta_n^t Char(key) over (c, n,
    pairs) in parts and (key, t) in pairs, keys at base (see cyc_sums and
    _canonical).  A coefficient with an irrational coordinate keeps the
    order of its sum; a rational one is held at order 1, whatever order
    its terms had, so no map and no reader of the keys decides it."""
    keymap = _canonical(q, cyc_sums(parts))
    cut = 0  # the leading digits that are zero in every key
    while keymap and all(cut < len(k) and not k[cut] for k in keymap):
        cut += 1
    keys = sorted(((k[cut:], (), c if any(c.n[1:]) else _cyc(1, c.n[:1], c.d))
                   for k, c in keymap.items()),
                  key=lambda t: (len(t[0]), t[0]))
    f = _keyed(q, mu, base + cut if keys else 0, keys)
    f._canon = f
    return f


def _keyed(q, mu, base, keys):
    """The SBFunction of nonzero (key, twist, coeff) terms at base, twist
    () for none, for mu a Fraction; no term is read."""
    f = object.__new__(SBFunction)
    f.q, f.mu, f._base, f._keys = q, mu, base, tuple(keys)
    f._terms = f._canon = f._haar = f._zeta_keys = None
    return f


def _summed(q, mu, base, terms):
    """The SBFunction of the (key, twist, coeff) terms at base, twist ()
    for none, with the terms of equal key and twist summed."""
    acc = {}
    for key, twist, c in terms:
        kt = (key, twist)
        acc[kt] = acc[kt] + c if kt in acc else c
    return _keyed(q, mu, base, [(k, tw, c) for (k, tw), c in acc.items() if c])


def _hat(g, psi):
    """fourier of the output of a shell map, whose (key, twist) pairs are
    distinct: their images are distinct too, so none is summed."""
    return _keyed(g.q, g.mu, *g._fourier_terms(psi))


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
    """Finite combination of coset indicators on K: `_base` and the
    (key, twist, coeff) terms `_keys`, twist () for none, which may
    overlap."""

    __slots__ = ("q", "mu", "_terms", "_base", "_keys", "_canon", "_haar",
                 "_zeta_keys")

    def __init__(self, q, terms=(), mu=Fraction(1)):
        self.q = q
        self.mu = Fraction(mu)
        terms = [(a, _coerce_coeff(c)) for a, c in terms]
        for a, _ in terms:
            if not isinstance(a, KCoset):
                raise TypeError("a term's atom must be a KCoset, not %s"
                                % type(a).__name__)
        terms = [(a, c) for a, c in terms if not c.is_zero()]
        self._base = base = min((a.valuation() for a, _ in terms), default=0)
        self._keys = tuple((tuple(map(a.rep.digit, range(base, a.level))),
                            (), c) for a, c in terms)
        # built on first use
        self._terms = self._canon = self._haar = self._zeta_keys = None

    def _stored_atoms(self):
        """The untwisted cosets as stored, as (coset, coeff)."""
        q, base = self.q, self._base
        return tuple((_coset(q, base, key), c)
                     for key, tw, c in self._keys if not tw)

    def _has_twist(self):
        """Does a stored term carry a twist?  A normal form has none."""
        return any(tw for _, tw, _ in self._keys)

    @property
    def terms(self):
        """The (coset, coeff) pairs, built once: as stored, or those of
        the normal form when a twist is stored."""
        if self._terms is None:
            self._terms = (self.normalize().terms if self._has_twist()
                           else self._stored_atoms())
        return self._terms

    def has_terms(self):
        """Does the function store a term?  One that stores none is zero;
        one that stores some may still sum to zero."""
        return bool(self._keys)

    # -- constructors --------------------------------------------------------
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
        return _normal_form(q, self.mu, base, parts)

    # -- algebra ---------------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, SBFunction):
            return NotImplemented
        if self.q != other.q or self.mu != other.mu:
            raise ValueError("mixed base field or measure normalization")
        base = min(self._base, other._base)
        keys = [((0,) * (f._base - base) + k, tw, c)
                for f in (self, other) for k, tw, c in f._keys]
        return _keyed(self.q, self.mu, base, keys)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _coerce_coeff(c)
        if c.is_zero():
            return _keyed(self.q, self.mu, 0, ())
        return _keyed(self.q, self.mu, self._base,
                      [(k, tw, c * co) for k, tw, co in self._keys])

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
            self._canon = _normal_form(q, self.mu, base, parts)
        return self._canon

    def equals(self, other):
        f, g = self.normalize(), other.normalize()
        return (f._base, f._keys) == (g._base, g._keys)

    def __eq__(self, other):
        if not isinstance(other, SBFunction):
            return NotImplemented
        return self.equals(other)

    # -- integral --------------------------------------------------------------------
    def haar_integral(self):
        """Sums c mu q^-(base + len(key)) over the keys, which may overlap;
        a twisted coset integrates to 0, as b has a digit below -L.
        Computed once and kept."""
        if self._haar is None:
            total = cyc_zero()
            for key, tw, coeff in self._keys:
                if not tw:
                    total = total + coeff * _haar_scale(
                        self.mu, self.q, self._base + len(key))
            self._haar = total
        return self._haar

    # -- transforms ---------------------------------------------------------------------
    def fourier(self, psi):
        """g-hat(y) = integral of g(x) psi(xy) dx, term by term by the
        translation rule (see `_fourier_terms`), the terms of equal key
        and twist summed."""
        return _summed(self.q, self.mu, *self._fourier_terms(psi))

    def _fourier_terms(self, psi):
        """The base and the terms of g-hat: c psi_0(b x) Char(a + pi^L O)
        goes to c mu q^-L psi_0(u^-d a y) Char(-u^d b + pi^(d-L) O)(y), as
        psi_0(a b) = 1 for b below -L.  So the new key is the twist negated
        and the new twist is the key, cut of its leading zeros.  Distinct
        (key, twist) pairs go to distinct pairs: the length of the new key
        gives L, and the lead digit of a twist, nonzero, where it starts."""
        if psi.q != self.q:
            raise ValueError("mixed residue sizes")
        q, d, base, terms = self.q, psi.d, self._base, self._keys
        out = min((d - base - len(k) - len(tw) for k, tw, _ in terms),
                  default=0)
        scale = {lev: _haar_scale(self.mu, q, lev)
                 for lev in {base + len(k) for k, _, _ in terms}}

        def image():
            for key, tw, c in terms:
                lev = base + len(key)
                twist, c = key[_lead(key):], c * scale[lev]
                yield ((0,) * (d - lev - len(tw) - out)
                       + tuple(-x % q for x in tw), twist, c)
        return out, image()

    def _shell_map(self, pi, power, first):
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
        piece that loses its twist keeps its coefficient as it is: the
        order a coefficient is held at is left to the normal form."""
        q, base, terms = self.q, self._base, self._keys
        out = first(base)
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
                    yield (0,) * (s + 1 - out), b[:cut - 1], -c
                yield (0,) * (top - out), (), c
        return _summed(q, self.mu, out, image())

    def w_operator(self, pi):
        """x -> g(pi^-k x) for w(x) in {2k - 1, 2k}: a coset of valuation
        v goes to the shells 2v and 2v + 1, pi^L O to pi^2L O."""
        return self._shell_map(pi, lambda s: -s // 2, lambda n: 2 * n)

    def nabla_compose(self, pi):
        """x -> g(nabla x) with nabla x = pi^w(x) x: a coset of valuation
        2k goes to the shell k, one of odd valuation to 0, pi^L O to
        pi^ceil(L/2) O."""
        return self._shell_map(pi, lambda s: s, lambda n: -(-n // 2))

    def _w_after_nabla(self, pi):
        """x -> (W (g o nabla))(x) = g(pi^-(s mod 2) x) on the shell s = w(x):
        W reads g o nabla at y = pi^-ceil(s/2) x, where w(y) = floor(s/2)
        and nabla y = pi^(floor(s/2) - ceil(s/2)) x.  Every shell maps to an
        even one, so a coset of odd valuation is never read; a coset of
        even valuation v comes back from the shells v and v + 1, pi^L O
        from pi^(L + L mod 2) O."""
        return self._shell_map(pi, lambda s: -(s % 2), lambda n: n + n % 2)

    def star(self, psi, pi):
        """g* = (W g)-hat composed with nabla.  Each map sends terms to
        terms, so a star builds no normal form."""
        return _hat(self.w_operator(pi), psi).nabla_compose(pi)

    def double_star(self, psi, pi):
        """g** = (g*)*, the same psi and pi in both stars, as five term
        maps: W, fourier, the nabla of the first star and the W of the
        second as one shell map (`_w_after_nabla`), fourier, nabla."""
        g = _hat(self.w_operator(pi), psi)._w_after_nabla(pi)
        return _hat(g, psi).nabla_compose(pi)

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
                           for k, tw, c in self._keys])
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
        return _keyed(q, self.mu, base, keys)

    # -- printing -------------------------------------------------------------
    def __str__(self):
        """The terms as stored, a twisted one as c*psi0((b)*x)*[coset]."""
        q, base = self.q, self._base
        bits = ["%s*%s" % (_paren(c), a) for a, c in self._stored_atoms()]
        bits += ["%s*psi0((%s)*x)*%s" % (
            _paren(c), KElement(q, _twist_digits(base + len(k), tw)),
            _coset(q, base, k)) for k, tw, c in self._keys if tw]
        return " + ".join(bits) or "0"

    __repr__ = __str__
