"""Exact coefficient arithmetic.

Two layers over one set of dense-polynomial helpers (``_ptrim``,
``_padd``, ``_pmul``, ``_pdivmod``), which work over any ring whose
zero is falsy: integer polynomials modulo Phi_m for CycRat, and CycRat
polynomials in T for ZetaValue.

* CycRat -- elements of a cyclotomic field Q(zeta_m).  Power-basis
  representation modulo the m-th cyclotomic polynomial, as one integer
  vector over one positive common denominator in lowest terms; automatic
  embedding into the lcm order on mixed arithmetic.
  Root numbers carry a factor q^(-r/2); sqrt(q) for a prime q is a
  quadratic Gauss sum, so it lies in Q(zeta_8) for q = 2 and in
  Q(zeta_4q) otherwise, and needs no symbol of its own.

* ZetaValue -- Laurent "polynomials" in a group-algebra generator X whose
  coefficients are rational functions in T over CycRat.  T stands for q^(-s).
  Denominators involve T only, never X.
"""

from fractions import Fraction
from functools import lru_cache
import math
import operator


# ---------------------------------------------------------------------------
# dense polynomials over a field, or over the integers when every divisor
# is monic (ascending coefficients, returned as tuples with no trailing
# zero); a helper that must create a zero takes the ring's zero from its
# caller

def _ptrim(p):
    n = len(p)
    while n and not p[n - 1]:
        n -= 1
    return tuple(p[:n])


def _padd(p, q):
    if len(p) < len(q):
        p, q = q, p
    return _ptrim([a + b for a, b in zip(p, q)] + list(p[len(q):]))


def _pmul(p, q, zero):
    if not p or not q:
        return ()
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _ptrim(out)


def _pdivmod(p, d, zero):
    d = _ptrim(d)
    if not d:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(_ptrim(p))
    quo = [zero] * max(0, len(r) - len(d) + 1)
    # a monic divisor needs no inverse, so integer polynomials divide
    inv_lead = None if d[-1] == 1 else d[-1] ** -1
    while len(r) >= len(d):
        k = len(r) - len(d)
        c = r.pop()
        if inv_lead is not None:
            c = c * inv_lead
        quo[k] = c
        for i in range(len(d) - 1):
            r[k + i] -= c * d[i]
        r = list(_ptrim(r))
    return _ptrim(quo), tuple(r)


def _join_terms(terms):
    """The signed terms of a sum as one string: "a + b - c", or "0"."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients of the m-th cyclotomic polynomial, ascending ints."""
    if m < 1:
        raise ValueError("order must be positive")
    # x^m - 1 divided by all lower cyclotomic factors, each monic
    num = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _pdivmod(num, cyclotomic_poly(d), 0)
            assert not rem
    return tuple(num)


def _phi_deg(m):
    return len(cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def _xpow_mod_cyc(m, k):
    """x^k reduced modulo the m-th cyclotomic polynomial, which is monic
    and integral, as a dense integer tuple of length phi(m)."""
    d = _phi_deg(m)
    if k < d:
        row = [0] * d
        row[k] = 1
        return tuple(row)
    shifted = [0] + list(_xpow_mod_cyc(m, k - 1))
    top = shifted[d]
    out = shifted[:d]
    if top:
        phi = cyclotomic_poly(m)
        for i in range(d):
            if phi[i]:
                out[i] -= top * phi[i]
    return tuple(out)


@lru_cache(maxsize=None)
def _xpow_terms(m, k):
    """The nonzero (i, c) of x^k reduced modulo the m-th cyclotomic
    polynomial."""
    return tuple((i, c) for i, c in enumerate(_xpow_mod_cyc(m, k)) if c)


def _reduce_mod_cyc(p, m):
    d = _phi_deg(m)
    out = list(p[:d])
    out += [0] * (d - len(out))
    for k in range(d, len(p)):
        c = p[k]
        if c:
            for i, r in _xpow_terms(m, k):
                out[i] += c * r
    return tuple(out)


def _remap(coords, k, m):
    """Coordinates in Q(zeta_m) of the sum of c_i zeta_m^(i k) over the
    given power-basis coordinates c_i."""
    p = [0] * m
    for i, c in enumerate(coords):
        if c:
            p[i * k % m] += c
    return _reduce_mod_cyc(p, m)


@lru_cache(maxsize=None)
def _traces(m):
    """The trace to Q of zeta_m^i for each power-basis index i, an int.
    zeta_m^i is a primitive n-th root, n = m/gcd(i, m), whose trace from
    Q(zeta_n) is mu(n), minus the next-to-top coefficient of the monic
    n-th cyclotomic polynomial; Q(zeta_m) has degree phi(m)/phi(n) over
    Q(zeta_n)."""
    out = []
    for i in range(_phi_deg(m)):
        phi = cyclotomic_poly(m // math.gcd(i, m))
        out.append(-phi[-2] * (_phi_deg(m) // (len(phi) - 1)))
    return tuple(out)


@lru_cache(maxsize=None)
def _other_units(m):
    """The k in 2..m-1 prime to m: zeta_m -> zeta_m^k runs over the Galois
    group of Q(zeta_m) but the identity."""
    return tuple(k for k in range(2, m) if math.gcd(k, m) == 1)


def _cyc(m, n, d=1):
    """The CycRat n/d at order m, from a tuple of ints n and a positive
    int d, brought to lowest terms."""
    if d != 1:
        g = math.gcd(d, *n)
        if g != 1:
            n, d = tuple([x // g for x in n]), d // g
    x = object.__new__(CycRat)
    x.m, x.n, x.d = m, n, d
    return x


class CycRat:
    """Element of the cyclotomic field Q(zeta_m), as its coordinates in
    the power basis 1, zeta_m, ..., zeta_m^(phi(m)-1).

    The coordinates are stored as one tuple of ints ``n`` over one
    positive int ``d`` with gcd(d, *n) == 1, the ``nf_elem`` form of Antic
    (Hart, "ANTIC: Algebraic Number Theory in C", 2015).  That is
    canonical at each order m, so equality embeds both sides into the lcm
    order and compares (n, d).  Arithmetic runs on ints; the inverse is
    the product of the other Galois conjugates over the rational norm.
    ``a`` is the Fraction view n_i/d, which printing reads.  The hash is
    the normalized trace to Q, which does not depend on the order, and is
    the value's own hash when it is rational.
    """

    __slots__ = ("m", "n", "d")

    def __init__(self, m, coords):
        """The element with the given rational power-basis coordinates."""
        coords = [x if isinstance(x, (int, Fraction)) else Fraction(x)
                  for x in coords]
        assert len(coords) == _phi_deg(m)
        d = math.lcm(*(x.denominator for x in coords))
        self.m, self.d = m, d
        self.n = tuple(x.numerator * (d // x.denominator) for x in coords)

    @property
    def a(self):
        return tuple(Fraction(x, self.d) for x in self.n)

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_rational(cls, x, m=1):
        if not isinstance(x, (int, Fraction)):
            x = Fraction(x)
        return _cyc(m, (x.numerator,) + (0,) * (_phi_deg(m) - 1),
                    x.denominator)

    @classmethod
    def root_of_unity(cls, m, k=1):
        """zeta_m^k."""
        return _cached_root(m, k % m)

    @classmethod
    def sqrt_q(cls, q, power=1):
        """q^(power/2) as an exact element, power any integer.  An odd
        power needs a prime q, whose square root is a Gauss sum."""
        whole, half = divmod(power, 2)
        c = cls.from_rational(Fraction(q) ** whole)
        return c * _sqrt_prime(q) if half else c

    # -- representation management ----------------------------------------
    def embed(self, m2):
        if m2 == self.m:
            return self
        if m2 % self.m:
            raise ValueError("can only embed into a multiple order")
        return _cyc(m2, _remap(self.n, m2 // self.m, m2), self.d)

    def _align(self, other):
        if not isinstance(other, CycRat):
            other = CycRat.from_rational(other)
        m = math.lcm(self.m, other.m)
        return self.embed(m), other.embed(m)

    # -- predicates ---------------------------------------------------------
    def __bool__(self):
        return any(self.n)

    def is_zero(self):
        return not self

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if type(other) is CycRat and other.m == self.m:
            x, y = self, other
        else:
            try:
                x, y = self._align(other)
            except (TypeError, ValueError):
                return NotImplemented
        if x.d == y.d:
            return _cyc(x.m, tuple(map(operator.add, x.n, y.n)), x.d)
        g = math.gcd(x.d, y.d)
        sx, sy = y.d // g, x.d // g
        return _cyc(x.m, tuple([u * sx + v * sy for u, v in zip(x.n, y.n)]),
                    x.d * sx)

    __radd__ = __add__

    def __neg__(self):
        return _cyc(self.m, tuple([-u for u in self.n]), self.d)

    def __sub__(self, other):
        o = other if isinstance(other, CycRat) else CycRat.from_rational(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not CycRat:
            try:
                other = CycRat.from_rational(other)
            except (TypeError, ValueError):
                return NotImplemented
        x, y = self, other
        if 1 in (x.m, y.m):
            # a rational factor scales the coordinates at the other order
            if y.m != 1:
                x, y = y, x
            s = y.n[0]
            return _cyc(x.m, tuple([u * s for u in x.n]), x.d * y.d)
        if x.m != y.m:
            x, y = self._align(other)
        return _cyc(x.m, _reduce_mod_cyc(_pmul(x.n, y.n, 0), x.m), x.d * y.d)

    __rmul__ = __mul__

    def inverse(self):
        m, n, d = self.m, self.n, self.d
        if not any(n[1:]):
            if not n[0]:
                raise ZeroDivisionError("division by zero")
            s = -1 if n[0] < 0 else 1
            return _cyc(m, (s * d,) + n[1:], s * n[0])
        # x^-1 = (product of sigma_k(x), k != 1) / N(x), and N(x) is the
        # constant coordinate of x times that product
        adj = (1,)
        for k in _other_units(m):
            adj = _reduce_mod_cyc(_pmul(adj, _remap(n, k, m), 0), m)
        norm = _reduce_mod_cyc(_pmul(n, adj, 0), m)[0]
        s = -d if norm < 0 else d
        return _cyc(m, tuple(s * c for c in adj), abs(norm))

    def __truediv__(self, other):
        o = other if isinstance(other, CycRat) else CycRat.from_rational(other)
        return self * o.inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = CycRat.from_rational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def conjugate(self):
        """Complex conjugation: zeta_m -> zeta_m^(m-1)."""
        return _cyc(self.m, _remap(self.n, self.m - 1, self.m), self.d)

    def __eq__(self, other):
        if type(other) is not CycRat:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            # a rational in lowest terms against the stored (n, d)
            return (self.d == other.denominator
                    and self.n[0] == other.numerator
                    and not any(self.n[1:]))
        x, y = (self, other) if self.m == other.m else self._align(other)
        return x.d == y.d and x.n == y.n

    def __hash__(self):
        return hash(Fraction(sum(c * t for c, t in zip(self.n,
                                                       _traces(self.m))),
                             self.d * _phi_deg(self.m)))

    # -- printing -----------------------------------------------------------
    def __str__(self):
        bits = []
        for i, c in enumerate(self.a):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
                continue
            sym = "z%d" % self.m if i == 1 else "z%d^%d" % (self.m, i)
            bits.append(sym if c == 1 else ("-" + sym if c == -1
                                            else "%s*%s" % (c, sym)))
        return _join_terms(bits)

    __repr__ = __str__


@lru_cache(maxsize=None)
def _cached_root(m, k):
    return _cyc(m, _xpow_mod_cyc(m, k))


def is_prime(n):
    if n < 2:
        return False
    for k in range(2, int(n ** 0.5) + 1):
        if n % k == 0:
            return False
    return True


@lru_cache(maxsize=None)
def _sqrt_prime(q):
    """The positive square root of the prime q in Q(zeta_8) for q = 2 and
    in Q(zeta_q) or Q(zeta_4q) otherwise, from the quadratic Gauss sum
    g = sum of (k/q) zeta_q^k, which is sqrt(q) for q = 1 mod 4 and
    i sqrt(q) for q = 3 mod 4."""
    if not is_prime(q):
        raise ValueError("odd power of sqrt(%r): q is not prime" % (q,))
    if q == 2:
        return CycRat.root_of_unity(8) + CycRat.root_of_unity(8, 7)
    g = sum((CycRat.root_of_unity(q, k)
             * (1 if pow(k, (q - 1) // 2, q) == 1 else -1)
             for k in range(1, q)), CycRat.from_rational(0))
    return g if q % 4 == 1 else -CycRat.root_of_unity(4) * g


_CYC_ZERO = CycRat.from_rational(0)
_CYC_ONE = CycRat.from_rational(1)


def cyc_zero():
    return _CYC_ZERO


def cyc_one():
    return _CYC_ONE


def cyc_sums(parts):
    """{key: sum of c * zeta_n^t} over (c, n, pairs) in parts and (key, t)
    in pairs, as integer vectors over one common denominator; each sum is
    one CycRat at the lcm of the lcm(c.m, n) that reach its key, the order
    a CycRat sum of the same terms has.  Equal sums share one value."""
    parts = list(parts)
    den = math.lcm(*(c.d for c, _, _ in parts))
    big = math.lcm(*(math.lcm(c.m, n) for c, n, _ in parts))
    acc = {}  # key -> [its order, ints at powers of zeta_big]
    for c, n, pairs in parts:
        m = math.lcm(c.m, n)
        row = [(i * big // c.m, x * (den // c.d))
               for i, x in enumerate(c.n) if x]
        step = big // n
        shifted = [None] * n  # row times zeta_n^t, made when first asked
        for key, t in pairs:
            entry = acc.get(key)
            if entry is None:
                entry = acc[key] = [m, [0] * big]
            elif entry[0] % m:
                entry[0] = math.lcm(entry[0], m)
            v, s = entry[1], shifted[t]
            if s is None:
                s = shifted[t] = [((i + t * step) % big, x) for i, x in row]
            for i, x in s:
                v[i] += x
    return {key: _shared_cyc(m, _reduce_mod_cyc(v[::big // m], m), den)
            for key, (m, v) in acc.items()}


@lru_cache(maxsize=4096)
def _shared_cyc(m, n, d):
    return _cyc(m, n, d)


# ---------------------------------------------------------------------------
# rational functions in T over CycRat


def _cgcd(p, q):
    p, q = _ptrim(p), _ptrim(q)
    while q:
        p, q = q, _pdivmod(p, q, cyc_zero())[1]
    if p:
        lead_inv = p[-1].inverse()
        p = tuple(c * lead_inv for c in p)
    return p


def _fadd(f1, f2):
    """n1/d1 + n2/d2 as an unreduced fraction: (n1 + n2, d1) over an equal
    denominator, else (n1 d2 + n2 d1, d1 d2)."""
    (n1, d1), (n2, d2) = f1, f2
    if d1 == d2:
        return _padd(n1, n2), d1
    z = cyc_zero()
    return _padd(_pmul(n1, d2, z), _pmul(n2, d1, z)), _pmul(d1, d2, z)


def _settle(num, den):
    """num/den trimmed, with a monomial denominator c T^k cancelled: the
    common power of T removed and c divided out.  A zero fraction settles
    to ((), (1,))."""
    num, den = _ptrim(num), _ptrim(den)
    if not den:
        raise ZeroDivisionError("division by zero")
    if not num:
        return (), (cyc_one(),)
    k = len(den) - 1
    if any(den[:k]):
        return num, den
    j = min(k, next(i for i, c in enumerate(num) if c))
    if not den[k] == 1:
        inv = den[k].inverse()
        num = tuple(c * inv for c in num)
    return num[j:], (cyc_zero(),) * (k - j) + (cyc_one(),)


class ZetaValue:
    """Element of Q(zeta)(T)[X, X^-1] bound to a residue size q.

    Stored as a map from X-exponent to a settled fraction (num, den) of
    T-polynomials: trimmed, nonzero, and with a monomial denominator
    c T^k, which every Laurent polynomial has, cancelled against the
    common power of T and divided by c.  Any other denominator (the
    L-factor binomials 1 - aT, their products, a quotient of zeta
    integrals) is kept as arithmetic made it, except that a product
    drops a factor which one side's numerator shares exactly with the
    other's denominator.  Settled fractions are a normal form, not a
    canonical one: zero is decided by an empty map, and two values are
    equal when they have the same X-support and n1 d2 == n2 d1 at each
    X-exponent.  The hash reads only the
    X-support, so it does not depend on the representation.

    ``terms`` is the reduced view, built by the polynomial gcd on first
    read and cached: lowest terms, lowest nonzero denominator coefficient
    1.  Only the shape query is_exponential_type and printing read it.
    """

    __slots__ = ("q", "_fr", "_terms")

    def __init__(self, q, terms):
        self.q = q
        fr = {}
        for g, (num, den) in terms.items():
            num, den = _settle(num, den)
            if num:
                fr[g] = (num, den)
        self._fr = fr
        self._terms = None

    @property
    def terms(self):
        if self._terms is None:
            self._terms = {g: self._reduce(n, d)
                           for g, (n, d) in self._fr.items()}
        return self._terms

    @staticmethod
    def _reduce(num, den):
        num, den = _settle(num, den)
        if not any(den[:-1]):
            return num, den
        g = _cgcd(num, den)
        if len(g) > 1 or not g[0] == 1:
            num, _ = _pdivmod(num, g, cyc_zero())
            den, _ = _pdivmod(den, g, cyc_zero())
        low = next(c for c in den if c)
        if not low == 1:
            inv = low.inverse()
            num = tuple(c * inv for c in num)
            den = tuple(c * inv for c in den)
        return num, den

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, q):
        return cls(q, {})

    @classmethod
    def constant(cls, q, c):
        if not isinstance(c, CycRat):
            c = CycRat.from_rational(c)
        return cls(q, {0: ((c,), (cyc_one(),))})

    @classmethod
    def monomial(cls, q, c, t_exp=0, x_exp=0):
        """c * T^t_exp * X^x_exp; t_exp may be negative."""
        return cls.laurent(q, [(t_exp, c)], x_exp)

    @classmethod
    def laurent(cls, q, terms, x_exp=0):
        """The sum of c * T^k * X^x_exp over the (k, c) pairs, collected
        by T exponent into one fraction over a power of T; k may be
        negative."""
        coeffs = {}
        for k, c in terms:
            if not isinstance(c, CycRat):
                c = CycRat.from_rational(c)
            coeffs[k] = coeffs[k] + c if k in coeffs else c
        if not coeffs:
            return cls.zero(q)
        lo = min(0, min(coeffs))
        num = [cyc_zero()] * (max(coeffs) - lo + 1)
        for k, c in coeffs.items():
            num[k - lo] = c
        return cls(q, {x_exp: (num, (cyc_zero(),) * -lo + (cyc_one(),))})

    @classmethod
    def geometric(cls, q, c, a, start):
        """The series sum over k >= start of c a^k T^k, that is
        c a^start T^start / (1 - a T); start may be negative."""
        if not isinstance(c, CycRat):
            c = CycRat.from_rational(c)
        z = cyc_zero()
        lead = c * a ** start
        den = (cyc_one(), -a)
        if start >= 0:
            num = (z,) * start + (lead,)
        else:
            num = (lead,)
            den = (z,) * (-start) + den
        return cls(q, {0: (num, den)})

    @classmethod
    def sum_scaled(cls, q, parts):
        """The sum of c * v * X^k over the (v, c, k) in parts, v a
        ZetaValue and c a CycRat; the fractions are added per X exponent
        and settled once, and a zero c adds nothing."""
        acc = {}
        for v, c, k in parts:
            if not c:
                continue
            for g, (n, d) in v._fr.items():
                f = tuple([x * c for x in n]), d
                g += k
                acc[g] = _fadd(acc[g], f) if g in acc else f
        return cls(q, acc)

    # -- predicates -----------------------------------------------------------
    def is_zero(self):
        return not self._fr

    # -- arithmetic ------------------------------------------------------------
    def _coerce(self, other):
        if isinstance(other, ZetaValue):
            if other.q != self.q:
                raise ValueError("mixed residue sizes")
            return other
        if isinstance(other, (int, Fraction, CycRat)):
            return ZetaValue.constant(self.q, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self._fr)
        for g, f in o._fr.items():
            out[g] = _fadd(out[g], f) if g in out else f
        return ZetaValue(self.q, out)

    __radd__ = __add__

    def __neg__(self):
        return ZetaValue(self.q, {g: (tuple(-c for c in n), d)
                                  for g, (n, d) in self._fr.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out, z = {}, cyc_zero()
        for g1, (n1, d1) in self._fr.items():
            for g2, (n2, d2) in o._fr.items():
                # a factor one side's numerator shares with the other's
                # denominator cancels with no gcd
                if n2 == d1:
                    f = n1, d2
                elif n1 == d2:
                    f = n2, d1
                else:
                    f = _pmul(n1, n2, z), _pmul(d1, d2, z)
                g = g1 + g2
                out[g] = _fadd(out[g], f) if g in out else f
        return ZetaValue(self.q, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if len(self._fr) != 1:
            raise ValueError("can only invert a single X-monomial value")
        (g, (n, d)), = self._fr.items()
        return ZetaValue(self.q, {-g: (d, n)})

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self._fr.keys() != o._fr.keys():
            return False
        z = cyc_zero()
        for g, (n1, d1) in self._fr.items():
            n2, d2 = o._fr[g]
            if not (n1 == n2 if d1 == d2
                    else _pmul(n1, d2, z) == _pmul(n2, d1, z)):
                return False
        return True

    def __hash__(self):
        return hash((self.q, tuple(sorted(self._fr))))

    # -- substitutions ---------------------------------------------------------
    def subst_dual(self):
        """T -> q^(-2) T^(-1), the s -> 2-s substitution."""
        qinv2 = CycRat.from_rational(Fraction(1, self.q ** 2))
        out = {}
        for g, (n, d) in self._fr.items():
            k = max(len(n), len(d)) - 1
            z = cyc_zero()

            def flip(p):
                new = [z] * (k + 1)
                for i, c in enumerate(p):
                    new[k - i] = c * qinv2 ** i
                return tuple(new)

            out[g] = (flip(n), flip(d))
        return ZetaValue(self.q, out)

    def subst_scale(self, c, k):
        """T -> c * T^k for a scalar c and positive integer k."""
        if not isinstance(c, CycRat):
            c = CycRat.from_rational(c)
        if k < 1:
            raise ValueError("k must be positive")
        z = cyc_zero()

        def sub(p):
            new = [z] * ((len(p) - 1) * k + 1) if p else []
            for i, coef in enumerate(p):
                new[i * k] = coef * c ** i
            return tuple(new)

        return ZetaValue(self.q, {g: (sub(n), sub(d))
                                  for g, (n, d) in self._fr.items()})

    def is_exponential_type(self):
        """Return (a, b) if the value equals a*T^b with no X, else None."""
        if self.is_zero():
            return None
        if set(self.terms) != {0}:
            return None
        n, d = self.terms[0]
        n_idx = [i for i, c in enumerate(n) if c]
        d_idx = [i for i, c in enumerate(d) if c]
        if len(n_idx) != 1 or len(d_idx) != 1:
            return None
        return (n[n_idx[0]], n_idx[0] - d_idx[0])

    # -- printing -------------------------------------------------------------
    @staticmethod
    def _poly_str(p):
        bits = []
        for i, c in enumerate(p):
            if not c:
                continue
            if i == 0:
                bits.append(str(c))
                continue
            tpart = "T" if i == 1 else "T^%d" % i
            if c == 1:
                s = tpart
            elif c == -1:
                s = "-" + tpart
            else:
                cs = str(c)
                if " " in cs:
                    cs = "(%s)" % cs
                s = "%s*%s" % (cs, tpart)
            bits.append(s)
        return _join_terms(bits)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for g in sorted(self.terms):
            n, d = self.terms[g]
            bits = []
            ns = self._poly_str(n)
            one_num = len(n) == 1 and n[0] == 1
            if not one_num or d == (cyc_one(),) and g == 0:
                bits.append("(%s)" % ns if " " in ns else ns)
            if d != (cyc_one(),):
                bits.append("(%s)^-1" % self._poly_str(d))
            if g:
                bits.append("X" if g == 1 else "X^%d" % g)
            parts.append(" * ".join(bits) if bits else "1")
        return "  +  ".join(parts)

    __repr__ = __str__
