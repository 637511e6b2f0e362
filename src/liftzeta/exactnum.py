"""Exact coefficient arithmetic.

Two layers over one set of dense-polynomial helpers (``_ptrim``,
``_padd``, ``_pmul``, ``_pdivmod``), which work over any field whose
zero is falsy: Fraction polynomials modulo Phi_m for CycRat, and CycRat
polynomials in T for ZetaValue.

* CycRat -- elements of a cyclotomic field Q(zeta_m).  Power-basis
  representation modulo the m-th cyclotomic polynomial, Fraction
  coordinates, automatic embedding into the lcm order on mixed arithmetic.
  Root numbers carry a factor q^(-r/2); sqrt(q) for a prime q is a
  quadratic Gauss sum, so it lies in Q(zeta_8) for q = 2 and in
  Q(zeta_4q) otherwise, and needs no symbol of its own.

* ZetaValue -- Laurent "polynomials" in a group-algebra generator X whose
  coefficients are rational functions in T over CycRat.  T stands for q^(-s).
  Denominators involve T only, never X.
"""

from fractions import Fraction
from functools import lru_cache
import cmath
import math

_ZERO = Fraction(0)


# ---------------------------------------------------------------------------
# dense polynomials over a field (ascending coefficients, returned as
# tuples with no trailing zero); a helper that must create a zero takes
# the ring's zero from its caller

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
    inv_lead = d[-1] ** -1
    while len(r) >= len(d):
        k = len(r) - len(d)
        c = quo[k] = r.pop() * inv_lead
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
    """Coefficients of the m-th cyclotomic polynomial, ascending."""
    if m < 1:
        raise ValueError("order must be positive")
    # x^m - 1 divided by all lower cyclotomic factors
    num = [Fraction(-1)] + [_ZERO] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _pdivmod(num, cyclotomic_poly(d), _ZERO)
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
                out[i] -= top * phi[i].numerator
    return tuple(out)


def _reduce_mod_cyc(p, m):
    d = _phi_deg(m)
    if len(p) <= d:
        return tuple(p) + (0,) * (d - len(p))
    out = [0] * d
    for k, c in enumerate(p):
        if c:
            row = _xpow_mod_cyc(m, k)
            for i in range(d):
                if row[i]:
                    out[i] += c * row[i]
    return tuple(out)


def _remap(coords, k, m):
    """Coordinates in Q(zeta_m) of the sum of c_i zeta_m^(i k) over the
    given power-basis coordinates c_i."""
    p = [_ZERO] * m
    for i, c in enumerate(coords):
        if c:
            p[i * k % m] += c
    return _reduce_mod_cyc(p, m)


@lru_cache(maxsize=None)
def _trace_weights(m):
    """Tr(zeta_m^i)/phi(m) for each power-basis index i.  zeta_m^i is a
    primitive n-th root, n = m/gcd(i, m), so this is mu(n)/phi(n), where
    mu(n), the sum of the primitive n-th roots, is minus the next-to-top
    coefficient of the monic n-th cyclotomic polynomial."""
    out = []
    for i in range(_phi_deg(m)):
        phi = cyclotomic_poly(m // math.gcd(i, m))
        out.append(-phi[-2] / (len(phi) - 1))
    return tuple(out)


class CycRat:
    """Element of the cyclotomic field Q(zeta_m), as its coordinates in
    the power basis 1, zeta_m, ..., zeta_m^(phi(m)-1).

    One value has exactly one coordinate vector at each order m, so
    equality embeds both sides into the lcm order and compares
    coordinates.  The hash is the normalized trace to Q, which does not
    depend on the order, and is the value's own hash when it is rational.
    """

    __slots__ = ("m", "a")

    def __init__(self, m, a):
        a = tuple(x if type(x) is Fraction else Fraction(x) for x in a)
        assert len(a) == _phi_deg(m)
        self.m, self.a = m, a

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_rational(cls, x, m=1):
        d = _phi_deg(m)
        coords = [Fraction(x)] + [_ZERO] * (d - 1)
        return cls(m, coords)

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
        return CycRat(m2, _remap(self.a, m2 // self.m, m2))

    def _align(self, other):
        if not isinstance(other, CycRat):
            other = CycRat.from_rational(other)
        m = math.lcm(self.m, other.m)
        return self.embed(m), other.embed(m)

    # -- predicates ---------------------------------------------------------
    def __bool__(self):
        return any(self.a)

    def is_zero(self):
        return not self

    def is_rational(self):
        return not any(self.a[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.a[0]

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if type(other) is CycRat and other.m == self.m:
            x, y = self, other
        else:
            try:
                x, y = self._align(other)
            except (TypeError, ValueError):
                return NotImplemented
        return CycRat(x.m, tuple(u + v for u, v in zip(x.a, y.a)))

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.m, tuple(-u for u in self.a))

    def __sub__(self, other):
        o = other if isinstance(other, CycRat) else CycRat.from_rational(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is CycRat and 1 in (self.m, other.m):
            # a rational factor scales the coordinates at the other order
            x, s = (self, other.a[0]) if other.m == 1 else (other, self.a[0])
            return CycRat(x.m, tuple(u * s for u in x.a))
        if type(other) is CycRat and other.m == self.m:
            x, y = self, other
        else:
            try:
                x, y = self._align(other)
            except (TypeError, ValueError):
                return NotImplemented
        return CycRat(x.m, _reduce_mod_cyc(_pmul(x.a, y.a, _ZERO), x.m))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_rational():
            return CycRat(self.m, (1 / self.a[0],) + self.a[1:])
        # extended euclid against the cyclotomic polynomial
        r0, r1 = cyclotomic_poly(self.m), _ptrim(self.a)
        s0, s1 = (), (Fraction(1),)
        while r1:
            qq, r = _pdivmod(r0, r1, _ZERO)
            r0, r1 = r1, r
            s0, s1 = s1, _padd(s0, [-c for c in _pmul(qq, s1, _ZERO)])
        if len(r0) != 1:
            raise ZeroDivisionError("division by zero")
        inv = [c / r0[0] for c in s0]
        return CycRat(self.m, _reduce_mod_cyc(inv, self.m))

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
        return CycRat(self.m, _remap(self.a, self.m - 1, self.m))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycRat.from_rational(other)
        if not isinstance(other, CycRat):
            return NotImplemented
        x, y = self._align(other)
        return x.a == y.a

    def __hash__(self):
        return hash(sum(c * w for c, w in zip(self.a, _trace_weights(self.m))
                        if c))

    def to_complex(self):
        z = cmath.exp(2j * cmath.pi / self.m)
        return complex(sum(c * z ** i for i, c in enumerate(self.a) if c))

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
    return CycRat(m, _xpow_mod_cyc(m, k))


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
    a CycRat sum of the same terms has."""
    parts = list(parts)
    den = math.lcm(*(x.denominator for c, _, _ in parts for x in c.a))
    big = math.lcm(*(math.lcm(c.m, n) for c, n, _ in parts))
    acc, order = {}, {}  # key -> ints at powers of zeta_big; its order
    for c, n, pairs in parts:
        m = math.lcm(c.m, n)
        row = [(i * big // c.m, x.numerator * (den // x.denominator))
               for i, x in enumerate(c.a) if x]
        shifted = [[((i + t * big // n) % big, x) for i, x in row]
                   for t in range(n)]  # row times zeta_n^t
        for key, t in pairs:
            order[key] = math.lcm(order.get(key, 1), m)
            v = acc.setdefault(key, [0] * big)
            for i, x in shifted[t]:
                v[i] += x
    out = {}
    for key, v in acc.items():
        m = order[key]
        out[key] = CycRat(m, [Fraction(x, den) if x else _ZERO
                              for x in _reduce_mod_cyc(v[::big // m], m)])
    return out


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
    integrals) is kept as arithmetic made it.  Settled fractions are a
    normal form, not a canonical one: zero is decided by an empty map,
    and two values are equal when they have the same X-support and
    n1 d2 == n2 d1 at each X-exponent.  The hash reads only the
    X-support, so it does not depend on the representation.

    ``terms`` is the reduced view, built by the polynomial gcd on first
    read and cached: lowest terms, lowest nonzero denominator coefficient
    1.  Only the shape queries (is_constant, constant_value,
    is_exponential_type), evaluate and printing read it.
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
    def from_fraction(cls, q, num_coeffs, den_coeffs, x_exp=0):
        def mk(cs):
            return tuple(c if isinstance(c, CycRat) else CycRat.from_rational(c)
                         for c in cs)
        return cls(q, {x_exp: (mk(num_coeffs), mk(den_coeffs))})

    # -- predicates -----------------------------------------------------------
    def is_zero(self):
        return not self._fr

    def is_constant(self):
        if not self.terms:
            return True
        if set(self.terms) != {0}:
            return False
        num, den = self.terms[0]
        return len(num) == 1 and den == (cyc_one(),)

    def constant_value(self):
        if self.is_zero():
            return cyc_zero()
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.terms[0][0][0]

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
                g, f = g1 + g2, (_pmul(n1, n2, z), _pmul(d1, d2, z))
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

    # -- evaluation and printing ------------------------------------------------
    def evaluate(self, t_value, x_value=1.0):
        """Debug evaluator at numeric T (and X)."""
        total = 0j
        for g, (n, d) in self.terms.items():
            nv = sum(c.to_complex() * t_value ** i for i, c in enumerate(n))
            dv = sum(c.to_complex() * t_value ** i for i, c in enumerate(d))
            total += x_value ** g * nv / dv
        return total

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
