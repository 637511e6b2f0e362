"""Exact coefficient arithmetic.

Two layers:

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
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# dense polynomial helpers over Fraction (ascending coefficients)

def _ptrim(p):
    n = len(p)
    while n and p[n - 1] == 0:
        n -= 1
    return p[:n]


def _padd(p, q):
    n = max(len(p), len(q))
    return _ptrim([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
                   for i in range(n)])


def _pmul(p, q):
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _ptrim(out)


def _pdivmod(p, q):
    q = _ptrim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    quo = [Fraction(0)] * max(0, len(r) - len(q) + 1)
    inv_lead = 1 / q[-1]
    while len(_ptrim(r)) >= len(q):
        r = _ptrim(r)
        k = len(r) - len(q)
        c = r[-1] * inv_lead
        quo[k] = c
        for i, b in enumerate(q):
            r[k + i] -= c * b
        r = r[:-1]
    return _ptrim(quo), _ptrim(r)


@lru_cache(maxsize=None)
def cyclotomic_poly(m):
    """Coefficients of the m-th cyclotomic polynomial, ascending."""
    if m < 1:
        raise ValueError("order must be positive")
    # x^m - 1 divided by all lower cyclotomic factors
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            num, rem = _pdivmod(num, cyclotomic_poly(d))
            assert not rem
    return tuple(num)


def _phi_deg(m):
    return len(cyclotomic_poly(m)) - 1


@lru_cache(maxsize=None)
def _xpow_mod_cyc(m, k):
    """x^k reduced modulo the m-th cyclotomic polynomial, as a dense
    coefficient tuple of length phi(m)."""
    d = _phi_deg(m)
    if k < d:
        row = [Fraction(0)] * d
        row[k] = Fraction(1)
        return tuple(row)
    shifted = [Fraction(0)] + list(_xpow_mod_cyc(m, k - 1))
    top = shifted[d]
    out = shifted[:d]
    if top:
        phi = cyclotomic_poly(m)
        for i in range(d):
            if phi[i]:
                out[i] -= top * phi[i]
    return tuple(out)


def _reduce_mod_cyc(p, m):
    d = _phi_deg(m)
    if len(p) <= d:
        return tuple(p) + (Fraction(0),) * (d - len(p))
    out = [Fraction(0)] * d
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
        coords = [Fraction(x)] + [Fraction(0)] * (d - 1)
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
    def is_zero(self):
        return not any(self.a)

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
        if type(other) is CycRat and other.m == self.m:
            x, y = self, other
        else:
            try:
                x, y = self._align(other)
            except (TypeError, ValueError):
                return NotImplemented
        return CycRat(x.m, _reduce_mod_cyc(_pmul(x.a, y.a), x.m))

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if self.is_rational():
            return CycRat(self.m, (1 / self.a[0],) + self.a[1:])
        # extended euclid against the cyclotomic polynomial
        phi = list(cyclotomic_poly(self.m))
        r0, r1 = phi, _ptrim(list(self.a))
        s0, s1 = [], [Fraction(1)]
        while r1:
            qq, r = _pdivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _padd(s0, [-c for c in _pmul(qq, s1)])
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
            base = base * base
            n >>= 1
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
        if not bits:
            return "0"
        out = bits[0]
        for p in bits[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

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


# ---------------------------------------------------------------------------
# polynomials in T over CycRat


def _ctrim(p):
    n = len(p)
    while n and p[n - 1].is_zero():
        n -= 1
    return tuple(p[:n])


def _cadd(p, q):
    n = max(len(p), len(q))
    z = cyc_zero()
    return _ctrim([(p[i] if i < len(p) else z) + (q[i] if i < len(q) else z)
                   for i in range(n)])


def _cmul(p, q):
    if not p or not q:
        return ()
    out = [cyc_zero() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        if not a.is_zero():
            for j, b in enumerate(q):
                out[i + j] = out[i + j] + a * b
    return _ctrim(out)


def _cdivmod(p, q):
    q = _ctrim(q)
    if not q:
        raise ZeroDivisionError("division by zero")
    r = list(p)
    quo = [cyc_zero() for _ in range(max(0, len(r) - len(q) + 1))]
    inv = q[-1].inverse()
    while len(_ctrim(r)) >= len(q):
        r = list(_ctrim(r))
        k = len(r) - len(q)
        c = r[-1] * inv
        quo[k] = c
        for i, b in enumerate(q):
            r[k + i] = r[k + i] - c * b
        r = r[:-1]
    return _ctrim(quo), _ctrim(r)


def _cgcd(p, q):
    p, q = _ctrim(p), _ctrim(q)
    while q:
        _, r = _cdivmod(p, q)
        p, q = q, r
    if p:
        lead_inv = p[-1].inverse()
        p = tuple(c * lead_inv for c in p)
    return p


class ZetaValue:
    """Element of Q(zeta)(T)[X, X^-1] bound to a residue size q.

    Stored as a map from X-exponent to a reduced fraction (num, den) of
    T-polynomials.  Denominator normalization: lowest nonzero coefficient
    equals 1, so equality is plain structural comparison.

    A monomial denominator c T^k, which every Laurent polynomial has, is
    reduced by cancelling the common power of T and dividing by c.  Any
    other denominator (the L-factor binomials 1 - aT, their products, a
    quotient of zeta integrals) is reduced by the polynomial gcd.
    """

    __slots__ = ("q", "terms")

    def __init__(self, q, terms):
        self.q = q
        norm = {}
        for g, (num, den) in terms.items():
            num, den = self._reduce(num, den)
            if num:
                norm[g] = (num, den)
        self.terms = norm

    @staticmethod
    def _reduce(num, den):
        num, den = _ctrim(num), _ctrim(den)
        if not den:
            raise ZeroDivisionError("division by zero")
        if not num:
            return (), (cyc_one(),)
        k = len(den) - 1
        if all(c.is_zero() for c in den[:k]):
            # den = c T^k: cancel the common power of T, divide by c
            j = min(k, next(i for i, c in enumerate(num) if not c.is_zero()))
            inv = den[k].inverse()
            return (tuple(c * inv for c in num[j:]),
                    (cyc_zero(),) * (k - j) + (cyc_one(),))
        g = _cgcd(num, den)
        if len(g) > 1 or not g[0] == 1:
            num, _ = _cdivmod(num, g)
            den, _ = _cdivmod(den, g)
        low = next(c for c in den if not c.is_zero())
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
        return not self.terms

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
        out = dict(self.terms)
        for g, (n2, d2) in o.terms.items():
            if g in out:
                n1, d1 = out[g]
                out[g] = (_cadd(_cmul(n1, d2), _cmul(n2, d1)), _cmul(d1, d2))
            else:
                out[g] = (n2, d2)
        return ZetaValue(self.q, out)

    __radd__ = __add__

    def __neg__(self):
        return ZetaValue(self.q, {g: (tuple(-c for c in n), d)
                                  for g, (n, d) in self.terms.items()})

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
        out = {}
        for g1, (n1, d1) in self.terms.items():
            for g2, (n2, d2) in o.terms.items():
                g = g1 + g2
                n, d = _cmul(n1, n2), _cmul(d1, d2)
                if g in out:
                    pn, pd = out[g]
                    out[g] = (_cadd(_cmul(pn, d), _cmul(n, pd)), _cmul(pd, d))
                else:
                    out[g] = (n, d)
        return ZetaValue(self.q, out)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if len(self.terms) != 1:
            raise ValueError("can only invert a single X-monomial value")
        (g, (n, d)), = self.terms.items()
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
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.q, tuple(sorted(self.terms))))

    # -- substitutions ---------------------------------------------------------
    def subst_dual(self):
        """T -> q^(-2) T^(-1), the s -> 2-s substitution."""
        qinv2 = CycRat.from_rational(Fraction(1, self.q ** 2))
        out = {}
        for g, (n, d) in self.terms.items():
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
                                  for g, (n, d) in self.terms.items()})

    def is_exponential_type(self):
        """Return (a, b) if the value equals a*T^b with no X, else None."""
        if self.is_zero():
            return None
        if set(self.terms) != {0}:
            return None
        n, d = self.terms[0]
        n_idx = [i for i, c in enumerate(n) if not c.is_zero()]
        d_idx = [i for i, c in enumerate(d) if not c.is_zero()]
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
            if c.is_zero():
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
        if not bits:
            return "0"
        out = bits[0]
        for s in bits[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out

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
