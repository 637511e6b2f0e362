"""Exact coefficient arithmetic.

Two layers:

* CycRat -- elements of a cyclotomic field Q(zeta_m), optionally extended by a
  formal square root of the residue cardinality q (needed because root numbers
  carry a factor q^(-r/2)).  Power-basis representation modulo the m-th
  cyclotomic polynomial, Fraction coordinates, automatic embedding into the
  lcm order on mixed arithmetic.

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


class CycRat:
    """Element a + b*sqrt(q) with a, b in Q(zeta_m)."""

    __slots__ = ("m", "a", "b", "q")

    def __init__(self, m, a, b=None, q=None):
        d = _phi_deg(m)
        a = tuple(x if type(x) is Fraction else Fraction(x) for x in a)
        assert len(a) == d
        if b is None:
            b = (Fraction(0),) * d
        else:
            b = tuple(x if type(x) is Fraction else Fraction(x) for x in b)
            assert len(b) == d
        if any(b) and q is None:
            raise ValueError("sqrt part needs a base q")
        if not any(b):
            q = None
        self.m, self.a, self.b, self.q = m, a, b, q

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
        """q^(power/2) as an exact element, power any integer."""
        whole, half = divmod(power, 2)
        c = Fraction(q) ** whole
        if half == 0:
            return cls.from_rational(c)
        return cls(1, (Fraction(0),), (c,), q)

    # -- representation management ----------------------------------------
    def embed(self, m2):
        if m2 == self.m:
            return self
        if m2 % self.m:
            raise ValueError("can only embed into a multiple order")
        k = m2 // self.m

        def up(coords):
            p = []
            for i, c in enumerate(coords):
                if c:
                    while len(p) < i * k + 1:
                        p.append(Fraction(0))
                    p[i * k] += c
            return _reduce_mod_cyc(p, m2)

        return CycRat(m2, up(self.a), up(self.b), self.q)

    def _align(self, other):
        if not isinstance(other, CycRat):
            other = CycRat.from_rational(other)
        m = math.lcm(self.m, other.m)
        x, y = self.embed(m), other.embed(m)
        q = x.q if x.q is not None else y.q
        if x.q is not None and y.q is not None and x.q != y.q:
            raise ValueError("mixed sqrt bases")
        return x, y, q

    # -- predicates ---------------------------------------------------------
    def is_zero(self):
        return not any(self.a) and not any(self.b)

    def is_rational(self):
        return not any(self.b) and not any(self.a[1:])

    def as_fraction(self):
        if not self.is_rational():
            raise ValueError("not a rational number")
        return self.a[0]

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if type(other) is CycRat and other.m == self.m and \
                (self.q is None or other.q is None or self.q == other.q):
            x, y = self, other
            q = self.q if self.q is not None else other.q
        else:
            try:
                x, y, q = self._align(other)
            except (TypeError, ValueError):
                return NotImplemented
        return CycRat(x.m, tuple(u + v for u, v in zip(x.a, y.a)),
                      tuple(u + v for u, v in zip(x.b, y.b)), q)

    __radd__ = __add__

    def __neg__(self):
        return CycRat(self.m, tuple(-u for u in self.a),
                      tuple(-u for u in self.b), self.q)

    def __sub__(self, other):
        o = other if isinstance(other, CycRat) else CycRat.from_rational(other)
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is CycRat and other.m == self.m and \
                (self.q is None or other.q is None or self.q == other.q):
            x, y = self, other
            q = self.q if self.q is not None else other.q
        else:
            try:
                x, y, q = self._align(other)
            except (TypeError, ValueError):
                return NotImplemented
        m = x.m
        aa = _reduce_mod_cyc(_pmul(list(x.a), list(y.a)), m)
        if q is None:
            return CycRat(m, aa)
        bb = _reduce_mod_cyc(_pmul(list(x.b), list(y.b)), m)
        ab = _reduce_mod_cyc(_padd(_pmul(list(x.a), list(y.b)),
                                   _pmul(list(x.b), list(y.a))), m)
        a = tuple(u + q * v for u, v in zip(aa, bb))
        return CycRat(m, a, ab, q)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero")
        if any(self.b):
            # rationalize: 1/(a+b sqrt q) = (a - b sqrt q)/(a^2 - q b^2)
            conj = CycRat(self.m, self.a, tuple(-v for v in self.b), self.q)
            norm = self * conj
            assert not any(norm.b)
            return conj * CycRat(norm.m, norm.a).inverse()
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
        """Complex conjugation: zeta_m -> zeta_m^(m-1); sqrt(q) is fixed."""
        def conj(coords):
            p = []
            for i, c in enumerate(coords):
                if c:
                    j = (i * (self.m - 1)) % self.m
                    while len(p) < j + 1:
                        p.append(Fraction(0))
                    p[j] += c
            return _reduce_mod_cyc(p, self.m)
        return CycRat(self.m, conj(self.a), conj(self.b), self.q)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycRat.from_rational(other)
        if not isinstance(other, CycRat):
            return NotImplemented
        try:
            x, y, _ = self._align(other)
        except ValueError:
            return False
        return x.a == y.a and x.b == y.b

    def __hash__(self):
        if self.is_rational():
            return hash(self.a[0])
        return hash((self.m, self.a, self.b, self.q))

    def to_complex(self):
        z = cmath.exp(2j * cmath.pi / self.m)
        val = sum(c * z ** i for i, c in enumerate(self.a) if c)
        if any(self.b):
            val += math.sqrt(self.q) * sum(c * z ** i
                                           for i, c in enumerate(self.b) if c)
        return complex(val)

    # -- printing -----------------------------------------------------------
    def _part_str(self, coords, tag=""):
        bits = []
        for i, c in enumerate(coords):
            if not c:
                continue
            sym = ""
            if i > 0:
                sym = "z%d" % self.m if i == 1 else "z%d^%d" % (self.m, i)
            if tag:
                sym = sym + "*" + tag if sym else tag
            if sym:
                piece = sym if c == 1 else ("-" + sym if c == -1
                                            else "%s*%s" % (c, sym))
            else:
                piece = str(c)
            bits.append(piece)
        return bits

    def __str__(self):
        bits = self._part_str(self.a)
        if any(self.b):
            bits += self._part_str(self.b, "sqrt(%d)" % self.q)
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
    """Element of Q(zeta, sqrt q)(T)[X, X^-1] bound to a residue size q.

    Stored as a map from X-exponent to a reduced fraction (num, den) of
    T-polynomials.  Denominator normalization: lowest nonzero coefficient
    equals 1, so equality is plain structural comparison.
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
        if not isinstance(c, CycRat):
            c = CycRat.from_rational(c)
        z = cyc_zero()
        if t_exp >= 0:
            num = (z,) * t_exp + (c,)
            den = (cyc_one(),)
        else:
            num = (c,)
            den = (z,) * (-t_exp) + (cyc_one(),)
        return cls(q, {x_exp: (num, den)})

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
