"""The local field K = F_q((u)) with q = p prime.

Elements are finite Laurent polynomials in the uniformizer u with digits in
F_q; this is enough because every function we integrate is locally constant.
Also here: cosets a + pi^n O, the additive character of a given conductor,
and quasi-characters of K^x together with their exhaustive enumeration at a
given conductor bound.
"""

import math
import re
from fractions import Fraction

from .exactnum import CycRat, cyc_zero, is_prime

INF = math.inf

# enumerate_characters(q, r) refuses q^max(r, 1) above this: the group
# O^x/(1+pi^r O) has (q-1) q^(r-1) elements and as many characters
ENUMERATION_BOUND = 10 ** 4


class KElement:
    """Finite Laurent polynomial sum d_i u^i, digits d_i in F_q."""

    __slots__ = ("q", "digits")

    def __init__(self, q, digits):
        self.q = q
        self.digits = {e: d % q for e, d in digits.items() if d % q}

    @classmethod
    def zero(cls, q):
        return cls(q, {})

    @classmethod
    def one(cls, q):
        return cls(q, {0: 1})

    @classmethod
    def constant(cls, q, c):
        return cls(q, {0: c})

    @classmethod
    def uniformizer(cls, q, k=1):
        return cls(q, {k: 1})

    def is_zero(self):
        return not self.digits

    def valuation(self):
        return min(self.digits) if self.digits else INF

    def digit(self, e):
        return self.digits.get(e, 0)

    def __add__(self, other):
        if not isinstance(other, KElement):
            return NotImplemented
        out = dict(self.digits)
        for e, d in other.digits.items():
            out[e] = out.get(e, 0) + d
        return KElement(self.q, out)

    def __neg__(self):
        return KElement(self.q, {e: -d for e, d in self.digits.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return KElement(self.q, {e: d * other for e, d in self.digits.items()})
        if not isinstance(other, KElement):
            return NotImplemented
        out = {}
        for e1, d1 in self.digits.items():
            for e2, d2 in other.digits.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + d1 * d2
        return KElement(self.q, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("use invert for negative powers")
        out = KElement.one(self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def shift(self, k):
        """Multiply by u^k."""
        return KElement(self.q, {e + k: d for e, d in self.digits.items()})

    def truncate(self, n):
        """Reduce modulo pi^n: keep digits at exponents < n."""
        return KElement(self.q, {e: d for e, d in self.digits.items() if e < n})

    def invert(self, precision):
        """Inverse correct modulo pi^precision."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in K")
        w = self.valuation()
        # unit part v = x * u^-w, solve v * b = 1 digit by digit
        v = [self.digit(w + i) for i in range(precision + abs(w) + 1)]
        a0_inv = pow(v[0], -1, self.q)
        b = [a0_inv]
        for k in range(1, len(v)):
            s = sum(v[j] * b[k - j] for j in range(1, k + 1))
            b.append((-a0_inv * s) % self.q)
        out = KElement(self.q, {i - w: d for i, d in enumerate(b)})
        # the product x * out must be 1 modulo pi^precision, so keep
        # digits of the inverse up to exponent precision - w
        return out.truncate(precision - w)

    def __eq__(self, other):
        return (isinstance(other, KElement) and self.q == other.q
                and self.digits == other.digits)

    def __hash__(self):
        return hash((self.q, tuple(sorted(self.digits.items()))))

    def __str__(self):
        if not self.digits:
            return "0"
        bits = []
        for e in sorted(self.digits):
            d = self.digits[e]
            if e == 0:
                bits.append(str(d))
            else:
                ue = "u" if e == 1 else "u^%d" % e
                bits.append(ue if d == 1 else "%d*%s" % (d, ue))
        return " + ".join(bits)

    __repr__ = __str__

    @classmethod
    def parse(cls, q, text):
        """Parse "2*u^-1 + 1 + u^3"."""
        text = text.strip()
        if text == "0":
            return cls.zero(q)
        digits = {}
        for piece in text.split("+"):
            piece = piece.strip()
            m = re.fullmatch(r"(?:(\d+)\*?)?(?:u(?:\^(-?\d+))?)?", piece)
            if not m or not piece:
                raise ValueError("bad K element literal: %r" % piece)
            coeff = int(m.group(1)) if m.group(1) else 1
            if "u" in piece:
                exp = int(m.group(2)) if m.group(2) else 1
            else:
                exp = 0
            digits[exp] = digits.get(exp, 0) + coeff
        return cls(q, digits)


class KCoset:
    """a + pi^n O, stored with the canonical representative (digits < n)."""

    __slots__ = ("q", "rep", "level")

    def __init__(self, q, rep, level):
        self.q = q
        self.rep = rep.truncate(level)
        self.level = level

    @classmethod
    def ideal(cls, q, n):
        return cls(q, KElement.zero(q), n)

    def contains(self, x):
        return (x - self.rep).valuation() >= self.level

    def relation(self, other):
        """One of "equal", "in" (self inside other), "contains", "disjoint"."""
        lo, hi = (self, other) if self.level >= other.level else (other, self)
        meet = (lo.rep - hi.rep).valuation() >= hi.level
        if not meet:
            return "disjoint"
        if self.level == other.level:
            return "equal"
        return "in" if lo is self else "contains"

    def subcosets(self, target_level):
        """All cosets of the given finer level partitioning this one."""
        if target_level < self.level:
            raise ValueError("target level must refine")
        out = [self]
        for lev in range(self.level, target_level):
            nxt = []
            for c in out:
                for d in range(self.q):
                    nxt.append(KCoset(
                        self.q, c.rep + KElement(self.q, {lev: d}), lev + 1))
            out = nxt
        return out

    def __eq__(self, other):
        return (isinstance(other, KCoset) and self.q == other.q
                and self.level == other.level and self.rep == other.rep)

    def __hash__(self):
        return hash((self.q, self.rep, self.level))

    def __str__(self):
        if self.rep.is_zero():
            return "[pi^%d*O]" % self.level
        return "[%s + pi^%d*O]" % (self.rep, self.level)

    __repr__ = __str__


class KSingleton:
    """A one-point set {c}; Haar measure zero.  Needed so the calculus can
    carry indicator functions of points through integrals and absolute
    values (they never survive a Fourier transform)."""

    __slots__ = ("q", "point")

    def __init__(self, q, point):
        self.q = q
        self.point = point

    def contains(self, x):
        return x == self.point

    def __eq__(self, other):
        return (isinstance(other, KSingleton) and self.q == other.q
                and self.point == other.point)

    def __hash__(self):
        return hash((self.q, self.point, "singleton"))

    def __str__(self):
        return "[{%s}]" % self.point

    __repr__ = __str__


class AdditiveCharacter:
    """psi_K of conductor d: trivial on pi^d O, not on pi^(d-1) O.

    Value at x is zeta_p raised to the u^(d-1) digit of x.
    """

    __slots__ = ("q", "d")

    def __init__(self, q, d):
        if not is_prime(q):
            raise ValueError("q must be prime")
        self.q = q
        self.d = d

    def __call__(self, x):
        return CycRat.root_of_unity(self.q, x.digit(self.d - 1))

    def twist_digit(self, b, xd):
        """The digit of b x that determines psi(b x), read off the digit
        dict xd of x without forming the whole product."""
        k = self.d - 1
        t = 0
        for e, d in b.digits.items():
            c = xd.get(k - e)
            if c:
                t += d * c
        return t % self.q


def primitive_root(p):
    for g in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * g % p
            seen.add(x)
        if len(seen) == p - 1:
            return g
    return 1  # p = 2


def _unit_keys(q, r):
    """Canonical keys (d_0,...,d_{r-1}), d_0 nonzero, for O^x/(1+pi^r O)."""
    if r == 0:
        return [()]
    keys = [(d,) for d in range(1, q)]
    for _ in range(r - 1):
        keys = [k + (d,) for k in keys for d in range(q)]
    return keys


def _key_of_unit(x, r):
    return tuple(x.digit(i) for i in range(r))


def gauss_sum(omega, psi, x, level):
    """Sum of omega(theta) psi(x theta) over the unit representatives
    theta of O^x/(1 + pi^level O)."""
    q = omega.q
    total = cyc_zero()
    for key in _unit_keys(q, level):
        theta = KElement(q, {i: dig for i, dig in enumerate(key) if dig})
        total = total + omega(theta) * psi(x * theta)
    return total


class QuasiCharacter:
    """omega on K^x: unit-group table at level r plus the value at pi."""

    __slots__ = ("q", "r", "unit_table", "pi_value", "label")

    def __init__(self, q, r, unit_table, pi_value=None, label=""):
        self.q = q
        self.r = r
        self.unit_table = unit_table
        if pi_value is None:
            pi_value = CycRat.from_rational(1)
        elif not isinstance(pi_value, CycRat):
            pi_value = CycRat.from_rational(pi_value)
        self.pi_value = pi_value
        self.label = label

    @classmethod
    def trivial(cls, q, pi_value=None):
        return cls(q, 0, {(): CycRat.from_rational(1)}, pi_value,
                   label="unram")

    def unit_value(self, x):
        """omega on the unit part of x (x a unit of O)."""
        key = _key_of_unit(x, self.r)
        return self.unit_table[key]

    def __call__(self, x):
        if x.is_zero():
            raise ValueError("quasi-character undefined at 0")
        w = x.valuation()
        unit = x.shift(-w).truncate(max(self.r, 1))
        return self.unit_value(unit) * self.pi_value ** w

    def inverse(self):
        table = {k: v.inverse() for k, v in self.unit_table.items()}
        return QuasiCharacter(self.q, self.r, table, self.pi_value.inverse(),
                              label=self.label + "^-1")

    def with_pi_value(self, pi_value):
        return QuasiCharacter(self.q, self.r, self.unit_table, pi_value,
                              self.label)

    def at_minus_one(self):
        return self(KElement.constant(self.q, self.q - 1))

    def exact_conductor(self):
        """Least r' with the table trivial on (1 + pi^r' O)."""
        for rp in range(self.r + 1):
            if rp == 0:
                ok = all(v == 1 for v in self.unit_table.values())
            else:
                # keys congruent to 1 mod pi^rp
                ok = all(v == 1 for k, v in self.unit_table.items()
                         if k[:rp] == (1,) + (0,) * (rp - 1))
            if ok:
                return rp
        return self.r

    def reduced(self):
        """Same character presented at its exact conductor."""
        rp = self.exact_conductor()
        if rp == self.r:
            return self
        if rp == 0:
            return QuasiCharacter(self.q, 0, {(): CycRat.from_rational(1)},
                                  self.pi_value, self.label)
        pad = (0,) * (self.r - rp)
        table = {key: self.unit_table[key + pad] for key in _unit_keys(self.q, rp)}
        return QuasiCharacter(self.q, rp, table, self.pi_value, self.label)


def enumerate_characters(q, r):
    """All (q-1) q^(r-1) characters of O^x/(1+pi^r O), deterministic order.

    Built from explicit generators: a primitive root of F_q^x (order q-1)
    and the principal units 1+u^i for q not dividing i, whose order modulo
    1+pi^r O is q^e with e minimal such that i q^e >= r.
    """
    if r < 0:
        raise ValueError("conductor bound must be >= 0")
    if not is_prime(q):
        raise ValueError("q must be prime")
    if q ** max(r, 1) > ENUMERATION_BOUND:
        raise ValueError("conductor bound too large for enumeration")
    if r == 0:
        return [QuasiCharacter.trivial(q)]

    gens = []
    orders = []
    c = primitive_root(q)
    gens.append(KElement.constant(q, c))
    orders.append(q - 1)
    for i in range(1, r):
        if i % q == 0:
            continue
        e = 0
        while i * q ** e < r:
            e += 1
        gens.append(KElement(q, {0: 1, i: 1}))
        orders.append(q ** e)

    group_order = (q - 1) * q ** (r - 1)
    assert math.prod(orders) == group_order, "generator orders inconsistent"

    # discrete-log table: exponent tuple -> canonical unit key
    key_to_exps = {}
    total = math.prod(orders)
    # powers of each generator modulo 1 + pi^r O
    pow_cache = [[KElement.one(q)] for _ in gens]
    for j, g in enumerate(gens):
        acc = KElement.one(q)
        for _ in range(orders[j] - 1):
            acc = (acc * g).truncate(r)
            pow_cache[j].append(acc)
    for idx in range(total):
        rem = idx
        exps = []
        for o in orders:
            exps.append(rem % o)
            rem //= o
        prod = KElement.one(q)
        for j, e in enumerate(exps):
            prod = (prod * pow_cache[j][e]).truncate(r)
        key = _key_of_unit(prod, r)
        assert key not in key_to_exps, "generators do not span freely"
        key_to_exps[key] = tuple(exps)
    assert len(key_to_exps) == group_order

    out = []
    for cidx in range(total):
        rem = cidx
        cexps = []
        for o in orders:
            cexps.append(rem % o)
            rem //= o
        table = {}
        for key, exps in key_to_exps.items():
            val = CycRat.from_rational(1)
            for j, (t, e) in enumerate(zip(cexps, exps)):
                if t and e:
                    val = val * CycRat.root_of_unity(orders[j], t * e)
            table[key] = val
        label = "chi" + "".join("_%d" % t for t in cexps)
        out.append(QuasiCharacter(q, r, table, label=label).reduced())
    out.sort(key=lambda w: w.label)
    return out
