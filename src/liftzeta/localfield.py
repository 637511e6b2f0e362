"""The local field K = F_q((u)) with q = p prime.

Elements are finite Laurent polynomials in the uniformizer u with digits in
F_q; this is enough because every function we integrate is locally constant.
Also here: cosets a + pi^n O, the additive character of a given conductor,
and quasi-characters of K^x together with their exhaustive enumeration at a
given conductor bound.  A quasi-character's values on the units are roots
of unity, kept as integer exponents; a CycRat is made only when one value
is asked for, or once for a whole Gauss sum of exponents.  The literal
reader for K elements ("2*u^-1 + 1 + u^3") lives with the tests, in
tests/builders.py.
"""

import itertools
import math
import operator

from .exactnum import CycRat, cyc_one, cyc_sums, is_prime

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
        if not isinstance(other, KElement):
            return NotImplemented
        out = dict(self.digits)
        for e, d in other.digits.items():
            out[e] = out.get(e, 0) - d
        return KElement(self.q, out)

    def __mul__(self, other):
        if not isinstance(other, KElement):
            return NotImplemented
        out = {}
        for e1, d1 in self.digits.items():
            for e2, d2 in other.digits.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + d1 * d2
        return KElement(self.q, out)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("use invert for negative powers")
        out = KElement.one(self.q)
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def power_mod(self, k, n):
        """self^k modulo pi^n for k of either sign; k < 0 inverts self^-k."""
        w = self.valuation()
        prec = max(n - k * w, 1)
        unit, out = self.shift(-w), KElement.one(self.q)
        for _ in range(abs(k)):
            out = (out * unit).truncate(prec)
        return (out.invert(prec) if k < 0 else out).shift(k * w).truncate(n)

    def shift(self, k):
        """Multiply by u^k."""
        return KElement(self.q, {e + k: d for e, d in self.digits.items()})

    def truncate(self, n):
        """Reduce modulo pi^n: keep digits at exponents < n.  Returns self
        when it has none at or above n (a KElement is never mutated)."""
        if max(self.digits, default=-INF) < n:
            return self
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
        """x lies in the coset when its digits below the level are those
        of the canonical representative."""
        return _digits_below(x, self.level) == self.rep.digits

    def valuation(self):
        """The least valuation of a point of the coset: the level for an
        ideal, the representative's valuation otherwise."""
        return min(self.level, self.rep.valuation())

    def meets(self, other):
        """Do the two cosets share a point?  Cosets are nested or
        disjoint, so they meet when the finer representative cut at the
        coarser level has the coarser representative's digits."""
        lo, hi = (self, other) if self.level >= other.level else (other, self)
        return _digits_below(lo.rep, hi.level) == hi.rep.digits

    def relation(self, other):
        """One of "equal", "in" (self inside other), "contains", "disjoint"."""
        if not self.meets(other):
            return "disjoint"
        if self.level == other.level:
            return "equal"
        return "in" if self.level > other.level else "contains"

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


def _digits_below(x, n):
    """The digits of the K element x at exponents below n, by exponent:
    x mod pi^n, which a coset's canonical representative is."""
    return {e: d for e, d in x.digits.items() if e < n}


class KSingleton:
    """A one-point set {c}: the residue set of a null distinguished set
    on F (see lift2d.DistinguishedSetF)."""

    __slots__ = ("q", "point")

    def __init__(self, q, point):
        self.q = q
        self.point = point

    def contains(self, x):
        return x == self.point


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
    theta of O^x/(1 + pi^level O), level >= omega.r.  Each term is
    zeta_L^(k L/n + t L/q) at L = lcm(n, q): k is omega's table exponent
    of theta's first r digits, t the digit d - 1 of x theta read off the
    digits; the terms are summed as one integer vector."""
    q, r = omega.q, omega.r
    if psi.q != q or x.q != q:
        raise ValueError("mixed residue sizes")
    big = math.lcm(omega.n, q)
    a, b = big // omega.n, big // q
    w = [x.digit(psi.d - 1 - i) for i in range(level)]
    pairs = []
    for key in _unit_keys(q, level):
        t = sum(map(operator.mul, w, key)) % q
        pairs.append((0, (omega.unit_table[key[:r]] * a + t * b) % big))
    return cyc_sums([(cyc_one(), big, pairs)])[0]


class QuasiCharacter:
    """omega on K^x: the value at pi (a CycRat) and a table on the units,
    where omega factors through O^x/(1+pi^r O) and each value is a root
    of unity: unit key -> k mod n, standing for zeta_n^k.  r is the exact
    conductor, so omega is nontrivial on 1 + pi^(r-1) O when r >= 1; the
    constructor rejects a table presented above it."""

    __slots__ = ("q", "r", "n", "unit_table", "pi_value", "label")

    def __init__(self, q, r, n, unit_table, pi_value=None, label=""):
        if r and _at_conductor(q, r, unit_table)[0] < r:
            raise ValueError("unit table above its conductor")
        self.q = q
        self.r = r
        self.n = n
        self.unit_table = unit_table
        if pi_value is None:
            pi_value = CycRat.from_rational(1)
        elif not isinstance(pi_value, CycRat):
            pi_value = CycRat.from_rational(pi_value)
        self.pi_value = pi_value
        self.label = label

    @classmethod
    def trivial(cls, q, pi_value=None):
        return cls(q, 0, 1, {(): 0}, pi_value, label="unram")

    def __call__(self, x):
        if x.is_zero():
            raise ValueError("quasi-character undefined at 0")
        w = x.valuation()
        k = self.unit_table[_key_of_unit(x.shift(-w), self.r)]
        return CycRat.root_of_unity(self.n, k) * self.pi_value ** w

    def inverse(self):
        table = {key: -k % self.n for key, k in self.unit_table.items()}
        return QuasiCharacter(self.q, self.r, self.n, table,
                              self.pi_value.inverse(),
                              label=self.label + "^-1")

    def with_pi_value(self, pi_value):
        return QuasiCharacter(self.q, self.r, self.n, self.unit_table,
                              pi_value, self.label)

    def at_minus_one(self):
        return self(KElement.constant(self.q, self.q - 1))


def _at_conductor(q, r, table):
    """The exact conductor of a unit table of level r, the least r' with
    the table zero on the keys congruent to 1 mod pi^r', and the table at
    level r' (the table itself when r' = r)."""
    one = (1,) + (0,) * r
    for rp in range(r + 1):
        if all(k == 0 for key, k in table.items() if key[:rp] == one[:rp]):
            break
    if rp == r:
        return r, table
    # read each coset of level rp at its member whose digits rp..r-1 are
    # those of 1 (for rp = 0 the key needs its nonzero digit 0)
    return rp, {key: table[key + one[rp:r]] for key in _unit_keys(q, rp)}


def enumerate_characters(q, r):
    """All (q-1) q^(r-1) characters of O^x/(1+pi^r O), deterministic order.

    Built from explicit generators: a primitive root of F_q^x (order q-1)
    and the principal units 1+u^i for q not dividing i, whose order modulo
    1+pi^r O is q^e with e minimal such that i q^e >= r.  The character
    with exponents (t_j) sends the unit with discrete logs (e_j) to
    exp(2 pi i sum t_j e_j / o_j), o_j the generator orders.
    """
    if r < 0:
        raise ValueError("conductor bound must be >= 0")
    if not is_prime(q):
        raise ValueError("q must be prime")
    if q ** max(r, 1) > ENUMERATION_BOUND:
        raise ValueError("conductor bound too large for enumeration")
    if r == 0:
        return [QuasiCharacter.trivial(q)]

    gens = [KElement.constant(q, primitive_root(q))]
    orders = [q - 1]
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

    # powers of each generator modulo 1 + pi^r O
    pow_cache = [[KElement.one(q)] for _ in gens]
    for g, powers, o in zip(gens, pow_cache, orders):
        for _ in range(o - 1):
            powers.append((powers[-1] * g).truncate(r))
    # discrete-log table: canonical unit key -> exponent vector
    key_to_exps = {}
    for exps in itertools.product(*map(range, orders)):
        prod = KElement.one(q)
        for j, e in enumerate(exps):
            prod = (prod * pow_cache[j][e]).truncate(r)
        key = _key_of_unit(prod, r)
        assert key not in key_to_exps, "generators do not span freely"
        key_to_exps[key] = exps
    assert len(key_to_exps) == group_order

    out = []
    for cexps in itertools.product(*map(range, orders)):
        # n is the lcm of the orders o_j with t_j != 0, not the character's
        # own order: CycRat prints a value at the order it is built in, and
        # at the least order the printed epsilon factors of q = 5 move
        n = math.lcm(*(o for o, t in zip(orders, cexps) if t))
        table = {key: sum(t * e * (n // o)
                          for o, t, e in zip(orders, cexps, exps)) % n
                 for key, exps in key_to_exps.items()}
        label = "chi" + "".join("_%d" % t for t in cexps)
        rp, table = _at_conductor(q, r, table)
        out.append(QuasiCharacter(q, rp, n, table, label=label))
    out.sort(key=lambda w: w.label)
    return out
