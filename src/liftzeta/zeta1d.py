"""Exact local zeta integrals on the field of Laurent series.

The integral of g(x) omega(x) |x|^s over the nonzero elements becomes a
rational function of T = q^(-s) once g is written in coset terms: the
cosets of one shell away from 0 sum to a single monomial, while the ideal
tail sums to a geometric series.  `zeta` reads g's digit keys and omega's
table of exponents, sums each shell's roots of unity as one integer vector
and raises omega(pi) once per shell.  Everything stays exact (ZetaValue
over the cyclotomic coefficient field), so functional equations are
asserted as identities of rational functions, not at sample points.
"""

from fractions import Fraction
import itertools

from .exactnum import CycRat, ZetaValue, cyc_sums
from .localfield import KCoset, KElement, gauss_sum
from .schwartz import SBFunction, _lead


def zeta(g, omega):
    """Exact rational function in T for the multiplicative integral of
    g(x) omega(x) |x|^s, read off the digit keys of g's normal form.  A
    key with first nonzero digit j lies in the shell of valuation
    v = base + j; omega and |.| are constant on its cosets of level
    v + max(r, 1), whose unit digits, key[j:] and a tail of free digits,
    give omega's table exponent k.  The zeta_n^k are summed per shell as
    integer vectors, and each shell is multiplied once by omega(pi)^v.
    Point masses carry no measure."""
    if g.q != omega.q:
        raise ValueError("mixed residue sizes")
    q, r, g = g.q, omega.r, g.normalize()
    tails = ZetaValue.zero(q)
    parts, scale = [], {}  # scale: exponent e -> mu q^e
    for key, coeff in g._keys:
        j = _lead(key)
        v = g._base + j
        if j < len(key):
            # the multiplicative measure of a + pi^n O is mu q^(v - n) by
            # d*x = |x|^-1 dx
            free = max(max(r, 1) - len(key) + j, 0)
            e = j - len(key) - free
            if e not in scale:
                scale[e] = CycRat.from_rational(g.mu * Fraction(q) ** e)
            parts.append((coeff * scale[e], omega.n, [
                (v, omega.unit_table[(key[j:] + tail)[:r]])
                for tail in itertools.product(range(q), repeat=free)]))
        elif r == 0:
            # the ideal pi^m O: a union of shells pi^k O^x, k >= m; each
            # shell integral of a ramified character vanishes
            tails = tails + ZetaValue.geometric(
                q, coeff * CycRat.from_rational(g.mu * Fraction(q - 1, q)),
                omega.pi_value, v)
    return tails + ZetaValue.laurent(q, [
        (v, c * omega.pi_value ** v) for v, c in cyc_sums(parts).items()])


def l_function(omega):
    """(1 - omega(pi) T)^-1 when omega is unramified, 1 otherwise."""
    if omega.r == 0:
        return ZetaValue.geometric(omega.q, 1, omega.pi_value, 0)
    return ZetaValue.constant(omega.q, 1)


def z_normalized(g, omega):
    """The zeta integral divided by the L-factor of the character."""
    return zeta(g, omega) / l_function(omega)


def rho0(omega, psi, pi):
    """Normalized gaussian sum q^(-r/2) sum over unit representatives
    theta of omega(theta) psi(pi^(d-r) theta), for omega of exact
    conductor r >= 1."""
    r = omega.r
    if r < 1:
        raise ValueError("root number needs a ramified character")
    q = omega.q
    d = psi.d
    # psi reads digit d - 1 of shift * theta, theta a unit: mod pi^d will do
    shift = pi.power_mod(d - r, d)
    return CycRat.sqrt_q(q, -r) * gauss_sum(omega, psi, shift, r)


def _test_functions(omega, pi, mu):
    q = omega.q
    r = omega.r
    if r == 0:
        return (SBFunction.char_ideal(q, 0, 1, mu),
                SBFunction.char_ideal(q, 1, 1, mu))
    return (SBFunction.char(KCoset(q, KElement.one(q), r), 1, mu),
            SBFunction.char(KCoset(q, pi, r + 1), 1, mu))


def epsilon_star(omega, psi, pi, mu=Fraction(1)):
    """The exponential factor in the functional equation of the star
    transform: subst_dual(Z(g*, omega^-1)) = eps * Z(g, omega).

    Extracted from a canonical test function and cross-checked against a
    second one; the result must be a monomial a*T^b.
    """
    omega = omega.reduced()
    inv = omega.inverse()
    results = []
    for g in _test_functions(omega, pi, mu):
        zg = z_normalized(g, omega)
        if zg.is_zero():
            raise ArithmeticError("degenerate character: test zeta vanishes")
        zs = z_normalized(g.star(psi, pi), inv)
        results.append(zs.subst_dual() / zg)
    if results[0] != results[1]:
        raise ArithmeticError("epsilon depends on the test function")
    eps = results[0]
    if eps.is_exponential_type() is None:
        raise ArithmeticError("epsilon not of exponential type")
    return eps


def _delta_parity(q, k):
    return Fraction(1) if k % 2 == 0 else Fraction(1, q)


def check_identity_A(f, omega, psi, ff):
    """Does zeta(f**, omega) equal
    mu^2 q^(-d) delta(d - r) omega(-1) zeta(f, omega) exactly?  ff is the
    double star f** for psi, which does not depend on omega, so a caller
    computes it once for all characters."""
    q = f.q
    lhs = zeta(ff, omega)
    factor = CycRat.from_rational(
        f.mu ** 2 * Fraction(q) ** (-psi.d)
        * _delta_parity(q, psi.d - omega.r)) * omega.at_minus_one()
    rhs = zeta(f, omega) * ZetaValue.constant(q, factor)
    return lhs == rhs


def double_star_invariance(f, pi1, pi2, psi1, psi2):
    """Checks on the double star transform D = (.)**:

    - D computed with pi1 and with pi2 agree (same psi);
    - when the conductors of psi1 and psi2 have equal parity,
      switching from psi1 to psi2 scales D by q^(d1 - d2);
    - when the parities differ, applying D for psi1 and then for psi2
      returns mu^4 q^(-d1-d2-1) times the original function.

    The transforms raise ValueError unless pi1 and pi2 are uniformizers.
    """
    q = f.q
    d1, d2 = psi1.d, psi2.d

    def dd(fn, psi, pi):
        return fn.star(psi, pi).star(psi, pi)

    a = dd(f, psi1, pi1)
    if not a.equals(dd(f, psi1, pi2)):
        return False
    if (d1 - d2) % 2 == 0:
        return dd(f, psi2, pi1).equals(a.scale(Fraction(q) ** (d1 - d2)))
    composed = dd(a, psi2, pi1)
    expect = f.scale(f.mu ** 4 * Fraction(q) ** (-d1 - d2 - 1))
    return composed.equals(expect)


class SBTensor:
    """Finite sums of pure tensors f(x)g(y) of one-variable functions."""

    __slots__ = ("q", "pairs")

    def __init__(self, q, pairs=()):
        self.q = q
        self.pairs = tuple(p for p in pairs
                           if all(h._keys or h._points for h in p))

    @classmethod
    def pure(cls, f, g):
        if f.q != g.q:
            raise ValueError("mixed residue sizes")
        return cls(f.q, [(f, g)])

    def __add__(self, other):
        if not isinstance(other, SBTensor) or other.q != self.q:
            return NotImplemented
        return SBTensor(self.q, self.pairs + other.pairs)

    def star(self, psi, pi):
        return SBTensor(self.q, [(f.star(psi, pi), g.star(psi, pi))
                                 for f, g in self.pairs])

