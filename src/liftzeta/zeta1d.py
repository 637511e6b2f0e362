"""Exact local zeta integrals on the field of Laurent series.

The integral of g(x) omega(x) |x|^s over the nonzero elements becomes a
rational function of T = q^(-s) once g is written in coset terms: a coset
away from 0 contributes a single monomial, while the ideal tail sums to a
geometric series.  Everything here stays in exact arithmetic (ZetaValue
over the cyclotomic coefficient field), so functional equations can be
asserted as identities of rational functions rather than checked at sample
points.
"""

from fractions import Fraction

from .exactnum import CycRat, ZetaValue
from .localfield import KCoset, KElement, KSingleton, gauss_sum
from .schwartz import SBFunction


def zeta(g, omega):
    """Exact rational function in T for the multiplicative integral of
    g(x) omega(x) |x|^s.  Point masses carry no measure; g must be free
    of character twists."""
    if not g.is_plain():
        raise ValueError("zeta integral needs a twist-free function")
    if g.q != omega.q:
        raise ValueError("mixed residue sizes")
    q = g.q
    tails = ZetaValue.zero(q)
    monomials = []
    for atom, _, coeff in g.normalize().terms:
        if isinstance(atom, KSingleton):
            continue
        v = atom.rep.valuation()
        if v < atom.level:
            # omega and |.| are constant on each coset of level need; the
            # multiplicative measure of a + pi^n O is mu q^(v - n) by
            # d*x = |x|^-1 dx
            need = v + max(omega.r, 1)
            subs = [atom] if atom.level >= need else atom.subcosets(need)
            monomials += [(v, coeff * omega(sub.rep) * CycRat.from_rational(
                g.mu * Fraction(q) ** (v - sub.level))) for sub in subs]
        elif omega.r == 0:
            # the ideal pi^m O: a union of shells pi^k O^x, k >= m; each
            # shell integral of a ramified character vanishes
            tails = tails + ZetaValue.geometric(
                q, coeff * CycRat.from_rational(g.mu * Fraction(q - 1, q)),
                omega.pi_value, atom.level)
    return tails + ZetaValue.laurent(q, monomials)


def l_function(omega):
    """(1 - omega(pi) T)^-1 when omega is unramified, 1 otherwise."""
    if omega.r == 0:
        return ZetaValue.geometric(omega.q, 1, omega.pi_value, 0)
    return ZetaValue.constant(omega.q, 1)


def z_normalized(g, omega):
    """The zeta integral divided by the L-factor of the character."""
    return zeta(g, omega) / l_function(omega)


def _power(pi, k, precision):
    if k >= 0:
        return pi ** k
    return (pi ** (-k)).invert(precision)


def rho0(omega, psi, pi):
    """Normalized gaussian sum q^(-r/2) sum over unit representatives
    theta of omega(theta) psi(pi^(d-r) theta), for omega of exact
    conductor r >= 1."""
    r = omega.r
    if r < 1:
        raise ValueError("root number needs a ramified character")
    q = omega.q
    d = psi.d
    # psi reads a single digit, so the shifted uniformizer power only
    # needs to be correct through exponent d
    shift = _power(pi, d - r, 2 * abs(d - r) + r + abs(d) + 4)
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


def check_identity_A(f, omega, psi, pi):
    """Does zeta(f**, omega) equal
    mu^2 q^(-d) delta(d - r) omega(-1) zeta(f, omega) exactly?"""
    q = f.q
    lhs = zeta(f.star(psi, pi).star(psi, pi), omega)
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
    """
    if pi2.valuation() != 1:
        raise ValueError("pi2 must be a uniformizer")
    q = f.q
    d1, d2 = psi1.d, psi2.d

    def dd(fn, psi, pi):
        return fn.star(psi, pi).star(psi, pi)

    a = dd(f, psi1, pi1)
    if not a.equals(dd(f, psi1, pi2), psi1):
        return False
    b = dd(f, psi2, pi1)
    if (d1 - d2) % 2 == 0:
        return b.equals(a.scale(Fraction(q) ** (d1 - d2)), psi1)
    composed = dd(a, psi2, pi1)
    expect = f.scale(f.mu ** 4 * Fraction(q) ** (-d1 - d2 - 1))
    return composed.equals(expect, psi1)


class SBTensor:
    """Finite sums of pure tensors f(x)g(y) of one-variable functions."""

    __slots__ = ("q", "pairs")

    def __init__(self, q, pairs=()):
        self.q = q
        self.pairs = tuple((f, g) for f, g in pairs if f.terms and g.terms)

    @classmethod
    def pure(cls, f, g):
        if f.q != g.q:
            raise ValueError("mixed residue sizes")
        return cls(f.q, [(f, g)])

    def __add__(self, other):
        if not isinstance(other, SBTensor) or other.q != self.q:
            return NotImplemented
        return SBTensor(self.q, self.pairs + other.pairs)

    def scale(self, c):
        return SBTensor(self.q, [(f.scale(c), g) for f, g in self.pairs])

    def is_zero(self):
        return not self.pairs

    def star(self, psi, pi):
        return SBTensor(self.q, [(f.star(psi, pi), g.star(psi, pi))
                                 for f, g in self.pairs])


def zeta_product(tensor, omega1, omega2):
    """Two-variable zeta integral of a tensor sum: the product of the
    one-variable integrals on each pure summand."""
    total = ZetaValue.zero(tensor.q)
    for f, g in tensor.pairs:
        total = total + zeta(f, omega1) * zeta(g, omega2)
    return total


def z_product_normalized(tensor, omega1, omega2):
    return zeta_product(tensor, omega1, omega2) / (
        l_function(omega1) * l_function(omega2))
