"""Two-variable zeta integrals over the product of unit groups.

A character of the symbol group that factors through the residue map is
a pair of quasi-characters on K; the zeta integral of a lifted tensor
then reduces to a product of one-variable integrals, so L and epsilon
factors are products and the functional equation in s -> 2-s follows
from the one-variable theory.  A second, boundary, construction lifts a
single K-integral through the generalised residue map; the resulting
identity is verified by an explicit double shell sum.
"""

from fractions import Fraction

from .exactnum import CycRat, ZetaValue
from .lift2d import FElement, LiftedFn, LiftedFn2, abs_F
from .localfield import KCoset, KElement, KSingleton, QuasiCharacter
from .schwartz import SBFunction
from .zeta1d import (
    epsilon_star, l_function, zeta as zeta_k, zeta_product,
    z_product_normalized,
)


class ChiCharacter:
    """A residue-factoring character of the symbol group, recorded by the
    pair of K quasi-characters it induces on the two unit coordinates."""

    __slots__ = ("q", "omega1", "omega2")

    def __init__(self, omega1, omega2):
        if omega1.q != omega2.q:
            raise ValueError("mixed residue sizes")
        self.q = omega1.q
        self.omega1 = omega1
        self.omega2 = omega2

    @classmethod
    def boundary(cls, omega):
        """The character factoring through the border map: the second
        coordinate only contributes through its valuation, so the second
        component is unramified with the same value at the prime."""
        return cls(omega, QuasiCharacter.trivial(omega.q,
                                                 pi_value=omega.pi_value))

    def inverse(self):
        return ChiCharacter(self.omega1.inverse(), self.omega2.inverse())

    def t1_value(self):
        """Value on the pair (t1, 1): the first component at the prime."""
        return self.omega1.pi_value

    @property
    def label(self):
        return "(%s, %s)" % (self.omega1.label or "chi_0",
                             self.omega2.label or "chi_0")


class TPoint:
    """A point of the product of unit groups of the rank-one integers."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        if x.nu() != 0 or y.nu() != 0:
            raise ValueError("coordinates must be units of the valuation "
                             "ring")
        self.x = x
        self.y = y

    def symbol_abs(self):
        """|t(x, y)| = |x| |y|."""
        return abs_F(self.x) * abs_F(self.y)


def zeta2(tensor, chi):
    """The two-variable zeta integral of a lifted tensor against a
    residue-factoring character: the reduction to K turns it into the
    product of one-variable integrals on each pure summand."""
    return zeta_product(tensor, chi.omega1, chi.omega2)


def _shell_restriction(g, omega, k):
    """A coset function whose plain Haar integral equals the integral of
    g(z) omega(z) over the shell of valuation k."""
    q = g.q
    need = max(omega.r, 1)
    out = []
    for atom, _, coeff in g.normalize().terms:
        if isinstance(atom, KSingleton):
            continue
        v = atom.rep.valuation() if not atom.rep.is_zero() else atom.level
        if v >= atom.level:
            # an ideal: meets every shell at or below its level
            if k < atom.level:
                continue
            shell = KCoset.ideal(q, k)
            for sub in shell.subcosets(k + need):
                if sub.rep.valuation() == k:
                    out.append((sub, None, coeff * omega(sub.rep)))
        elif v == k:
            for sub in atom.subcosets(max(atom.level, v + need)):
                out.append((sub, None, coeff * omega(sub.rep)))
    return SBFunction(q, out, g.mu)


def _shells(g, omega):
    """(k, shell restriction of g at k) for each k of the shell window."""
    lo, hi = _shell_window(g)
    return [(k, _shell_restriction(g, omega, k)) for k in range(lo, hi)]


def _shell_series(q, shells):
    """Sum of q^k T^k times the Haar integral of each shell restriction:
    the shells' share of the multiplicative zeta integral."""
    return ZetaValue.laurent(q, [
        (k, h.haar_integral() * CycRat.from_rational(Fraction(q) ** k))
        for k, h in shells])


def _shell_window(g):
    """Valuation range [lo, hi) outside of which g is constant on shells."""
    lo, hi = 0, 1
    for atom, _, _ in g.normalize().terms:
        if isinstance(atom, KSingleton):
            continue
        v = atom.rep.valuation() if not atom.rep.is_zero() else atom.level
        lo = min(lo, v)
        hi = max(hi, atom.level)
    return lo, hi


def _shell_tail(g, omega):
    """Sum of the shell contributions above the window: a geometric
    series when the character is unramified, zero otherwise."""
    q = g.q
    if omega.r > 0:
        return ZetaValue.zero(q)
    lo, hi = _shell_window(g)
    g0 = g.evaluate(KElement.zero(q))
    if g0.is_zero():
        return ZetaValue.zero(q)
    return ZetaValue.geometric(
        q, g0 * CycRat.from_rational(g.mu * Fraction(q - 1, q)),
        omega.pi_value, hi)


def zeta2_direct(tensor, chi):
    """The same integral computed shell pair by shell pair on the lifted
    side, with geometric tails; an independent path used as an oracle for
    zeta2."""
    q = tensor.q
    total = ZetaValue.zero(q)
    for f, g in tensor.pairs:
        shells1 = _shells(f, chi.omega1)
        shells2 = _shells(g, chi.omega2)
        lifts2 = [(m, LiftedFn.lift(hg)) for m, hg in shells2]
        for n, hf in shells1:
            lift_f = LiftedFn.lift(hf)
            for m, lift_g in lifts2:
                pref = ZetaValue.monomial(q, Fraction(q) ** (n + m),
                                          t_exp=n + m)
                total = total + pref * LiftedFn2.outer(
                    lift_f, lift_g).integrate()
        sum1 = _shell_series(q, shells1)
        sum2 = _shell_series(q, shells2)
        tail1 = _shell_tail(f, chi.omega1)
        tail2 = _shell_tail(g, chi.omega2)
        total = total + tail1 * sum2 + sum1 * tail2 + tail1 * tail2
    return total


def l2_function(chi):
    return l_function(chi.omega1) * l_function(chi.omega2)


def z2_normalized(tensor, chi):
    return z_product_normalized(tensor, chi.omega1, chi.omega2)


def epsilon2(chi, psi, pi, mu1=Fraction(1), mu2=Fraction(1)):
    """Product of the two one-variable exponential factors."""
    return (epsilon_star(chi.omega1, psi, pi, mu1)
            * epsilon_star(chi.omega2, psi, pi, mu2))


def verify_FE2(tensor, chi, psi, pi):
    """Does the normalized zeta of the starred tensor at the dual point
    equal epsilon times the normalized zeta of the tensor?"""
    if not tensor.pairs:
        return True
    mus = {(f.mu, g.mu) for f, g in tensor.pairs}
    if len(mus) != 1:
        raise ValueError("tensor components must share measure "
                         "normalizations")
    mu1, mu2 = mus.pop()
    lhs = z2_normalized(tensor.star(psi, pi), chi.inverse()).subst_dual()
    rhs = epsilon2(chi, psi, pi, mu1, mu2) * z2_normalized(tensor, chi)
    return lhs == rhs


def rho2(x_data, y_data, pi=None):
    """Generalised residue of a decomposed pair.

    Each point is given as (i1, i2, u) for t1^i1 t2^i2 u with u a unit of
    the rank-two ring of integers.  The residue is the K element
    pi^min(i1,j1) times the residue of u when min(i2, j2) = 0, and 0
    otherwise (the residue leaves the integers of K in the other cases,
    which this implementation maps to 0 by convention).
    """
    i1, i2, u = x_data
    j1, j2, v = y_data
    for name, unit in (("u", u), ("v", v)):
        if not isinstance(unit, FElement) or unit.nu() != 0 \
                or unit.rho().valuation() != 0:
            raise ValueError("%s must be a rank-two unit" % name)
    q = u.q
    if min(i2, j2) != 0:
        return KElement.zero(q)
    if pi is None:
        pi = KElement.uniformizer(q)
    if pi.valuation() != 1:
        raise ValueError("pi must be a uniformizer")
    return (pi ** min(i1, j1)) * u.rho()


def _boundary_prefactor(omega, mu):
    """mu(units) (1 + omega(pi) T) / (1 - omega(pi) T)."""
    q = omega.q
    c = CycRat.from_rational(mu * Fraction(q - 1, q))
    return (ZetaValue.geometric(q, c, omega.pi_value, 0)
            + ZetaValue.geometric(q, c, omega.pi_value, 1))


def zeta_rho2(g, omega):
    """Both sides of the boundary-lifting identity.

    The left side is the double shell sum: for shells of valuations n and
    m the integrand depends on the smaller one only, and the sum over the
    larger index is a geometric series in omega(pi) T.  That sum is the
    shell decomposition of Z(g, omega) -- q^k T^k times the integral of
    g omega over each shell k of the window, plus the geometric tail
    above it -- under T -> omega(pi) T^2.  The right side is the
    one-variable zeta integral itself under the same substitution.  Both
    carry the boundary prefactor.  Returns (left, right, equal).
    """
    prefactor = _boundary_prefactor(omega, g.mu)
    shells = _shell_series(g.q, _shells(g, omega)) + _shell_tail(g, omega)
    left = prefactor * shells.subst_scale(omega.pi_value, 2)
    right = prefactor * zeta_k(g, omega).subst_scale(omega.pi_value, 2)
    return left, right, left == right
