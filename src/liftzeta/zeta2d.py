"""Two-variable zeta integrals over the product of unit groups.

A character of the symbol group that factors through the residue map is
a pair of quasi-characters on K; the zeta integral of a lifted tensor
then reduces to a product of one-variable integrals, so L and epsilon
factors are products and the functional equation in s -> 2-s follows
from the one-variable theory.  The shell decomposition here writes a
one-variable integral as a sum over the shells of valuation k of g; the
oracle zeta2_direct of tests/test_zeta2d.py is the product of the two
shell decompositions of each pure summand.  A second, boundary,
construction lifts a single K-integral through the generalised residue
map; the resulting identity is verified by the same shell decomposition.
"""

from fractions import Fraction

from .exactnum import CycRat, ZetaValue
from .lift2d import FElement
from .localfield import KCoset, KElement, KSingleton, QuasiCharacter
from .schwartz import SBFunction
from .zeta1d import epsilon_star, l_function, zeta as zeta_k


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


def zeta2(tensor, chi):
    """The two-variable zeta integral of a lifted tensor against a
    residue-factoring character: the reduction to K turns it into the
    product of one-variable integrals on each pure summand."""
    total = ZetaValue.zero(tensor.q)
    for f, g in tensor.pairs:
        total = total + zeta_k(f, chi.omega1) * zeta_k(g, chi.omega2)
    return total


def _shell_restriction(g, omega, k):
    """A coset function whose plain Haar integral equals the integral of
    g(z) omega(z) over the shell of valuation k."""
    q = g.q
    need = max(omega.r, 1)
    out = []
    for atom, coeff in g.normalize().terms:
        if isinstance(atom, KSingleton):
            continue
        v = atom.valuation()
        if v >= atom.level:
            # an ideal: meets every shell at or below its level
            if k < atom.level:
                continue
            shell = KCoset.ideal(q, k)
            for sub in shell.subcosets(k + need):
                if sub.rep.valuation() == k:
                    out.append((sub, coeff * omega(sub.rep)))
        elif v == k:
            for sub in atom.subcosets(max(atom.level, v + need)):
                out.append((sub, coeff * omega(sub.rep)))
    return SBFunction(q, out, g.mu)


def _shell_zeta(g, omega):
    """The shell decomposition of the zeta integral of g against omega:
    q^k T^k times the Haar integral of g omega over the shell of
    valuation k, for each k of the window [lo, hi) outside of which g is
    constant on shells, plus the shells above it, a geometric series in
    omega(pi) T from the ideal term of g when omega is unramified and
    zero otherwise.  Point masses carry no measure."""
    q = g.q
    lo, hi, tail = 0, 1, None
    for atom, coeff in g.normalize().terms:
        if isinstance(atom, KSingleton):
            continue
        lo = min(lo, atom.valuation())
        hi = max(hi, atom.level)
        if atom.valuation() >= atom.level:
            tail = coeff
    total = ZetaValue.laurent(q, [
        (k, _shell_restriction(g, omega, k).haar_integral()
         * CycRat.from_rational(Fraction(q) ** k)) for k in range(lo, hi)])
    if omega.r > 0 or tail is None:
        return total
    return total + ZetaValue.geometric(
        q, tail * CycRat.from_rational(g.mu * Fraction(q - 1, q)),
        omega.pi_value, hi)


def z2_normalized(tensor, chi):
    return zeta2(tensor, chi) / (l_function(chi.omega1)
                                 * l_function(chi.omega2))


def epsilon2(chi, psi, pi, mu1=Fraction(1), mu2=Fraction(1)):
    """Product of the two one-variable exponential factors."""
    return (epsilon_star(chi.omega1, psi, pi, mu1)
            * epsilon_star(chi.omega2, psi, pi, mu2))


def verify_FE2(tensor, starred, chi, eps):
    """Does the normalized zeta of the starred tensor at the dual point
    equal epsilon times the normalized zeta of the tensor?  starred is
    the tensor with both factors of each pure summand starred for psi and
    pi, and eps is epsilon2(chi, psi, pi, mu1, mu2) at the tensor's
    measure normalizations; a caller computes each once for many
    checks."""
    if not tensor.pairs:
        return True
    if len({(f.mu, g.mu) for f, g in tensor.pairs}) != 1:
        raise ValueError("tensor components must share measure "
                         "normalizations")
    lhs = z2_normalized(starred, chi.inverse()).subst_dual()
    rhs = eps * z2_normalized(tensor, chi)
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
    left = prefactor * _shell_zeta(g, omega).subst_scale(omega.pi_value, 2)
    right = prefactor * zeta_k(g, omega).subst_scale(omega.pi_value, 2)
    return left, right, left == right
