"""Two-variable zeta integrals over the product of unit groups.

A character of the symbol group that factors through the residue map is
a pair of quasi-characters on K; the zeta integral of a lifted tensor
then reduces to a product of one-variable integrals, so L and epsilon
factors are products and the functional equation in s -> 2-s follows
from the one-variable theory.  Since T -> q^-2 T^-1 is a ring
homomorphism, both sides of that equation factor per variable as well:
verify_FE2 takes the one-variable dual and epsilon sides of each pure
summand, so a caller builds each once per (function, character) and
shares it over every tensor and character pair that uses it.  The shell
decomposition here writes a one-variable integral as a sum over the
shells of valuation k of g; the oracle zeta2_direct of
tests/test_zeta2d.py is the product of the two shell decompositions of
each pure summand.  A second construction,
zeta_rho2, lifts a single K-integral along the border map; the resulting
boundary-lifting identity is verified by the same shell decomposition.
"""

from fractions import Fraction

from .exactnum import CycRat, ZetaValue
from .localfield import KCoset
from .schwartz import SBFunction
from .zeta1d import epsilon_star, zeta as zeta_k


def _shell_restriction(g, omega, k):
    """A coset function whose plain Haar integral equals the integral of
    g(z) omega(z) over the shell of valuation k."""
    q = g.q
    need = max(omega.r, 1)
    out = []
    for atom, coeff in g.normalize().terms:
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
    zero otherwise."""
    q = g.q
    lo, hi, tail = 0, 1, None
    for atom, coeff in g.normalize().terms:
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


def epsilon2(omega1, omega2, psi, pi, mu=Fraction(1)):
    """The exponential factor of the character (omega1, omega2): the
    product of the two one-variable factors at the measure mu;
    ValueError("mixed residue sizes") if the two q differ.  The FE2 suite
    multiplies one epsilon_star per character into its epsilon sides
    instead, so no library code calls this."""
    return (epsilon_star(omega1, psi, pi, mu)
            * epsilon_star(omega2, psi, pi, mu))


def verify_FE2(duals, epsilons):
    """Does the normalized zeta of the starred tensor at the dual point
    equal epsilon times the normalized zeta of the tensor?

    Both sides factor per variable, since T -> q^-2 T^-1 is a ring
    homomorphism and eps(omega1, omega2) = eps(omega1) eps(omega2).  For
    each pure summand f (x) g of the tensor under the character
    (omega1, omega2), duals holds the pair (d(f, omega1), d(g, omega2))
    of dual sides d(h, omega) = subst_dual(Z(h*, omega^-1)/L(omega^-1)),
    and epsilons, in the same order, the pair (e(f, omega1),
    e(g, omega2)) of epsilon sides e(h, omega) =
    epsilon_star(omega) Z(h, omega)/L(omega), each epsilon_star at the
    tensor's measure mu.  The two-variable values are formed from the
    sides before they are compared, so one equation of two-variable
    values is decided, not one per variable; a caller builds each side
    once for many checks."""
    return (sum(d1 * d2 for d1, d2 in duals)
            == sum(e1 * e2 for e1, e2 in epsilons))


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
