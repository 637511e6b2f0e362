"""Exact local zeta integrals on the field of Laurent series.

The integral of g(x) omega(x) |x|^s over the nonzero elements becomes a
rational function of T = q^(-s) once g is written in coset terms: the
cosets of one shell away from 0 sum to a single monomial, while the ideal
tail sums to a geometric series.  None of that bookkeeping depends on
the character: the shell, unit digits and scaled coefficient of each of
g's digit keys are worked out on the first `zeta` call and kept on g's
normal form, so every later character reads only omega's table of
exponents, sums each shell's roots of unity as one integer vector and
raises omega(pi) once per shell.  A key with fewer unit digits than
omega's exact conductor adds nothing, by orthogonality of characters
(Tate's thesis, 1950, section 2.5).  Everything stays exact (ZetaValue
over the cyclotomic coefficient field), so functional equations are
asserted as identities of rational functions, not at sample points.
"""

from fractions import Fraction
from functools import lru_cache

from .exactnum import CycRat, ZetaValue, cyc_sums
from .localfield import AdditiveCharacter, KCoset, KElement, gauss_sum
from .schwartz import SBFunction, _lead


def _key_table(g):
    """The keys of the normal form g as zeta reads them, one (v, units, c)
    per key, kept in g's `_zeta_keys` slot.  A key with first nonzero digit
    j lies in the shell of valuation v = base + j, and units are its
    digits from j on.  c is the coefficient times mu q^(j - len(key)), the
    multiplicative measure of the coset by d*x = |x|^-1 dx, or, for an
    ideal key (no unit digit), times mu (q - 1)/q, that of each shell the
    ideal holds.  A normal form holds a rational coefficient at order 1,
    and a rational scale keeps it there.  Nothing here depends on a
    character, so the table is built on the first zeta call and every
    character reads it."""
    q, mu = g.q, g.mu
    table = []
    for key, _, coeff in g._keys:
        j = _lead(key)
        s = mu * (Fraction(q) ** (j - len(key)) if j < len(key)
                  else Fraction(q - 1, q))
        table.append((g._base + j, key[j:], coeff * CycRat.from_rational(s)))
    g._zeta_keys = table
    return table


def zeta(g, omega):
    """Exact rational function in T for the multiplicative integral of
    g(x) omega(x) |x|^s, from the key table of g's normal form (see
    _key_table), built once per function.  omega and |.| are constant on
    a key with max(r, 1) unit digits or more, its first r giving omega's
    table exponent k; omega, of exact conductor r, sums to 0 over a
    shorter key.  The zeta_n^k are summed per shell as integer vectors,
    each shell times omega(pi)^v.  An ideal key is a union of shells
    pi^k O^x, k >= v, each of which a ramified character sums to 0."""
    if g.q != omega.q:
        raise ValueError("mixed residue sizes")
    q, r, g = g.q, omega.r, g.normalize()
    table = g._zeta_keys if g._zeta_keys is not None else _key_table(g)
    n, exponent, least = omega.n, omega.unit_table, max(r, 1)
    tails = ZetaValue.zero(q)
    parts = []
    for v, units, c in table:
        if len(units) >= least:
            parts.append((c, n, [(v, exponent[units[:r]])]))
        elif r == 0:
            tails = tails + ZetaValue.geometric(q, c, omega.pi_value, v)
    return tails + ZetaValue.laurent(q, [
        (v, c * omega.pi_value ** v) for v, c in cyc_sums(parts).items()])


def l_function(omega):
    """(1 - omega(pi) T)^-1 when omega is unramified, 1 otherwise."""
    if omega.r == 0:
        return ZetaValue.geometric(omega.q, 1, omega.pi_value, 0)
    return ZetaValue.constant(omega.q, 1)


def z_normalized(g, omega):
    """The zeta integral divided by the L-factor of the character; that
    of a ramified character is 1, and the integral comes back as it is."""
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


@lru_cache(maxsize=None)
def _test_stars(q, r, d, pi, mu):
    """The two test functions g of epsilon_star for conductor r, each
    paired with its star g* for psi of conductor d.  Neither depends on
    the character beyond r, so each pair, and the normal form that g*
    keeps, is built once per (q, r, d, pi, mu)."""
    if r == 0:
        gs = (SBFunction.char_ideal(q, 0, 1, mu),
              SBFunction.char_ideal(q, 1, 1, mu))
    else:
        gs = (SBFunction.char(KCoset(q, KElement.one(q), r), 1, mu),
              SBFunction.char(KCoset(q, pi, r + 1), 1, mu))
    psi = AdditiveCharacter(q, d)
    return tuple((g, g.star(psi, pi)) for g in gs)


def epsilon_star(omega, psi, pi, mu=Fraction(1)):
    """The exponential factor in the functional equation of the star
    transform: subst_dual(Z(g*, omega^-1)) = eps * Z(g, omega).

    Extracted from a canonical test function and cross-checked against a
    second one; the result must be a monomial a*T^b.  The test functions
    depend on omega only through its conductor r, so they and their stars
    are built once per (q, r, d, pi, mu) and shared by every character.
    """
    if psi.q != omega.q or pi.q != omega.q:
        raise ValueError("mixed residue sizes")
    inv = omega.inverse()
    results = []
    for g, g_star in _test_stars(omega.q, omega.r, psi.d, pi, mu):
        zg = z_normalized(g, omega)
        if zg.is_zero():
            raise ArithmeticError("degenerate character: test zeta vanishes")
        zs = z_normalized(g_star, inv)
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

    a = f.double_star(psi1, pi1)
    if not a.equals(f.double_star(psi1, pi2)):
        return False
    if (d1 - d2) % 2 == 0:
        return f.double_star(psi2, pi1).equals(
            a.scale(Fraction(q) ** (d1 - d2)))
    composed = a.double_star(psi2, pi1)
    expect = f.scale(f.mu ** 4 * Fraction(q) ** (-d1 - d2 - 1))
    return composed.equals(expect)

