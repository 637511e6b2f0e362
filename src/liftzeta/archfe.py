"""Numerical checks of the real-field analogue of the star transform.

Over the real numbers the transform g*(y) = 2 int g(x) e(nabla(y x)) |x| dx
(with nabla x = |x| x and e(x) = exp(2 pi i x)) has closed forms for the
Gaussian, and the zeta integral of the Gaussian composed with nabla is a
gamma function.  Everything here is floating point: the identities are
verified by a double-exponential quadrature rule rather than exactly.
"""

import cmath
import math
from functools import lru_cache


def nabla(x):
    """x -> |x| x."""
    return abs(x) * x


def gaussian(x):
    """e^(-pi x^2)."""
    return math.exp(-math.pi * x * x)


def gaussian_star(y):
    """The closed form of the transform of the Gaussian."""
    return 2 * math.pi / (math.pi ** 2 + 4 * math.pi ** 2 * y ** 4)


def gaussian_nabla(x):
    """The Gaussian composed with nabla, e^(-pi x^4); a fixed point of
    the transform, so it is its own closed form."""
    return math.exp(-math.pi * x ** 4)


def _node(t):
    """The exp-sinh abscissa x = exp(pi/2 sinh t) and cosh t, the
    Jacobian factor dx/dt = x (pi/2) cosh t without x and pi/2."""
    return math.exp(math.pi / 2 * math.sinh(t)), math.cosh(t)


@lru_cache(maxsize=None)
def _nodes(level):
    """The (x, cosh t) pairs of the t window [-6, 4] that halving level
    adds: t = -6 + k/2 for k = 1..19 at level 0, the odd multiples of the
    step 0.5/2^level past -6 after that, in increasing t.  So the nodes
    of a finer level strictly between t = -6 + a/2 and t = -6 + b/2 are
    its slice [a 2^(level-1) : b 2^(level-1)].  The nodes depend on the
    level alone, so every quadrature shares them."""
    h = 0.5 / 2 ** level
    ks = range(1, 20) if level == 0 else range(1, round(10 / h), 2)
    return tuple(_node(-6 + k * h) for k in ks)


def _complex_quad(fn, tol):
    """int_0^inf fn(x) dx and an error estimate by the exp-sinh rule of
    Takahasi and Mori (Publ. RIMS 9, 1974): x = exp(pi/2 sinh t), then
    the trapezoid rule in t, its step halved from 1/2 until two sums
    agree within tol.  The t window is lopsided: t = -6 reaches
    x ~ e^-317, where |x|^s has decayed even for small s, and t = 4 stops
    at x ~ e^43, before x^4 overflows.  A sum cut off by the window still
    converges, so the error adds the end terms to the step difference.

    The finer levels sum only where the level-0 terms matter: between the
    first and the last of them that reach 1e-20 of the largest, widened
    by one level-0 node on each side; the error adds the largest level-0
    term left outside.  A zero integrand keeps the whole window: its cut
    is 0, which every term reaches.  The step difference d of the
    trapezoid sums about squares with each halving, so once it shrinks,
    d^2 over the previous difference estimates the error of the current
    sum (Bailey, Jeyabalan and Li, Experimental Math. 14, 2005); the rule
    stops when that is within tol too, a level before the difference
    itself would be.
    """
    half_pi = math.pi / 2

    def terms(nodes):
        return [fn(x) * x * half_pi * c for x, c in nodes]

    end_lo, end_hi = terms([_node(-6), _node(4)])
    coarse = terms(_nodes(0))
    if not all(map(cmath.isfinite, coarse)):
        raise ArithmeticError("integrand not finite at a level-0 node")
    cut = 1e-20 * max(map(abs, coarse))
    kept = [k for k, v in enumerate(coarse, 1) if abs(v) >= cut]
    a, b = kept[0] - 1, kept[-1] + 1
    dropped = max((abs(v) for k, v in enumerate(coarse, 1)
                   if not a <= k <= b), default=0.0)
    h = 0.5
    total = h * ((end_lo + end_hi) / 2 + sum(coarse))
    prev = 0.0  # no earlier difference, so none is shrinking yet
    for level in range(1, 10):
        h /= 2
        half = 2 ** (level - 1)
        new = total / 2 + h * sum(terms(_nodes(level)[a * half:b * half]))
        diff, total = abs(new - total), new
        bound = tol * max(1.0, abs(total))
        if diff <= bound:
            break
        if diff < prev and diff * diff / prev <= bound:
            diff = diff * diff / prev
            break
        prev = diff
    if not cmath.isfinite(total):
        raise ArithmeticError("quadrature sum not finite")
    return total, diff + abs(end_lo) + abs(end_hi) + dropped


def star_numeric(f, y):
    """The transform 2 int f(x) e(nabla(y x)) |x| dx by quadrature, the
    step halved until two sums agree within 1e-10; ArithmeticError if the
    error estimate exceeds 1e-8.

    The substitution u = x^2 on each half line makes the phase linear:
    nabla(y x) = nabla(y) nabla(x) = +-nabla(y) u, so the integral is
    int over u >= 0 of (f(sqrt u) e(a u) + f(-sqrt u) e(-a u)) du with
    a = nabla(y).
    """
    a = nabla(y)

    def integrand(u):
        r = math.sqrt(u)
        phase = cmath.exp(2j * math.pi * a * u)
        return f(r) * phase + f(-r) * phase.conjugate()

    val, err = _complex_quad(integrand, 1e-10)
    if not err <= 1e-8:
        raise ArithmeticError("quadrature did not converge")
    return val


def zeta_numeric(f, omega, s):
    """int f(x) omega(x) |x|^s d*x by quadrature, for omega either the
    trivial character (1) or the sign character ("sign"), the step halved
    until two sums agree within 1e-12; ArithmeticError if the error
    estimate exceeds 1e-9.

    Only the region of absolute convergence Re(s) > 0 is supported.
    """
    if omega not in (1, "sign"):
        raise ValueError("omega must be 1 or 'sign'")
    s = complex(s)
    if s.real <= 0:
        raise ValueError("Re(s) must be positive for direct quadrature")
    sign_at_minus = -1.0 if omega == "sign" else 1.0

    def integrand(x):
        weight = x ** complex(s.real - 1, s.imag)
        return (f(x) + sign_at_minus * f(-x)) * weight

    val, err = _complex_quad(integrand, 1e-12)
    if not err <= 1e-9:
        raise ArithmeticError("quadrature did not converge")
    return val


def gamma_zeta_closed_form(s):
    """(1/2) pi^(-s/4) Gamma(s/4), the closed form of the zeta integral
    of e^(-pi x^4) against the trivial character."""
    s = complex(s)
    if s.imag == 0:
        return complex(0.5 * math.pi ** (-s.real / 4)
                       * math.gamma(s.real / 4))
    raise ValueError("closed form implemented for real s only")


def fe_product_check(f, f_star, g, g_star, s, tol=1e-6):
    """Does zeta(f, s) zeta(g*, 2-s) equal zeta(f*, 2-s) zeta(g, s)
    within tolerance, for the trivial character and the closed-form
    transforms f_star and g_star?"""
    lhs = zeta_numeric(f, 1, s) * zeta_numeric(g_star, 1, 2 - s)
    rhs = zeta_numeric(f_star, 1, 2 - s) * zeta_numeric(g, 1, s)
    scale = 1 + max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= tol * scale
