"""Numerical checks of the real-field analogue of the star transform.

Over the real numbers the transform g*(y) = 2 int g(x) e(nabla(y x)) |x| dx
(with nabla x = |x| x and e(x) = exp(2 pi i x)) has closed forms for the
Gaussian, and the zeta integral of the Gaussian composed with nabla is a
gamma function.  Everything here is floating point: the identities are
verified by a double-exponential quadrature rule rather than exactly.
"""

import cmath
import math


def nabla(x):
    """x -> |x| x."""
    return abs(x) * x


class RealTestFunction:
    """A real test function with a closed-form evaluator."""

    __slots__ = ("tag", "fn", "star_form")

    def __init__(self, tag, fn, star_form=None):
        self.tag = tag
        self.fn = fn
        self.star_form = star_form

    def __call__(self, x):
        return self.fn(x)

    def star_closed_form(self, y):
        if self.star_form is None:
            raise ValueError("no closed form for the transform of %s"
                             % self.tag)
        return self.star_form(y)


def gaussian():
    return RealTestFunction(
        "gaussian", lambda x: math.exp(-math.pi * x * x),
        star_form=lambda y: 2 * math.pi / (
            math.pi ** 2 + 4 * math.pi ** 2 * y ** 4))


def gaussian_nabla():
    """The Gaussian composed with nabla, e^(-pi x^4); a fixed point of
    the transform."""
    g = RealTestFunction("gaussian-nabla",
                         lambda x: math.exp(-math.pi * x ** 4))
    g.star_form = lambda y: g(y)
    return g


def _complex_quad(fn, tol):
    """int_0^inf fn(x) dx and an error estimate by the exp-sinh rule of
    Takahasi and Mori (Publ. RIMS 9, 1974): x = exp(pi/2 sinh t), then
    the trapezoid rule in t, its step halved from 1/2 until two sums
    agree within tol.  The t window is lopsided: t = -6 reaches
    x ~ e^-317, where |x|^s has decayed even for small s, and t = 4 stops
    at x ~ e^43, before x^4 overflows.  A sum cut off by the window still
    converges, so the error adds the end terms to the step difference.
    """
    def term(t):
        x = math.exp(math.pi / 2 * math.sinh(t))
        return fn(x) * x * (math.pi / 2) * math.cosh(t)

    lo, hi, h = -6, 4, 0.5
    end_lo, end_hi = term(lo), term(hi)
    total = h * ((end_lo + end_hi) / 2
                 + sum(term(lo + k * h) for k in range(1, 20)))
    for _ in range(9):
        h /= 2
        new = total / 2 + h * sum(term(lo + k * h)
                                  for k in range(1, round((hi - lo) / h), 2))
        diff, total = abs(new - total), new
        if diff <= tol * max(1.0, abs(total)):
            break
    return total, diff + abs(end_lo) + abs(end_hi)


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
    if err > 1e-8:
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
    if err > 1e-9:
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


def fe_product_check(f, g, omega, s, tol=1e-6):
    """Does zeta(f, omega, s) zeta(g*, omega^-1, 2-s) equal
    zeta(f*, omega^-1, 2-s) zeta(g, omega, s) within tolerance?

    f and g must carry closed-form transforms; omega^-1 = omega for the
    two characters supported here.
    """
    fs = RealTestFunction(f.tag + "*", f.star_closed_form)
    gs = RealTestFunction(g.tag + "*", g.star_closed_form)
    lhs = zeta_numeric(f, omega, s) * zeta_numeric(gs, omega, 2 - s)
    rhs = zeta_numeric(fs, omega, 2 - s) * zeta_numeric(g, omega, s)
    scale = 1 + max(abs(lhs), abs(rhs))
    return abs(lhs - rhs) <= tol * scale
