"""Reduction modulo a prime: an equality oracle for exact values that runs
on none of exactnum's arithmetic.

P is a prime with P = 1 mod M, M = 240, so F_P holds a primitive M-th
root of unity W, and zeta_m goes to W^(M/m) for every order m dividing M
(8, 12, 20, 24 and their divisors, which is every order that q = 2, 3, 5
need).  That is a ring homomorphism from Q(zeta_m), on the rationals whose
denominators P does not divide, to F_P.  A ZetaValue maps to F_P by
evaluating each numerator and denominator at a point (t, x) of F_P, so
equal values have equal images at every point where no denominator
vanishes.  Unequal values have equal images at a random point with
probability at most their degree over P (Schwartz, JACM 27, 1980;
Zippel, EUROSAM 1979), and P is near 2^61.
"""

import random
from fractions import Fraction

M = 240


def _is_prime(n):
    """Miller-Rabin with the first 13 prime bases, exact for 41 < n <
    3.3e24."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


P = next(p for p in range(M * (2 ** 61 // M) + 1, 2 ** 62, M) if _is_prime(p))
W = next(w for w in (pow(g, (P - 1) // M, P) for g in range(2, P))
         if all(pow(w, M // r, P) != 1 for r in (2, 3, 5)))


def scalar(c):
    """The image of an int, a Fraction or a CycRat."""
    if isinstance(c, (int, Fraction)):
        c = Fraction(c)
        return c.numerator * pow(c.denominator, -1, P) % P
    if M % c.m:
        raise ValueError("order %d does not divide %d" % (c.m, M))
    z = pow(W, M // c.m, P)
    return sum(scalar(x) * pow(z, i, P) for i, x in enumerate(c.a)) % P


def poly(coeffs, t):
    """The image of a polynomial in T, ascending coefficients, at T = t."""
    out = 0
    for c in reversed(coeffs):
        out = (out * t + scalar(c)) % P
    return out


def fraction(num, den, t):
    d = poly(den, t)
    if not d:
        raise ZeroDivisionError("a denominator vanishes at the point")
    return poly(num, t) * pow(d, -1, P) % P


def image(v, t, x):
    """The image of a ZetaValue, read from its stored fractions, or of a
    scalar, at T = t and X = x."""
    if not hasattr(v, "_fr"):
        return scalar(v)
    return sum(pow(x, g, P) * fraction(n, d, t)
               for g, (n, d) in v._fr.items()) % P


def points(seed, count=2):
    rng = random.Random(seed)
    return [(rng.randrange(2, P), rng.randrange(2, P)) for _ in range(count)]


def same_image(a, b, pts):
    return all(image(a, t, x) == image(b, t, x) for t, x in pts)
