"""The key path of the star transform, kept as a reference.

The library maps terms to terms and leaves each twist stored until
`normalize` expands it.  The functions here are the earlier path: they
read the plain keys as stored (a twisted input is normalized first, so
its twists are expanded), `fourier` expands the twist of each
transformed coset into plain keys and returns a normal form, and W and
nabla map plain keys by the rules of the library and return them as
they come.  A key moved by a power of the unit U of pi = u U is the
product with U^k in `KElement` arithmetic, computed afresh each time, so
the library's caches of U^k are checked, not shared.
"""

from fractions import Fraction

from liftzeta.exactnum import CycRat
from liftzeta.localfield import KElement
from liftzeta.schwartz import _keyed, _lead, _normal_form, _twist_pairs


def _plain(g):
    """g's stored keys; with a twist, those of its normal form, the only
    form of a twisted function on the key path."""
    if g._has_twist():
        g = g.normalize()
    return g._base, [(k, c) for k, _, c in g._keys]


def _times(pi):
    """(a, k) -> the digits of a U^k mod u^len(a), for pi = u U and digits
    a from u^0: the product with power_mod, truncated."""
    unit = pi.shift(-1)

    def times(a, k):
        n = len(a)
        p = KElement(pi.q, dict(enumerate(a))) * unit.power_mod(k, n)
        return tuple(map(p.truncate(n).digit, range(n)))
    return times


def fourier(g, psi):
    """Char(a + pi^L O) goes to mu q^-L psi(a y) Char(pi^(d-L) O), the
    twist expanded at once."""
    base, keys = _plain(g)
    q, d = g.q, psi.d
    out = d - base - max((len(k) for k, _ in keys), default=0)
    parts = []
    for key, c in keys:
        lev = base + len(key)
        c = c * CycRat.from_rational(g.mu * Fraction(q) ** -lev)
        ideal = (0,) * (d - lev - out)
        rep = {e: x for e, x in enumerate(key, base) if x}
        parts.append((c, q, _twist_pairs(q, d, out, ideal, rep, len(keys)))
                     if rep else (c, 1, [(ideal, 0)]))
    return _normal_form(q, g.mu, out, parts)


def w_operator(g, pi):
    base, keys = _plain(g)
    times = _times(pi)
    pairs = []
    for key, c in keys:
        j = _lead(key)
        if j == len(key):
            shells = [(0,) * (2 * j)]
        else:
            unit, v = key[j:], base + j
            shells = [(0,) * (2 * j) + times(unit, v),
                      (0,) * (2 * j + 1) + times(unit, v + 1)]
        pairs.extend((k, (), c) for k in shells)
    return _keyed(g.q, g.mu, 2 * base, pairs)


def nabla_compose(g, pi):
    base, keys = _plain(g)
    out = base // 2
    times = _times(pi)
    pairs = []
    for key, c in keys:
        j = _lead(key)
        if j == len(key):
            pairs.append(((0,) * (-(-(base + j) // 2) - out), (), c))
        elif (base + j) % 2 == 0:
            k = (base + j) // 2
            pairs.append(((0,) * (k - out) + times(key[j:], -k), (), c))
    return _keyed(g.q, g.mu, out, pairs)


def star(g, psi, pi):
    return nabla_compose(fourier(w_operator(g, pi), psi), pi)
