"""The membership oracle for the set ring, shared by the tests.

The library decides how two sets lie by ``relation`` and coset counts,
not by probing points.  The tests check those answers against
membership: probe points of a collection of atoms are finitely many
points that separate any two sets built from those atoms, so two such
sets are equal when they agree on every probe point.  The coset counts
are checked against a second oracle here, the relation of two residue
sets read off the Haar measures of the sets and of their meet.  Also
here: a family of rational intervals, whose atoms can overlap, so that
the generic ring is tested with joins, and random set expressions drawn
together with their membership predicate.
"""

from fractions import Fraction
from typing import NamedTuple

from liftzeta.lift2d import DistinguishedSetF, FElement
from liftzeta.localfield import KCoset, KElement, KSingleton
from liftzeta.setring import AtomFamily, DddSet


class Interval(NamedTuple):
    """The half-open rational interval [lo, hi)."""

    lo: Fraction
    hi: Fraction

    def contains(self, x):
        return self.lo <= x < self.hi


class IntervalFamily(AtomFamily):
    """Half-open rational intervals on the line."""

    def relation(self, a, b):
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        if hi <= lo:
            return "disjoint", None
        if (lo, hi) == a:
            return ("equal" if a == b else "in"), None
        if (lo, hi) == b:
            return "contains", None
        return "overlap", Interval(lo, hi)

    def join(self, a, b):
        return Interval(min(a.lo, b.lo), max(a.hi, b.hi))

    @staticmethod
    def length(a):
        return a.hi - a.lo


# -- probe points -------------------------------------------------------------

def _interval_points(pieces):
    cuts = sorted({e for a in pieces for e in a})
    pts = list(cuts)
    pts.append(cuts[0] - 1)
    pts.append(cuts[-1] + 1)
    for lo, hi in zip(cuts, cuts[1:]):
        pts.append(Fraction(lo + hi, 2))
    return pts


def _coset_points(pieces):
    deep = max(a.level for a in pieces) + 1
    return [c.rep for a in pieces for c in a.subcosets(deep)]


def _distinguished_points(pieces):
    q = pieces[0].q
    levels = sorted({a.gamma for a in pieces})
    levels.append(levels[-1] + 2)
    pool = [KElement.zero(q), KElement.one(q), KElement.uniformizer(q, -1)]
    for a in pieces:
        if isinstance(a.S, KSingleton):
            pool.append(a.S.point)
        else:
            pool.extend(probe_points(atoms(a.S)))
    pts = []
    for a in pieces:
        pts.append(a.a)
        for g in levels:
            for kappa in pool:
                pts.append(a.a + FElement(q, {g: kappa}))
    return pts


_POINTS = {Interval: _interval_points, KCoset: _coset_points,
           DistinguishedSetF: _distinguished_points}


def probe_points(pieces):
    """Finitely many points that separate any two sets built from the
    atoms in pieces, all intervals, all cosets of K or all distinguished
    sets of F."""
    return _POINTS[type(pieces[0])](pieces) if pieces else []


def atoms(s):
    """The outer and inner atoms of every component of the DddSet s."""
    return [a for outer, inners in s.components for a in (outer, *inners)]


def same_set(x, y):
    """Do the DddSets x and y have the same members?"""
    return all(x.contains(p) == y.contains(p)
               for p in probe_points(atoms(x) + atoms(y)))


# -- random sets --------------------------------------------------------------

def rand_interval(rng):
    lo = Fraction(rng.randrange(0, 12), 2)
    return Interval(lo, lo + Fraction(rng.randrange(1, 7), 2))


def rand_coset(q, rng):
    rep = KElement(q, {e: rng.randrange(q) for e in range(-1, 2)})
    return KCoset(q, rep, rng.randrange(-1, 3))


def rand_expr(family, rng, atom_maker, depth):
    """A random DddSet of the given depth of unions, differences and
    intersections of atoms drawn by atom_maker(rng), together with its
    membership predicate."""
    if depth == 0:
        a = atom_maker(rng)
        return DddSet.atom(family, a), a.contains
    left, lf = rand_expr(family, rng, atom_maker, depth - 1)
    right, rf = rand_expr(family, rng, atom_maker, depth - 1)
    op = rng.choice("udi")
    if op == "u":
        return left.union(right), lambda x: lf(x) or rf(x)
    if op == "d":
        return left.difference(right), lambda x: lf(x) and not rf(x)
    return left.intersection(right), lambda x: lf(x) and rf(x)


# -- residue sets by Haar measure -------------------------------------------

def measure_relation(kfam, S1, S2):
    """(kind, meet) of two residue sets, DddSets of K cosets, decided by
    Haar measure: the meet is built by ``S1.intersection(S2)`` and all
    three sets are measured with ``kfam.haar``; meet is given only for
    "overlap"."""
    meet = S1.intersection(S2)
    m, m1, m2 = (S.measure(kfam.haar) for S in (meet, S1, S2))
    if m == m1 == m2:
        return "equal", None
    if m == 0:
        return "disjoint", None
    if m == m1:
        return "in", None
    return ("contains", None) if m == m2 else ("overlap", meet)
