"""A generic ring of sets built from families of atoms.

An atom family here is a collection of sets closed under intersection and
union whenever two members meet.  A family supplies one relation, which
says how two atoms lie (disjoint, equal, nested or overlapping), and,
where atoms can overlap, their join; the predicates and the meet follow
from the relation.  An atom answers ``contains(x)`` for a point.  From
such a family one can form differences of an atom by finitely many
disjoint sub-atoms, and then finite disjoint unions of those; the result
is closed under union, intersection and difference, which is all a
finitely additive measure needs.

Normal forms are not canonical: two structurally different descriptions
can denote the same set.  The library compares residue sets by integer
coset counts, which are Haar measure up to the factor mu q^-L for the
deepest level L among their atoms, and builds the meet only for an
overlap (see lift2d.DistinguishedFamily).
"""

from fractions import Fraction


class AtomFamily:
    """Interface for a family of atoms.

    Subclasses provide relation and, where atoms can overlap, join; the
    predicates and the partial meet follow from relation.  The
    atoms themselves answer contains(x).
    """

    def relation(self, a, b):
        """(kind, meet): kind is "disjoint", "equal", "in" (a inside b),
        "contains" (b inside a) or "overlap", and meet, the atom a meet
        b, is given only for "overlap"."""
        raise NotImplementedError

    def join(self, a, b):
        """The atom a join b of two overlapping atoms."""
        raise NotImplementedError

    def nested(self, a, b):
        """Is a contained in b?"""
        return self.relation(a, b)[0] in ("equal", "in")

    def disjoint(self, a, b):
        return self.relation(a, b)[0] == "disjoint"

    def equal(self, a, b):
        return self.relation(a, b)[0] == "equal"

    def intersection(self, a, b):
        """The atom a meet b, or None when they are disjoint."""
        kind, meet = self.relation(a, b)
        if kind in ("equal", "in"):
            return a
        return b if kind == "contains" else meet

    def _joined(self, kind, a, b):
        if kind == "disjoint":
            raise ValueError("union of disjoint atoms is not an atom")
        if kind == "overlap":
            return self.join(a, b)
        return b if kind == "in" else a


def refine_disjoint(family, atoms):
    """Merge meeting atoms until the collection is pairwise disjoint.

    The union is preserved and every output atom is a union of inputs.
    """
    out = list(atoms)
    i = 0
    while i < len(out):
        # atoms before i are disjoint from all others, so also from a merge
        for j in range(i + 1, len(out)):
            kind, _ = family.relation(out[i], out[j])
            if kind != "disjoint":
                out[i] = family._joined(kind, out[i], out[j])
                out[j] = out[-1]
                out.pop()
                break
        else:
            i += 1
    return out


class DddSet:
    """A finite disjoint union of components, each an atom minus finitely
    many disjoint sub-atoms."""

    __slots__ = ("family", "components")

    def __init__(self, family, components=()):
        # every inner lies inside its outer and none covers it; carved is
        # the one place an inner can come to cover its outer
        self.family = family
        self.components = tuple((outer, tuple(inners))
                                for outer, inners in components)

    @classmethod
    def atom(cls, family, a):
        return cls(family, [(a, ())])

    @classmethod
    def carved(cls, family, outer, inners):
        """outer minus the union of the (not necessarily disjoint)
        inner atoms; empty when one refined inner covers outer."""
        kept = []
        for a in inners:
            kind, meet = family.relation(a, outer)
            if kind in ("equal", "contains"):
                return cls(family)
            if kind != "disjoint":
                kept.append(a if kind == "in" else meet)
        # a kept atom lies properly inside outer, so only an atom that
        # refine_disjoint merged can cover it
        ids = {id(a) for a in kept}
        refined = refine_disjoint(family, kept)
        if any(id(a) not in ids and family.nested(outer, a)
               for a in refined):
            return cls(family)
        return cls(family, [(outer, tuple(refined))])

    def contains(self, x):
        # outer atoms of distinct components may overlap even though the
        # components themselves are disjoint, so every component is tried
        for outer, inners in self.components:
            if outer.contains(x) and not any(a.contains(x) for a in inners):
                return True
        return False

    # -- ring operations -----------------------------------------------------
    def _component_minus_component(self, comp, other):
        """All parts of the dd component comp outside the dd component
        other, as a list of components."""
        fam = self.family
        outer_a, inners_a = comp
        outer_b, inners_b = other
        pieces = []
        # points of comp outside outer_b entirely
        meet_ab = fam.intersection(outer_a, outer_b)
        carve = list(inners_a) + ([meet_ab] if meet_ab is not None else [])
        pieces.extend(
            DddSet.carved(fam, outer_a, carve).components)
        if meet_ab is None:
            return pieces
        # points of comp inside some inner atom of other
        for b in inners_b:
            c = fam.intersection(outer_a, b)
            if c is None:
                continue
            cut = [x for x in (fam.intersection(a, c) for a in inners_a)
                   if x is not None]
            pieces.extend(DddSet.carved(fam, c, cut).components)
        return pieces

    def difference(self, other):
        if other.family is not self.family:
            raise ValueError("mixed atom families")
        comps = []
        for comp in self.components:
            remaining = [comp]
            for oc in other.components:
                nxt = []
                for piece in remaining:
                    nxt.extend(self._component_minus_component(piece, oc))
                remaining = nxt
            comps.extend(remaining)
        return DddSet(self.family, comps)

    def union(self, other):
        extra = other.difference(self)
        return DddSet(self.family, self.components + extra.components)

    def intersection(self, other):
        return self.difference(self.difference(other))

    # -- measure -------------------------------------------------------------
    def measure(self, atom_measure):
        total = None
        for outer, inners in self.components:
            part = atom_measure(outer)
            for a in inners:
                part = part - atom_measure(a)
            total = part if total is None else total + part
        return 0 if total is None else total


class KCosetFamily(AtomFamily):
    """Cosets a + pi^n O of the local field; any two are nested or
    disjoint, so meet and join are just the smaller and larger one."""

    def __init__(self, q, mu=Fraction(1)):
        self.q = q
        self.mu = Fraction(mu)
        if self.mu <= 0:
            raise ValueError("Haar measure mu must be positive, got %s"
                             % self.mu)

    def relation(self, a, b):
        return a.relation(b), None

    def haar(self, a):
        return self.mu * Fraction(self.q) ** (-a.level)
