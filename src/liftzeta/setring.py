"""A generic ring of sets built from families of atoms.

An atom family here is a collection of sets closed under intersection and
union whenever two members meet.  A family supplies one relation, which
says how two atoms lie (disjoint, equal, nested or overlapping) and gives
their meet for an overlap, and, where atoms can overlap, their join.  An
atom answers ``contains(x)`` for a point.  From such a family one can
form differences of an atom by finitely many disjoint sub-atoms, and then
finite disjoint unions of those; the result is closed under union,
intersection and difference, which is all a finitely additive measure
needs.  A difference asks relation once for each pair of atoms it
compares, acts on the kind it gets, and never asks an inner against its
own outer.

Normal forms are not canonical: two structurally different descriptions
can denote the same set.  The library compares residue sets by integer
coset counts, which are Haar measure up to the factor mu q^-L for the
deepest level L among their atoms, and builds the meet only for an
overlap (see lift2d.DistinguishedFamily).
"""

from fractions import Fraction


class AtomFamily:
    """Interface for a family of atoms: relation and, where atoms can
    overlap, join.  The atoms themselves answer contains(x)."""

    def relation(self, a, b):
        """(kind, meet): kind is "disjoint", "equal", "in" (a inside b),
        "contains" (b inside a) or "overlap", and meet, the atom a meet
        b, is given only for "overlap"."""
        raise NotImplementedError

    def join(self, a, b):
        """The atom a join b of two overlapping atoms."""
        raise NotImplementedError


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
                if kind == "overlap":
                    out[i] = family.join(out[i], out[j])
                elif kind == "in":
                    out[i] = out[j]
                # equal or contains: out[i] is already the join
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
        # every inner lies properly inside its outer, and the inners of a
        # component are pairwise disjoint
        self.family = family
        self.components = tuple((outer, tuple(inners))
                                for outer, inners in components)

    @classmethod
    def atom(cls, family, a):
        return cls(family, [(a, ())])

    @classmethod
    def carved(cls, family, outer, inners):
        """outer minus the union of the inner atoms, each properly inside
        outer but not necessarily disjoint; empty when atoms that
        refine_disjoint merges cover outer."""
        ids = {id(a) for a in inners}
        refined = refine_disjoint(family, inners)
        # an unmerged atom lies properly inside outer, so only a merged
        # one can cover it
        if any(id(a) not in ids
               and family.relation(outer, a)[0] in ("equal", "in")
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
        kind, meet = fam.relation(outer_a, outer_b)
        if kind == "disjoint":
            return [comp]
        pieces = []
        # points of comp outside outer_b entirely, none when outer_a lies
        # in outer_b
        if kind in ("contains", "overlap"):
            cut = outer_b if kind == "contains" else meet
            pieces.extend(DddSet.carved(fam, outer_a,
                                        (*inners_a, cut)).components)
        # points of comp inside some inner atom of other
        for b in inners_b:
            kind, c = fam.relation(outer_a, b)
            if kind == "disjoint":
                continue
            if kind in ("equal", "in"):
                # all of comp lies in b, so outside other
                pieces.append(comp)
                continue
            if kind == "contains":
                c = b
            # c lies properly inside outer_a; cut it by the inners of comp
            cut = []
            for a in inners_a:
                kind, meet = fam.relation(a, c)
                if kind in ("equal", "contains"):
                    break
                if kind != "disjoint":
                    cut.append(a if meet is None else meet)
            else:
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
