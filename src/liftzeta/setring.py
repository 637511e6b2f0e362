"""A generic ring of sets built from families of atoms.

An atom family here is a collection of sets closed under intersection and
union whenever two members meet.  From such a family one can form
differences of an atom by finitely many disjoint sub-atoms, and then
finite disjoint unions of those; the result is closed under union,
intersection and difference, which is all a finitely additive measure
needs.

Normal forms are not canonical: two structurally different descriptions
can denote the same set, so equality is decided by membership on probe
points supplied by the atom family.
"""

from fractions import Fraction


class AtomFamily:
    """Interface for a family of atoms.

    Subclasses provide the three predicates and the partial meet/join,
    plus point membership and probe points for semantic comparisons.
    """

    def nested(self, a, b):
        """Is a contained in b?"""
        raise NotImplementedError

    def disjoint(self, a, b):
        raise NotImplementedError

    def equal(self, a, b):
        return self.nested(a, b) and self.nested(b, a)

    def intersection(self, a, b):
        """The atom a meet b, or None when they are disjoint."""
        raise NotImplementedError

    def union(self, a, b):
        """The atom a join b; only defined when they meet."""
        raise NotImplementedError

    def contains_point(self, a, x):
        raise NotImplementedError

    def probe_points(self, atoms):
        """Finitely many points that separate any two sets built from
        the given atoms."""
        raise NotImplementedError


def refine_disjoint(family, atoms):
    """Merge meeting atoms until the collection is pairwise disjoint.

    The union is preserved and every output atom is a union of inputs.
    """
    out = list(atoms)
    changed = True
    while changed:
        changed = False
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                if not family.disjoint(out[i], out[j]):
                    merged = family.union(out[i], out[j])
                    out[j] = out[-1]
                    out.pop()
                    out[i] = merged
                    changed = True
                    break
            if changed:
                break
    return out


class DddSet:
    """A finite disjoint union of components, each an atom minus finitely
    many disjoint sub-atoms."""

    __slots__ = ("family", "components")

    def __init__(self, family, components=()):
        self.family = family
        cleaned = []
        for outer, inners in components:
            if any(family.equal(inner, outer) for inner in inners):
                continue
            cleaned.append((outer, tuple(inners)))
        self.components = tuple(cleaned)

    @classmethod
    def empty(cls, family):
        return cls(family, ())

    @classmethod
    def atom(cls, family, a):
        return cls(family, [(a, ())])

    @classmethod
    def carved(cls, family, outer, inners):
        """outer minus the union of the (not necessarily disjoint)
        inner atoms."""
        kept = []
        for a in inners:
            meet = family.intersection(a, outer)
            if meet is not None:
                kept.append(meet)
        return cls(family, [(outer, tuple(refine_disjoint(family, kept)))])

    def is_structurally_empty(self):
        return not self.components

    def contains(self, x):
        fam = self.family
        # outer atoms of distinct components may overlap even though the
        # components themselves are disjoint, so every component is tried
        for outer, inners in self.components:
            if fam.contains_point(outer, x) and not any(
                    fam.contains_point(a, x) for a in inners):
                return True
        return False

    def atoms(self):
        out = []
        for outer, inners in self.components:
            out.append(outer)
            out.extend(inners)
        return out

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

    # -- measure and comparison ------------------------------------------------
    def measure(self, atom_measure):
        total = None
        for outer, inners in self.components:
            part = atom_measure(outer)
            for a in inners:
                part = part - atom_measure(a)
            total = part if total is None else total + part
        return 0 if total is None else total

    def same_set(self, other):
        pts = self.family.probe_points(self.atoms() + other.atoms())
        return all(self.contains(p) == other.contains(p) for p in pts)


class IntervalFamily(AtomFamily):
    """Half-open rational intervals [lo, hi) on the line."""

    def nested(self, a, b):
        return b[0] <= a[0] and a[1] <= b[1]

    def disjoint(self, a, b):
        return a[1] <= b[0] or b[1] <= a[0]

    def intersection(self, a, b):
        if self.disjoint(a, b):
            return None
        return (max(a[0], b[0]), min(a[1], b[1]))

    def union(self, a, b):
        if self.disjoint(a, b):
            raise ValueError("union of disjoint intervals is not an atom")
        return (min(a[0], b[0]), max(a[1], b[1]))

    def contains_point(self, a, x):
        return a[0] <= x < a[1]

    def probe_points(self, atoms):
        cuts = sorted({e for a in atoms for e in a})
        if not cuts:
            return []
        pts = list(cuts)
        pts.append(cuts[0] - 1)
        pts.append(cuts[-1] + 1)
        for lo, hi in zip(cuts, cuts[1:]):
            pts.append(Fraction(lo + hi, 2))
        return pts

    @staticmethod
    def length(a):
        return a[1] - a[0]


class KCosetFamily(AtomFamily):
    """Cosets a + pi^n O of the local field; any two are nested or
    disjoint, so meet and join are just the smaller and larger one."""

    def __init__(self, q, mu=Fraction(1)):
        self.q = q
        self.mu = Fraction(mu)

    def nested(self, a, b):
        return a.relation(b) in ("equal", "in")

    def disjoint(self, a, b):
        return a.relation(b) == "disjoint"

    def intersection(self, a, b):
        rel = a.relation(b)
        if rel == "disjoint":
            return None
        return a if rel in ("equal", "in") else b

    def union(self, a, b):
        rel = a.relation(b)
        if rel == "disjoint":
            raise ValueError("union of disjoint cosets is not a coset")
        return b if rel == "in" else a

    def contains_point(self, a, x):
        return a.contains(x)

    def probe_points(self, atoms):
        if not atoms:
            return []
        deep = max(a.level for a in atoms) + 1
        pts = []
        for a in atoms:
            pts.extend(c.rep for c in a.subcosets(deep))
        return pts

    def haar(self, a):
        return self.mu * Fraction(self.q) ** (-a.level)
