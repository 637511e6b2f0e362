import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liftzeta import setring
from liftzeta.localfield import KCoset, KElement
from liftzeta.setring import DddSet, KCosetFamily, refine_disjoint
from setoracle import (
    Interval, IntervalFamily, atoms, probe_points, rand_coset, rand_expr,
    rand_interval, same_set,
)

IV = IntervalFamily()


def interval(lo, hi):
    return Interval(Fraction(lo), Fraction(hi))


class TestRefineDisjoint:
    def test_overlapping_intervals_merge(self):
        got = refine_disjoint(IV, [interval(0, 2), interval(1, 3)])
        assert got == [interval(0, 3)]

    def test_nested_cosets_merge(self):
        fam = KCosetFamily(3)
        got = refine_disjoint(fam, [KCoset.ideal(3, 0), KCoset.ideal(3, 1)])
        assert len(got) == 1 and got[0].level == 0

    def test_disjoint_unchanged(self):
        atoms = [interval(0, 1), interval(2, 3)]
        got = refine_disjoint(IV, atoms)
        assert sorted(got) == atoms

    def test_three_atoms_keep_the_one_apart(self):
        # the merge moves the last atom into the merged slot; through the
        # module, so that a mutant of refine_disjoint is seen here
        got = setring.refine_disjoint(
            IV, [interval(0, 2), interval(1, 3), interval(5, 6)])
        assert sorted(got) == [interval(0, 3), interval(5, 6)]


class TestRingOps:
    def test_self_difference_empty(self):
        a = DddSet.atom(IV, interval(0, 5))
        d = a.difference(a)
        assert not d.components

    def test_coset_complement_shape(self):
        # O minus the q-1 unit residue cosets leaves pi O
        q = 3
        fam = KCosetFamily(q)
        rem = DddSet.atom(fam, KCoset.ideal(q, 0))
        for c in range(1, q):
            inner = KCoset(q, KElement.constant(q, c), 1)
            rem = rem.difference(DddSet.atom(fam, inner))
        assert same_set(rem, DddSet.atom(fam, KCoset.ideal(q, 1)))

    def test_union_associativity_oracle(self):
        q = 3
        fam = KCosetFamily(q)
        rng = random.Random(11)
        for _ in range(60):
            a, b, c = (DddSet.atom(fam, rand_coset(q, rng))
                       for _ in range(3))
            assert same_set(a.union(b).union(c), a.union(c.union(b)))

    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_interval_membership_oracle(self, seed, depth):
        rng = random.Random(seed)
        s, oracle = rand_expr(IV, rng, rand_interval, depth)
        for k in range(0, 64):
            x = Fraction(k, 4)
            assert s.contains(x) == oracle(x)

    @given(st.integers(0, 10 ** 6), st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_coset_membership_oracle(self, seed, depth):
        q = 3
        fam = KCosetFamily(q)
        rng = random.Random(seed)
        s, oracle = rand_expr(fam, rng, lambda r: rand_coset(q, r), depth)
        for pt in probe_points(atoms(s) or [KCoset.ideal(q, -1)]):
            assert s.contains(pt) == oracle(pt)

    def test_carved_empty_when_an_inner_covers_outer(self):
        q = 3
        fam = KCosetFamily(q)
        outer = KCoset(q, KElement(q, {0: 1}), 1)
        # the same coset, built separately from another representative
        copy = KCoset(q, KElement(q, {0: 1, 2: 2}), 1)
        sub = KCoset(q, KElement(q, {0: 1, 1: 2}), 2)
        kept = DddSet.carved(fam, outer, [sub])
        assert kept.components == ((outer, (sub,)),)
        # carved takes only atoms inside outer: one equal to outer, or a
        # subcoset and the copy, are cut out by the difference
        whole = DddSet.atom(fam, outer)
        for cut in (DddSet.atom(fam, copy),
                    DddSet.atom(fam, sub).union(DddSet.atom(fam, copy))):
            got = whole.difference(cut)
            assert not got.components
            for pt in probe_points([outer, copy, sub]):
                assert got.contains(pt) == (
                    outer.contains(pt) and not cut.contains(pt))
        # two overlapping intervals inside the outer one that merge into it
        assert not DddSet.carved(IV, interval(0, 3), [
            interval(0, 2), interval(1, 3)]).components
        assert DddSet.carved(IV, interval(0, 3), [
            interval(0, 1), interval(1, 2)]).components

    def test_difference_asks_each_relation_once(self, monkeypatch):
        # an inner of a component lies inside its outer, and every atom
        # handed to carved lies properly inside it, so neither is asked;
        # carved asks only whether a merged atom covers its outer
        asked, merged, within = [], set(), [None]

        class Recording(IntervalFamily):
            def relation(self, a, b):
                asked.append((within[-1], a, b, set(merged)))
                return super().relation(a, b)

        def refine(family, atoms):
            within.append("refine_disjoint")
            out = real_refine(family, atoms)
            within.pop()
            merged.clear()
            merged.update(id(a) for a in out
                          if not any(a is b for b in atoms))
            return out

        def carved(cls, family, outer, inners):
            within.append(("carved", outer))
            try:
                return real_carved(family, outer, inners)
            finally:
                within.pop()

        real_refine, real_carved = setring.refine_disjoint, DddSet.carved
        monkeypatch.setattr(setring, "refine_disjoint", refine)
        monkeypatch.setattr(DddSet, "carved", classmethod(carved))
        fam = Recording()

        def dd(outer, *inners):
            return DddSet(fam, [(interval(*outer),
                                 [interval(*a) for a in inners])])

        x = dd((0, 10), (2, 5), (Fraction(11, 2), Fraction(15, 2)),
               (Fraction(33, 4), Fraction(17, 2))).union(
            dd((20, 24), (21, 22)))
        y = dd((4, 23), (6, 7), (8, 12), (19, 21))
        asked.clear()
        got = x.difference(y)
        for pt in probe_points(atoms(x) + atoms(y)):
            assert got.contains(pt) == (x.contains(pt) and not y.contains(pt))
        for outer, inners in x.components:
            for _, a, b, _ in asked:
                assert not (a is outer and any(b is i for i in inners))
                assert not (b is outer and any(a is i for i in inners))
        in_carved = [(place[1], a, b, was_merged)
                     for place, a, b, was_merged in asked
                     if isinstance(place, tuple)]
        assert in_carved
        for outer, a, b, was_merged in in_carved:
            assert a is outer and id(b) in was_merged

    def test_mixed_family_rejected(self):
        a = DddSet.atom(IV, interval(0, 1))
        b = DddSet.atom(IntervalFamily(), interval(0, 1))
        with pytest.raises(ValueError):
            a.difference(b)


class TestMeasure:
    def test_interval_length(self):
        a = DddSet.atom(IV, interval(0, 3))
        assert a.measure(IV.length) == 3

    def test_units_measure(self):
        q = 3
        fam = KCosetFamily(q)
        units = DddSet.atom(fam, KCoset.ideal(q, 0)).difference(
            DddSet.atom(fam, KCoset.ideal(q, 1)))
        assert units.measure(fam.haar) == Fraction(q - 1, q)

    def test_mu_scaling(self):
        q = 2
        fam = KCosetFamily(q, mu=Fraction(5, 3))
        a = DddSet.atom(fam, KCoset.ideal(q, 2))
        assert a.measure(fam.haar) == Fraction(5, 12)

    def test_additivity_on_disjoint_pairs(self):
        q = 3
        fam = KCosetFamily(q)
        rng = random.Random(23)
        count = 0
        while count < 50:
            a = DddSet.atom(fam, rand_coset(q, rng))
            b = DddSet.atom(fam, rand_coset(q, rng))
            b = b.difference(a)
            u = a.union(b)
            assert u.measure(fam.haar) == \
                a.measure(fam.haar) + b.measure(fam.haar)
            count += 1

    def test_union_three_way_split(self):
        # the union partitions into (x minus y), (x meet y), (y minus x)
        rng = random.Random(7)
        for _ in range(40):
            x = DddSet.atom(IV, rand_interval(rng))
            y = DddSet.atom(IV, rand_interval(rng))
            parts = [x.difference(y), x.intersection(y), y.difference(x)]
            total = sum(p.measure(IV.length) for p in parts)
            assert x.union(y).measure(IV.length) == total
            for pt in probe_points(atoms(x) + atoms(y)):
                flags = [p.contains(pt) for p in parts]
                assert sum(flags) == (1 if x.union(y).contains(pt) else 0)

    def test_semantic_equality_not_structural(self):
        # the same set with two different descriptions
        a = DddSet.atom(IV, interval(0, 2)).union(
            DddSet.atom(IV, interval(2, 4)))
        b = DddSet.atom(IV, interval(0, 4))
        assert same_set(a, b)
        assert a.components != b.components
