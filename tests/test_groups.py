"""Group arithmetic and subgroup classes vs exhaustive enumeration."""

import pytest

from glattice.groups import GroupElement, cyclic, dihedral, elements, mul, subgroup_classes
from subgroup_oracle import (
    IDENTITY,
    all_subgroups,
    closure,
    conjugate,
    conjugate_subgroup,
    inv,
    subgroup_classes_exhaustive,
)

UP_TO_30 = [cyclic(n) for n in range(1, 31)] + [dihedral(n) for n in range(1, 31)]


def test_element_counts():
    assert len(elements(dihedral(5))) == 10
    assert len(elements(cyclic(7))) == 7
    d3 = elements(dihedral(3))
    assert d3 == [GroupElement(i, e) for e in (0, 1) for i in range(3)]
    assert d3[0] == IDENTITY


def test_defining_relations():
    g = dihedral(7)
    s = GroupElement(1, 0)
    t = GroupElement(0, 1)
    x = s
    for _ in range(6):
        x = mul(g, x, s)
    assert x == IDENTITY  # sigma^n = 1
    assert mul(g, t, t) == IDENTITY  # tau^2 = 1
    # tau sigma tau = sigma^{-1}
    assert conjugate(g, t, s) == inv(g, s)


@pytest.mark.parametrize("g", [cyclic(6), dihedral(3), dihedral(5), dihedral(9)])
def test_group_axioms_bruteforce(g):
    els = elements(g)
    e = els[0]
    for a in els:
        assert mul(g, a, inv(g, a)) == IDENTITY
        assert mul(g, e, a) == a and mul(g, a, e) == a
    if g.order <= 14:
        for a in els:
            for b in els:
                for c in els:
                    assert mul(g, mul(g, a, b), c) == mul(g, a, mul(g, b, c))


def test_subgroup_classes_d5():
    cls = subgroup_classes(dihedral(5))
    assert [c.label for c in cls] == ["1", "D_1", "C_5", "D_5"]
    refl = cls[1]
    assert refl.conjugate_count == 5
    assert cls[2].conjugate_count == 1


def test_subgroup_classes_d15():
    cls = subgroup_classes(dihedral(15))
    labels = {c.label for c in cls}
    assert labels == {"1", "C_3", "C_5", "C_15", "D_1", "D_3", "D_5", "D_15"}
    assert len(cls) == 8


def test_subgroup_classes_c4():
    cls = subgroup_classes(cyclic(4))
    assert [c.order for c in cls] == [1, 2, 4]


def test_conjugate_subgroup_examples():
    g = dihedral(3)
    cls = {c.label: c for c in subgroup_classes(g)}
    sigma = GroupElement(1, 0)
    # <sigma> is normal
    rot = cls["C_3"]
    assert conjugate_subgroup(g, rot, sigma) == list(rot.representative)
    # sigma <tau> sigma^{-1} = {1, sigma^2 tau}
    refl = cls["D_1"]
    assert GroupElement(0, 1) in refl.representative
    got = conjugate_subgroup(g, refl, sigma)
    assert got == sorted([GroupElement(0, 0), GroupElement(2, 1)])
    triv = cls["1"]
    assert conjugate_subgroup(g, triv, sigma) == [GroupElement(0, 0)]


@pytest.mark.parametrize("n", [3, 5, 7, 9, 15])
def test_classes_cover_all_subgroups_odd_dihedral(n):
    g = dihedral(n)
    subs = all_subgroups(g)
    cls = subgroup_classes(g)
    assert sum(c.conjugate_count for c in cls) == len(subs)
    # every subgroup is conjugate to exactly one representative
    els = elements(g)
    for sub in subs:
        hits = 0
        for c in cls:
            rep = frozenset(c.representative)
            if any(frozenset(conjugate(g, x, a) for a in sub) == rep for x in els):
                hits += 1
        assert hits == 1


def test_classes_even_dihedral():
    # D_2 = Klein four group: five subgroups, all normal
    g = dihedral(2)
    cls = subgroup_classes(g)
    assert sum(c.conjugate_count for c in cls) == len(all_subgroups(g)) == 5
    # D_4 has two non-conjugate reflection classes
    g4 = dihedral(4)
    cls4 = subgroup_classes(g4)
    order2_reflection_classes = [
        c for c in cls4 if c.order == 2 and any(a.flip for a in c.representative)
    ]
    assert len(order2_reflection_classes) == 2


@pytest.mark.parametrize("g", UP_TO_30, ids=str)
def test_closed_form_equals_the_exhaustive_oracle(g):
    """Label, representative, presentation and conjugate count, in order."""
    assert list(subgroup_classes(g)) == subgroup_classes_exhaustive(g)


def _order(g, a):
    x, k = a, 1
    while x != IDENTITY:
        x, k = mul(g, x, a), k + 1
    return k


def test_generators_regenerate_representative():
    """On every C_n and D_n with n <= 30, the generators span the
    representative and satisfy the relations the cohomology reads: s of
    order |S| alone, or s of order |S|/2 with t^2 = (ts)^2 = 1."""
    for g in UP_TO_30:
        for c in subgroup_classes(g):
            assert closure(g, c.generators) == set(c.representative), (g, c)
            if len(c.generators) == 2:
                s, t = c.generators
                assert s.flip == 0 and t.flip == 1
                assert _order(g, s) == c.order // 2
                assert mul(g, t, t) == IDENTITY
                assert mul(g, mul(g, t, s), mul(g, t, s)) == IDENTITY
            elif c.generators:
                assert _order(g, c.generators[0]) == c.order
            else:
                assert c.order == 1
