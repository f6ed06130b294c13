"""Exhaustive subgroup classes of C_n and D_n, the reference for the closed
form in `groups.subgroup_classes`, and an explicit element set wrapped as a
subgroup class, for tests that evaluate cohomology at a conjugate or at a
subgroup the library's class list does not name.

Every subgroup is found as the closure of at most two elements, and the
classes are the orbits under conjugation by every element, so nothing here
assumes the classification of subgroups of a dihedral group.
"""

from glattice.groups import GroupElement, GroupSpec, SubgroupClass, elements, mul

IDENTITY = GroupElement(0, 0)


def inv(g: GroupSpec, a: GroupElement) -> GroupElement:
    if a.flip:
        return a
    return GroupElement((-a.rot) % g.n, 0)


def conjugate(g: GroupSpec, x: GroupElement, a: GroupElement) -> GroupElement:
    """x * a * x^{-1}."""
    return mul(g, mul(g, x, a), inv(g, x))


def closure(g: GroupSpec, gens) -> frozenset:
    seen = {IDENTITY}
    frontier = list(seen)
    gens = list(gens)
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = mul(g, a, b)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return frozenset(seen)


def all_subgroups(g: GroupSpec) -> list[frozenset]:
    """Every subgroup, by exhaustive closure of generator pairs."""
    els = elements(g)
    found = set()
    found.add(closure(g, []))
    for a in els:
        found.add(closure(g, [a]))
        for b in els:
            found.add(closure(g, [a, b]))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def presentation_of(members) -> tuple:
    """The presentation generators read off an element set: the rotation of
    smallest angle, then the reflection of smallest angle; the lone
    reflection for a subgroup of order 2 without rotations; () for 1."""
    rotations = sorted(a for a in members if a.flip == 0 and a != IDENTITY)
    reflections = sorted(a for a in members if a.flip == 1)
    return tuple(rotations[:1] + reflections[:1])


def subgroup_classes_exhaustive(g: GroupSpec) -> list[SubgroupClass]:
    """Conjugacy classes of `all_subgroups`, labelled by isomorphism type with
    a prime for each further class of the same type, sorted by (order, label)."""
    subs = all_subgroups(g)
    els = elements(g)
    seen: set[frozenset] = set()
    out = []
    counters: dict[str, int] = {}
    for sub in subs:
        if sub in seen:
            continue
        orbit = {frozenset(conjugate(g, x, a) for a in sub) for x in els}
        seen |= orbit
        rotations_only = all(a.flip == 0 for a in sub)
        if len(sub) == 1:
            base = "1"
        elif rotations_only:
            base = f"C_{len(sub)}"
        else:
            base = f"D_{len(sub) // 2}"
        label = base
        k = counters.get(base, 0)
        if k:
            label = base + "'" * k
        counters[base] = k + 1
        out.append(
            SubgroupClass(
                label=label,
                representative=tuple(sorted(sub)),
                generators=presentation_of(sub),
                conjugate_count=len(orbit),
            )
        )
    out.sort(key=lambda c: (c.order, c.label))
    return out


def conjugate_subgroup(g: GroupSpec, s: SubgroupClass, x: GroupElement) -> list[GroupElement]:
    """x S x^{-1} as a sorted element list."""
    return sorted(conjugate(g, x, a) for a in s.representative)


def subgroup_from_elements(g: GroupSpec, members, label: str = "adhoc") -> SubgroupClass:
    """Wrap an explicit subgroup (e.g. a conjugate) as a class-like object,
    with its generators in presentation order."""
    members = frozenset(members)
    if closure(g, members) != members:
        raise ValueError("element set is not a subgroup")
    return SubgroupClass(
        label=label,
        representative=tuple(sorted(members)),
        generators=presentation_of(members),
        conjugate_count=1,
    )
