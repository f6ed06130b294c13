"""Conjugate subgroups as element lists, and an explicit element set wrapped
as a subgroup class, for tests that evaluate cohomology at a conjugate or at
a subgroup the library's class list does not name."""

from glattice.groups import (
    GroupElement,
    GroupSpec,
    SubgroupClass,
    _closure,
    _find_generators,
    conjugate,
)


def conjugate_subgroup(g: GroupSpec, s: SubgroupClass, x: GroupElement) -> list[GroupElement]:
    """x S x^{-1} as a sorted element list."""
    return sorted(conjugate(g, x, a) for a in s.representative)


def subgroup_from_elements(g: GroupSpec, members, label: str = "adhoc") -> SubgroupClass:
    """Wrap an explicit subgroup (e.g. a conjugate) as a class-like object."""
    members = frozenset(members)
    if _closure(g, members) != members:
        raise ValueError("element set is not a subgroup")
    return SubgroupClass(
        label=label,
        representative=tuple(sorted(members)),
        generators=tuple(_find_generators(g, members)),
        conjugate_count=1,
    )
