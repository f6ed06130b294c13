"""Cyclic and dihedral group model with subgroup conjugacy classes.

Elements are pairs (rot, flip) for sigma^rot * tau^flip, multiplied by
(a,0)(b,e) = (a+b, e) and (a,1)(b,e) = (a-b, 1-e).  Only C_n and D_n are
modeled; subgroup enumeration is closed-form for cyclic groups and odd
dihedral groups, exhaustive otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

CYCLIC = "cyclic"
DIHEDRAL = "dihedral"


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in (CYCLIC, DIHEDRAL):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("n must be positive")

    @property
    def order(self) -> int:
        return self.n if self.kind == CYCLIC else 2 * self.n

    @property
    def is_dihedral(self) -> bool:
        return self.kind == DIHEDRAL

    def __str__(self):
        return f"C_{self.n}" if self.kind == CYCLIC else f"D_{self.n}"


def cyclic(n: int) -> GroupSpec:
    return GroupSpec(CYCLIC, n)


def dihedral(n: int) -> GroupSpec:
    return GroupSpec(DIHEDRAL, n)


@dataclass(frozen=True, order=True)
class GroupElement:
    rot: int
    flip: int

    @property
    def is_identity(self) -> bool:
        return self.rot == 0 and self.flip == 0


def mul(g: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    if a.flip:
        return GroupElement((a.rot - b.rot) % g.n, (1 - b.flip) % 2)
    return GroupElement((a.rot + b.rot) % g.n, b.flip)


def inv(g: GroupSpec, a: GroupElement) -> GroupElement:
    if a.flip:
        return a
    return GroupElement((-a.rot) % g.n, 0)


def conjugate(g: GroupSpec, x: GroupElement, a: GroupElement) -> GroupElement:
    """x * a * x^{-1}."""
    return mul(g, mul(g, x, a), inv(g, x))


def elements(g: GroupSpec) -> list[GroupElement]:
    """All elements, identity first, rotations before reflections."""
    out = [GroupElement(r, 0) for r in range(g.n)]
    if g.is_dihedral:
        out += [GroupElement(r, 1) for r in range(g.n)]
    return out


@dataclass(frozen=True)
class SubgroupClass:
    """One conjugacy class of subgroups, with a chosen representative."""

    label: str
    representative: tuple  # sorted GroupElements of the representative
    generators: tuple
    conjugate_count: int

    @property
    def order(self) -> int:
        return len(self.representative)

    def __str__(self):
        return self.label


def _closure(g: GroupSpec, gens) -> frozenset:
    seen = {GroupElement(0, 0)}
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


def _subgroup_from(g: GroupSpec, label: str, gens, conjugates: int) -> SubgroupClass:
    members = _closure(g, gens)
    return SubgroupClass(
        label=label,
        representative=tuple(sorted(members)),
        generators=tuple(gens),
        conjugate_count=conjugates,
    )


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def all_subgroups(g: GroupSpec) -> list[frozenset]:
    """Every subgroup, by exhaustive closure of generator pairs."""
    els = elements(g)
    found = set()
    found.add(_closure(g, []))
    for a in els:
        found.add(_closure(g, [a]))
        for b in els:
            found.add(_closure(g, [a, b]))
    return sorted(found, key=lambda s: (len(s), sorted(s)))


@lru_cache(maxsize=None)
def subgroup_classes(g: GroupSpec) -> tuple[SubgroupClass, ...]:
    """One representative per conjugacy class, trivial subgroup first.

    Cyclic groups get one class per divisor.  Odd dihedral groups follow
    the closed form {C_d : d | n} + {D_d : d | n}; even dihedral falls
    back to exhaustive enumeration.  Memoized, so the result is a tuple.
    """
    if g.kind == CYCLIC:
        out = []
        for d in _divisors(g.n):
            label = "1" if d == 1 else f"C_{d}"
            gens = [] if d == 1 else [GroupElement(g.n // d, 0)]
            out.append(_subgroup_from(g, label, gens, 1))
        return tuple(out)
    if g.n % 2 == 1:
        out = [_subgroup_from(g, "1", [], 1)]
        for d in _divisors(g.n):
            if d > 1:
                out.append(
                    _subgroup_from(g, f"C_{d}", [GroupElement(g.n // d, 0)], 1)
                )
        for d in _divisors(g.n):
            gens = [GroupElement(0, 1)]
            if d > 1:
                gens = [GroupElement(g.n // d, 0), GroupElement(0, 1)]
            out.append(_subgroup_from(g, f"D_{d}", gens, g.n // d))
        out.sort(key=lambda c: (c.order, c.label))
        return tuple(out)
    return tuple(_subgroup_classes_exhaustive(g))


def _subgroup_classes_exhaustive(g: GroupSpec) -> list[SubgroupClass]:
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
        gens = _find_generators(g, sub)
        out.append(
            SubgroupClass(
                label=label,
                representative=tuple(sorted(sub)),
                generators=tuple(gens),
                conjugate_count=len(orbit),
            )
        )
    out.sort(key=lambda c: (c.order, c.label))
    return out


def _find_generators(g: GroupSpec, sub: frozenset) -> list[GroupElement]:
    for a in sorted(sub):
        if _closure(g, [a]) == sub:
            return [a]
    for a in sorted(sub):
        for b in sorted(sub):
            if _closure(g, [a, b]) == sub:
                return [a, b]
    return sorted(sub)  # abelian fallback; never hit for C_n, D_n


@lru_cache(maxsize=None)
def class_by_label(g: GroupSpec, label: str) -> SubgroupClass:
    for c in subgroup_classes(g):
        if c.label == label:
            return c
    raise KeyError(f"no subgroup class {label!r} in {g}")


def full_class(g: GroupSpec) -> SubgroupClass:
    return subgroup_classes(g)[-1]


def trivial_class(g: GroupSpec) -> SubgroupClass:
    return subgroup_classes(g)[0]
