"""Cyclic and dihedral group model with subgroup conjugacy classes.

Elements are pairs (rot, flip) for sigma^rot * tau^flip, multiplied by
(a,0)(b,e) = (a+b, e) and (a,1)(b,e) = (a-b, 1-e).  Only C_n and D_n are
modeled, for every n; their subgroup classes come from one closed form,
each with the presentation generators that the cohomology reads.
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


def mul(g: GroupSpec, a: GroupElement, b: GroupElement) -> GroupElement:
    if a.flip:
        return GroupElement((a.rot - b.rot) % g.n, (1 - b.flip) % 2)
    return GroupElement((a.rot + b.rot) % g.n, b.flip)


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
    # The presentation: (s,) for a cyclic S with s of order |S| (the lone
    # reflection of a D_1), or (s, t) with s the smallest-angle rotation and t
    # the smallest-angle reflection, s^(|S|/2) = t^2 = (ts)^2 = 1; () for 1.
    generators: tuple
    conjugate_count: int

    @property
    def order(self) -> int:
        return len(self.representative)

    def __str__(self):
        return self.label


@lru_cache(maxsize=None)
def subgroup_classes(g: GroupSpec) -> tuple[SubgroupClass, ...]:
    """One representative per conjugacy class, sorted by (order, label).

    For each d | n, with k = n/d: the rotations C_d = <r^k> ("1" at d = 1),
    normal; and over D_n the D_d = <r^k, r^i s>.  Conjugation moves i by
    2 and by sign, so for k odd they form one class of k conjugates, and
    for k even two classes of k/2, i even (D_d) and i odd (D_d').
    Memoized, so the result is a tuple.
    """
    out = []
    for d in range(1, g.n + 1):
        if g.n % d:
            continue
        k = g.n // d
        rotations = [GroupElement(j * k, 0) for j in range(d)]
        rotation = tuple(rotations[1:2])  # r^k, none at d = 1
        out.append(SubgroupClass("1" if d == 1 else f"C_{d}", tuple(rotations), rotation, 1))
        if g.is_dihedral:
            for i in range(2 - k % 2):
                reflections = [GroupElement(j * k + i, 1) for j in range(d)]
                out.append(
                    SubgroupClass(
                        f"D_{d}" + "'" * i,
                        tuple(sorted(rotations + reflections)),
                        (*rotation, reflections[0]),
                        k if k % 2 else k // 2,
                    )
                )
    out.sort(key=lambda c: (c.order, c.label))
    return tuple(out)


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
