"""Tate cohomology of G-lattices over subgroups, Ext^1, flabbiness tests.

Every group read here is a quotient L/B of a kernel L by a sublattice B of
the same rank:

    H^-1(S, M) = ker N_S / I_S.M,    H^0(S, M) = M^S / N_S.M,
    H^1(S, M) = Z^1 / B^1.

A kernel is saturated, so Z^n/L is free and Z^n/B = L/B + Z^n/L; L/B is
finite (|S| kills it), so it is the torsion of Z^n/B: the invariant factors
> 1 of one Smith diagonal of B's generators, with no basis of L, no Hermite
transform and no solve.  I_S.M is spanned by the columns of rho(g) - 1 over
the presentation generators g of S, since (gh - 1)m = (g - 1)(hm) + (h - 1)m;
N_S.M by the columns of N_S.  N_S.M has finite index in M^S, so
rank M^S = rank N_S = trace(N_S) / |S|.

H^1 comes from a presentation <s, t | s^d, t^2, (ts)^2> of the subgroup S.
A 1-cocycle f is fixed by a = f(s) and b = f(t) (f(xy) = f(x) + x.f(y)), and
B^1 is spanned by the coboundaries ((s - 1)m, (t - 1)m), the rows of
`coboundary_matrix` [(s - 1)^T | (t - 1)^T].  A cyclic S = <s | s^d> keeps
the rows of (s - 1)^T, the transpose of H^-1's matrix: H^1 = H^-1 for a
cyclic S.

Z^1 is the kernel of the relators' Fox derivatives inside M^2 (M for a
cyclic S; Fox, Ann. of Math. 57, 1953; Brown, Cohomology of Groups, GTM 87,
IV.2), so it is saturated, and |S| kills H^1, so Z^1 has the rank of B^1:
Z^1 is the saturation of B^1, and no equation system is built.  With
u B v = diag(d_i), the rows of v^-1 are a basis of the coordinate space and
B^1 is spanned by d_i times row i, so the rows with d_i != 0 span Z^1 and
each with d_i > 1 is a cocycle outside B^1.  Cocycles are read this way only for the callers that
need them: `catalog._noncoboundary_cocycle` in (f(s), f(t)) coordinates and
`one_cocycles`, which extends them to every element of S.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import AbelianInvariants, IntMatrix, smith_diagonal, smith_with_vinv
from .groups import GroupElement, SubgroupClass, full_class, mul, subgroup_classes
from .lattices import GLattice, LatticeError, hom_lattice, is_cyclic, presentation_generators


def _torsion(b: IntMatrix) -> AbelianInvariants:
    """L/B for B spanned by the rows (or the columns) of b inside a saturated
    L of the same rank: the invariant factors of b above 1."""
    return AbelianInvariants(tuple(d for d in smith_diagonal(b) if d > 1), 0)


def _generators_minus_one(m: GLattice, s: SubgroupClass) -> tuple:
    """(rho(s) - 1, rho(t) - 1) on the presentation generators of S; the
    second is None when S is cyclic."""
    gen, refl = presentation_generators(s)
    ident = IntMatrix.identity(m.rank)
    return m.rho(gen) - ident, None if refl is None else m.rho(refl) - ident


def tate_hminus1(m: GLattice, s: SubgroupClass) -> AbelianInvariants:
    """ker(N_S) / I_S.M, I_S.M spanned by the columns of [s - 1 | t - 1]."""
    ds, dt = _generators_minus_one(m, s)
    return _torsion(ds if dt is None else ds.hstack(dt))


def tate_h0(m: GLattice, s: SubgroupClass, norm: IntMatrix | None = None) -> AbelianInvariants:
    """M^S / N_S.M with N_S the subgroup norm (`m.norm_matrix(s)` unless given)."""
    return _torsion(m.norm_matrix(s) if norm is None else norm)


def coboundary_matrix(m: GLattice, s: SubgroupClass) -> IntMatrix:
    """B^1's generators in (f(s), f(t)) coordinates: the rows of
    [(s - 1)^T | (t - 1)^T], or of (s - 1)^T for a cyclic S."""
    ds, dt = _generators_minus_one(m, s)
    return (ds if dt is None else ds.vstack(dt)).transpose()


def h1(m: GLattice, s: SubgroupClass) -> AbelianInvariants:
    """Z^1 / B^1 on the presentation of S, from `coboundary_matrix`."""
    return _torsion(coboundary_matrix(m, s))


def _add(u, v) -> list:
    return [x + y for x, y in zip(u, v)]


@dataclass(frozen=True)
class CocycleSpace:
    """Z^1(S, M) with its coboundary generators, in f: S -> M coordinates."""

    elements: tuple  # subgroup elements in index order
    generators: tuple  # elements whose values fix a cocycle
    rank: int  # rank of M
    cocycles: IntMatrix  # rows span Z^1 inside Z^(|S| * rank)
    coboundaries: tuple  # generator vectors of B^1


def one_cocycles(m: GLattice, s: SubgroupClass) -> CocycleSpace:
    """Z^1 and B^1 as functions on every element of S.

    Only for callers that need f everywhere: a cocycle is fixed by
    (f(s), f(t)), the coordinates of `coboundary_matrix`, and Z^1 is
    spanned by the rows of v^-1 at its nonzero Smith diagonal entries.
    Each is extended by the cocycle rule f(xy) = f(x) + x.f(y):
    f(s^k) = (1 + s + ... + s^(k-1)) a and f(s^k t) = f(s^k) + s^k b.
    """
    boundaries = coboundary_matrix(m, s)
    diagonal, vinv = smith_with_vinv(boundaries)
    gen, refl = presentation_generators(s)
    sig = m.rho(gen)
    els = s.representative
    index = {a: i for i, a in enumerate(els)}
    r = m.rank
    rotations = s.order if refl is None else s.order // 2

    def extend(row) -> tuple:
        a, b = row[:r], row[r:]
        out = [0] * (len(els) * r)
        f, x = [0] * r, GroupElement(0, 0)
        for _ in range(rotations):  # x = s^k, f = f(s^k), a = s^k.f(s), b = s^k.f(t)
            out[index[x] * r : index[x] * r + r] = f
            if refl is not None:
                xt = index[mul(m.group, x, refl)] * r
                out[xt : xt + r] = _add(f, b)
                b = sig.matvec(b)
            f, a, x = _add(f, a), sig.matvec(a), mul(m.group, x, gen)
        return tuple(out)

    return CocycleSpace(
        elements=els,
        generators=(gen,) if refl is None else (gen, refl),
        rank=r,
        cocycles=IntMatrix.from_rows(
            [extend(z) for d, z in zip(diagonal, vinv.data) if d], cols=len(els) * r
        ),
        coboundaries=tuple(extend(v) for v in boundaries.data),
    )


def ext1(a: GLattice, b: GLattice) -> AbelianInvariants:
    """Ext^1_{Z[G]}(a, b) = H^1(G, Hom_Z(a, b))."""
    if a.group != b.group:
        raise LatticeError("ext needs lattices over one group")
    return h1(hom_lattice(a, b), full_class(a.group))


@dataclass(frozen=True)
class FlabbinessReport:
    ok: bool
    failing: tuple  # (label, AbelianInvariants) pairs

    def __bool__(self):
        return self.ok


def is_flabby(m: GLattice) -> FlabbinessReport:
    """H^-1(S, M) = 0 for every subgroup conjugacy class."""
    failing = []
    for cls in subgroup_classes(m.group):
        inv = tate_hminus1(m, cls)
        if not inv.is_trivial:
            failing.append((cls.label, inv))
    return FlabbinessReport(ok=not failing, failing=tuple(failing))


def is_coflabby(m: GLattice) -> FlabbinessReport:
    """H^1(S, M) = 0 for every subgroup conjugacy class."""
    failing = []
    for cls in subgroup_classes(m.group):
        inv = h1(m, cls)
        if not inv.is_trivial:
            failing.append((cls.label, inv))
    return FlabbinessReport(ok=not failing, failing=tuple(failing))


@dataclass(frozen=True)
class CohomologyTable:
    lattice_id: str
    entries: tuple  # (label, hminus1, h0, h1) per subgroup class


def cohomology_table(m: GLattice, lattice_id: str = "") -> CohomologyTable:
    rows = []
    for cls in subgroup_classes(m.group):
        hm1 = tate_hminus1(m, cls)
        rows.append((cls.label, hm1, tate_h0(m, cls), hm1 if is_cyclic(cls) else h1(m, cls)))
    return CohomologyTable(lattice_id=lattice_id, entries=tuple(rows))
