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

H^1 comes from a presentation of the subgroup S.  A 1-cocycle f is fixed by
a = f(s) and b = f(t) (f(xy) = f(x) + x.f(y)), and by Fox's free differential
calculus (Fox, Ann. of Math. 57, 1953; Brown, Cohomology of Groups, GTM 87)
each relator of <s, t | s^d, t^2, (ts)^2> gives one equation:

    N_s a = 0,    (1 + t) b = 0,    (1 + ts)(b + t a) = 0,

3 * rank equations in 2 * rank unknowns.  Z^1, their solutions, is a kernel
inside M^2, and B^1 is spanned by the coboundaries ((s - 1)m, (t - 1)m), the
rows of [(s - 1)^T | (t - 1)^T].  A cyclic S = <s | s^d> keeps only the first
equation and B^1 is spanned by the rows of (s - 1)^T, whose Smith diagonal is
H^-1's: H^1 = H^-1 for a cyclic S.

Cocycles themselves, the Z^1 basis from `_fox_system`, are built only for
callers that need them: `catalog._noncoboundary_cocycle` in (f(s), f(t))
coordinates and `one_cocycles`, which extends them to every element of S.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import AbelianInvariants, IntMatrix, kernel_basis, smith_diagonal
from .groups import GroupElement, SubgroupClass, full_class, mul, subgroup_classes
from .lattices import (
    GLattice,
    LatticeError,
    _matrix_sum,
    hom_lattice,
    is_cyclic,
    presentation_generators,
)


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


def h1(m: GLattice, s: SubgroupClass) -> AbelianInvariants:
    """Z^1 / B^1 on the presentation of S, B^1 spanned by the columns of
    [s - 1; t - 1] (the rows of [(s - 1)^T | (t - 1)^T])."""
    ds, dt = _generators_minus_one(m, s)
    return _torsion(ds if dt is None else ds.vstack(dt))


def _add(u, v) -> list:
    return [x + y for x, y in zip(u, v)]


def _fox_system(m: GLattice, s: SubgroupClass):
    """Z^1 and the generators of B^1 in (f(s), f(t)) coordinates.

    The equation matrix stacks the transposes of the Fox-derivative maps,

        [[N_s^T, 0,          (t + tst)^T],
         [0,     (1 + t)^T,  (1 + ts)^T ]],

    so row j holds what unknown j contributes to each equation and Z^1 is its
    left kernel; B^1 is spanned by the rows of [(s - 1)^T, (t - 1)^T].
    """
    gen, refl = presentation_generators(s)
    ident = IntMatrix.identity(m.rank)
    s_t = m.rho(gen).transpose()
    # <s> is all of S when S is cyclic, its rotations otherwise
    powers = [m.rho(a) for a in s.representative if refl is None or not a.flip]
    norm_t = _matrix_sum(powers).transpose()
    if refl is None:
        return kernel_basis(norm_t), list((s_t - ident).data)
    t_t = m.rho(refl).transpose()
    c_t = ident + s_t * t_t  # (1 + ts)^T; (t + tst)^T = t^T (1 + ts)^T
    zero = (0,) * m.rank
    rows = [n + zero + a for n, a in zip(norm_t.data, (t_t * c_t).data)]
    rows += [zero + b + c for b, c in zip((ident + t_t).data, c_t.data)]
    boundaries = [u + v for u, v in zip((s_t - ident).data, (t_t - ident).data)]
    return kernel_basis(IntMatrix(rows, cols=3 * m.rank)), boundaries


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
    (f(s), f(t)), the coordinates `h1` and `catalog._noncoboundary_cocycle`
    work in.  Each solution (a, b) of `h1`'s system is extended by the
    cocycle rule f(xy) = f(x) + x.f(y): f(s^k) = (1 + s + ... + s^(k-1)) a
    and f(s^k t) = f(s^k) + s^k b.
    """
    cocycles, boundaries = _fox_system(m, s)
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
        cocycles=IntMatrix.from_rows([extend(z) for z in cocycles.data], cols=len(els) * r),
        coboundaries=tuple(extend(v) for v in boundaries),
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
