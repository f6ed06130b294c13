"""Steinitz classes of C_p-lattices via cyclotomic order ideals.

The route: split off the sigma-fixed part, view the quotient as a
module over Z[zeta_p], pick a maximal free submodule, and read the class
off the finite quotient's order ideal (inverted, so free modules give
the unit ideal and an ideal module I gives [I]).  Principality testing
is a bounded short-vector search on the trace form; it can confirm a
class is trivial, never refute it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor

from .exactla import (
    IntMatrix,
    det,
    lattice_index,
    row_space_hnf,
)
from .cyclotomic import (
    IdealHNF,
    factor_cyclotomic_mod,
    field_norm,
    ideal_inverse,
    ideal_mul,
    is_prime,
    one_element,
    prime_ideal_above,
    principal_ideal,
    unit_ideal,
)
from .lattices import GLattice, LatticeError, full_fixed_sublattice, quotient_with_maps


def _check_cp(n: GLattice) -> int:
    g = n.group
    if g.is_dihedral or not is_prime(g.n):
        raise LatticeError(f"Steinitz machinery needs a C_p lattice, got {g}")
    return g.n


@dataclass(frozen=True)
class TorsionModule:
    """Finite Z[zeta_p]-module: Z^dim / relations, zeta acting by zmat."""

    p: int
    dim: int
    relations: IntMatrix  # full-rank row lattice
    zmat: IntMatrix  # column action, satisfies Phi_p(zmat) = 0 mod relations

    @property
    def order(self) -> int:
        return abs(det(self.relations))


@dataclass(frozen=True)
class IdealModuleData:
    t: int
    torsion: TorsionModule


def ideal_module(n: GLattice) -> IdealModuleData:
    """Realize N/N_0 over Z[zeta_p] with a maximal free submodule."""
    p = _check_cp(n)
    q = quotient_with_maps(n, full_fixed_sublattice(n))
    zq = q.lattice.sigma
    m = q.lattice.rank
    if m % (p - 1):
        raise LatticeError("quotient rank is not a multiple of p-1")
    t = m // (p - 1)
    chosen: list[list[int]] = []
    span_rows: list[list[int]] = []
    rank_now = 0
    for j in range(m):
        if len(chosen) == t:
            break
        vec = [1 if k == j else 0 for k in range(m)]
        orbit = []
        cur = vec
        for _ in range(p - 1):
            orbit.append(cur)
            cur = list(zq.matvec(cur))
        trial = span_rows + orbit
        rank = row_space_hnf(IntMatrix(trial, cols=m)).rows
        if rank == rank_now + (p - 1):
            chosen.append(vec)
            span_rows = trial
            rank_now = rank
    if len(chosen) < t:
        raise LatticeError("failed to locate a maximal free submodule")
    torsion = TorsionModule(
        p=p, dim=m, relations=row_space_hnf(IntMatrix(span_rows, cols=m)), zmat=zq
    )
    return IdealModuleData(t=t, torsion=torsion)


def _apply_poly(poly, zmat: IntMatrix) -> IntMatrix:
    out = IntMatrix.zero(zmat.rows, zmat.rows)
    power = IntMatrix.identity(zmat.rows)
    for c in poly:
        if c:
            out = out + power * int(c)
        power = power * zmat
    return out


def order_ideal(torsion: TorsionModule, p: int) -> IdealHNF:
    """0th Fitting-style order ideal: product of p^(length) over primes p."""
    result = unit_ideal(p)
    remaining = torsion.order
    ell = 2
    while remaining > 1:
        if ell * ell > remaining:
            ell = remaining  # no factor up to its square root: what remains is prime
        if remaining % ell:
            ell += 1
            continue
        while remaining % ell == 0:
            remaining //= ell
        for factor in factor_cyclotomic_mod(p, ell):
            prime = prime_ideal_above(p, ell, factor)
            norm_prime = prime.norm()
            g_z = _apply_poly(factor, torsion.zmat)
            level = IntMatrix.identity(torsion.dim)
            length = 0
            while True:
                nxt_rows = (
                    [[ell * x for x in row] for row in level.data]
                    + [list(g_z.matvec(row)) for row in level.data]
                    + list(torsion.relations.data)
                )
                nxt = row_space_hnf(IntMatrix(nxt_rows, cols=torsion.dim))
                idx = lattice_index(level, nxt)
                if idx is None:
                    raise LatticeError("order-ideal filtration step is not a full-rank sublattice")
                if idx == 1:
                    break
                dim_drop = 0
                while idx > 1:
                    if idx % norm_prime:
                        raise LatticeError("index is not a power of the residue norm")
                    idx //= norm_prime
                    dim_drop += 1
                length += dim_drop
                level = nxt
            for _ in range(length):
                result = ideal_mul(result, prime)
        ell += 1
    if result.norm() != torsion.order:
        raise LatticeError(
            f"order ideal norm {result.norm()} != module order {torsion.order}"
        )
    return result


# --- short vector search ------------------------------------------------------

_SHORT_VECTOR_LIMIT = 200000  # vectors one short_vectors call collects at most
_PRINCIPALITY_MAX_DIM = 12  # principality searches ideals of degree up to this


def trace_gram(p: int, basis: IntMatrix) -> IntMatrix:
    """Gram matrix of Tr(x * conj(y)) on the given ideal basis (exact)."""
    d = p - 1
    t2 = IntMatrix([[p - 1 if i == j else -1 for j in range(d)] for i in range(d)])
    return basis * t2 * basis.transpose()


def short_vectors(gram: IntMatrix, bound: int):
    """All nonzero x (up to sign) with x^T G x <= bound, exact arithmetic."""
    d = gram.rows
    q = [[Fraction(gram[i, j]) for j in range(d)] for i in range(d)]
    # Cholesky-style decomposition: Q(x) = sum_i q[i][i] (x_i + sum_j>i q[i][j] x_j)^2
    for i in range(d):
        for j in range(i + 1, d):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, d):
            for l in range(k, d):
                q[k][l] -= q[k][i] * q[i][l]
    out = []
    x = [0] * d
    count = [0]

    def recurse(i, remaining):
        if count[0] >= _SHORT_VECTOR_LIMIT:
            return
        if i < 0:
            if any(x):
                out.append(tuple(x))
                count[0] += 1
            return
        center = -sum(q[i][j] * x[j] for j in range(i + 1, d))
        if q[i][i] <= 0:
            raise LatticeError("gram matrix is not positive definite")
        # |x_i - center| <= sqrt(remaining / q[i][i])
        radius_sq = remaining / q[i][i]
        # integer range scan: down from floor(center), then up past it
        xi = floor(center)
        while Fraction((xi - center) ** 2) <= radius_sq:
            xi -= 1
        xi += 1
        while Fraction((xi - center) ** 2) <= radius_sq:
            x[i] = xi
            recurse(i - 1, remaining - q[i][i] * (xi - center) ** 2)
            xi += 1
        x[i] = 0

    recurse(d - 1, Fraction(bound))
    # dedupe +-x
    seen = set()
    unique = []
    for v in out:
        neg = tuple(-c for c in v)
        if v in seen or neg in seen:
            continue
        seen.add(v)
        unique.append(v)
    return unique


def _nth_root_ceil(value: int, n: int) -> int:
    if value <= 0:
        return 0
    lo, hi = 1, 1
    while hi**n < value:
        hi *= 2
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**n >= value:
            hi = mid
        else:
            lo = mid + 1
    return lo


@dataclass(frozen=True)
class PrincipalityResult:
    generator: tuple | None  # power-basis coordinates, or None

    @property
    def inconclusive(self) -> bool:
        return self.generator is None

    def __bool__(self):
        return self.generator is not None


def principality(ideal: IdealHNF, search_bound: int = 3) -> PrincipalityResult:
    """Look for alpha with (alpha) = ideal; bounded, can only confirm."""
    if search_bound < 1:
        raise ValueError(f"search_bound must be at least 1, got {search_bound}")
    if ideal.real_subfield:
        raise NotImplementedError("principality runs over the full cyclotomic ring")
    p = ideal.p
    target = ideal.norm()
    if target == 1:
        return PrincipalityResult(generator=one_element(p))
    if ideal.degree > _PRINCIPALITY_MAX_DIM:
        # enumeration above desk scale is hopeless; stay honest
        return PrincipalityResult(generator=None)
    gram = trace_gram(p, ideal.basis)
    # AM-GM floor: T2(alpha) >= (p-1) * |N(alpha)|^{2/(p-1)}
    base = (p - 1) * _nth_root_ceil(target**2, p - 1)
    for mult in range(1, search_bound + 1):
        bound = base * mult
        for coeffs in short_vectors(gram, bound):
            alpha = ideal.basis.vecmat(coeffs)
            if abs(field_norm(p, alpha)) == target:
                if principal_ideal(p, alpha) == ideal:
                    return PrincipalityResult(generator=alpha)
    return PrincipalityResult(generator=None)


# --- Steinitz classes ---------------------------------------------------------


@dataclass(frozen=True)
class SteinitzClassRep:
    ideal: IdealHNF
    known_trivial: bool
    generator: tuple | None = None

    def __post_init__(self):
        if self.known_trivial:
            if self.generator is None:
                raise LatticeError("trivial class needs an exhibited generator")
            if principal_ideal(self.ideal.p, list(self.generator)) != self.ideal:
                raise LatticeError("stored generator does not generate the ideal")


def steinitz_class(n: GLattice, search_bound: int = 3) -> SteinitzClassRep:
    """cl(N) as an integral ideal class representative."""
    p = _check_cp(n)
    data = ideal_module(n)
    ideal = order_ideal(data.torsion, p)
    rep = ideal_inverse(ideal)
    found = principality(rep, search_bound=search_bound)
    return SteinitzClassRep(
        ideal=rep, known_trivial=bool(found), generator=found.generator
    )


# --- class-number table -------------------------------------------------------


_H_VALUES = {3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 17: 1, 19: 1, 23: 3}


@dataclass(frozen=True)
class ClassTable:
    entries: tuple  # (p, h or None, h_plus, source)

    def h(self, p: int) -> int | None:
        for q, h, _, _ in self.entries:
            if q == p:
                return h
        return None

    def h_plus(self, p: int) -> int | None:
        for q, _, hp, _ in self.entries:
            if q == p:
                return hp
        return None

    def knows(self, p: int) -> bool:
        return any(q == p for q, _, _, _ in self.entries)


def default_class_table() -> ClassTable:
    entries = []
    for p in range(3, 68):
        if not is_prime(p):
            continue
        h = _H_VALUES.get(p)
        src = "Washington, Introduction to Cyclotomic Fields, tables (external)"
        entries.append((p, h, 1, src))
    return ClassTable(entries=tuple(entries))
