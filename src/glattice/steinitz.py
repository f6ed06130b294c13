"""Steinitz classes of C_p-lattices from one Hermite form.

The route: split off the sigma-fixed part N_0, view N/N_0 as a module over
Z[zeta_p], pick a free submodule F of full rank, and read the class off the
Hermite form of N/N_0 in F's coordinates (see `steinitz_class`), so free
modules give the unit ideal and an ideal module I gives [I].  Principality
testing is a bounded short-vector search on the trace form; it can confirm
a class is trivial, never refute it.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import floor, gcd

from .exactla import IntMatrix, det, express_rows, row_space_hnf
from .cyclotomic import (
    IdealHNF,
    field_norm,
    ideal_from_rows,
    ideal_mul,
    is_prime,
    one_element,
    principal_ideal,
    unit_ideal,
)
from .lattices import GLattice, LatticeError, full_fixed_sublattice, quotient_with_maps


def _check_cp(n: GLattice) -> int:
    g = n.group
    if g.is_dihedral or not is_prime(g.n):
        raise LatticeError(f"Steinitz machinery needs a C_p lattice, got {g}")
    return g.n


def ideal_module(n: GLattice) -> tuple[int, IntMatrix]:
    """(t, basis) for N/N_0 over Z[zeta_p]: a free submodule F of full rank t,
    its Z-basis in orbit order, the rows zeta^k f_i for k = 0..p-2 within
    each i = 1..t, in the coordinates of N/N_0."""
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
    return t, IntMatrix(span_rows, cols=m)


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
    """cl(N) as an integral ideal class representative.

    With D = [N/N_0 : F], the rows of D * basis^-1 are D times the coordinates
    of N/N_0 along F = R f_1 + ... + R f_t (R = Z[zeta_p]), and diagonal
    block i of their Hermite form spans D * J_i, where J_1 ... J_t are the
    coefficient ideals of a pseudo-basis (Cohen, GTM 193, Ch. 1).  The
    representative is the product of the blocks over its content: the
    integral ideal among the rational multiples of J_1 ... J_t that no
    integer above 1 divides.
    """
    p = _check_cp(n)
    _, basis = ideal_module(n)
    coords = express_rows(basis, IntMatrix.identity(basis.rows) * abs(det(basis)))
    h = row_space_hnf(coords)
    blocks = [range(i, i + p - 1) for i in range(0, h.rows, p - 1)]
    ideals = [ideal_from_rows(p, h.submatrix(block, block)) for block in blocks]
    product = reduce(ideal_mul, ideals) if ideals else unit_ideal(p)
    g = gcd(*(x for row in product.basis.data for x in row))
    rep = ideal_from_rows(p, IntMatrix([[x // g for x in row] for row in product.basis.data]))
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
