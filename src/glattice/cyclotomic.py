"""Exact arithmetic in Z[zeta_p], its real subfield, and their ideals.

Elements are integer coordinate rows over the power basis 1, zeta, ...,
zeta^{p-2} (or 1, eta, ..., eta^{(p-3)/2} with eta = zeta + zeta^{-1}).
Ideals are full-rank row lattices in HNF.  No floating point anywhere;
short-vector work elsewhere uses exact rationals on the trace form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import (
    IntMatrix,
    det,
    express_rows,
    resultant,
    row_space_hnf,
)
from .groups import cyclic
from .lattices import GLattice


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _check_p(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise ValueError(f"need an odd prime, got {p}")


def reduce_poly(p: int, coeffs) -> list[int]:
    """Reduce an integer polynomial in zeta to the power basis (length p-1)."""
    out = list(coeffs) + [0] * max(0, p - len(coeffs))
    # first fold exponents down mod p (zeta^p = 1)
    folded = [0] * p
    for i, c in enumerate(out):
        folded[i % p] += c
    # then eliminate zeta^{p-1} = -(1 + zeta + ... + zeta^{p-2})
    top = folded[p - 1]
    base = [folded[i] - top for i in range(p - 1)]
    return base


def mult_matrix(p: int, alpha) -> IntMatrix:
    """Row i holds the power-basis coordinates of alpha * zeta^i."""
    alpha = list(alpha)
    rows = []
    for i in range(p - 1):
        shifted = [0] * i + alpha
        rows.append(reduce_poly(p, shifted))
    return IntMatrix(rows, cols=p - 1)


def conj_matrix(p: int) -> IntMatrix:
    """Row i holds the coordinates of zeta^{-i}."""
    rows = []
    for i in range(p - 1):
        vec = [0] * p
        vec[(-i) % p] = 1
        rows.append(reduce_poly(p, vec))
    return IntMatrix(rows, cols=p - 1)


def elem_mul(p: int, a, b) -> tuple:
    """Product of two power-basis coordinate rows."""
    prod = [0] * (2 * p)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return tuple(reduce_poly(p, prod))


def field_norm(p: int, alpha) -> int:
    """Norm of an element, Res(Phi_p, alpha): the determinant of multiplication
    by alpha, without building that matrix."""
    return resultant([1] * p, alpha)


def one_element(p: int) -> tuple:
    return tuple([1] + [0] * (p - 2))


# --- real subfield -----------------------------------------------------------


def eta_power_rows(p: int) -> IntMatrix:
    """(p-1)/2 rows: coordinates of eta^k in Z[zeta], eta = zeta + zeta^{-1}."""
    _check_p(p)
    half = (p - 1) // 2
    vec = [0] * p
    vec[1] = 1
    vec[p - 1] = 1
    eta = reduce_poly(p, vec)
    rows = [list(one_element(p))]
    cur = one_element(p)
    for _ in range(half - 1):
        cur = elem_mul(p, cur, eta)
        rows.append(list(cur))
    return IntMatrix(rows, cols=p - 1)


def real_mult_eta_matrix(p: int) -> IntMatrix:
    """Multiplication by eta on the eta-power basis of the real subfield."""
    basis = eta_power_rows(p)
    vec = [0] * p
    vec[1] = 1
    vec[p - 1] = 1
    eta = tuple(reduce_poly(p, vec))
    targets = [elem_mul(p, tuple(row), eta) for row in basis.data]
    coords = express_rows(basis, IntMatrix.from_rows(targets, cols=p - 1))
    if coords is None:
        raise ValueError("eta power escaped the real subfield basis")
    return coords


# --- ideals ------------------------------------------------------------------


@dataclass(frozen=True)
class IdealHNF:
    """Full-rank ideal given by a Z-basis (rows, HNF) over the power basis."""

    p: int
    real_subfield: bool
    basis: IntMatrix

    @property
    def degree(self) -> int:
        return (self.p - 1) // 2 if self.real_subfield else self.p - 1

    def norm(self) -> int:
        return abs(det(self.basis))

    def generator_matrix(self) -> IntMatrix:
        return real_mult_eta_matrix(self.p) if self.real_subfield else mult_matrix(
            self.p, [0, 1]
        )

    def validate(self) -> None:
        if self.basis.rows != self.degree or self.basis.cols != self.degree:
            raise ValueError("ideal basis must be square of the field degree")
        if det(self.basis) == 0:
            raise ValueError("ideal basis is singular (zero ideal)")
        mapped = self.basis * self.generator_matrix()
        if express_rows(self.basis, mapped) is None:
            raise ValueError("basis not closed under the ring generator")

    def __eq__(self, other):
        return (
            isinstance(other, IdealHNF)
            and self.p == other.p
            and self.real_subfield == other.real_subfield
            and row_space_hnf(self.basis) == row_space_hnf(other.basis)
        )

    def __hash__(self):
        return hash((self.p, self.real_subfield, row_space_hnf(self.basis)))


def _hnf_square(rows: IntMatrix, degree: int) -> IntMatrix:
    h = row_space_hnf(rows)
    if h.rows != degree:
        raise ValueError("ideal basis must have full rank")
    return h


def ideal_from_rows(p: int, rows: IntMatrix, real_subfield: bool = False) -> IdealHNF:
    degree = (p - 1) // 2 if real_subfield else p - 1
    ideal = IdealHNF(p, real_subfield, _hnf_square(rows, degree))
    ideal.validate()
    return ideal


def unit_ideal(p: int, real_subfield: bool = False) -> IdealHNF:
    degree = (p - 1) // 2 if real_subfield else p - 1
    return IdealHNF(p, real_subfield, IntMatrix.identity(degree))


def principal_ideal(p: int, alpha) -> IdealHNF:
    """(alpha) from a coordinate row."""
    return ideal_from_rows(p, mult_matrix(p, list(alpha)))


def ideal_mul(a: IdealHNF, b: IdealHNF) -> IdealHNF:
    if (a.p, a.real_subfield) != (b.p, b.real_subfield):
        raise ValueError("ideal product needs matching rings")
    if a.real_subfield:
        raise NotImplementedError("ideal products run over the full cyclotomic ring")
    p = a.p
    rows = [list(elem_mul(p, ra, rb)) for ra in a.basis.data for rb in b.basis.data]
    return ideal_from_rows(p, IntMatrix(rows, cols=p - 1))


# --- ideals as lattices -------------------------------------------------------


def ideal_cyclic_lattice(a: IdealHNF):
    """The ideal as a C_p-lattice: sigma acts by multiplication by zeta."""
    if a.real_subfield:
        raise ValueError("need a full-ring ideal")
    p = a.p
    action = express_rows(a.basis, a.basis * mult_matrix(p, [0, 1]))
    if action is None:
        raise ValueError("ideal basis not stable under zeta")
    return GLattice(cyclic(p), action.transpose())
