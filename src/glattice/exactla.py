"""Exact integer matrix algebra: SNF, HNF, determinants, kernels, and the
block layouts (`block_diag`, `kron`) that lattice constructions assemble from.

Everything here works on arbitrary-precision Python ints; there is no
floating point anywhere in this module.  Matrices are immutable
(tuple-of-tuples) so they can be hashed and shared freely.  Entries are
taken as given, never converted: every result here is built by int
arithmetic, and untrusted input (lattice, ideal and table files) is
checked to hold JSON integers in `serialize` before it becomes a matrix.
Products (`*`, `power`, `vecmat`, `matvec`) read each right-hand row's
nonzero entries, which a matrix lists once, on first use, and keeps.

One Smith sweep (`_smith`) and one Hermite sweep (`_hermite`) do every
elimination.  Both skip zero entries, in the pivot order of a dense sweep
and with the same transforms.  Each routine keeps only the transforms its
callers read:

- `snf`: the diagonal, u and v.
- `smith_diagonal`: the diagonal alone, for `cokernel_invariants`,
  `is_saturated` and `AbelianInvariants.__add__`.
- `smith_with_vinv`: the diagonal and v^-1, tracked as the inverse row
  operation of every column operation on v, for the saturation test and
  basis completion of `lattices.quotient_with_maps`, the missing generator in `rationality` and the cocycles of
  `cohomology.one_cocycles` and `catalog._noncoboundary_cocycle`.
- `hnf`: h, its pivot columns and u, for `solve_with_hnf`, `express_rows`
  and `inverse_unimodular`.
- `kernel_basis`: the rows of u from the rank down, from a sweep that
  neither normalizes nor reduces the pivot rows above them.
- `echelon`: h and its pivot columns without u, for `row_space_hnf` and
  membership tests.

`resultant` answers "the norm of f in Z[x]/(g)" as Res(g, f) without an
n x n matrix: circulant determinants (g = x^n - 1) and field norms
(g = Phi_p).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd
from typing import Iterable, Sequence


class IntMatrix:
    """Immutable integer matrix, row-major.

    Entries must be Python ints; the constructor checks the shape but
    neither converts nor type-checks them (`serialize` checks input files).
    Products read each right-hand row's nonzero entries, as (column, value)
    pairs cached on first use; the cache is invisible to `==` and `hash`.
    """

    __slots__ = ("rows", "cols", "data", "_nonzero")

    def __init__(self, data: Iterable[Iterable[int]], cols: int | None = None):
        rows = tuple(map(tuple, data))
        self.data = rows
        self.rows = len(rows)
        if rows:
            self.cols = len(rows[0])
            if any(len(r) != self.cols for r in rows):
                raise ValueError("ragged rows")
            if cols is not None and cols != self.cols:
                raise ValueError("cols mismatch")
        else:
            if cols is None:
                raise ValueError("empty matrix needs explicit column count")
            self.cols = cols

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(_identity_rows(n), cols=n)

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix([[0] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols=cols)

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        if self.rows == 0 or self.cols == 0:
            return f"IntMatrix({self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"IntMatrix[{body}]"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def tolists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        if not self.rows:
            return IntMatrix([()] * self.cols, cols=0)
        return IntMatrix(zip(*self.data), cols=self.rows)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix([[-x for x in r] for r in self.data], cols=self.cols)

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)],
            cols=self.cols,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IntMatrix([[x * other for x in r] for r in self.data], cols=self.cols)
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return IntMatrix([other.vecmat(r) for r in self.data], cols=other.cols)

    def __rmul__(self, k: int) -> "IntMatrix":
        return self * k

    def _nonzero_rows(self) -> tuple:
        """Per row, the (column, value) pairs of its nonzero entries, listed
        on first use and kept: the matrix never changes."""
        try:
            return self._nonzero
        except AttributeError:
            self._nonzero = tuple(tuple(compress(enumerate(r), r)) for r in self.data)
            return self._nonzero

    def matvec(self, v: Sequence[int]) -> tuple:
        """self acting on a column vector."""
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        return tuple(sum([a * v[j] for j, a in r]) for r in self._nonzero_rows())

    def vecmat(self, v: Sequence[int]) -> tuple:
        """Row vector times self: the sum of x * row i over the nonzero v[i] = x."""
        if len(v) != self.rows:
            raise ValueError("length mismatch")
        out = [0] * self.cols
        for x, r in zip(v, self._nonzero_rows()):
            if x:
                for j, a in r:
                    out[j] += x * a
        return tuple(out)

    def power(self, k: int) -> "IntMatrix":
        if not self.is_square:
            raise ValueError("power of non-square matrix")
        if k < 0:
            return inverse_unimodular(self).power(-k)
        result = None  # the product of the factors of the set bits read so far
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return IntMatrix.identity(self.rows) if result is None else result

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch")
        return IntMatrix(
            [list(r1) + list(r2) for r1, r2 in zip(self.data, other.data)],
            cols=self.cols + other.cols,
        )

    def vstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.cols:
            raise ValueError("col mismatch")
        return IntMatrix(list(self.data) + list(other.data), cols=self.cols)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "IntMatrix":
        return IntMatrix(
            [[self.data[i][j] for j in cols] for i in rows], cols=len(cols)
        )


def block_diag(*blocks: IntMatrix) -> IntMatrix:
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    out = [[0] * m for _ in range(n)]
    i0 = j0 = 0
    for b in blocks:
        for i in range(b.rows):
            row = out[i0 + i]
            brow = b.data[i]
            for j in range(b.cols):
                row[j0 + j] = brow[j]
        i0 += b.rows
        j0 += b.cols
    return IntMatrix(out, cols=m)


def kron(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product: block (i, j) is a[i, j] * b."""
    out = [[0] * (a.cols * b.cols) for _ in range(a.rows * b.rows)]
    for i, arow in enumerate(a.data):
        for j, x in enumerate(arow):
            if x:
                for k, brow in enumerate(b.data):
                    out[i * b.rows + k][j * b.cols : (j + 1) * b.cols] = [x * y for y in brow]
    return IntMatrix(out, cols=a.cols * b.cols)


@dataclass(frozen=True)
class SNFResult:
    s: IntMatrix
    u: IntMatrix
    v: IntMatrix

    def diagonal(self) -> list[int]:
        return [self.s.data[i][i] for i in range(min(self.s.rows, self.s.cols))]

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


@dataclass(frozen=True)
class Echelon:
    """Row HNF h with the pivot column of each nonzero row, top down."""

    h: IntMatrix
    pivots: tuple

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def coefficients(self, target: Sequence[int]) -> list | None:
        """w with w * h = target, or None when target is outside the row space."""
        w = [0] * self.h.rows
        t = list(target)
        for i, (j, row) in enumerate(zip(self.pivots, self.h.data)):
            c, r = divmod(t[j], row[j])
            if r:
                return None
            if c:
                w[i] = c
                for k in range(j, len(t)):
                    t[k] -= c * row[k]
        return None if any(t) else w

    def __contains__(self, target) -> bool:
        return self.coefficients(target) is not None


@dataclass(frozen=True)
class HNFResult(Echelon):
    u: IntMatrix


@dataclass(frozen=True)
class AbelianInvariants:
    """Elementary divisors (each >= 2, in a divisibility chain) plus free rank."""

    torsion: tuple
    free_rank: int

    @property
    def is_trivial(self) -> bool:
        return not self.torsion and self.free_rank == 0

    @property
    def order(self) -> int | None:
        if self.free_rank:
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __add__(self, other: "AbelianInvariants") -> "AbelianInvariants":
        """The direct sum: the invariant factors of diag(both torsions)."""
        both = self.torsion + other.torsion
        n = len(both)
        diag = IntMatrix([[d if i == j else 0 for j in range(n)] for i, d in enumerate(both)], cols=n)
        torsion = tuple(d for d in smith_diagonal(diag) if d > 1)
        return AbelianInvariants(torsion, self.free_rank + other.free_rank)

    def __str__(self):
        parts = [f"Z/{d}" for d in self.torsion]
        if self.free_rank:
            parts.append(f"Z^{self.free_rank}")
        return " + ".join(parts) if parts else "0"


def _identity_rows(n: int) -> list:
    rows = [[0] * n for _ in range(n)]
    for i, r in enumerate(rows):
        r[i] = 1
    return rows


def _nonzero(row: list, start: int = 0) -> tuple:
    """The (column, value) pairs of row's nonzero entries from `start` on."""
    if start:
        row = row[start:]
    return tuple(compress(enumerate(row, start), row))


class _Worker:
    """A mutable row-list matrix s under row and column operations.

    Only the transforms a caller reads are kept, each None otherwise: u
    records the row operations, v the column operations, and vinv = v^-1,
    where each column operation on v is the inverse row operation.  A row
    operation touches the nonzero entries of the pivot row only, a column
    operation the rows that are nonzero in the pivot column only.
    """

    def __init__(self, m: IntMatrix, u: bool = False, v: bool = False, vinv: bool = False):
        self.rows, self.cols = m.rows, m.cols
        self.s = [list(r) for r in m.data]
        self.u = _identity_rows(m.rows) if u else None
        self.v = _identity_rows(m.cols) if v else None
        self.vinv = _identity_rows(m.cols) if vinv else None

    def swap_rows(self, i, j):
        for rows in (self.s, self.u):
            if rows is not None:
                rows[i], rows[j] = rows[j], rows[i]

    def swap_cols(self, i, j):
        for rows in (self.s, self.v):
            if rows is not None:
                for r in rows:
                    r[i], r[j] = r[j], r[i]
        if self.vinv is not None:
            self.vinv[i], self.vinv[j] = self.vinv[j], self.vinv[i]

    def negate_row(self, i):
        for rows in (self.s, self.u):
            if rows is not None:
                rows[i] = [-x for x in rows[i]]

    def _move_min_pivot(self, t: int) -> bool:
        """Swap the minimal-|entry| of the trailing block to (t, t)."""
        s = self.s
        pi = pj = -1
        best = None
        for i in range(t, self.rows):
            ri = s[i]
            for j in range(t, self.cols):
                x = ri[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pi, pj = i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if best is None:
            return False
        if pi != t:
            self.swap_rows(t, pi)
        if pj != t:
            self.swap_cols(t, pj)
        if s[t][t] < 0:
            self.negate_row(t)
        return True

    def sweep(self, start: int) -> None:
        """Diagonalize the trailing block from (start, start) on.

        The minimal-absolute-value pivot is re-selected on every pass;
        without that, intermediate entries explode.
        """
        s, vinv = self.s, self.vinv
        by_row = [x for x in (s, self.u) if x is not None]
        by_col = [x for x in (s, self.v) if x is not None]
        t = start
        limit = min(self.rows, self.cols)
        while t < limit:
            if not self._move_min_pivot(t):
                break
            while True:
                piv = s[t][t]
                done = True
                pivot_row = None  # row t's nonzero entries in s (and u), once some q != 0
                for i in range(t + 1, self.rows):
                    q = s[i][t] // piv
                    if q:
                        if pivot_row is None:
                            pivot_row = [(x, _nonzero(x[t])) for x in by_row]
                        for x, entries in pivot_row:
                            xi = x[i]
                            for k, b in entries:
                                xi[k] -= q * b
                    if s[i][t]:
                        done = False
                st = s[t]
                pivot_col = None  # the rows of s (and v) nonzero in column t, with that entry
                for j in range(t + 1, self.cols):
                    q = st[j] // piv
                    if q:
                        if pivot_col is None:
                            pivot_col = [(r, r[t]) for x in by_col for r in x if r[t]]
                        for r, b in pivot_col:
                            r[j] -= q * b
                        if vinv is not None:
                            # column j of v loses q * column t: row t of v^-1 gains q * row j
                            vt = vinv[t]
                            for k, b in _nonzero(vinv[j]):
                                vt[k] += q * b
                    if st[j]:
                        done = False
                if done:
                    break
                self._move_min_pivot(t)
            t += 1


def _smith(m: IntMatrix, **transforms) -> _Worker:
    """Diagonalize m into Smith form, keeping the named transforms."""
    w = _Worker(m, **transforms)
    w.sweep(0)
    limit = min(m.rows, m.cols)
    t = 0
    while t < limit - 1:
        d = w.s[t][t]
        if d == 0:
            break
        offender = None
        for i in range(t + 1, limit):
            if w.s[i][i] % d:
                offender = i
                break
        if offender is None:
            t += 1
            continue
        # fold the offending diagonal entry back into the block at t and redo:
        # column t gains column offender, so row offender of v^-1 loses row t
        for x in (w.s, w.v):
            if x is not None:
                for r in x:
                    r[t] += r[offender]
        if w.vinv is not None:
            w.vinv[offender] = [a - b for a, b in zip(w.vinv[offender], w.vinv[t])]
        w.sweep(t)
    return w


def snf(m: IntMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms: u * m * v = s.

    Diagonal entries are non-negative, satisfy d_1 | d_2 | ..., zeros trail.
    """
    w = _smith(m, u=True, v=True)
    return SNFResult(
        IntMatrix(w.s, cols=m.cols),
        IntMatrix(w.u, cols=m.rows),
        IntMatrix(w.v, cols=m.cols),
    )


def smith_diagonal(m: IntMatrix) -> list[int]:
    """`snf(m).diagonal()`, computed without the transforms."""
    s = _smith(m).s
    return [s[i][i] for i in range(min(m.rows, m.cols))]


def smith_with_vinv(m: IntMatrix) -> tuple[list[int], IntMatrix]:
    """`snf(m).diagonal()` and the inverse of `snf(m).v`, without u or v."""
    w = _smith(m, vinv=True)
    return [w.s[i][i] for i in range(min(m.rows, m.cols))], IntMatrix(w.vinv, cols=m.cols)


def _hermite(m: IntMatrix, track_u: bool, reduce: bool = True) -> tuple:
    """(h, u or None, pivot columns) for the row HNF u * m = h.

    With u tracked, the row operations run on [m | 1] and leave [h | u].
    Without `reduce` each pivot row is left as elimination leaves it: no
    sign fix, no reduction of the rows above it.  Those steps only rewrite
    rows above the current pivot, which never eliminate a row below it, so
    the rows from the rank down, and the pivots, are the same either way.
    """
    rows, cols = m.rows, m.cols
    a = [list(r) + (e if track_u else []) for r, e in zip(m.data, _identity_rows(rows))]
    pivots = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        while True:
            pi = -1
            best = None
            for i in range(r, rows):
                x = a[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    pi = i
            if pi < 0:
                break
            a[r], a[pi] = a[pi], a[r]
            done = True
            piv = a[r][j]
            pivot = None  # row r's nonzero entries, once some q != 0
            for i in range(r + 1, rows):
                ai = a[i]
                x = ai[j]
                if x:
                    q = x // piv
                    if q:
                        # rows r and below are zero left of column j
                        if pivot is None:
                            pivot = _nonzero(a[r], j)
                        for k, z in pivot:
                            ai[k] -= q * z
                    if ai[j]:
                        done = False
            if done:
                break
        if r < rows and a[r][j]:
            if reduce:
                if a[r][j] < 0:
                    a[r][j:] = [-x for x in a[r][j:]]
                pivot = _nonzero(a[r], j)
                piv = pivot[0][1]
                for i in range(r):
                    ai = a[i]
                    q = ai[j] // piv  # floor puts the entry into [0, piv)
                    if q:
                        for k, z in pivot:
                            ai[k] -= q * z
            pivots.append(j)
            r += 1
    h = IntMatrix([row[:cols] for row in a], cols=cols)
    return h, [row[cols:] for row in a] if track_u else None, tuple(pivots)


def hnf(m: IntMatrix) -> HNFResult:
    """Row Hermite normal form: u * m = h, u unimodular.

    Echelon with positive pivots; entries above each pivot reduced into
    [0, pivot).  Zero rows sink to the bottom.
    """
    h, u, pivots = _hermite(m, track_u=True)
    return HNFResult(h, pivots, IntMatrix(u, cols=m.rows))


def echelon(m: IntMatrix) -> Echelon:
    """`hnf(m)` without u: the HNF and its pivots, for membership tests."""
    h, _, pivots = _hermite(m, track_u=False)
    return Echelon(h, pivots)


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if not m.is_square:
        raise ValueError("determinant of non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(r) for r in m.data]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            if not aik and akk == prev:
                continue  # this step would leave row i as it is
            ai = a[i]
            ak = a[k]
            for j in range(k + 1, n):
                ai[j] = (akk * ai[j] - aik * ak[j]) // prev
            ai[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def resultant(a: Sequence[int], b: Sequence[int]) -> int:
    """Res(a, b) of two integer polynomials given by their coefficients from
    degree 0 up, by the sub-resultant remainder sequence (Cohen, GTM 138,
    Alg. 3.3.7).  Each remainder is divided exactly by g h^delta, which keeps
    the coefficients bounded; a zero polynomial gives 0."""
    a, b = _trim(a), _trim(b)
    if not a or not b:
        return 0
    ca, cb = gcd(*a), gcd(*b)
    da, db = len(a) - 1, len(b) - 1
    scale = ca**db * cb**da
    a, b = [x // ca for x in a], [x // cb for x in b]
    sign = 1
    if da < db:
        a, b, da, db = b, a, db, da
        sign = -1 if da & db & 1 else 1
    g = h = 1
    while db > 0:
        delta = da - db
        if da & db & 1:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        a, da = b, db
        div = g * h**delta
        b = [x // div for x in r]
        db = len(b) - 1
        g = a[-1]
        h = g**delta * h // h**delta
    return sign * scale * (b[0] ** da * h // h**da)


def _trim(p: Sequence[int]) -> list[int]:
    """p without its zero coefficients of top degree."""
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """r with lc(b)^(deg a - deg b + 1) a = q b + r and deg r < deg b, trimmed."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    for k in range(len(a) - 1, db - 1, -1):
        q = r.pop()
        if lb != 1:
            r = [lb * x for x in r]
        if q:
            for j in range(db):
                r[k - db + j] -= q * b[j]
    return _trim(r)


def is_unimodular(m: IntMatrix) -> bool:
    return m.is_square and det(m) in (1, -1)


def inverse_unimodular(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular matrix (its HNF is the identity)."""
    res = hnf(m)
    if res.h != IntMatrix.identity(m.rows):
        raise ValueError("matrix is not unimodular")
    return res.u


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Saturated row basis of the left kernel {x : x * m = 0}: the rows of
    `hnf(m).u` from the rank down, from an unreduced Hermite sweep."""
    _, u, pivots = _hermite(m, track_u=True, reduce=False)
    return IntMatrix.from_rows(u[len(pivots):], cols=m.rows)


def right_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Saturated row basis of {x : m * x = 0} (solutions as rows)."""
    return kernel_basis(m.transpose())


def cokernel_invariants(m: IntMatrix) -> AbelianInvariants:
    """Invariants of Z^cols / (row space of m)."""
    diag = smith_diagonal(m)
    rank = sum(1 for d in diag if d)
    torsion = tuple(d for d in diag if d > 1)
    return AbelianInvariants(torsion=torsion, free_rank=m.cols - rank)


def solve_with_hnf(res: HNFResult, target) -> tuple | None:
    """Solve x * basis = target over Z from the basis's `hnf`, or None."""
    w = res.coefficients(target)
    return None if w is None else res.u.vecmat(w)


def solve_left(basis: IntMatrix, target: Sequence[int]) -> tuple | None:
    """Solve x * basis = target over Z, or None if unsolvable."""
    return solve_with_hnf(hnf(basis), target)


def express_rows(basis: IntMatrix, vectors: IntMatrix) -> IntMatrix | None:
    """Coordinates of each row of `vectors` in `basis`, or None if any fails.

    The basis is Hermite-reduced once and every row reuses the factorization.
    """
    res = hnf(basis)
    out = []
    for row in vectors.data:
        x = solve_with_hnf(res, row)
        if x is None:
            return None
        out.append(list(x))
    return IntMatrix.from_rows(out, cols=basis.rows)


def row_space_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical (HNF, zero rows dropped) basis of the row space."""
    e = echelon(m)
    return IntMatrix.from_rows(e.h.data[: e.rank], cols=m.cols)


def is_saturated(basis: IntMatrix) -> bool:
    """True when Z^cols / rowspace(basis) is torsion-free."""
    diag = smith_diagonal(basis)
    return all(d == 1 for d in diag if d != 0) and sum(1 for d in diag if d) == basis.rows
