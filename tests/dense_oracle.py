"""Dense products and dense eliminations, kept as an oracle for `exactla`.

Every product entry is the full sum of products over the shared index,
zeros included, with no skipping.  The library builds each product row as a
sum of rows of the right factor over the nonzero entries of the left row
instead; the tests compare the two.

The Smith sweep (`_Worker`, `_smith`) and the Hermite sweep (`_hermite`)
below rebuild every row they touch in full, zeros included.  The library
runs the same pivot order touching only nonzero entries, so its results
must equal these bit for bit.
"""

from glattice.exactla import Echelon, HNFResult, IntMatrix, SNFResult


def dense_mul(a: IntMatrix, b) -> IntMatrix:
    """a * b for a matrix or an integer b."""
    if isinstance(b, int):
        return IntMatrix([[x * b for x in r] for r in a.data], cols=a.cols)
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    bt = b.transpose().data
    return IntMatrix([[sum(x * y for x, y in zip(r, c)) for c in bt] for r in a.data], cols=b.cols)


def dense_matvec(a: IntMatrix, v) -> tuple:
    if len(v) != a.cols:
        raise ValueError("length mismatch")
    return tuple(sum(x * y for x, y in zip(r, v)) for r in a.data)


def dense_vecmat(a: IntMatrix, v) -> tuple:
    if len(v) != a.rows:
        raise ValueError("length mismatch")
    return tuple(sum(v[i] * a.data[i][j] for i in range(a.rows)) for j in range(a.cols))


def dense_power(a: IntMatrix, k: int) -> IntMatrix:
    """a^k for k >= 0 by k - 1 plain products."""
    out = IntMatrix.identity(a.rows)
    for _ in range(k):
        out = dense_mul(out, a)
    return out


def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class _Worker:
    """A mutable row-list matrix s under row and column operations.

    Only the transforms a caller reads are kept, each None otherwise: u
    records the row operations, v the column operations, and vinv = v^-1,
    where each column operation on v is the inverse row operation.
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

    def addmul_row(self, dst, src, q):
        for rows in (self.s, self.u):
            if rows is not None:
                rows[dst] = [a + q * b for a, b in zip(rows[dst], rows[src])]

    def addmul_col(self, dst, src, q):
        for rows in (self.s, self.v):
            if rows is not None:
                for r in rows:
                    r[dst] += q * r[src]
        if self.vinv is not None:
            # column dst of v gains q * column src: row src of v^-1 loses q * row dst
            vinv = self.vinv
            vinv[src] = [a - q * b for a, b in zip(vinv[src], vinv[dst])]

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
        s = self.s
        t = start
        limit = min(self.rows, self.cols)
        while t < limit:
            if not self._move_min_pivot(t):
                break
            while True:
                piv = s[t][t]
                for i in range(t + 1, self.rows):
                    q = s[i][t] // piv
                    if q:
                        self.addmul_row(i, t, -q)
                for j in range(t + 1, self.cols):
                    q = s[t][j] // piv
                    if q:
                        self.addmul_col(j, t, -q)
                if all(s[i][t] == 0 for i in range(t + 1, self.rows)) and all(
                    s[t][j] == 0 for j in range(t + 1, self.cols)
                ):
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
        # fold the offending diagonal entry back into the block at t and redo
        w.addmul_col(t, offender, 1)
        w.sweep(t)
    return w


def dense_snf(m: IntMatrix) -> SNFResult:
    """Smith normal form with unimodular transforms: u * m * v = s.

    Diagonal entries are non-negative, satisfy d_1 | d_2 | ..., zeros trail.
    """
    w = _smith(m, u=True, v=True)
    return SNFResult(
        IntMatrix(w.s, cols=m.cols),
        IntMatrix(w.u, cols=m.rows),
        IntMatrix(w.v, cols=m.cols),
    )


def dense_smith_diagonal(m: IntMatrix) -> list[int]:
    """`snf(m).diagonal()`, computed without the transforms."""
    s = _smith(m).s
    return [s[i][i] for i in range(min(m.rows, m.cols))]


def dense_smith_with_vinv(m: IntMatrix) -> tuple[list[int], IntMatrix]:
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
            tail = a[r][j:]
            piv = tail[0]
            for i in range(r + 1, rows):
                ai = a[i]
                x = ai[j]
                if x:
                    q = x // piv
                    if q:
                        # rows r and below are zero left of column j
                        ai[j:] = [y - q * z for y, z in zip(ai[j:], tail)]
                    if ai[j]:
                        done = False
            if done:
                break
        if r < rows and a[r][j]:
            if reduce:
                if a[r][j] < 0:
                    a[r][j:] = [-x for x in a[r][j:]]
                tail = a[r][j:]
                piv = tail[0]
                for i in range(r):
                    ai = a[i]
                    q = ai[j] // piv  # floor puts the entry into [0, piv)
                    if q:
                        ai[j:] = [y - q * z for y, z in zip(ai[j:], tail)]
            pivots.append(j)
            r += 1
    h = IntMatrix([row[:cols] for row in a], cols=cols)
    return h, [row[cols:] for row in a] if track_u else None, tuple(pivots)


def dense_hnf(m: IntMatrix) -> HNFResult:
    h, u, pivots = _hermite(m, track_u=True)
    return HNFResult(h, pivots, IntMatrix(u, cols=m.rows))


def dense_echelon(m: IntMatrix) -> Echelon:
    h, _, pivots = _hermite(m, track_u=False)
    return Echelon(h, pivots)


def dense_kernel_basis(m: IntMatrix) -> IntMatrix:
    _, u, pivots = _hermite(m, track_u=True, reduce=False)
    return IntMatrix.from_rows(u[len(pivots):], cols=m.rows)
