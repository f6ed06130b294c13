"""Dense row-by-column matrix products, kept as an oracle for `exactla`.

Every entry is the full sum of products over the shared index, zeros
included, with no skipping.  The library builds each product row as a sum
of rows of the right factor over the nonzero entries of the left row
instead; the tests compare the two.
"""

from glattice.exactla import IntMatrix


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
