"""Core linear-algebra kernel versus brute-force oracles."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from dense_oracle import (
    dense_echelon,
    dense_hnf,
    dense_kernel_basis,
    dense_matvec,
    dense_mul,
    dense_power,
    dense_smith_diagonal,
    dense_smith_with_vinv,
    dense_snf,
    dense_vecmat,
)
from glattice.catalog import LEE_NAMES, build, circulant, circulant_pattern_one, circulant_pattern_two
from glattice.cohomology import coboundary_matrix
from glattice.groups import dihedral, full_class
from glattice.lattices import hom_lattice
from glattice.exactla import (
    AbelianInvariants,
    IntMatrix,
    block_diag,
    cokernel_invariants,
    det,
    echelon,
    express_rows,
    hnf,
    inverse_unimodular,
    is_saturated,
    is_unimodular,
    kernel_basis,
    kron,
    right_kernel_basis,
    row_space_hnf,
    smith_diagonal,
    smith_with_vinv,
    snf,
    solve_left,
)
from steinitz_oracle import lattice_index


def det_cofactor(m: IntMatrix) -> int:
    """Brute-force Laplace expansion, only sane for tiny matrices."""
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    total = 0
    rest = list(range(1, n))
    for j in range(n):
        a = m[0, j]
        if a == 0:
            continue
        minor = m.submatrix(rest, [k for k in range(n) if k != j])
        total += (-1) ** j * a * det_cofactor(minor)
    return total


def minors_gcd(m: IntMatrix, k: int) -> int:
    """gcd of all k x k minors (0 if all vanish)."""
    g = 0
    for rs in combinations(range(m.rows), k):
        for cs in combinations(range(m.cols), k):
            g = math.gcd(g, det_cofactor(m.submatrix(rs, cs)))
    return g


def rational_row_space_contains(space: IntMatrix, vec) -> bool:
    """Exact rational Gaussian elimination membership test (oracle path)."""
    rows = [[Fraction(x) for x in r] for r in space.data]
    ncols = space.cols
    # echelonize the space over Q
    r = 0
    for j in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][j]:
                c = rows[i][j] / rows[r][j]
                for k in range(ncols):
                    rows[i][k] -= c * rows[r][k]
        r += 1
    target = [Fraction(x) for x in vec]
    for row in rows[:r]:
        j = next(k for k, x in enumerate(row) if x)
        if target[j]:
            c = target[j] / row[j]
            for k in range(ncols):
                target[k] -= c * row[k]
    return not any(target)


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return IntMatrix([[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)], cols=cols)


def check_snf_contract(m: IntMatrix):
    res = snf(m)
    assert res.u * m * res.v == res.s
    assert is_unimodular(res.u) and is_unimodular(res.v)
    diag = res.diagonal()
    assert all(d >= 0 for d in diag)
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz, "zeros must trail"
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    # off-diagonal zero
    for i in range(res.s.rows):
        for j in range(res.s.cols):
            if i != j:
                assert res.s[i, j] == 0
    return res


def check_hnf_contract(m: IntMatrix):
    res = hnf(m)
    assert res.u * m == res.h
    assert is_unimodular(res.u)
    pivots = []
    for row in res.h.data:
        j = next((k for k, x in enumerate(row) if x), None)
        if j is None:
            continue
        assert not pivots or j > pivots[-1][1]
        assert row[j] > 0
        pivots.append((row, j))
    for idx, (row, j) in enumerate(pivots):
        for above in range(idx):
            assert 0 <= res.h[above, j] < row[j]
    return res


def test_snf_identity():
    m = IntMatrix.identity(3)
    res = snf(m)
    assert res.s == m and res.u == m and res.v == m


def test_snf_frozen_example():
    # gcd of entries 2; d1*d2 = |det| = |2*8-4*6| = 8 so diag (2, 4)
    res = check_snf_contract(IntMatrix([[2, 4], [6, 8]]))
    assert res.diagonal() == [2, 4]


def test_snf_zero_1x1():
    res = snf(IntMatrix([[0]]))
    assert res.s == IntMatrix([[0]])


def test_snf_degenerate_shapes():
    res = snf(IntMatrix([], cols=3))
    assert res.s.rows == 0 and res.s.cols == 3
    res = snf(IntMatrix.zero(2, 0))
    assert res.s.rows == 2 and res.s.cols == 0


def test_hnf_frozen_example():
    res = check_hnf_contract(IntMatrix([[2, 0], [1, 1]]))
    assert res.h == IntMatrix([[1, 1], [0, 2]])


def test_hnf_identity_and_zero():
    assert hnf(IntMatrix.identity(4)).h == IntMatrix.identity(4)
    z = IntMatrix.zero(2, 3)
    assert hnf(z).h == z


def test_det_basics():
    assert det(IntMatrix.identity(5)) == 1
    with pytest.raises(ValueError):
        det(IntMatrix.zero(2, 3))
    assert det(IntMatrix([], cols=0)) == 1


def test_kernel_basics():
    k = kernel_basis(IntMatrix([[1], [1]]))
    assert k.rows == 1
    assert tuple(k.data[0]) in ((1, -1), (-1, 1))
    assert kernel_basis(IntMatrix.identity(3)).rows == 0
    assert right_kernel_basis(IntMatrix([[1, 1]])).rows == 1


def test_cokernel_examples():
    assert cokernel_invariants(IntMatrix([[2]])) == AbelianInvariants((2,), 0)
    assert cokernel_invariants(IntMatrix([], cols=3)) == AbelianInvariants((), 3)
    # saturated rank-1 row space inside Z^3
    assert cokernel_invariants(IntMatrix([[1, 1, 1]])) == AbelianInvariants((), 2)


def test_abelian_invariants_add_as_direct_sums():
    """a + b is the cokernel of the block sum of two presentations."""
    rng = random.Random(13)
    assert AbelianInvariants((2,), 1) + AbelianInvariants((3,), 0) == AbelianInvariants((6,), 1)
    assert AbelianInvariants((2, 4), 0) + AbelianInvariants((2,), 0) == AbelianInvariants((2, 2, 4), 0)
    for _ in range(100):
        ma, mb = (random_matrix(rng, rng.randint(0, 4), rng.randint(0, 4), -6, 6) for _ in range(2))
        summed = cokernel_invariants(ma) + cokernel_invariants(mb)
        assert summed == cokernel_invariants(block_diag(ma, mb)), (ma, mb)


def test_echelon_membership():
    e = echelon(IntMatrix([[2, 0, 4], [0, 3, 3]]))
    assert e.pivots == (0, 1) and e.rank == 2
    assert (2, 3, 7) in e and (4, -3, 5) in e
    assert (1, 0, 2) not in e and (0, 0, 1) not in e


def test_solve_left_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        basis = random_matrix(rng, rows, cols, -4, 4)
        x = [rng.randint(-3, 3) for _ in range(rows)]
        target = basis.vecmat(x)
        got = solve_left(basis, target)
        assert got is not None
        assert basis.vecmat(got) == tuple(target)


def test_solve_left_unsolvable():
    assert solve_left(IntMatrix([[2, 0]]), (1, 0)) is None
    assert solve_left(IntMatrix([[1, 0]]), (0, 1)) is None


def test_inverse_unimodular():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        # random unimodular: product of elementary matrices
        m = IntMatrix.identity(n).tolists()
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                q = rng.randint(-2, 2)
                for k in range(n):
                    m[i][k] += q * m[j][k]
        mm = IntMatrix(m)
        inv = inverse_unimodular(mm)
        assert mm * inv == IntMatrix.identity(n)
        assert inv * mm == IntMatrix.identity(n)


def test_block_diag_and_power():
    a = IntMatrix([[0, 1], [1, 0]])
    b = IntMatrix([[2]])
    c = block_diag(a, b)
    assert c.rows == 3 and c[2, 2] == 2 and c[0, 1] == 1
    assert a.power(2) == IntMatrix.identity(2)
    assert a.power(0) == IntMatrix.identity(2)


@pytest.mark.parametrize("seed", range(4))
def test_random_snf_hnf_properties(seed):
    rng = random.Random(seed)
    for _ in range(60):
        rows, cols = rng.randint(0, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        check_snf_contract(m)
        check_hnf_contract(m)


def test_det_against_cofactor_oracle():
    rng = random.Random(11)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n)
        assert det(m) == det_cofactor(m)


def test_det_equals_product_of_snf_diagonal():
    rng = random.Random(13)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        diag = snf(m).diagonal()
        prod = 1
        for d in diag:
            prod *= d
        assert abs(det(m)) == prod


def test_snf_against_minor_gcd_oracle():
    # d_1 ... d_k equals the gcd of all k x k minors
    rng = random.Random(17)
    for _ in range(60):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, -6, 6)
        diag = snf(m).diagonal()
        acc = 1
        for k in range(1, min(rows, cols) + 1):
            acc *= diag[k - 1]
            assert acc == minors_gcd(m, k)


def test_hnf_preserves_row_space():
    rng = random.Random(19)
    for _ in range(40):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        m = random_matrix(rng, rows, cols, -5, 5)
        h = hnf(m).h
        for row in m.data:
            assert rational_row_space_contains(h, row)
        for row in h.data:
            assert rational_row_space_contains(m, row)


def test_kernel_properties_random():
    rng = random.Random(23)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        k = kernel_basis(m)
        for row in k.data:
            assert all(v == 0 for v in m.vecmat(row))
        assert is_saturated(k)
        # completeness: rank(kernel) + rank(m) == rows
        assert k.rows + snf(m).rank == rows


def test_lattice_index_and_saturation():
    sup = IntMatrix.identity(2)
    sub = IntMatrix([[2, 0], [0, 3]])
    assert lattice_index(sup, sub) == 6
    assert lattice_index(sub, sup) is None
    assert is_saturated(IntMatrix([[1, 1, 1]]))
    assert is_saturated(IntMatrix([], cols=3))
    assert not is_saturated(IntMatrix([[2, 0], [0, 1]]))


def test_row_space_hnf_canonical():
    a = IntMatrix([[1, 2], [3, 4], [4, 6]])
    b = IntMatrix([[3, 4], [1, 2]])
    assert row_space_hnf(a) == row_space_hnf(b)


def test_snf_entry_growth_regression():
    # this exact matrix made a fixed-pivot sweep explode past 4300-digit
    # entries; the min-pivot reselection must keep it instant
    m = IntMatrix(
        [
            [-1, -5, 8, -9, 5, -7],
            [1, -8, 8, -1, -5, -2],
            [6, 2, 0, 2, 9, -5],
            [0, 3, 4, -7, -9, -3],
            [1, -4, -2, -2, 5, 3],
            [9, 4, -8, 3, 9, 4],
        ]
    )
    res = check_snf_contract(m)
    assert max(abs(x) for row in res.s.data for x in row) < 10**9


def test_oracle_bulk_small_matrices():
    # acceptance criterion 10 feeds >= 10^4 matrices through these checks;
    # keep a quick version here so plain pytest runs stay fast
    rng = random.Random(29)
    for _ in range(500):
        rows = rng.randint(1, 3)
        cols = rng.randint(1, 3)
        m = random_matrix(rng, rows, cols, -4, 4)
        check_snf_contract(m)
        check_hnf_contract(m)
        if rows == cols:
            assert det(m) == det_cofactor(m)


# --- sparse products against the dense oracle --------------------------------

# zero-heavy: small entries, a forced zero, and entries far above 2^64
_ENTRY = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**80), 2**80))


@st.composite
def _operand(draw, rows: int, cols: int) -> IntMatrix:
    """An entry matrix, or (when square) a signed permutation matrix."""
    if rows == cols and draw(st.booleans()):
        perm = draw(st.permutations(range(rows)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rows, max_size=rows))
        return IntMatrix(
            [[signs[i] if j == perm[i] else 0 for j in range(rows)] for i in range(rows)],
            cols=rows,
        )
    row = st.lists(_ENTRY, min_size=cols, max_size=cols)
    return IntMatrix(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)


@st.composite
def _product_case(draw):
    r, n, c = (draw(st.integers(0, 6)) for _ in range(3))
    if draw(st.booleans()):
        n = c = r
    a, b = draw(_operand(r, n)), draw(_operand(n, c))
    vectors = [draw(st.lists(_ENTRY, min_size=k, max_size=k)) for k in (n, r)]
    return a, b, draw(_ENTRY), *vectors, draw(st.integers(0, 5))


def _cold_then_warm(op, *operands):
    """op on fresh copies of the operands, twice: first before any of them
    has listed its nonzero entries, then with those lists cached.  Returns
    both results; `==` and `hash` must not see the cache."""
    copies = [IntMatrix(m.data, cols=m.cols) for m in operands]
    hashes = [hash(m) for m in copies]
    results = op(*copies), op(*copies)
    assert [hash(m) for m in copies] == hashes
    assert all(m == o and o == m for m, o in zip(copies, operands))
    return results


@settings(max_examples=400, deadline=None)
@given(_product_case())
@example((IntMatrix([], cols=3), IntMatrix([[1, -2], [0, 0], [-1, 0]]), -2, [0, -1, 5], [], 0))
@example((IntMatrix([[], []]), IntMatrix([], cols=3), 2, [], [-1, 4], 0))
@example((IntMatrix([[0], [-4]]), IntMatrix([[-3]]), 0, [7], [-1, 2], 0))
@example((IntMatrix([[0, -1], [1, 0]]), IntMatrix([[-1, 0], [0, 0]]), 3, [2, -5], [-2, 1], 5))
def test_products_match_the_dense_oracle(case):
    """Every product matches the oracle with the operands' nonzero rows cold
    and warm, `a * a` (one object on both sides) included."""
    a, b, k, v, w, e = case
    assert _cold_then_warm(lambda x, y: x * y, a, b) == (dense_mul(a, b),) * 2
    assert a * k == k * a == dense_mul(a, k)
    assert _cold_then_warm(lambda x: x.matvec(v), a) == (dense_matvec(a, v),) * 2
    assert _cold_then_warm(lambda x: x.vecmat(w), a) == (dense_vecmat(a, w),) * 2
    if a.is_square:
        assert _cold_then_warm(lambda x: x * x, a) == (dense_mul(a, a),) * 2
        assert _cold_then_warm(lambda x: x.power(e), a) == (dense_power(a, e),) * 2


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(1, 3), st.data())
def test_product_shape_mismatch_raises(r, n, c, off, data):
    a, b = data.draw(_operand(r, n)), data.draw(_operand(n + off, c))
    with pytest.raises(ValueError):
        a * b
    for fn in (a.matvec, a.vecmat):
        with pytest.raises(ValueError):
            fn([0] * (max(r, n) + off))
    if r != n:
        with pytest.raises(ValueError):
            a.power(2)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.data())
def test_transpose_and_difference_on_every_shape(r, c, data):
    """transpose swaps the shape, 0 x c and r x 0 included, and undoes
    itself; a - b is a + (-b) and refuses a shape mismatch."""
    a, b = data.draw(_operand(r, c)), data.draw(_operand(r, c))
    t = a.transpose()
    assert (t.rows, t.cols) == (c, r) and t.transpose() == a
    assert all(t[j, i] == a[i, j] for i in range(r) for j in range(c))
    assert a - b == a + (-b)
    for other in (data.draw(_operand(r + 1, c)), data.draw(_operand(r, c + 1))):
        with pytest.raises(ValueError, match="shape mismatch"):
            a - other


def test_transpose_of_empty_shapes():
    assert IntMatrix([], cols=3).transpose() == IntMatrix([[], [], []])
    assert IntMatrix([[], []]).transpose() == IntMatrix([], cols=2)
    assert IntMatrix([], cols=0).transpose() == IntMatrix([], cols=0)


# --- eliminations against the dense oracle -----------------------------------


def _eliminations_match_the_dense_oracle(m: IntMatrix) -> None:
    """Every elimination result equals the dense sweeps' bit for bit: the
    same pivots in the same order give the same transforms."""
    res, ref = snf(m), dense_snf(m)
    assert (res.s, res.u, res.v) == (ref.s, ref.u, ref.v)
    assert smith_diagonal(m) == dense_smith_diagonal(m)
    assert smith_with_vinv(m) == dense_smith_with_vinv(m)
    res, ref = hnf(m), dense_hnf(m)
    assert (res.h, res.pivots, res.u) == (ref.h, ref.pivots, ref.u)
    assert echelon(m) == dense_echelon(m)
    assert kernel_basis(m) == dense_kernel_basis(m)


@st.composite
def _elimination_input(draw) -> IntMatrix:
    """Dense, sparse +-1, all-zero or low-rank; 0 rows and 0 columns included."""
    r, c = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("dense", "sparse", "zero", "low rank")))
    if kind == "low rank":
        k = draw(st.integers(0, 3))
        return draw(_operand(r, k)) * draw(_operand(k, c)) * draw(st.sampled_from((1, 2, -6)))
    entry = {"dense": _ENTRY, "sparse": st.sampled_from((0, 0, 0, 1, -1)), "zero": st.just(0)}[kind]
    return IntMatrix(draw(st.lists(st.lists(entry, min_size=c, max_size=c), min_size=r, max_size=r)), cols=c)


@settings(max_examples=300, deadline=None)
@given(_elimination_input())
def test_eliminations_match_the_dense_oracle(m):
    _eliminations_match_the_dense_oracle(m)


def test_eliminations_match_the_dense_oracle_on_seeded_matrices():
    rng = random.Random(43)
    for _ in range(400):
        r, c = rng.randint(0, 9), rng.randint(0, 9)
        kind = rng.choice(("dense", "sparse", "zero"))
        if kind == "dense":
            m = random_matrix(rng, r, c)
        elif kind == "sparse":
            m = IntMatrix([[rng.choice((1, -1)) if rng.random() < 0.25 else 0 for _ in range(c)] for _ in range(r)], cols=c)
        else:
            m = IntMatrix.zero(r, c)
        _eliminations_match_the_dense_oracle(m)


def test_eliminations_match_the_dense_oracle_on_census_cocycle_systems():
    """Every ordered pair of census lattices over D_3: the coboundary system
    that `_noncoboundary_cocycle` reads its Ext^1 class off."""
    g = dihedral(3)
    census = [build(name, 3) for name in LEE_NAMES]
    for top in census:
        for bottom in census:
            _eliminations_match_the_dense_oracle(coboundary_matrix(hom_lattice(top, bottom), full_class(g)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.data())
def test_hnf_is_idempotent(r, c, data):
    """An HNF is its own HNF, reached without a single row operation."""
    h = hnf(data.draw(_operand(r, c))).h
    again = hnf(h)
    assert again.h == h
    assert again.u == IntMatrix.identity(r)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7), st.data())
def test_kernel_basis_is_the_tail_of_hnf_u(r, k, c, data):
    """kernel_basis skips the sign fix and the reduction above each pivot;
    the rows of `hnf(m).u` from the rank down are the same.  A product
    through k columns has rank at most k, and the scalar makes every pivot
    a multiple of it."""
    scale = data.draw(st.sampled_from((1, 2, -3, 6)))
    m = data.draw(_operand(r, k)) * data.draw(_operand(k, c)) * scale
    res = hnf(m)
    kernel = kernel_basis(m)
    assert kernel.data == res.u.data[res.rank :]
    assert kernel.cols == r and kernel * m == IntMatrix.zero(kernel.rows, c)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 3), st.data())
def test_results_hold_plain_ints(r, c, k, data):
    """IntMatrix converts no entry, so every result must be built of ints alone."""
    a, b = data.draw(_operand(r, c)), data.draw(_operand(r, c))
    square = data.draw(_operand(c, c))
    s, h = snf(a), hnf(a)
    diagonal, vinv = smith_with_vinv(a)
    vectors = data.draw(_operand(k, r)) * a
    coords = express_rows(a, vectors)
    assert coords is not None and coords * a == vectors
    results = [
        a * square, a * data.draw(_ENTRY), a + b, a - b, a.transpose(), kron(a, b), block_diag(a, b),
        s.s, s.u, s.v, h.h, h.u, echelon(a).h, vinv, inverse_unimodular(h.u),
        kernel_basis(a), coords,
    ]
    entries = [x for m in results for row in m.data for x in row] + diagonal
    assert all(type(x) is int for x in entries)


def _unit_triangular(rng, n: int, lower: bool) -> IntMatrix:
    """Ones on the diagonal and a few small entries on one side of it."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        for j in range(i) if lower else range(i + 1, n):
            if rng.random() < 0.3:
                rows[i][j] = rng.choice((-2, -1, 1, 2))
    return IntMatrix(rows, cols=n)


def test_det_on_sparse_unimodular_products():
    # pivots of 1 after pivots of 1 (akk == prev) with zeros below them:
    # the elimination skips those rows
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randint(1, 7)
        perm = list(range(n))
        rng.shuffle(perm)
        p = IntMatrix([[1 if j == perm[i] else 0 for j in range(n)] for i in range(n)], cols=n)
        m = p * _unit_triangular(rng, n, True) * _unit_triangular(rng, n, False)
        assert det(m) == det_cofactor(m) in (1, -1)
        assert det(m * 3) == det_cofactor(m * 3)


def test_det_on_sparse_circulants():
    rng = random.Random(37)
    for n in range(1, 16):
        for weight in (1, 2, 3):
            c = [0] * n
            for k in rng.sample(range(n), min(weight, n)):
                c[k] = rng.choice((-3, -2, -1, 1, 2, 3))
            m = circulant(c)
            assert det(m) == det_cofactor(m), c
    for n in (3, 5, 7, 9):
        assert det(circulant(circulant_pattern_one(n))) == (n - 1) // 2
        assert det(circulant(circulant_pattern_two(n))) == -1
