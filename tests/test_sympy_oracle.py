"""`snf`, `hnf`, `det`, `kron`, `resultant`, `factor_cyclotomic_mod` and
`is_prime` against sympy, an independent exact implementation, and the
eliminations that skip transforms against `snf`, `hnf` and
`inverse_unimodular`."""

import random

from sympy import (
    ZZ,
    Matrix,
    Poly,
    cyclotomic_poly,
    isprime,
    kronecker_product,
    primerange,
    resultant as sympy_resultant,
    symbols,
)
from sympy.matrices.normalforms import hermite_normal_form, invariant_factors
from sympy.polys.subresultants_qq_zz import sylvester

from glattice.cyclotomic import is_prime
from glattice.exactla import (
    IntMatrix,
    det,
    echelon,
    hnf,
    inverse_unimodular,
    kron,
    resultant,
    smith_diagonal,
    smith_with_vinv,
    snf,
)
from steinitz_oracle import factor_cyclotomic_mod


def _matrices(seed: int, square: bool):
    """Seeded matrices up to 10 x 10, from dense to mostly zero."""
    rng = random.Random(seed)
    for _ in range(200):
        rows = rng.randint(1, 10)
        cols = rows if square else rng.randint(1, 10)
        density = rng.choice((0.15, 0.4, 1.0))
        yield IntMatrix(
            [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(cols)]
             for _ in range(rows)],
            cols=cols,
        )


def test_snf_diagonal_matches_sympy_invariant_factors():
    for m in _matrices(41, square=False):
        ours = [d for d in snf(m).diagonal() if d]
        theirs = [int(d) for d in invariant_factors(Matrix(m.tolists()), domain=ZZ) if d]
        assert ours == theirs, m


def test_det_matches_sympy():
    for m in _matrices(43, square=True):
        assert det(m) == int(Matrix(m.tolists()).det(method="berkowitz")), m


def test_resultant_matches_sympy():
    """Seeded polynomials up to degree 9, some with a content above 1 or zero
    top coefficients, against sympy's `resultant`, and the first 40 pairs of
    positive degree also against the determinant of sympy's Sylvester matrix.
    sympy's `resultant` is asked with deg a >= deg b only: given deg a < deg b
    it returns Res(b, a), whose sign differs when both degrees are odd, so
    then Res(a, b) = (-1)^(deg a deg b) Res(b, a) is compared."""
    x = symbols("x")
    rng = random.Random(61)
    compared = 0
    for _ in range(400):
        a, b = ([rng.randint(-6, 6) for _ in range(rng.randint(1, 10))] for _ in range(2))
        a = [3 * c for c in a] if rng.random() < 0.2 else a + [0] * rng.randint(0, 2)
        fa, fb = (Poly(list(reversed(c)), x) for c in (a, b))
        got = resultant(a, b)
        if fa.is_zero or fb.is_zero:
            assert got == 0, (a, b)
        elif fa.degree() == 0 or fb.degree() == 0:
            # Res(c, f) = c^deg f and Res(f, c) = c^deg f
            assert got == int(fa.LC() ** fb.degree() * fb.LC() ** fa.degree()), (a, b)
        else:
            if fa.degree() >= fb.degree():
                assert got == int(sympy_resultant(fa, fb)), (a, b)
            else:
                assert got == (-1) ** (fa.degree() * fb.degree()) * int(sympy_resultant(fb, fa)), (a, b)
            if compared < 40:
                assert got == int(sylvester(fa.as_expr(), fb.as_expr(), x).det()), (a, b)
            compared += 1
    assert compared > 300


def test_kron_matches_sympy_kronecker_product():
    """Seeded factors up to 4 x 4, half their entries zero.  sympy cannot
    take an empty factor, so a product with 0 rows or columns is checked for
    its (a.rows * b.rows) x (a.cols * b.cols) shape alone."""
    rng = random.Random(47)
    empty = 0
    for _ in range(300):
        a, b = (
            IntMatrix(
                [[rng.randint(-5, 5) if rng.random() < 0.5 else 0 for _ in range(cols)]
                 for _ in range(rows)],
                cols=cols,
            )
            for rows, cols in ((rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2))
        )
        got = kron(a, b)
        assert (got.rows, got.cols) == (a.rows * b.rows, a.cols * b.cols)
        if got.rows and got.cols:
            want = kronecker_product(Matrix(a.tolists()), Matrix(b.tolists()))
            assert got.tolists() == want.tolist(), (a, b)
        else:
            empty += 1
    assert empty


def test_hnf_against_sympy_hermite_normal_form():
    """u * m = h with u unimodular, and h spans the row lattice of m.

    sympy's `hermite_normal_form` is the canonical HNF of a column module, so
    two matrices have one row lattice exactly when it maps their transposes
    to the same matrix.
    """
    for m in _matrices(47, square=False):
        res = hnf(m)
        assert res.u * m == res.h, m
        assert Matrix(res.u.tolists()).det() in (1, -1), m
        theirs = hermite_normal_form(Matrix(m.tolists()).T)
        assert hermite_normal_form(Matrix(res.h.tolists()).T) == theirs, m


def test_smith_diagonal_without_transforms():
    """Equal to `snf(m).diagonal()` and to sympy's invariant factors."""
    for m in _matrices(53, square=False):
        diag = smith_diagonal(m)
        assert diag == snf(m).diagonal(), m
        theirs = [int(d) for d in invariant_factors(Matrix(m.tolists()), domain=ZZ) if d]
        assert [d for d in diag if d] == theirs, m


def test_tracked_vinv_is_the_inverse_of_v():
    """V^-1, kept as the inverse row operations of the sweep, equals
    `inverse_unimodular(snf(m).v)` entry for entry."""
    for m in _matrices(59, square=False):
        diag, vinv = smith_with_vinv(m)
        res = snf(m)
        assert diag == res.diagonal(), m
        assert vinv == inverse_unimodular(res.v), m
        assert vinv * res.v == IntMatrix.identity(m.cols), m


def test_echelon_without_u_equals_hnf():
    """The U-free HNF equals `hnf(m).h`; its pivots lead the nonzero rows."""
    for m in _matrices(61, square=False):
        e, res = echelon(m), hnf(m)
        assert e.h == res.h and e.pivots == res.pivots, m
        leads = [next(k for k, x in enumerate(row) if x) for row in res.h.data if any(row)]
        assert list(e.pivots) == leads, m


def _monic_mod(coeffs_high_first, ell: int) -> tuple:
    """Low-to-high coefficients reduced mod ell, scaled to a monic polynomial."""
    low = [int(c) % ell for c in reversed(coeffs_high_first)]
    inv = pow(low[-1], -1, ell)
    return tuple(c * inv % ell for c in low)


def test_factor_cyclotomic_mod_matches_sympy_factor_list():
    """The monic irreducible factors of Phi_p mod ell, as sets (for ell = p
    both give X - 1 alone; sympy also reports its multiplicity p - 1)."""
    x = symbols("x")
    for p in primerange(3, 32):
        for ell in primerange(2, 32):
            _, factors = Poly(cyclotomic_poly(p, x), x, modulus=ell).factor_list()
            theirs = {_monic_mod(f.all_coeffs(), ell) for f, _ in factors}
            ours = factor_cyclotomic_mod(p, ell)
            assert len(ours) == len(theirs) and set(map(tuple, ours)) == theirs, (p, ell)


def test_is_prime_matches_sympy():
    assert all(is_prime(n) == isprime(n) for n in range(-5, 2000))
