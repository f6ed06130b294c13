"""Catalog lattices, circulants, and change-of-basis witnesses."""

import os
import random
import signal
from pathlib import Path

import pytest

from glattice.exactla import IntMatrix, det
from glattice.groups import dihedral
from glattice.cohomology import ext1
from glattice.catalog import (
    LEE_NAMES,
    WitnessRecord,
    build,
    circulant,
    circulant_det,
    circulant_pattern_one,
    circulant_pattern_two,
    is_prime,
    l46_embedding,
    lee_census,
    render_matrix,
    verify_witness,
    witness,
)
from glattice.lattices import LatticeError, quotient_with_maps, trivial_lattice

GOLDEN = Path(__file__).parent / "golden"


def poly_mul_mod(a, b, mod_poly):
    """Multiply polynomials over Z then reduce modulo mod_poly (monic)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    n = len(mod_poly) - 1
    for i in range(len(out) - 1, n - 1, -1):
        c = out[i]
        if c:
            for j in range(n + 1):
                out[i - n + j] -= c * mod_poly[j]
    return out[:n]


def resultant_with_xn_minus_1(c, n):
    """Res(X^n - 1, f) via the subresultant PRS, an independent oracle."""

    def content(p):
        from math import gcd

        g = 0
        for x in p:
            g = gcd(g, x)
        return max(g, 1)

    def degree(p):
        d = len(p) - 1
        while d >= 0 and p[d] == 0:
            d -= 1
        return d

    def prem(a, b):
        # pseudo-remainder: returns (lb^steps * (a mod b), steps)
        da, db = degree(a), degree(b)
        a = list(a)
        lb = b[db]
        steps = 0
        while da >= db:
            la = a[da]
            a = [lb * x for x in a]
            steps += 1
            for j in range(db + 1):
                a[da - db + j] -= la * b[j]
            da = degree(a)
        return a, steps

    f = [0] * (n + 1)
    f[0] = -1
    f[n] = 1
    g = list(c) + [0]
    dg = degree(g)
    if dg < 0:
        return 0
    # generic PRS with explicit product formula over the roots of X^n - 1:
    # fall back to exact evaluation via the Sylvester-free recursive identity
    # res(f, g) = lc(g)^{deg f - deg r} * (-1)^{deg f * deg g} * res(g, r)
    def res(a, b):
        da, db = degree(a), degree(b)
        if db < 0:
            return 0
        if db == 0:
            return b[0] ** da
        r, steps = prem(a, b)
        dr = degree(r)
        if dr < 0:
            return 0
        lb = b[db]
        # r = lb^steps * (a mod b); res(b, c*r') = c^db * res(b, r')
        sign = (-1) ** (da * db)
        num = sign * lb ** (da - dr) * res(b, r)
        den = lb ** (steps * db)
        assert num % den == 0
        return num // den

    return res(f, g)


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_build_validation():
    with pytest.raises(LatticeError):
        build("Z", 4)
    with pytest.raises(LatticeError):
        build("Y2", 9)
    with pytest.raises(LatticeError):
        build("nope", 5)
    build("MplusTilde", 9)  # composite odd fine for non-census names


@pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
def test_builds_satisfy_relations(n):
    names = [nm for nm in LEE_NAMES if is_prime(n)] or [
        "Z", "Zminus", "ZH", "ZGmodTau", "ZG", "Mplus", "Mminus",
        "Nplus", "Nminus", "MplusTilde", "MminusTilde",
    ]
    for name in names:
        build(name, n)._check_relations()


def test_nplus_matrices_displayed_form():
    np5 = build("Nplus", 5)
    assert np5.rank == 4
    assert np5.sigma == IntMatrix(
        [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
    )
    assert np5.tau == IntMatrix(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
    )
    nm5 = build("Nminus", 5)
    assert nm5.tau == -np5.tau


def test_tilde_matrices():
    mt = build("MplusTilde", 3)
    assert mt.rank == 4
    assert mt.sigma == IntMatrix(
        [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
    )
    assert mt.tau == IntMatrix(
        [[1, 0, 0, 1], [0, 0, 1, 1], [0, 1, 0, 1], [0, 0, 0, -1]]
    )
    assert build("MminusTilde", 3).tau == -mt.tau


def test_build_y2_is_regular():
    y2 = build("Y2", 5)
    assert y2.rank == 10
    assert y2.is_permutation


def test_quotient_identity_with_build():
    # the Def 3.2 quotients agree entrywise with the displayed matrices
    for n in (3, 5, 7, 9):
        mp = build("Mplus", n)
        q = quotient_with_maps(mp, IntMatrix([[1] * n])).lattice
        assert q.sigma == build("Nplus", n).sigma
        assert q.tau == build("Nplus", n).tau
        mm = build("Mminus", n)
        qm = quotient_with_maps(mm, IntMatrix([[1] * n])).lattice
        assert qm.tau == build("Nminus", n).tau


def test_census_ranks():
    census = lee_census(3)
    assert [lat.rank for _, lat in census] == [1, 1, 2, 2, 2, 3, 3, 4, 4, 6]
    census5 = lee_census(5)
    assert [lat.rank for _, lat in census5] == [1, 1, 2, 4, 4, 5, 5, 6, 6, 10]
    with pytest.raises(LatticeError):
        lee_census(9)


def test_circulant_shape():
    c = circulant([1, 2, 3])
    assert c == IntMatrix([[1, 3, 2], [2, 1, 3], [3, 2, 1]])
    assert circulant([1, 0, 0, 0]) == IntMatrix.identity(4)


def test_circulant_closed_form_values():
    assert det(circulant(circulant_pattern_one(5))) == 2
    assert circulant_pattern_two(5) == [-1, -1, 0, 1, 0]
    assert det(circulant(circulant_pattern_two(5))) == -1
    for n in range(3, 32, 2):
        assert det(circulant(circulant_pattern_one(n))) == (n - 1) // 2
        assert det(circulant(circulant_pattern_two(n))) == -1


def test_circulant_against_resultant_oracle():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 15)
        c = [rng.randint(-3, 3) for _ in range(n)]
        assert det(circulant(c)) == resultant_with_xn_minus_1(c, n)


def test_circulant_det_equals_bareiss_on_the_edge_cases():
    """Res(x^n - 1, f) against the Bareiss determinant of the matrix: all
    zeros, n = 1, trailing zeros (down to a constant f) and f(1) = 0."""
    cases = [[0] * n for n in (1, 2, 5)] + [[c] for c in (-4, 0, 1, 7)]
    cases += [[2, 0, 0], [-3, 0, 0, 0, 0], [1, 2, 0, 0], [0, 0, 5, 0, 0, 0], [0, 0, 0, 1]]
    cases += [[1, -1], [1, 1, -2], [2, 0, -1, -1, 0], [3, -1, -1, -1, 0, 0]]  # f(1) = 0
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(1, 12)
        cases.append([rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(n)])
    for c in cases:
        assert circulant_det(c) == det(circulant(c)), c
    assert [circulant_det(c) for c in ([1, -1], [1, 1, -2], [0] * 5)] == [0, 0, 0]
    with pytest.raises(LatticeError):
        circulant_det([])


def test_circulant_det_patterns_at_n_1001():
    """Both L36 patterns at n = 1001, within 10 s."""

    def too_slow(signum, frame):
        raise TimeoutError("circulant_det at n = 1001 took more than 10 s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        one = circulant_det(circulant_pattern_one(1001))
        two = circulant_det(circulant_pattern_two(1001))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (one, two) == (500, -1)


@pytest.mark.parametrize("wid,dets", [("T34", {1}), ("T35", {1, -1}), ("T37", {-1}), ("L46", {1})])
def test_witnesses_verify(wid, dets):
    # the acceptance gate runs 3..31; stretch a little past it here
    for n in (3, 5, 7, 9, 11, 21, 33, 41):
        w = witness(wid, n)
        check = verify_witness(w)
        assert check.ok, (wid, n, check.failures)
        assert check.determinant in dets


def test_witness_rejects_even_n():
    with pytest.raises(LatticeError):
        witness("T34", 4)


def test_witness_soundness_perturbation():
    w = witness("T34", 5)
    data = [list(r) for r in w.intertwiner.data]
    data[0][0] += 1
    bad = WitnessRecord(
        w.witness_id, w.n, w.lhs, w.rhs, w.change_of_basis, IntMatrix(data), w.allowed_dets
    )
    check = verify_witness(bad)
    assert not check.ok
    assert any("relation fails" in f or "unimodular" in f for f in check.failures)


def test_l46_embedding_is_kernel_basis():
    from glattice.exactla import right_kernel_basis, row_space_hnf

    for n in (3, 5, 7):
        emb = l46_embedding(n)
        emb.check()
        # image spans exactly ker(Z[G] -> Z[H])
        phi = IntMatrix([[1] * n + [0] * n, [0] * n + [1] * n])
        kernel_rows = right_kernel_basis(phi)
        assert row_space_hnf(emb.matrix.transpose()) == row_space_hnf(kernel_rows)


@pytest.mark.parametrize(
    "wid,n,fname",
    [
        ("T34", 3, "T34_n3.txt"),
        ("T35", 3, "T35_n3.txt"),
        ("T37", 3, "T37_n3.txt"),
        ("T37", 5, "T37_n5.txt"),
        ("L46", 3, "L46_n3.txt"),
        ("L46", 5, "L46_n5.txt"),
    ],
)
def test_golden_witness_matrices(wid, n, fname):
    w = witness(wid, n)
    got = render_matrix(w.change_of_basis)
    path = GOLDEN / fname
    if os.environ.get("REGEN_GOLDEN") == "1":  # explicit opt-in regeneration
        path.write_text(got)
    assert got.encode() == path.read_bytes(), f"{fname} drifted"


def test_nonsplitness_ext_values():
    # the extension classes behind MplusTilde are genuinely nonzero
    for p in (3, 5):
        g = dihedral(p)
        assert ext1(trivial_lattice(g), build("Nminus", p)).order == p
        assert ext1(build("ZH", p), build("Nminus", p)).order == p
