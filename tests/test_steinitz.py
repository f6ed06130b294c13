"""Cyclotomic ideal arithmetic and Steinitz classes of C_p lattices."""

import itertools
import random
import signal
from math import isqrt

import pytest
from sympy import Matrix

from glattice.exactla import IntMatrix, det, right_kernel_basis
from glattice.groups import class_by_label, cyclic, dihedral, trivial_class
from glattice.lattices import (
    ExtensionSpec,
    LatticeMap,
    direct_sum,
    full_fixed_sublattice,
    perm_lattice,
    quotient_with_maps,
    restrict,
    trivial_lattice,
)
from glattice.catalog import LEE_NAMES, _nonsplit_extension, build
from glattice.cyclotomic import (
    elem_mul,
    field_norm,
    ideal_cyclic_lattice,
    ideal_from_rows,
    ideal_mul,
    mult_matrix,
    principal_ideal,
    unit_ideal,
)
from glattice.steinitz import (
    default_class_table,
    ideal_module,
    principality,
    short_vectors,
    steinitz_class,
)
from steinitz_oracle import (
    TorsionModule,
    class_multiplicativity_check,
    factor_cyclotomic_mod,
    ideal_inverse,
    minkowski_h_is_one,
    order_ideal,
    order_ideal_class,
    prime_ideal_above,
    same_class,
    sublattice_action,
)


def regular_cp(p):
    return perm_lattice(cyclic(p), trivial_class(cyclic(p)))


def r_as_cp(p):
    return restrict(build("Nplus", p), class_by_label(dihedral(p), f"C_{p}"))


def w_lattice(p):
    """Non-split extension 0 -> R -> W -> Z -> 0 over C_p."""
    return _nonsplit_extension([r_as_cp(p)], trivial_lattice(cyclic(p)))


def test_n0_n1_examples():
    p = 5
    # N_0 is the sigma-fixed part and N_1 = ker Phi_p(sigma) the norm kernel
    for lat, ranks in (
        (regular_cp(p), (1, p - 1)),
        (trivial_lattice(cyclic(p)), (1, 0)),
        (r_as_cp(p), (0, p - 1)),
    ):
        n0, n1 = full_fixed_sublattice(lat), right_kernel_basis(lat.full_norm_matrix())
        assert (n0.rows, n1.rows) == ranks


def test_ideal_module_examples():
    # (t, basis of F): F is all of N/N_0 for free modules, so [N/N_0 : F] = 1
    p = 5
    t, basis = ideal_module(regular_cp(p))
    assert t == 1 and basis.rows == p - 1 and abs(det(basis)) == 1
    t, basis = ideal_module(trivial_lattice(cyclic(p)))
    assert t == 0 and basis.rows == 0
    t, basis = ideal_module(direct_sum(r_as_cp(p), r_as_cp(p)))
    assert t == 2 and basis.rows == 2 * (p - 1) and abs(det(basis)) == 1
    # an ideal P: F = R f for its first basis element f, in orbit order, so
    # [P : F] = N(f) / N(P)
    prime = prime_ideal_above(p, 11, factor_cyclotomic_mod(p, 11)[0])
    lat = ideal_cyclic_lattice(prime)
    t, basis = ideal_module(lat)
    assert t == 1 and basis.data[0] == (1, 0, 0, 0)
    assert all(basis.data[k + 1] == lat.sigma.matvec(basis.data[k]) for k in range(p - 2))
    assert abs(det(basis)) * 11 == abs(field_norm(p, prime.basis.data[0]))


def test_order_ideal_examples():
    # trivial module
    t = TorsionModule(p=5, dim=0, relations=IntMatrix([], cols=0), zmat=IntMatrix([], cols=0))
    assert order_ideal(t, 5) == unit_ideal(5)
    # Z[zeta_3]/(1 - zeta): the prime above 3, norm 3
    t = TorsionModule(
        p=3, dim=2, relations=mult_matrix(3, [1, -1]), zmat=mult_matrix(3, [0, 1]).transpose()
    )
    oi = order_ideal(t, 3)
    assert oi.norm() == 3
    assert oi == prime_ideal_above(3, 3, factor_cyclotomic_mod(3, 3)[0])
    # Z[zeta_5]/(2): inert prime, norm 16
    t = TorsionModule(
        p=5, dim=4, relations=mult_matrix(5, [2, 0, 0, 0]), zmat=mult_matrix(5, [0, 1, 0, 0]).transpose()
    )
    assert order_ideal(t, 5).norm() == 16


def _within(seconds, fn, *args):
    """fn(*args), or TimeoutError once `seconds` have passed."""

    def too_slow(signum, frame):
        raise TimeoutError(f"{fn.__name__} took more than {seconds} s")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(seconds)
    try:
        return fn(*args)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_steinitz_class_of_a_prime_of_large_norm_at_p3():
    """The C_3 ideal lattice of a prime above q = 1,000,000,009: its class
    representative has norm 782,550,079 and a generator the search finds."""
    q = 1_000_000_009
    lat = ideal_cyclic_lattice(prime_ideal_above(3, q, factor_cyclotomic_mod(3, q)[0]))
    rep = _within(10, steinitz_class, lat)
    assert rep.known_trivial
    assert rep.ideal.norm() == 782_550_079
    assert rep.generator == (31718, 10565)


def test_steinitz_class_of_a_prime_above_47_at_p23_is_bounded():
    """[N/N_0 : F] = 23 * 461 * 1381 * 1933 * 245494445849562491 here; the
    order-ideal route trial-divided it for more than a minute.  The Hermite form
    never factors it, and principality declines degree 22 at once."""
    lat = ideal_cyclic_lattice(prime_ideal_above(23, 47, factor_cyclotomic_mod(23, 47)[0]))
    rep = _within(5, steinitz_class, lat)
    assert not rep.known_trivial and rep.generator is None


def _equivalence_family():
    """C_p lattices whose classes the order-ideal route also reaches in seconds:
    census restrictions (t = 0, 1, 2), prime-ideal lattices above split,
    inert and ramified ell, a sum with t = 3, a C_2 lattice and one p = 11 input."""
    for p in (3, 5, 7):
        csig = class_by_label(dihedral(p), f"C_{p}")
        for name in LEE_NAMES:
            yield f"{name}@{p}", restrict(build(name, p), csig)
    primes = {}
    for p, ell in ((3, 7), (5, 11), (3, 2), (5, 2), (7, 2), (7, 3), (3, 3), (5, 5)):
        for i, factor in enumerate(factor_cyclotomic_mod(p, ell)):
            primes[p, ell, i] = ideal_cyclic_lattice(prime_ideal_above(p, ell, factor))
            yield f"P{ell}_{i}@{p}", primes[p, ell, i]
    yield "P11_0+P11_1+R@5", direct_sum(primes[5, 11, 0], primes[5, 11, 1], r_as_cp(5))
    yield "Z[C_2]+Z", direct_sum(regular_cp(2), trivial_lattice(cyclic(2)))
    yield "P3_1@11", ideal_cyclic_lattice(prime_ideal_above(11, 3, factor_cyclotomic_mod(11, 3)[1]))


def test_steinitz_class_matches_the_order_ideal_route():
    """The Hermite-form representative and ideal_inverse(order_ideal(N/F))
    are both the primitive integral multiple of det_F(N): the same HNF."""
    ts = set()
    for label, lat in _equivalence_family():
        t, _ = ideal_module(lat)
        ts.add(t)
        assert steinitz_class(lat).ideal.basis == order_ideal_class(lat).basis, label
    assert {0, 1, 2, 3} <= ts


def test_field_norm_is_the_determinant_of_multiplication():
    """Res(Phi_p, alpha) against the Bareiss determinant of mult_matrix(p,
    alpha) for p <= 23: zero, units, reduced coordinates and longer
    polynomials in zeta."""
    rng = random.Random(67)
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        alphas = [[0] * (p - 1), [1], [0, 1], [1, -1]]
        for _ in range(12):
            size = rng.choice((p - 1, p - 1, rng.randint(1, p + 3)))
            alphas.append([rng.randint(-4, 4) if rng.random() < 0.6 else 0 for _ in range(size)])
        for alpha in alphas:
            assert field_norm(p, alpha) == det(mult_matrix(p, alpha)), (p, alpha)


def test_principality_examples():
    assert principality(unit_ideal(5)).generator is not None
    two = principal_ideal(5, [2, 0, 0, 0])
    found = principality(two)
    assert found
    assert abs(field_norm(5, found.generator)) == 16
    # 7 = 1 mod 3 splits in Z[zeta_3]; a generator of norm 7 exists
    pr = prime_ideal_above(3, 7, factor_cyclotomic_mod(3, 7)[0])
    found = principality(pr)
    assert found and abs(field_norm(3, found.generator)) == 7


def test_principality_refuses_a_bound_below_one():
    pr = prime_ideal_above(3, 7, factor_cyclotomic_mod(3, 7)[0])
    for bound in (0, -1):
        with pytest.raises(ValueError, match="search_bound"):
            principality(pr, search_bound=bound)


def test_principality_declines_big_fields():
    b = prime_ideal_above(23, 2, factor_cyclotomic_mod(23, 2)[0])
    assert principality(b).inconclusive


def _short_vectors_by_brute_force(gram, bound):
    """Every nonzero x with x^T G x <= bound, signed so its first nonzero
    entry is positive, from a box: x_i^2 <= bound * (G^-1)_ii (sympy)."""
    inverse = Matrix(gram.tolists()).inv()
    radii = [isqrt(int(bound * inverse[i, i])) + 1 for i in range(gram.rows)]
    found = set()
    for x in itertools.product(*(range(-r, r + 1) for r in radii)):
        if any(x) and sum(a * b for a, b in zip(gram.vecmat(x), x)) <= bound:
            found.add(_positive(x))
    return found


def _positive(x):
    return tuple(x) if next(c for c in x if c) > 0 else tuple(-c for c in x)


def test_short_vectors_against_brute_force():
    # the centre of the last coordinate is negative here, and its ceiling
    # lies outside the radius: +-(1, -5, -4), of form value exactly 5
    cases = [(IntMatrix([[19, 2, 1], [2, 6, -7], [1, -7, 9]]), 5)]
    rng = random.Random(7)
    while len(cases) < 200:
        d = rng.choice((2, 3))
        a = IntMatrix([[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        if det(a):
            cases.append((a.transpose() * a, rng.randint(1, 12)))
    for gram, bound in cases:
        found = [_positive(x) for x in short_vectors(gram, bound)]
        assert len(found) == len(set(found)), gram
        assert set(found) == _short_vectors_by_brute_force(gram, bound), (gram, bound)


def test_steinitz_class_examples():
    p = 5
    rep = steinitz_class(trivial_lattice(cyclic(p)))
    assert rep.known_trivial
    rep = steinitz_class(regular_cp(p))
    assert rep.known_trivial and rep.generator is not None
    w = w_lattice(5)
    assert w.rank == 5
    rep = steinitz_class(w)
    assert rep.known_trivial


def test_nonsplit_w_really_nonsplit():
    # W/Z-part exact sequence has nonzero class: H^1 detects it
    from glattice.cohomology import ext1

    p = 3
    assert ext1(trivial_lattice(cyclic(p)), r_as_cp(p)).order == p


@pytest.mark.parametrize("p", [3, 5, 7])
def test_restricted_catalog_classes_trivial(p):
    csig = class_by_label(dihedral(p), f"C_{p}")
    for name in LEE_NAMES:
        lat = restrict(build(name, p), csig)
        rep = steinitz_class(lat)
        assert rep.known_trivial, (name, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cl_equals_cl_n1(p):
    csig = class_by_label(dihedral(p), f"C_{p}")
    for name in LEE_NAMES:
        lat = restrict(build(name, p), csig)
        n1 = right_kernel_basis(lat.full_norm_matrix())
        if n1.rows == 0:
            continue
        sub = sublattice_action(lat, n1)
        assert same_class(steinitz_class(lat).ideal, steinitz_class(sub).ideal) is True


def test_multiplicativity_aug_sequence():
    # 0 -> R -> Z[S] -> Z -> 0 via the augmentation kernel
    for p in (3, 5):
        zs = regular_cp(p)
        aug_kernel = right_kernel_basis(IntMatrix([[1] * p]))
        q = quotient_with_maps(zs, aug_kernel)
        ext = ExtensionSpec(
            sub=q.sub_lattice,
            total=zs,
            quotient=q.lattice,
            inclusion=LatticeMap(q.sub_lattice, zs, q.inclusion),
            projection=LatticeMap(zs, q.lattice, q.projection),
        )
        ext.check()
        assert class_multiplicativity_check(ext) is True


def test_multiplicativity_split_sums():
    p = 5
    a = r_as_cp(p)
    b = regular_cp(p)
    ab = direct_sum(a, b)
    inc = IntMatrix.identity(a.rank).vstack(IntMatrix.zero(b.rank, a.rank))
    proj = IntMatrix.zero(b.rank, a.rank).hstack(IntMatrix.identity(b.rank))
    ext = ExtensionSpec(
        sub=a,
        total=ab,
        quotient=b,
        inclusion=LatticeMap(a, ab, inc),
        projection=LatticeMap(ab, b, proj),
    )
    ext.check()
    assert class_multiplicativity_check(ext) is True


@pytest.mark.parametrize("p", [3, 5])
def test_multiplicativity_n1_sequence(p):
    csig = class_by_label(dihedral(p), f"C_{p}")
    for name in ("ZH", "Y0", "Y2"):
        lat = restrict(build(name, p), csig)
        n1 = right_kernel_basis(lat.full_norm_matrix())
        if not (0 < n1.rows < lat.rank):
            continue
        q = quotient_with_maps(lat, n1)
        ext = ExtensionSpec(
            sub=q.sub_lattice,
            total=lat,
            quotient=q.lattice,
            inclusion=LatticeMap(q.sub_lattice, lat, q.inclusion),
            projection=LatticeMap(lat, q.lattice, q.projection),
        )
        ext.check()
        assert class_multiplicativity_check(ext) is True


def test_ideal_validation_errors():
    import pytest as _pytest

    from glattice.catalog import twisted_lattice
    from glattice.cyclotomic import ideal_from_rows

    with _pytest.raises(ValueError):
        ideal_from_rows(5, IntMatrix.zero(4, 4))  # zero ideal
    with _pytest.raises(ValueError):
        # not closed under multiplication by the ring generator
        bad = IntMatrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
        ideal_from_rows(5, bad)
    with _pytest.raises(Exception):
        twisted_lattice("R", unit_ideal(5))  # full-ring ideal rejected
    with _pytest.raises(NotImplementedError):
        ideal_mul(unit_ideal(5, real_subfield=True), unit_ideal(5, real_subfield=True))


def test_ideal_inverse_times_ideal_is_rational_principal():
    """P * P^-1 is (k) for a rational integer k: ideal_inverse returns C / g
    with C = N * P^-1, N = norm(P) and g = gcd(N, entries of C)."""
    for p in (5, 7, 11):
        for ell in (2, 3, 5, 7, 11, 13):
            for factor in factor_cyclotomic_mod(p, ell):
                prime = prime_ideal_above(p, ell, factor)
                prod = ideal_mul(prime, ideal_inverse(prime))
                k = prod.basis[0, 0]
                assert prod == principal_ideal(p, [k] + [0] * (p - 2)), (p, ell, factor)


def test_norm_multiplicative_random_products():
    rng = random.Random(3)
    for p in (3, 5, 7):
        for _ in range(4):
            a = principal_ideal(p, [rng.randint(-2, 2) for _ in range(p - 1)] or [1])
            b = principal_ideal(p, [rng.randint(-2, 2) for _ in range(p - 1)] or [1])
            ab = ideal_mul(a, b)
            assert ab.norm() == a.norm() * b.norm()


def test_hnf_of_products_of_principals():
    p = 5
    alpha = (1, 1, 0, 0)
    beta = (0, 1, 2, 0)
    lhs = ideal_mul(principal_ideal(p, alpha), principal_ideal(p, beta))
    rhs = principal_ideal(p, list(elem_mul(p, alpha, beta)))
    assert lhs == rhs


def test_minkowski_cross_check():
    assert minkowski_h_is_one(3)
    assert minkowski_h_is_one(5)
    assert minkowski_h_is_one(7)


def test_class_table_defaults():
    t = default_class_table()
    assert t.h_plus(67) == 1
    assert t.h(19) == 1
    assert t.h(23) == 3
    assert t.h(29) is None
    assert not t.knows(71)


def test_diederichsen_reiner_shape_p3():
    # restricted catalog lattices decompose over {Z, R, W} with principal B
    from glattice.rationality import Budget, iso

    p = 3
    budget = Budget(box_radius=2, draws=4000)
    z = trivial_lattice(cyclic(p))
    r = r_as_cp(p)
    w = w_lattice(p)
    csig = class_by_label(dihedral(p), f"C_{p}")
    for name in LEE_NAMES:
        lat = restrict(build(name, p), csig)
        rank = lat.rank
        found = False
        for c in range(rank // p + 1):
            for b in range((rank - c * p) // (p - 1) + 1):
                a = rank - c * p - b * (p - 1)
                if a < 0:
                    continue
                parts = [z] * a + [r] * b + [w] * c
                cand = direct_sum(*parts) if parts else None
                if cand is None:
                    continue
                if iso(lat, cand, budget):
                    found = True
                    break
            if found:
                break
        assert found, name
