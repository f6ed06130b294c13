"""Lattice constructors, sublattices, quotients."""

import itertools
import random

import pytest

from glattice.exactla import IntMatrix, inverse_unimodular, is_saturated, right_kernel_basis, row_space_hnf
from glattice.catalog import LEE_NAMES, _nonsplit_extension, build, lee_census
from glattice.groups import (
    class_by_label,
    cyclic,
    dihedral,
    elements,
    full_class,
    subgroup_classes,
    trivial_class,
)
from glattice.lattices import (
    ExtensionSpec,
    GLattice,
    LatticeError,
    LatticeMap,
    NonSaturatedSublattice,
    NonStableSublattice,
    RelationError,
    direct_sum,
    dual,
    fixed_sublattice,
    full_fixed_sublattice,
    hom_lattice,
    induce,
    perm_lattice,
    quotient_with_maps,
    regular_lattice,
    restrict,
    sign_lattice,
    trivial_lattice,
)
from steinitz_oracle import sublattice_action
from subgroup_oracle import conjugate_subgroup, subgroup_from_elements


def test_relations_validated():
    g = dihedral(3)
    bad = IntMatrix([[1, 1], [0, 1]])
    with pytest.raises(RelationError):
        GLattice(g, bad, IntMatrix.identity(2))
    rotation = IntMatrix([[0, -1], [1, -1]])  # order 3
    with pytest.raises(RelationError, match=r"tau\^2 != identity"):
        GLattice(g, rotation, IntMatrix([[1, 1], [0, 1]]))
    with pytest.raises(RelationError, match=r"tau\*sigma\*tau != sigma\^-1"):
        GLattice(g, rotation, IntMatrix.identity(2))
    GLattice(g, rotation, IntMatrix([[0, 1], [1, 0]]))


@pytest.mark.parametrize("n", range(3, 16, 2))
def test_constructors_satisfy_relations(n):
    g = dihedral(n)
    for lat in (
        trivial_lattice(g),
        sign_lattice(g),
        induce(g, 1),
        induce(g, -1),
        regular_lattice(g),
        perm_lattice(g, class_by_label(g, "D_1")),
        perm_lattice(g, class_by_label(g, f"C_{n}")),
    ):
        lat._check_relations()


def test_perm_lattice_d3_over_tau():
    g = dihedral(3)
    lat = perm_lattice(g, class_by_label(g, "D_1"))
    assert lat.rank == 3
    # sigma is a 3-cycle: v_i -> v_{i+1}
    assert lat.sigma == IntMatrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    # tau fixes v_0 and swaps v_1, v_2
    assert lat.tau == IntMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def test_perm_lattice_trivial_and_regular():
    g = dihedral(5)
    top = perm_lattice(g, full_class(g))
    assert top.rank == 1 and top.sigma == IntMatrix([[1]])
    reg = regular_lattice(g)
    assert reg.rank == 10
    assert reg.is_permutation


def test_perm_lattice_character():
    # trace of rho(g) counts the cosets fixed by g
    g = dihedral(7)
    for cls in subgroup_classes(g):
        lat = perm_lattice(g, cls)
        from glattice.lattices import cosets
        from glattice.groups import mul

        cs = cosets(g, cls)
        sets = [set(c) for c in cs]
        for a in elements(g):
            fixed = sum(1 for c in sets if {mul(g, a, x) for x in c} == c)
            rho = lat.rho(a)
            trace = sum(rho[i, i] for i in range(lat.rank))
            assert trace == fixed


def test_sign_lattice():
    g = dihedral(3)
    zm = sign_lattice(g)
    assert zm.sigma == IntMatrix([[1]]) and zm.tau == IntMatrix([[-1]])
    assert zm.tau * zm.tau == IntMatrix.identity(1)
    assert full_fixed_sublattice(zm).rows == 0
    from glattice.groups import cyclic

    with pytest.raises(LatticeError):
        sign_lattice(cyclic(3))


def test_direct_sum():
    g = dihedral(3)
    s = direct_sum(trivial_lattice(g), sign_lattice(g))
    assert s.rank == 2
    assert s.tau == IntMatrix([[1, 0], [0, -1]])
    with_zero = direct_sum(s, trivial_lattice(g, 0))
    assert with_zero.sigma == s.sigma and with_zero.tau == s.tau
    mt = direct_sum(induce(g, 1), trivial_lattice(g), trivial_lattice(g))
    assert mt.rank == 5


def test_dual():
    g = dihedral(5)
    zm = sign_lattice(g)
    assert dual(zm) == zm
    reg = regular_lattice(g)
    dd = dual(dual(reg))
    assert dd == reg
    # permutation lattices are self-dual entrywise (orthogonal matrices)
    assert dual(reg) == reg
    for h in (dihedral(3), dihedral(5), dihedral(9), cyclic(6)):
        for cls in subgroup_classes(h):
            assert dual(perm_lattice(h, cls)) == perm_lattice(h, cls), (h, cls.label)
    mp = induce(g, -1)
    assert dual(dual(mp)) == mp
    dual(mp)._check_relations()


def test_restrict():
    g = dihedral(5)
    mp = induce(g, -1)
    r = restrict(mp, class_by_label(g, "C_5"))
    assert r.group.kind == "cyclic" and r.group.n == 5
    assert r.sigma == mp.sigma
    rt = restrict(mp, class_by_label(g, "D_1"))
    assert rt.group.n == 2
    # tau-fixed part of M_- has rank (p-1)/2
    fixed = fixed_sublattice(mp, class_by_label(g, "D_1"))
    assert fixed.rows == 2
    triv = restrict(mp, trivial_class(g))
    assert triv.sigma == IntMatrix.identity(5)
    whole = restrict(mp, full_class(g))
    assert whole.sigma == mp.sigma and whole.tau == mp.tau


def test_fixed_sublattice_examples():
    g = dihedral(3)
    mp = induce(g, 1)
    fx = fixed_sublattice(mp, full_class(g))
    assert fx.rows == 1
    assert tuple(fx.data[0]) in ((1, 1, 1), (-1, -1, -1))
    assert is_saturated(fx)
    reg = regular_lattice(g)
    assert fixed_sublattice(reg, full_class(g)).rows == 1
    assert fixed_sublattice(reg, trivial_class(g)) == IntMatrix.identity(6)


@pytest.mark.parametrize("n", [2, 4, 6, 12])
def test_fixed_sublattice_on_even_dihedral_reads_every_element(n):
    """On the two generators the fixed sublattice is the saturated kernel of
    rho(a) - 1 stacked over every element a of the representative."""
    g = dihedral(n)
    hom = hom_lattice(perm_lattice(g, class_by_label(g, "D_1")), sign_lattice(g))
    for m in (regular_lattice(g), hom):
        ident = IntMatrix.identity(m.rank)
        for c in subgroup_classes(g):
            stacked = IntMatrix.from_rows(
                [row for a in c.representative for row in (m.rho(a) - ident).data], cols=m.rank
            )
            want = row_space_hnf(right_kernel_basis(stacked))
            assert row_space_hnf(fixed_sublattice(m, c)) == want, (n, c.label)


def test_factored_norm_equals_the_sum_over_the_subgroup():
    cases = [build(name, p) for p in (3, 5, 7) for name in LEE_NAMES]
    g = dihedral(9)
    cases += [direct_sum(induce(g, -1), sign_lattice(g)), regular_lattice(g)]
    cases.append(restrict(build("Nplus", 5), class_by_label(dihedral(5), "C_5")))
    for lat in cases:
        subgroups = {
            tuple(conjugate_subgroup(lat.group, s, x))
            for s in subgroup_classes(lat.group)
            for x in elements(lat.group)
        }
        for members in sorted(subgroups):
            s = subgroup_from_elements(lat.group, members)
            total = IntMatrix.zero(lat.rank, lat.rank)
            for a in members:
                total = total + lat.rho(a)
            assert lat.norm_matrix(s) == total, (lat, s.label)
        total = IntMatrix.zero(lat.rank, lat.rank)
        for a in elements(lat.group):
            total = total + lat.rho(a)
        assert lat.full_norm_matrix() == total


def test_quotient_by_zero_sublattice():
    g = dihedral(5)
    mp = induce(g, 1)
    q = quotient_with_maps(mp, IntMatrix([], cols=5)).lattice
    assert q.sigma == mp.sigma and q.tau == mp.tau


def test_quotient_rejects_bad_sublattices():
    g = dihedral(3)
    mp = induce(g, 1)
    with pytest.raises(NonSaturatedSublattice):
        quotient_with_maps(mp, IntMatrix([[2, 2, 2]]))
    with pytest.raises(NonStableSublattice):
        quotient_with_maps(mp, IntMatrix([[1, 0, 0]]))


def test_quotient_mplus_gives_nplus_matrices():
    # quotient of M_+ by the norm image reproduces the displayed matrices
    for n in (3, 5, 7):
        g = dihedral(n)
        mp = induce(g, 1)
        ones = IntMatrix([[1] * n])
        q = quotient_with_maps(mp, ones).lattice
        aprime = [[0] * (n - 1) for _ in range(n - 1)]
        for i in range(n - 2):
            aprime[i + 1][i] = 1
        for i in range(n - 1):
            aprime[i][n - 2] = -1
        bprime = [[1 if i + j == n - 2 else 0 for j in range(n - 1)] for i in range(n - 1)]
        assert q.sigma == IntMatrix(aprime)
        assert q.tau == IntMatrix(bprime)
        mm = induce(g, -1)
        qm = quotient_with_maps(mm, ones).lattice
        assert qm.sigma == IntMatrix(aprime)
        assert qm.tau == -IntMatrix(bprime)


def test_quotient_maps_are_exact():
    g = dihedral(5)
    mp = induce(g, 1)
    cases = [
        (mp, IntMatrix([[1] * 5])),
        (mp, IntMatrix([], cols=5)),
        # saturated, but its echelon pivot is 2: unit vectors do not complete it
        (trivial_lattice(g, 2), IntMatrix([[2, 3]])),
    ]
    for lat, sub in cases:
        res = quotient_with_maps(lat, sub)
        ext = ExtensionSpec(
            sub=res.sub_lattice,
            total=lat,
            quotient=res.lattice,
            inclusion=LatticeMap(res.sub_lattice, lat, res.inclusion),
            projection=LatticeMap(lat, res.lattice, res.projection),
        )
        ext.check()
        assert row_space_hnf(res.inclusion.transpose()) == row_space_hnf(sub), sub
    # the zero sublattice leaves the action as it is
    assert quotient_with_maps(mp, IntMatrix([], cols=5)).lattice == mp


@pytest.mark.parametrize(
    "quotient_rank, inc, proj, message",
    [
        (1, [[1], [0]], [[0, 1]], None),
        (1, [[2], [0]], [[0, 1]], "inclusion image is not saturated"),
        (2, [[1], [0]], [[0, 1], [0, 0]], "ranks do not add up"),
        (1, [[1], [0]], [[0, 0]], "projection is not surjective"),
        (1, [[1], [0]], [[0, 2]], "projection is not surjective onto Z^quotient"),
        (1, [[1], [0]], [[1, 0]], "image of inclusion differs from kernel of projection"),
    ],
)
def test_extension_check_rejects_each_broken_sequence(quotient_rank, inc, proj, message):
    """0 -> Z -> Z^2 -> Z^q -> 0 over D_3 with the trivial action, so every
    map intertwines and each case breaks exactly one condition of the check."""
    g = dihedral(3)
    sub, total, quo = trivial_lattice(g, 1), trivial_lattice(g, 2), trivial_lattice(g, quotient_rank)
    ext = ExtensionSpec(
        sub=sub,
        total=total,
        quotient=quo,
        inclusion=LatticeMap(sub, total, IntMatrix(inc)),
        projection=LatticeMap(total, quo, IntMatrix(proj)),
    )
    if message is None:
        ext.check()
        return
    with pytest.raises(LatticeError) as info:
        ext.check()
    assert str(info.value) == message


def test_hom_lattice_conjugation():
    g = dihedral(3)
    a = induce(g, 1)
    b = sign_lattice(g)
    h = hom_lattice(a, b)
    assert h.rank == 3
    h._check_relations()
    # Hom(Z, X) is X itself
    z = trivial_lattice(g)
    x = induce(g, -1)
    hz = hom_lattice(z, x)
    assert hz.sigma == x.sigma and hz.tau == x.tau
    # on census pairs, rho_H(g) vec(X) = vec(rho_B(g) X rho_A(g)^-1), vec row-major
    rng = random.Random(53)
    for p in (3, 5):
        census = lee_census(p)
        for (_, a), (_, b) in itertools.product(census, repeat=2):
            h = hom_lattice(a, b)
            x = IntMatrix([[rng.randint(-4, 4) for _ in range(a.rank)] for _ in range(b.rank)])
            vec = [v for row in x.data for v in row]
            for rho_h, rho_a, rho_b in zip(h.gens, a.gens, b.gens):
                image = rho_b * x * inverse_unimodular(rho_a)
                assert rho_h.matvec(vec) == tuple(v for row in image.data for v in row)


def test_induce_shapes():
    g = dihedral(5)
    mp = induce(g, 1)
    assert mp.is_permutation
    # M_+ is Z[G/<tau>] entrywise in this basis
    assert mp.sigma == perm_lattice(g, class_by_label(g, "D_1")).sigma
    assert mp.tau == perm_lattice(g, class_by_label(g, "D_1")).tau
    mm = induce(g, -1)
    assert not mm.is_permutation
    assert mm.tau == -mp.tau


@pytest.mark.parametrize("g", [cyclic(3), cyclic(5), dihedral(3), dihedral(5)], ids=str)
def test_gens_on_every_constructor(g):
    """`gens` is (sigma,) over C_n and (sigma, tau) over D_n, whatever built it."""
    p = g.n
    # P restricted to the whole of g: over C_p that drops its tau
    m = restrict(build("P", p), class_by_label(dihedral(p), str(g)))
    z = trivial_lattice(g, 2)
    regular = regular_lattice(g)
    fixed = full_fixed_sublattice(regular)
    q = quotient_with_maps(regular, fixed)
    built = [
        m,
        z,
        trivial_lattice(g, 0),
        direct_sum(m, z),
        dual(m),
        hom_lattice(m, z),
        q.lattice,
        q.sub_lattice,
        sublattice_action(regular, IntMatrix.identity(regular.rank) * 2),
        _nonsplit_extension([m], trivial_lattice(g)),
    ] + [perm_lattice(g, s) for s in subgroup_classes(g)]
    for lat in built:
        assert lat.group == g, lat
        if g.is_dihedral:
            assert lat.gens == (lat.sigma, lat.tau) and lat.tau is not None, lat
        else:
            assert lat.gens == (lat.sigma,) and lat.tau is None, lat
