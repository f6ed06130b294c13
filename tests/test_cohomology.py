"""Tate cohomology values against hand computations and known identities."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from glattice.exactla import (
    AbelianInvariants,
    IntMatrix,
    inverse_unimodular,
    right_kernel_basis,
    row_space_hnf,
    solve_left,
)
from glattice.groups import (
    class_by_label,
    cyclic,
    dihedral,
    elements,
    full_class,
    mul,
    subgroup_classes,
)
from glattice.catalog import LEE_NAMES, _noncoboundary_cocycle, _nonsplit_extension, build
from glattice.rationality import fingerprint
from glattice.cohomology import (
    cohomology_table,
    ext1,
    h1,
    is_coflabby,
    is_flabby,
    one_cocycles,
    tate_h0,
    tate_hminus1,
)
from glattice import catalog, cohomology
from glattice.lattices import (
    GLattice,
    LatticeError,
    direct_sum,
    dual,
    fixed_sublattice,
    hom_lattice,
    induce,
    perm_lattice,
    quotient_with_maps,
    regular_lattice,
    restrict,
    sign_lattice,
    trivial_lattice,
)
from cocycle_oracle import (
    _invariants_of_submodule,
    oracle_fox_system,
    oracle_h0,
    oracle_h1,
    oracle_hminus1,
    oracle_nonsplit_extension,
)
from pairwise_h1 import pairwise_cocycles, pairwise_h1
from subgroup_oracle import conjugate_subgroup, subgroup_from_elements

Z2 = AbelianInvariants((2,), 0)
ZERO = AbelianInvariants((), 0)


def n_plus(n):
    g = dihedral(n)
    return quotient_with_maps(induce(g, 1), IntMatrix([[1] * n])).lattice


def n_minus(n):
    g = dihedral(n)
    return quotient_with_maps(induce(g, -1), IntMatrix([[1] * n])).lattice


def test_hminus1_sigma_on_r():
    # norm annihilates R, augmentation image has index p
    for p in (3, 5, 7):
        r = n_plus(p)
        inv = tate_hminus1(r, class_by_label(dihedral(p), f"C_{p}"))
        assert inv == AbelianInvariants((p,), 0)


def test_hminus1_perm_lattices_vanish():
    for p in (3, 5):
        g = dihedral(p)
        for s in subgroup_classes(g):
            for sprime in subgroup_classes(g):
                lat = perm_lattice(g, sprime)
                assert tate_hminus1(lat, s).is_trivial


def test_hminus1_tau_on_sign():
    g = dihedral(3)
    inv = tate_hminus1(sign_lattice(g), class_by_label(g, "D_1"))
    assert inv == Z2


def test_h0_examples():
    for n in (3, 5, 7):
        g = dihedral(n)
        z = trivial_lattice(g)
        assert tate_h0(z, class_by_label(g, f"C_{n}")) == AbelianInvariants((n,), 0)
    g = dihedral(3)
    assert tate_h0(regular_lattice(g), full_class(g)).is_trivial
    assert tate_h0(sign_lattice(g), full_class(g)).is_trivial


def test_h1_sign_lattice():
    for p in (3, 5):
        g = dihedral(p)
        assert h1(sign_lattice(g), full_class(g)) == Z2
        assert h1(sign_lattice(g), class_by_label(g, "D_1")) == Z2
        assert h1(sign_lattice(g), class_by_label(g, f"C_{p}")).is_trivial


def test_h1_free_module_vanishes():
    g = dihedral(3)
    reg = regular_lattice(g)
    for s in subgroup_classes(g):
        assert h1(reg, s).is_trivial


def test_h1_tau_on_m_minus():
    g = dihedral(3)
    assert h1(induce(g, -1), class_by_label(g, "D_1")) == Z2


def _seeded_hom_pairs(count):
    """Seeded (top, bottom) census pairs at p = 3 and 5 with Hom rank <= 36."""
    rng = random.Random(17)
    pairs = []
    while len(pairs) < count:
        p = rng.choice((3, 5))
        top, bottom = (build(name, p) for name in rng.sample(LEE_NAMES, 2))
        if top.rank * bottom.rank <= 36:
            pairs.append((top, bottom))
    return pairs


def test_h1_cyclic_equals_generic():
    """h1 on the subgroup presentation agrees with the pairwise oracle."""
    cases = []  # (lattice, subgroup class) pairs, full classes included
    for p in (3, 5, 7):
        for name in LEE_NAMES:
            lat = build(name, p)
            cases += [(lat, s) for s in subgroup_classes(lat.group)]
    rng = random.Random(5)
    for p in (3, 5):
        g = dihedral(p)
        pieces = [
            trivial_lattice(g),
            sign_lattice(g),
            induce(g, -1),
            n_plus(p),
            perm_lattice(g, class_by_label(g, "D_1")),
        ]
        for _ in range(4):
            lat = direct_sum(*rng.sample(pieces, 2))
            cases += [(lat, s) for s in subgroup_classes(g)]
    for top, bottom in _seeded_hom_pairs(10):
        hom = hom_lattice(top, bottom)
        cases += [(hom, s) for s in subgroup_classes(hom.group)]
    g = dihedral(9)
    cases += _every_subgroup(direct_sum(induce(g, -1), sign_lattice(g)))
    cases += _even_dihedral_cases()
    # honestly cyclic groups
    for p in (3, 5, 7):
        g = dihedral(p)
        lat = restrict(direct_sum(n_plus(p), trivial_lattice(g)), class_by_label(g, f"C_{p}"))
        cases += [(lat, s) for s in subgroup_classes(cyclic(p))]
    assert len(cases) == 240  # 120 census, 32 sums, 40 Hom, 16 of D_9, 26 of D_4 and D_6, 6 cyclic
    for lat, s in cases:
        assert h1(lat, s) == pairwise_h1(lat, s), (lat, s.label)


def _hminus1_all_elements(m, s):
    """ker(N_S) / I_S.M with N_S and I_S.M summed over every element of S."""
    ident = IntMatrix.identity(m.rank)
    norm = IntMatrix.zero(m.rank, m.rank)
    gens = [(0,) * m.rank]
    for a in s.representative:
        norm = norm + m.rho(a)
        gens += (m.rho(a) - ident).transpose().data
    return _invariants_of_submodule(right_kernel_basis(norm), gens)


def _every_subgroup(lat):
    """(lat, S) for every subgroup S of lat's group, each conjugate wrapped
    on its own with the generators read off its elements."""
    g = lat.group
    subgroups = {
        tuple(conjugate_subgroup(g, s, x)) for s in subgroup_classes(g) for x in elements(g)
    }
    return [(lat, subgroup_from_elements(g, members)) for members in sorted(subgroups)]


def _even_dihedral_cases():
    """Every subgroup of D_4 (10) and of D_6 (16) on Z[G] + sign + Z[G/D_1]:
    the groups where a subgroup class splits in two, D_d and D_d'."""
    cases = []
    for n in (4, 6):
        g = dihedral(n)
        lat = direct_sum(regular_lattice(g), sign_lattice(g), perm_lattice(g, class_by_label(g, "D_1")))
        cases += _every_subgroup(lat)
    return cases


def _tate_cases():
    """Census classes at p = 3, 5, 7, every subgroup of D_9, D_4 and D_6 on
    one sum each, and seeded Hom lattices."""
    cases = []
    for p in (3, 5, 7):
        for name in LEE_NAMES:
            lat = build(name, p)
            cases += [(lat, s) for s in subgroup_classes(lat.group)]
    g = dihedral(9)
    cases += _every_subgroup(direct_sum(induce(g, -1), sign_lattice(g), n_plus(9)))
    cases += _even_dihedral_cases()
    for top, bottom in _seeded_hom_pairs(10):
        hom = hom_lattice(top, bottom)
        cases += [(hom, s) for s in subgroup_classes(hom.group)]
    assert len(cases) == 202  # 120 census, 16 subgroups of D_9, 26 of D_4 and D_6, 40 Hom
    return cases


def test_hminus1_on_generators_equals_all_elements():
    cases = _tate_cases()
    nontrivial = 0
    for lat, s in cases:
        got = tate_hminus1(lat, s)
        assert got == _hminus1_all_elements(lat, s), (lat, s.label)
        nontrivial += not got.is_trivial
    assert nontrivial >= 30


def test_h0_and_fixed_ranks_equal_the_kernel_quotient():
    """H^0 from N_S's Smith diagonal and the fingerprint's fixed rank
    trace(N_S) / |S| against M^S / N_S.M on `fixed_sublattice`."""
    cases = _tate_cases()
    for p in (3, 5, 7):
        csig = class_by_label(dihedral(p), f"C_{p}")
        for name in LEE_NAMES:
            lat = restrict(build(name, p), csig)
            cases += [(lat, s) for s in subgroup_classes(lat.group)]
    assert len(cases) == 262  # 202 and 60 over C_p
    nontrivial = 0
    for lat, s in cases:
        got = tate_h0(lat, s)
        assert got == oracle_h0(lat, s), (lat, s.label)
        nontrivial += not got.is_trivial
    assert nontrivial >= 30
    for lat in {lat for lat, _ in cases}:
        fixed = [(s.label, fixed_sublattice(lat, s).rows) for s in subgroup_classes(lat.group)]
        assert [entry[:2] for entry in fingerprint(lat).entries] == fixed, lat


@st.composite
def _conjugated(draw):
    """A census lattice at p = 3 or 5, or a sum of two at p = 3, as
    P.rho.P^-1 for P a drawn product of elementary row moves."""
    p = draw(st.sampled_from((3, 5)))
    names = draw(st.lists(st.sampled_from(LEE_NAMES), min_size=1, max_size=1 if p == 5 else 2))
    lat = direct_sum(*(build(name, p) for name in names))
    n = lat.rank
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(-3, 3))
    for i, j, c in draw(st.lists(moves, max_size=3 * n)):
        if i != j:
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    u = IntMatrix(rows, cols=n)
    u_inv = inverse_unimodular(u)
    if draw(st.booleans()):
        lat = restrict(lat, class_by_label(lat.group, f"C_{p}"))
    tau = None if lat.tau is None else u * lat.tau * u_inv
    return lat, GLattice(lat.group, u * lat.sigma * u_inv, tau)


@settings(max_examples=60, deadline=None)
@given(_conjugated())
def test_tate_groups_of_conjugated_lattices_equal_the_oracle(pair):
    """Each group from one Smith diagonal against the kernel-quotient oracle,
    which raises unless B lies in L, on a lattice in a drawn basis."""
    lat, conj = pair
    for s in subgroup_classes(lat.group):
        for fn, oracle in ((tate_hminus1, oracle_hminus1), (tate_h0, oracle_h0), (h1, oracle_h1)):
            got = fn(conj, s)
            assert got == oracle(conj, s) == fn(lat, s), (fn.__name__, s.label)


def test_one_cocycles_satisfy_the_cocycle_rule():
    for p in (3, 5):
        for top, bottom in (("Z", "P"), ("ZH", "P"), ("Zminus", "R"), ("R", "Zminus"), ("V", "Z")):
            hom = hom_lattice(build(top, p), build(bottom, p))
            r = hom.rank
            for s in subgroup_classes(hom.group):
                space = one_cocycles(hom, s)
                oracle = pairwise_cocycles(hom, s)
                assert space.elements == oracle.elements
                assert space.coboundaries == oracle.coboundaries
                assert row_space_hnf(space.cocycles) == row_space_hnf(oracle.cocycles)
                index = {a: i for i, a in enumerate(space.elements)}
                for row in space.cocycles.data:
                    f = {a: row[index[a] * r : index[a] * r + r] for a in space.elements}
                    for a in space.elements:
                        for b in space.elements:
                            moved = hom.rho(a).matvec(f[b])
                            expected = tuple(x + y for x, y in zip(f[a], moved))
                            assert f[mul(hom.group, a, b)] == expected, (top, bottom, s.label)


def _in_span(rows, v):
    return solve_left(IntMatrix.from_rows(rows, cols=len(v)), v) is not None


def test_noncoboundary_cocycle_on_split_and_nonsplit_pairs():
    g = dihedral(3)
    with pytest.raises(LatticeError, match="every cocycle is a coboundary"):
        _noncoboundary_cocycle(build("ZH", 3), trivial_lattice(g))
    row = _noncoboundary_cocycle(build("P", 3), trivial_lattice(g))
    hom = hom_lattice(trivial_lattice(g), build("P", 3))
    cocycles, boundaries = oracle_fox_system(hom, full_class(g))
    assert _in_span(cocycles.data, row)
    assert not _in_span(boundaries, row)


def _generator_values(space, rows):
    """Rows of f: S -> M coordinates restricted to the values on the generators."""
    cols = [
        space.elements.index(a) * space.rank + k
        for a in space.generators
        for k in range(space.rank)
    ]
    return IntMatrix.from_rows([[v[c] for c in cols] for v in rows], cols=len(cols))


def test_one_cocycles_span_the_fox_kernel():
    """On the generators of S, Z^1 read as the saturation of B^1 spans the
    kernel of the per-basis-vector Fox system, and B^1's generators are the
    oracle's, row for row."""
    cases = []
    for p in (3, 5, 7):
        for name in LEE_NAMES:
            lat = build(name, p)
            cases += [(lat, s) for s in subgroup_classes(lat.group)]
            csig = restrict(lat, class_by_label(lat.group, f"C_{p}"))
            cases += [(csig, s) for s in subgroup_classes(csig.group)]
    for top, bottom in _seeded_hom_pairs(10):
        hom = hom_lattice(top, bottom)
        cases += [(hom, s) for s in subgroup_classes(hom.group)]
    g = dihedral(9)
    cases += _every_subgroup(direct_sum(induce(g, -1), sign_lattice(g), n_plus(9)))
    assert len(cases) == 236  # 120 census, 60 over C_p, 40 Hom, 16 subgroups of D_9
    for lat, s in cases:
        space = one_cocycles(lat, s)
        want, boundaries = oracle_fox_system(lat, s)
        got = _generator_values(space, space.cocycles.data)
        assert got.rows == want.rows, (lat, s.label)
        assert row_space_hnf(got) == row_space_hnf(want), (lat, s.label)
        assert _generator_values(space, space.coboundaries).data == tuple(map(tuple, boundaries))


def _extension_cases():
    """Every ordered census pair at p = 3, a seeded draw at p = 5, and
    R -> W -> Z over C_p."""
    cases = []
    census3 = [build(name, 3) for name in LEE_NAMES]
    cases += [(bottom, top) for bottom in census3 for top in census3]
    census5 = [build(name, 5) for name in LEE_NAMES]
    pairs5 = [(bottom, top) for bottom in census5 for top in census5]
    cases += random.Random(7).sample(pairs5, 40)
    for p in (3, 5, 7):
        r = restrict(build("Nplus", p), class_by_label(dihedral(p), f"C_{p}"))
        cases.append((r, trivial_lattice(cyclic(p))))
    return cases


def _cocycle_of_extension(ext, bottom, top):
    """(phi(sigma), phi(tau)) read back from E's upper right blocks
    phi(g) rho_top(g), each block row by row."""
    rb = bottom.rank
    row = []
    for rho_e, rho_b, rho_t in zip(ext.gens, bottom.gens, top.gens):
        assert rho_e.submatrix(range(rb), range(rb)) == rho_b
        assert rho_e.submatrix(range(rb, ext.rank), range(rb, ext.rank)) == rho_t
        assert not any(any(r) for r in rho_e.submatrix(range(rb, ext.rank), range(rb)).data)
        upper = rho_e.submatrix(range(rb), range(rb, ext.rank))
        row += [x for r in (upper * inverse_unimodular(rho_t)).data for x in r]
    return row


def test_nonsplit_extension_agrees_with_the_fox_system_oracle():
    """The library splits exactly where the oracle does, and otherwise builds
    E with bottom and top on its block diagonal from a cocycle outside B^1;
    its cocycle may differ from the oracle's."""
    built = 0
    for bottom, top in _extension_cases():
        try:
            oracle_nonsplit_extension(bottom, top)
        except LatticeError:
            with pytest.raises(LatticeError, match="every cocycle is a coboundary"):
                _nonsplit_extension([bottom], top)
            continue
        got = _nonsplit_extension([bottom], top)
        row = _cocycle_of_extension(got, bottom, top)
        cocycles, boundaries = oracle_fox_system(hom_lattice(top, bottom), full_class(top.group))
        assert _in_span(cocycles.data, row) and not _in_span(boundaries, row), (bottom, top)
        built += 1
    assert built == 25  # 20 at p = 3, 2 of the p = 5 draw, 3 over C_p


def test_cocycles_build_no_kernel_and_no_hermite_transform(monkeypatch):
    """one_cocycles and _noncoboundary_cocycle read Z^1 off one Smith form:
    no kernel basis, Hermite form or solve is built."""
    g = dihedral(3)
    pairs = [(build("ZH", 3), trivial_lattice(g)), (build("P", 3), trivial_lattice(g))]
    homs = [hom_lattice(top, bottom) for bottom, top in pairs]
    ranks = [oracle_fox_system(hom, full_class(g))[0].rows for hom in homs]

    def refuse(*args, **kwargs):
        raise AssertionError("a cocycle built a kernel or a Hermite form")

    for module in (cohomology, catalog):
        for name in ("kernel_basis", "hnf", "echelon", "express_rows"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    with pytest.raises(LatticeError, match="every cocycle is a coboundary"):
        _noncoboundary_cocycle(*pairs[0])
    assert _noncoboundary_cocycle(*pairs[1])
    assert [one_cocycles(hom, full_class(g)).cocycles.rows for hom in homs] == ranks


def test_cohomology_is_conjugation_invariant():
    for n in (3, 4, 6, 9):
        g = dihedral(n)
        lat = direct_sum(induce(g, -1), sign_lattice(g))
        for s in subgroup_classes(g):
            for x in elements(g):
                conj = subgroup_from_elements(g, conjugate_subgroup(g, s, x))
                assert tate_hminus1(lat, s) == tate_hminus1(lat, conj)
                assert tate_h0(lat, s) == tate_h0(lat, conj)
                assert h1(lat, s) == h1(lat, conj)


def test_additivity_on_sums():
    rng = random.Random(9)
    g = dihedral(5)
    pieces = [sign_lattice(g), n_plus(5), n_minus(5), induce(g, 1), trivial_lattice(g)]
    pairs = [rng.sample(pieces, 2) for _ in range(5)] + list(_seeded_summands())
    assert len(pairs) == 29
    for a, b in pairs:
        ab = direct_sum(a, b)
        for s in subgroup_classes(ab.group):
            for fn in (tate_hminus1, tate_h0, h1):
                ia, ib, iab = fn(a, s), fn(b, s), fn(ab, s)
                merged = sorted(list(ia.torsion) + list(ib.torsion))
                # compare as multisets of prime powers
                assert sorted(_primary(iab.torsion)) == sorted(
                    _primary(tuple(merged))
                ), (fn.__name__, s.label)
                assert iab.free_rank == ia.free_rank + ib.free_rank


def _primary(torsion):
    out = []
    for d in torsion:
        k = 2
        while d > 1:
            power = 1
            while d % k == 0:
                d //= k
                power *= k
            if power > 1:
                out.append(power)
            k += 1
    return out


# --- properties over C_p and D_p ----------------------------------------------


def _rebased(lat, rng):
    """lat in a seeded basis: u.sigma.u^-1 and u.tau.u^-1, u a product of
    elementary row moves."""
    n = lat.rank
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    u = IntMatrix(rows, cols=n)
    u_inv = inverse_unimodular(u)
    tau = None if lat.tau is None else u * lat.tau * u_inv
    return GLattice(lat.group, u * lat.sigma * u_inv, tau)


def _seeded_summands():
    """Pairs of census lattices over D_p and over C_p, p = 3, 5, 7, each in a
    seeded basis."""
    rng = random.Random(17)
    for p in (3, 5, 7):
        census = [build(name, p) for name in LEE_NAMES]
        csig = class_by_label(dihedral(p), f"C_{p}")
        for pool in (census, [restrict(lat, csig) for lat in census]):
            for _ in range(4):
                yield [_rebased(lat, rng) for lat in rng.sample(pool, 2)]


def test_dual_is_an_involution():
    for a, b in _seeded_summands():
        for lat in (a, b, direct_sum(a, b)):
            assert dual(dual(lat)) == lat


def test_ext1_values():
    for p in (3, 5):
        g = dihedral(p)
        z = trivial_lattice(g)
        pp = n_minus(p)
        assert ext1(z, pp) == AbelianInvariants((p,), 0)
        zh = perm_lattice(g, class_by_label(g, f"C_{p}"))
        assert ext1(zh, pp) == AbelianInvariants((p,), 0)
        assert ext1(pp, regular_lattice(g)).is_trivial
        assert ext1(z, regular_lattice(g)).is_trivial


def test_flabby_smoke_p3():
    g = dihedral(3)
    assert is_flabby(induce(g, 1)).ok  # permutation
    assert is_flabby(regular_lattice(g)).ok
    rep_r = n_plus(3)
    rep = is_flabby(rep_r)
    assert not rep.ok
    assert any(label == "C_3" for label, _ in rep.failing)
    rep = is_flabby(sign_lattice(g))
    assert not rep.ok
    assert is_coflabby(regular_lattice(g)).ok
    assert not is_coflabby(sign_lattice(g)).ok
    assert not is_coflabby(induce(g, -1)).ok


def test_cohomology_table_shape():
    g = dihedral(3)
    table = cohomology_table(trivial_lattice(g), "Z")
    assert [row[0] for row in table.entries] == ["1", "D_1", "C_3", "D_3"]
    for _, hm1, h0v, h1v in table.entries:
        assert hm1.free_rank == 0 and h0v.free_rank == 0 and h1v.free_rank == 0
