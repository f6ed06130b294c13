"""Acceptance gate: one test per criterion, each printing a pass line.

Criteria run at their stated ranges and tolerances (all checks here are
exact integer identities; "tolerance" means byte-for-byte equality).
"""

import random
import time
from pathlib import Path

import pytest

from glattice.exactla import AbelianInvariants, IntMatrix, det, right_kernel_basis, snf
from glattice.groups import class_by_label, cyclic, dihedral, full_class
from glattice.lattices import (
    direct_sum,
    perm_lattice,
    restrict,
    trivial_lattice,
)
from glattice.cohomology import ext1, h1, is_flabby, tate_hminus1
from glattice.catalog import (
    LEE_NAMES,
    _nonsplit_extension,
    build,
    circulant,
    circulant_pattern_one,
    circulant_pattern_two,
    render_matrix,
    verify_witness,
    witness,
)
from glattice.rationality import (
    Budget,
    classify,
    flabby_resolution,
    stably_permutation,
)
from glattice.steinitz import steinitz_class
from steinitz_oracle import class_multiplicativity_check, same_class, sublattice_action

GOLDEN = Path(__file__).parent / "golden"
ODD_3_31 = list(range(3, 32, 2))
BUDGET = Budget(box_radius=2, draws=3000, padding_rank_factor=2, sp_attempts=50)


def report(criterion, ok, detail=""):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_t34():
    t0 = time.time()
    for n in ODD_3_31:
        check = verify_witness(witness("T34", n))
        assert check.ok, (n, check.failures)
        assert check.determinant == 1, n
    elapsed = time.time() - t0
    report("1 (first stable-permutation identity, det = 1, n = 3..31)", elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_02_t35():
    t0 = time.time()
    for n in ODD_3_31:
        check = verify_witness(witness("T35", n))
        assert check.ok, (n, check.failures)
        assert check.determinant in (1, -1), n
    elapsed = time.time() - t0
    report("2 (second identity, det in {+1,-1}, n = 3..31)", elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_03_t37():
    t0 = time.time()
    for n in ODD_3_31:
        check = verify_witness(witness("T37", n))
        assert check.ok, (n, check.failures)
        assert check.determinant == -1, n
    for n, fname in ((3, "T37_n3.txt"), (5, "T37_n5.txt")):
        got = render_matrix(witness("T37", n).change_of_basis).encode()
        assert got == (GOLDEN / fname).read_bytes(), f"golden {fname}"
    elapsed = time.time() - t0
    report("3 (paired identity, det = -1, printed matrices byte-match)", elapsed < 30, f"{elapsed:.1f}s")


def test_criterion_04_circulants():
    t0 = time.time()
    for n in range(3, 102, 2):
        assert det(circulant(circulant_pattern_one(n))) == (n - 1) // 2, n
        assert det(circulant(circulant_pattern_two(n))) == -1, n
    elapsed = time.time() - t0
    report("4 (circulant determinants, n = 3..101)", elapsed < 60, f"{elapsed:.1f}s")


def test_criterion_05_l46():
    t0 = time.time()
    for n in ODD_3_31:
        w = witness("L46", n)
        check = verify_witness(w)
        assert check.ok, (n, check.failures)
        assert check.determinant == 1, n
        # kernel of Z[G] -> Z[H] is certified isomorphic to N+ + N-:
        # the embedding pins the kernel lattice inside Z[G], the intertwiner
        # carries N+ + N- onto it unimodularly
        assert w.embedding is not None
    elapsed = time.time() - t0
    report("5 (group-ring kernel splits as the two quotient lattices)", True, f"{elapsed:.1f}s")


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_criterion_06_flabbiness_table(p):
    t0 = time.time()
    expected_flabby = {"Z", "ZH", "V", "Y0", "Y1", "Y2"}
    for name in LEE_NAMES:
        rep = is_flabby(build(name, p))
        assert rep.ok == (name in expected_flabby), (name, p, rep.failing)
    g = dihedral(p)
    assert h1(build("Zminus", p), full_class(g)) == AbelianInvariants((2,), 0)
    assert tate_hminus1(build("R", p), class_by_label(g, f"C_{p}")) == AbelianInvariants((p,), 0)
    elapsed = time.time() - t0
    assert elapsed < 300
    report(f"6 (flabbiness table at p={p})", True, f"{elapsed:.1f}s")


def test_criterion_07_ext_values():
    t0 = time.time()
    for p in (3, 5, 7):
        g = dihedral(p)
        target = AbelianInvariants((p,), 0)
        assert ext1(trivial_lattice(g), build("P", p)) == target, p
        assert ext1(build("ZH", p), build("P", p)) == target, p
    report("7 (extension groups are Z/p)", True, f"{time.time()-t0:.1f}s")


def _random_catalog_lattice(rng, p):
    kind = rng.random()
    names = rng.sample(LEE_NAMES, 2)
    pieces = [build(nm, p) for nm in names]
    if kind < 0.7:
        return direct_sum(*pieces)
    # a non-split extension when one exists, else the sum
    try:
        return _nonsplit_extension([pieces[0]], pieces[1])
    except Exception:
        return direct_sum(*pieces)


def test_criterion_08_classification_pipeline():
    t0 = time.time()
    for p in (3, 5, 7):
        for name in LEE_NAMES:
            lat = build(name, p)
            v = classify(lat, budget=BUDGET)
            assert v.status == "StablyRational", (name, p, v)
            res = flabby_resolution(lat)
            assert is_flabby(res.flabby_part).ok, (name, p)
    rng = random.Random(20240601)
    for p in (3, 5, 7):  # 50 seeded random inputs at each prime
        for _ in range(50):
            lat = _random_catalog_lattice(rng, p)
            v = classify(lat, budget=BUDGET)
            assert v.status == "StablyRational", (p, lat, v)
    # explicit witnesses, not merely by-theorem, for the two tilde classes
    for p in (3, 5, 7):
        for name, pad in (("Y0", ("D_1",)), ("Y1", (f"D_{p}",))):
            sp = stably_permutation(build(name, p), BUDGET)
            assert sp and sp.witness.padding_labels == pad, (name, p, sp)
            sp.witness.iso_map.check()
    elapsed = time.time() - t0
    report("8 (classification pipeline, 50 random inputs, explicit witnesses)", True, f"{elapsed:.1f}s")


def test_criterion_09_steinitz_suite():
    t0 = time.time()
    for p in (3, 5, 7):
        csig = class_by_label(dihedral(p), f"C_{p}")
        for name in LEE_NAMES:
            lat = restrict(build(name, p), csig)
            rep = steinitz_class(lat)
            assert rep.known_trivial, (name, p)
            n1 = right_kernel_basis(lat.full_norm_matrix())
            if 0 < n1.rows:
                sub = sublattice_action(lat, n1)
                assert same_class(rep.ideal, steinitz_class(sub).ideal) is True, (name, p)
            if 0 < n1.rows < lat.rank:
                from glattice.lattices import ExtensionSpec, LatticeMap, quotient_with_maps

                q = quotient_with_maps(lat, n1)
                ext = ExtensionSpec(
                    sub=q.sub_lattice,
                    total=lat,
                    quotient=q.lattice,
                    inclusion=LatticeMap(q.sub_lattice, lat, q.inclusion),
                    projection=LatticeMap(lat, q.lattice, q.projection),
                )
                assert class_multiplicativity_check(ext) is True, (name, p)
    for p in (11, 13):
        csig = class_by_label(dihedral(p), f"C_{p}")
        for name in LEE_NAMES:
            rep = steinitz_class(restrict(build(name, p), csig))
            assert rep.known_trivial and rep.generator is not None, (name, p)
    # the C_p obstruction path on an asserted-non-principal input
    from glattice.cyclotomic import ideal_cyclic_lattice
    from steinitz_oracle import factor_cyclotomic_mod, prime_ideal_above

    b = prime_ideal_above(23, 2, factor_cyclotomic_mod(23, 2)[0])
    lat = ideal_cyclic_lattice(b)
    v = classify(
        lat,
        budget=BUDGET,
        annotations={"non_principal_ideal": b, "assertion_source": "h_23 = 3 (external table)"},
    )
    assert v.status == "NotStablyRational", v
    elapsed = time.time() - t0
    report("9 (Steinitz suite and the C_p obstruction)", True, f"{elapsed:.1f}s")


def _check_snf_hnf_det(m):
    from glattice.exactla import hnf, is_unimodular

    res = snf(m)
    assert res.u * m * res.v == res.s
    assert is_unimodular(res.u) and is_unimodular(res.v)
    diag = res.diagonal()
    nz = [d for d in diag if d]
    assert diag[: len(nz)] == nz and all(d >= 0 for d in diag)
    for a, b in zip(nz, nz[1:]):
        assert b % a == 0
    hres = hnf(m)
    assert hres.u * m == hres.h
    assert is_unimodular(hres.u)
    if m.is_square:
        prod = 1
        for d in diag:
            prod *= d
        assert abs(det(m)) == prod


def _det_cofactor(m):
    n = m.rows
    if n == 0:
        return 1
    if n == 1:
        return m[0, 0]
    rest = list(range(1, n))
    total = 0
    for j in range(n):
        a = m[0, j]
        if a:
            total += (-1) ** j * a * _det_cofactor(
                m.submatrix(rest, [k for k in range(n) if k != j])
            )
    return total


def test_criterion_10_oracle_suites():
    t0 = time.time()
    rng = random.Random(1234)
    count = 0
    for _ in range(10200):
        rows = rng.randint(1, 5) if rng.random() < 0.9 else rng.randint(6, 8)
        cols = rng.randint(1, 5) if rng.random() < 0.9 else rng.randint(6, 8)
        m = IntMatrix(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)], cols=cols
        )
        _check_snf_hnf_det(m)
        if rows == cols and rows <= 4:
            assert det(m) == _det_cofactor(m)
        count += 1
    assert count >= 10**4
    # circulant determinants against the resultant path are covered in the
    # catalog suite; repeat a quick sample here so the criterion stands alone
    from tests.test_catalog import resultant_with_xn_minus_1

    for _ in range(30):
        n = rng.choice([2, 3, 4, 5, 7])
        c = [rng.randint(-3, 3) for _ in range(n)]
        assert det(circulant(c)) == resultant_with_xn_minus_1(c, n)
    # subgroup classes against exhaustive enumeration for n <= 15
    from glattice.groups import elements, subgroup_classes
    from subgroup_oracle import all_subgroups, conjugate

    for n in range(1, 16):
        for g in ([cyclic(n)] + ([dihedral(n)] if n >= 2 else [])):
            subs = all_subgroups(g)
            cls = subgroup_classes(g)
            assert sum(c.conjugate_count for c in cls) == len(subs), g
            els = elements(g)
            for sub in subs:
                hits = sum(
                    1
                    for c in cls
                    if any(
                        frozenset(conjugate(g, x, a) for a in sub)
                        == frozenset(c.representative)
                        for x in els
                    )
                )
                assert hits == 1, g
    elapsed = time.time() - t0
    report("10 (oracle suites, >= 10^4 matrices, zero failures)", True, f"{elapsed:.1f}s/{count} matrices")


def test_criterion_11_unreachable_branch_documented():
    # the non-principal real-subfield branch needs p >= 163 (under GRH) and is
    # explicitly out of desk scale; the cyclic-prime analogue at p = 23 stands
    # in for it (criterion 9), and the class bookkeeping steps of the
    # obstruction argument verify symbolically on principal inputs:
    t0 = time.time()
    p = 5
    s = cyclic(p)
    from glattice.groups import trivial_class

    # permutation C_p-lattices have trivial class with exhibited generators
    zs = perm_lattice(s, trivial_class(s))
    for lat in (trivial_lattice(s), zs, direct_sum(zs, trivial_lattice(s))):
        rep = steinitz_class(lat)
        assert rep.known_trivial
    # restriction bookkeeping: cl of the twisted census piece at a principal
    # ideal equals cl of its bottom ideal piece (both trivial here)
    from glattice.catalog import twisted_lattice
    from glattice.cyclotomic import unit_ideal

    csig = class_by_label(dihedral(p), f"C_{p}")
    y1 = twisted_lattice("Y1", unit_ideal(p, real_subfield=True))
    rep_y1 = steinitz_class(restrict(y1, csig))
    rep_bottom = steinitz_class(restrict(build("P", p), csig))
    assert rep_y1.known_trivial and rep_bottom.known_trivial
    assert same_class(rep_y1.ideal, rep_bottom.ideal) is True
    report(
        "11 (non-principal real-subfield branch documented, principal bookkeeping verified)",
        True,
        f"{time.time()-t0:.1f}s",
    )
