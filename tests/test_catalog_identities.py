"""Structural identities tying the catalog lattices together."""

from glattice.exactla import IntMatrix
from glattice.groups import class_by_label, dihedral
from glattice.cohomology import ext1, is_coflabby, is_flabby
from glattice.catalog import LEE_NAMES, build
from glattice.lattices import direct_sum, quotient_with_maps, restrict
from glattice.rationality import Budget, fingerprint, iso

FAST = Budget(box_radius=2, draws=2000)


def test_restrict_p_to_sigma_is_r():
    # forgetting tau, the two rank p-1 census pieces coincide
    for p in (3, 5, 7):
        g = dihedral(p)
        csig = class_by_label(g, f"C_{p}")
        r = restrict(build("R", p), csig)
        pp = restrict(build("P", p), csig)
        res = iso(r, pp, FAST)
        assert res, p
        res.witness.check()


def test_restriction_of_m_minus_to_tau():
    # the tau-restriction of the induced minus lattice splits as
    # Z_- + (free rank-2 blocks); the sign summand is what breaks
    # coflabbiness, not a trivial summand
    for p in (3, 5, 7):
        g = dihedral(p)
        dtau = class_by_label(g, "D_1")
        mm = restrict(build("Mminus", p), dtau)
        c2 = mm.group
        from glattice.lattices import GLattice

        sign = GLattice(c2, IntMatrix([[-1]]))
        block = GLattice(c2, IntMatrix([[0, 1], [1, 0]]))
        parts = [sign] + [block] * ((p - 1) // 2)
        cand = direct_sum(*parts)
        res = iso(mm, cand, FAST)
        assert res, p
        # and the fixed sublattice has rank (p-1)/2
        from glattice.groups import subgroup_classes
        from glattice.lattices import fixed_sublattice

        full = subgroup_classes(c2)[-1]
        assert fixed_sublattice(mm, full).rows == (p - 1) // 2


def test_tilde_extensions_reconstruct():
    # the first n coordinates of the rank n+1 extensions carry the induced
    # lattices entrywise; the extra coordinate of the plus extension twists
    # by the sign (its tau column ends in -1), the minus one is trivial
    for n in (3, 5, 7, 9):
        for tilde, base, quot_tau in (
            ("MplusTilde", "Mplus", -1),
            ("MminusTilde", "Mminus", 1),
        ):
            mt = build(tilde, n)
            sub_rows = IntMatrix(
                [[1 if j == i else 0 for j in range(n + 1)] for i in range(n)]
            )
            q = quotient_with_maps(mt, sub_rows)
            assert q.sub_lattice.sigma == build(base, n).sigma
            assert q.sub_lattice.tau == build(base, n).tau
            assert q.lattice.sigma == IntMatrix([[1]])
            assert q.lattice.tau == IntMatrix([[quot_tau]])


def test_difference_vector_sequences_reconstruct():
    # inside the induced lattices, the difference vectors span the rank n-1
    # quotient pieces with quotient Z (rank 1) or Z[G/sigma] (rank 2)
    for n in (3, 5, 7):
        g = dihedral(n)
        for base, names in (("Mplus", "Nminus"), ("Mminus", "Nplus")):
            lat = build(base, n)
            rows = []
            for i in range(1, n):
                vec = [0] * n
                vec[(i + (n - 1) // 2) % n] += 1
                vec[(i + (n + 1) // 2) % n] -= 1
                rows.append(vec)
            q = quotient_with_maps(lat, IntMatrix(rows, cols=n))
            res = iso(q.sub_lattice, build(names, n), FAST)
            assert res, (base, n)
            assert q.lattice.rank == 1
        for tilde, bottom in (("MplusTilde", "Nminus"), ("MminusTilde", "Nplus")):
            lat = build(tilde, n)
            rows = []
            for i in range(1, n):
                vec = [0] * (n + 1)
                vec[(i + (n - 1) // 2) % n] += 1
                vec[(i + (n + 1) // 2) % n] -= 1
                rows.append(vec)
            q = quotient_with_maps(lat, IntMatrix(rows, cols=n + 1))
            res = iso(q.sub_lattice, build(bottom, n), FAST)
            assert res, (tilde, n)
            # quotient is the rank-2 coset lattice (coefficients can be ~n/2,
            # so give the tiny 2-parameter search a wide box)
            res2 = iso(q.lattice, build("ZH", n), Budget(box_radius=n, draws=4000))
            assert res2, (tilde, n)


def test_nonsplitness_of_tilde_extensions():
    # M~+ vs N_- + Z[G/sigma]: distinguished by fingerprint, and the
    # governing extension group is nonzero
    for p in (3, 5):
        g = dihedral(p)
        mt = build("MplusTilde", p)
        split = direct_sum(build("Nminus", p), build("ZH", p))
        res = iso(mt, split, FAST)
        assert res.outcome == "noniso", (p, res.outcome)
        assert ext1(build("ZH", p), build("Nminus", p)).order == p


def test_flabby_implies_coflabby_on_census():
    # with cyclic Sylow subgroups, flabby census members are invertible and
    # hence coflabby; checked empirically
    for p in (3, 5):
        for name in LEE_NAMES:
            lat = build(name, p)
            if is_flabby(lat).ok:
                assert is_coflabby(lat).ok, (name, p)


def test_noether_identity_ingredients():
    # the chain behind the stable-isomorphism statement: the coset lattice
    # Z[G/tau] sits under M~- with quotient Z[G/sigma], and the second
    # identity pads M~- to Z[G] + Z
    from glattice.catalog import verify_witness, witness

    for n in (3, 5, 7):
        g = dihedral(n)
        # 0 -> N_+ -> M~- -> Z[G/sigma] -> 0 (reconstructed above); then:
        assert verify_witness(witness("T35", n)).ok
        # N_+ is the character lattice of the Noether-side function field
        zgt = build("ZGmodTau", n)
        q = quotient_with_maps(zgt, IntMatrix([[1] * n]))
        res = iso(q.lattice, build("Nplus", n), FAST)
        assert res, n


def test_classify_explicit_sum_example():
    lat = direct_sum(build("Zminus", 3), build("R", 3))
    from glattice.rationality import classify

    v = classify(lat, budget=FAST)
    assert v.status == "StablyRational"


def test_twisted_extensions_match_census_at_p5():
    from glattice.catalog import twisted_lattice
    from glattice.cyclotomic import unit_ideal

    u5 = unit_ideal(5, real_subfield=True)
    for base in ("V", "X"):
        tw = twisted_lattice(base, u5)
        assert fingerprint(tw).differs_from(fingerprint(build(base, 5))) is None
