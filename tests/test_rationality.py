"""Fingerprints, iso search, resolutions, verdicts."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from glattice.exactla import IntMatrix, block_diag, det, inverse_unimodular, right_kernel_basis, row_space_hnf
from glattice.groups import class_by_label, cyclic, dihedral, subgroup_classes
from glattice.lattices import (
    GLattice,
    LatticeError,
    direct_sum,
    dual,
    fixed_sublattice,
    perm_lattice,
    quotient_with_maps,
    regular_lattice,
    restrict,
    sign_lattice,
    trivial_lattice,
)
from glattice.catalog import LEE_NAMES, build
from glattice.cohomology import cohomology_table, is_flabby
from glattice import cohomology, rationality
from glattice.steinitz import default_class_table
from glattice.rationality import (
    BLOCK_CACHE_SIZE,
    CLASSIFY_RANK_CAP,
    PERM_PART_CACHE_SIZE,
    Budget,
    _block_route,
    _box_by_l1,
    _candidate_maker,
    _perm_part,
    _route,
    _sequence_verdict,
    _verify_iso,
    classify,
    fingerprint,
    flabby_resolution,
    hom_space_basis,
    iso,
    literal_blocks,
    perm_from_decomposition,
    permutation_decomposition,
    stably_permutation,
)
from cover_oracle import oracle_flabby_rank
from iso_oracle import combine, iso_oracle
from pool_verdicts import pool_lattice

FAST = Budget(box_radius=2, draws=2000, padding_rank_factor=2, sp_attempts=40)


def test_fingerprint_distinguishes():
    g = dihedral(3)
    assert fingerprint(trivial_lattice(g)).differs_from(fingerprint(sign_lattice(g)))
    # same lattice under aliasing
    assert fingerprint(build("MplusTilde", 3)).differs_from(fingerprint(build("Y1", 3))) is None


def test_fingerprint_r_at_5():
    fp = fingerprint(build("R", 5))
    entry = {label: hm1 for label, _, hm1, _, _ in fp.entries}
    assert entry["C_5"].torsion == (5,)


def test_fingerprint_carries_h1_at_every_class():
    # rank 40 over C_13: every fingerprint entry holds H^1 of its class
    g = dihedral(13)
    lat = restrict(direct_sum(build("Y2", 13), build("Y0", 13)), class_by_label(g, "C_13"))
    assert lat.rank == 40
    entries = fingerprint(lat).entries
    assert [h1v for *_, h1v in entries] == [cohomology.h1(lat, c) for c in subgroup_classes(lat.group)]


def test_tate_groups_build_no_kernel_and_no_hermite_transform(monkeypatch):
    """cohomology_table and fingerprint read every group off Smith diagonals:
    no kernel basis, Hermite form, solve or fixed sublattice is built."""
    census = [(name, build(name, 5)) for name in LEE_NAMES]

    def refuse(*args, **kwargs):
        raise AssertionError("a Tate group built a kernel or a Hermite form")

    for module in (cohomology, rationality):
        for name in ("hnf", "kernel_basis", "express_rows", "fixed_sublattice"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    monkeypatch.setattr(rationality, "_fingerprint_cache", {})
    for name, lat in census:
        table = cohomology_table(lat, name)
        fp = fingerprint(lat)
        assert [entry[2:] for entry in fp.entries] == [entry[1:] for entry in table.entries]


def test_census_pairwise_distinct():
    for p in (3, 5):
        fps = [(name, fingerprint(build(name, p))) for name in LEE_NAMES]
        for i, (na, fa) in enumerate(fps):
            for nb, fb in fps[i + 1 :]:
                assert fa.differs_from(fb) is not None, (na, nb, p)


def test_iso_reflexive_and_sign():
    g = dihedral(5)
    m = build("Nplus", 5)
    res = iso(m, m, FAST)
    assert res and res.witness.matrix == IntMatrix.identity(4)
    assert iso(trivial_lattice(g), sign_lattice(g), FAST).outcome == "noniso"
    assert hom_space_basis(trivial_lattice(g, 0), m) == hom_space_basis(m, trivial_lattice(g, 0)) == []


def test_iso_finds_base_change():
    # conjugate a catalog lattice by a unimodular equivariant-compatible move
    m = build("Nplus", 3)
    t = IntMatrix([[1, 1], [0, 1]])
    from glattice.exactla import inverse_unimodular
    from glattice.lattices import GLattice

    conj = GLattice(
        m.group,
        t * m.sigma * inverse_unimodular(t),
        t * m.tau * inverse_unimodular(t),
    )
    res = iso(m, conj, Budget(box_radius=3, draws=5000))
    assert res
    res.witness.check()


def test_stably_permutation_takes_the_catalog_seed():
    """M~+ + Z and M~- + Z[G/<tau>] are permutation by T34/T35's intertwiner."""
    from glattice.catalog import witness

    for n in (3, 5, 7, 9, 11):
        for name, wid, pad, target in (
            ("MplusTilde", "T34", (f"D_{n}",), (f"C_{n}", "D_1")),
            ("MminusTilde", "T35", ("D_1",), ("1", f"D_{n}")),
        ):
            spw = stably_permutation(build(name, n), FAST).witness
            assert spw.padding_labels == pad and spw.target_labels == target
            assert spw.iso_map.matrix == witness(wid, n).intertwiner
            spw.iso_map.check()


def _shuffled(lat, rng):
    """lat in a seeded random basis order, P.rho.P^T."""
    order = rng.sample(range(lat.rank), lat.rank)
    p = IntMatrix([[int(j == k) for j in range(lat.rank)] for k in order], cols=lat.rank)
    return GLattice(lat.group, *(p * rho * p.transpose() for rho in lat.gens))


def test_permutation_decomposition():
    g = dihedral(5)
    lat = direct_sum(regular_lattice(g), trivial_lattice(g), build("ZH", 5))
    assert permutation_decomposition(lat)[0] == ["1", "C_5", "D_5"]
    assert permutation_decomposition(build("Mminus", 5)) is None
    # every Z[G/S1] + Z[G/S2] in a seeded random basis order; D_4 and D_6
    # have two classes of reflections.  W maps onto the sorted parts.
    rng = random.Random(11)
    cases = 0
    for g in (dihedral(3), dihedral(5), dihedral(9), dihedral(4), dihedral(6), cyclic(5), cyclic(6)):
        classes = subgroup_classes(g)
        for i, s1 in enumerate(classes):
            for s2 in classes[i:]:
                shuffled = _shuffled(direct_sum(perm_lattice(g, s1), perm_lattice(g, s2)), rng)
                labels, w = permutation_decomposition(shuffled)
                assert labels == sorted([s1.label, s2.label])
                assert _verify_iso(shuffled, perm_from_decomposition(g, labels), w)
                cases += 1
    assert cases == 145


def _refuse_iso(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("iso searched where the witness needs no search")

    monkeypatch.setattr(rationality, "iso", refuse)


def test_stably_permutation_reads_a_permutation_lattice_off_its_orbits(monkeypatch):
    """A permutation lattice in any basis order, rank 0 included, is decided
    with empty padding at a one-draw budget and no iso search."""
    _refuse_iso(monkeypatch)
    rng = random.Random(5)
    g = dihedral(5)
    classes = subgroup_classes(g)
    cases = [trivial_lattice(g, 0), trivial_lattice(cyclic(3), 0)]
    cases += [_shuffled(direct_sum(*(perm_lattice(g, c) for c in rng.sample(classes, 3))), rng) for _ in range(6)]
    for lat in cases:
        sp = stably_permutation(lat, Budget(draws=1))
        assert sp and sp.witness.padding_labels == ()
        assert list(sp.witness.target_labels) == permutation_decomposition(lat)[0]
        sp.witness.iso_map.check()


def test_a_permutation_flabby_part_above_the_cap_needs_no_search(monkeypatch):
    """Y0 + X over D_5 taken whole has a flabby part of rank 10, above the
    cap, that is a permutation lattice in another basis order: the whole-M
    route finds E's orbit map and its sequence checks.  classify decides
    the sum by its blocks, also with no search."""
    _refuse_iso(monkeypatch)
    m = direct_sum(build("Y0", 5), build("X", 5))
    res = flabby_resolution(m)
    e = res.flabby_part
    assert e.rank == 10 > CLASSIFY_RANK_CAP and e.is_permutation
    route = _route(m, FAST)
    assert route.sequence is not None and route.summands == res.summands
    assert route.padding == () and list(route.target) == permutation_decomposition(e)[0]
    whole = _sequence_verdict(*route.sequence, route.padding, route.target, "whole")
    assert whole.evidence["padding"] == [] and not whole.by_theorem
    v = classify(m, budget=FAST)
    assert v.reason == "explicit witness for every literal direct summand"
    assert v.evidence["block_ranks"] == [6, 5] and not v.by_theorem


def test_nothing_above_the_cap_is_searched(monkeypatch):
    """The pool's ext:R<Y1@5 is one block whose M (rank 10) and E (rank 12)
    are above the cap and have no exact witness, so the verdict comes from
    h_5^+ = 1 without a search."""
    _refuse_iso(monkeypatch)
    m = pool_lattice("ext:R<Y1@5")
    res = flabby_resolution(m)
    assert len(literal_blocks(m)) == 1
    assert (res.lattice.rank, res.flabby_part.rank) == (10, 12) and CLASSIFY_RANK_CAP < 10
    v = classify(m, budget=FAST)
    assert v.by_theorem and v.status == "StablyRational" and v.evidence["h_plus"] == 1
    assert "block_ranks" not in v.evidence


def test_the_default_class_table_is_built_only_for_a_theorem(monkeypatch):
    """classify builds no class table for an explicit verdict; the theorem
    verdict of ext:R<Y1@5 builds one."""
    built = []

    def counted():
        built.append(1)
        return default_class_table()

    monkeypatch.setattr(rationality, "default_class_table", counted)
    assert not classify(build("P", 3), budget=FAST).by_theorem
    assert not built
    assert classify(pool_lattice("ext:R<Y1@5"), budget=FAST).by_theorem
    assert built == [1]


def test_literal_blocks_decide_y0_plus_y1_at_7_without_search(monkeypatch):
    """Y0 + Y1 over D_7 is above the cap whole, but its blocks Y0 and Y1
    take T35 and T34: an explicit verdict and no iso."""
    _refuse_iso(monkeypatch)
    m = direct_sum(build("Y0", 7), build("Y1", 7))
    res = flabby_resolution(m)
    assert min(res.lattice.rank, res.flabby_part.rank) > CLASSIFY_RANK_CAP
    v = classify(m, budget=FAST)
    assert v.status == "StablyRational" and not v.by_theorem
    assert v.reason == "explicit witness for every literal direct summand"
    assert v.evidence == {
        "block_ranks": [8, 8],
        "padding": ["D_1", "D_7"],
        "target": ["1", "D_7", "C_7", "D_1"],
        "sequence_total_rank": 24,
    }


def _one_block_census(g):
    return [lat for lat in _census_over(g) if len(literal_blocks(lat)) == 1]


def _shuffled_sum(parts, rng):
    """(the direct sum of parts in a seeded random basis order, the
    shuffled positions of each part's basis)."""
    total = direct_sum(*parts)
    order = rng.sample(range(total.rank), total.rank)  # new basis vector k is old order[k]
    p = IntMatrix([[int(j == k) for j in range(total.rank)] for k in order], cols=total.rank)
    shuffled = GLattice(total.group, *(p * rho * p.transpose() for rho in total.gens))
    position = {old: new for new, old in enumerate(order)}
    starts = list(itertools.accumulate((part.rank for part in parts), initial=0))
    spans = [sorted(position[k] for k in range(a, b)) for a, b in zip(starts, starts[1:])]
    return shuffled, spans


@pytest.mark.parametrize("g", [dihedral(3), dihedral(5), cyclic(5), cyclic(7)], ids=str)
def test_literal_blocks_recover_shuffled_summands(g):
    """Sums of 2-3 one-block census lattices in a seeded random basis order:
    the blocks are the summands' positions, up to order, and listing the
    basis block by block makes every generator block diagonal."""
    rng = random.Random(2026)
    census = _one_block_census(g)
    for _ in range(6):
        shuffled, spans = _shuffled_sum(rng.sample(census, rng.choice([2, 3])), rng)
        blocks = literal_blocks(shuffled)
        assert sorted(blocks) == sorted(spans)
        order = [k for b in blocks for k in b]
        p = IntMatrix([[int(j == k) for j in range(shuffled.rank)] for k in order], cols=shuffled.rank)
        for rho in shuffled.gens:
            assert p * rho * p.transpose() == block_diag(*(rho.submatrix(b, b) for b in blocks))


@pytest.mark.parametrize("g", [dihedral(3), dihedral(5), cyclic(5)], ids=str)
def test_a_shuffled_sum_gets_the_blocks_sequence(g):
    """A shuffled sum of census lattices whose blocks each get a witness is
    decided by the checked direct sum of the blocks' sequences, with the
    blocks' padding and target labels; its blocks are not block-contiguous,
    so the sequence is exact only through the basis permutation."""
    rng = random.Random(31)
    census = _one_block_census(g)
    decided = 0
    for _ in range(5):
        parts = rng.sample(census, 2)
        shuffled, spans = _shuffled_sum(parts, rng)
        if [k for span in sorted(spans) for k in span] == list(range(shuffled.rank)):
            continue  # the shuffle left the blocks in basis order
        v = classify(shuffled, budget=FAST)
        assert v.status == "StablyRational", v
        blocks = [GLattice(g, *(x.submatrix(b, b) for x in shuffled.gens)) for b in literal_blocks(shuffled)]
        assert sorted(lat.rank for lat in blocks) == sorted(part.rank for part in parts)
        block_v = [classify(lat, budget=FAST) for lat in blocks]
        if all(not bv.by_theorem for bv in block_v):
            assert v.reason == "explicit witness for every literal direct summand"
            assert v.evidence["block_ranks"] == [lat.rank for lat in blocks]
            for key in ("padding", "target"):
                assert v.evidence[key] == [x for bv in block_v for x in bv.evidence[key]]
            decided += 1
    assert decided


def test_a_theorem_verdict_names_the_block_whose_search_failed():
    """Z- + R over D_7: the block R has a flabby part above the cap with no
    exact witness, so the sum is decided whole by h_7^+ and its evidence
    names that block and the search's reason; no timing is recorded."""
    v = classify(direct_sum(build("Zminus", 7), build("R", 7)), budget=FAST)
    assert v.by_theorem and v.status == "StablyRational"
    assert v.evidence["block_ranks"] == [1, 6] and v.evidence["failed_block"] == 1
    e = flabby_resolution(build("R", 7)).flabby_part
    cap = CLASSIFY_RANK_CAP
    assert v.evidence["search"] == f"flabby part of rank {e.rank} (search cap {cap}): no exact witness"
    assert not any(isinstance(x, float) for x in v.evidence.values())


def test_a_cached_block_still_gets_a_fresh_check(monkeypatch):
    """The second classify of a sum reads both blocks from the cache and
    still checks M's summed sequence."""
    checks = []
    check = rationality.ExtensionSpec.check
    monkeypatch.setattr(rationality.ExtensionSpec, "check", lambda ext: checks.append(ext.sub) or check(ext))
    m = direct_sum(build("X", 5), build("R", 5))
    first = classify(m, budget=FAST)
    hits = _block_route.cache_info().hits
    second = classify(m, budget=FAST)
    assert first == second and not first.by_theorem
    assert _block_route.cache_info().hits == hits + 2
    assert checks[-1] == m and checks.count(m) == 2


def test_the_block_cache_is_bounded_and_keeps_recent_hits():
    """The cache keeps BLOCK_CACHE_SIZE (lattice, budget) pairs, least
    recently used out first."""
    lat = trivial_lattice(cyclic(3))
    budgets = [Budget(seed=k) for k in range(BLOCK_CACHE_SIZE + 3)]
    assert _block_route.cache_info().maxsize == BLOCK_CACHE_SIZE
    for b in budgets[:BLOCK_CACHE_SIZE]:
        _block_route(lat, b)
    _block_route(lat, budgets[0])  # the hit makes budgets[0] the most recent key
    for b in budgets[BLOCK_CACHE_SIZE:]:  # three inserts at capacity evict budgets[1], [2], [3]
        _block_route(lat, b)
        assert _block_route.cache_info().currsize == BLOCK_CACHE_SIZE
    hits, misses = _block_route.cache_info()[:2]
    _block_route(lat, budgets[0])
    assert _block_route.cache_info()[:2] == (hits + 1, misses)
    _block_route(lat, budgets[1])
    assert _block_route.cache_info()[:2] == (hits + 1, misses + 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_flabby_resolutions_catalog(p):
    zeros = [trivial_lattice(dihedral(p), 0), trivial_lattice(cyclic(p), 0)]
    for lat in [build(name, p) for name in LEE_NAMES] + zeros:
        res = flabby_resolution(lat)
        if not lat.rank:
            assert res.summands == () and res.perm.rank == res.flabby_part.rank == 0
        res.seq.check()
        assert is_flabby(res.flabby_part).ok
        assert res.perm.is_permutation
        assert dual(res.perm) == res.perm
        assert res.perm.rank == res.lattice.rank + res.flabby_part.rank


def test_resolution_of_sign_lattice_over_c2():
    # 0 -> Z_- -> Z[C_2] -> Z -> 0, seen through the machinery
    g = dihedral(3)
    zm = sign_lattice(g)
    res = flabby_resolution(zm)
    assert res.flabby_part.rank == res.perm.rank - 1
    # the literal hand computation over the two-element group: the flabby
    # part has the fingerprint of the rank-1 trivial (permutation) lattice
    from glattice.lattices import GLattice

    c2_sign = GLattice(cyclic(2), IntMatrix([[-1]]))
    res2 = flabby_resolution(c2_sign)
    assert res2.perm.rank == 2 and res2.flabby_part.rank == 1
    triv = trivial_lattice(cyclic(2))
    assert fingerprint(res2.flabby_part).differs_from(fingerprint(triv)) is None


def test_stably_permutation_trivial_and_seeded():
    g = dihedral(3)
    sp = stably_permutation(trivial_lattice(g), FAST)
    assert sp and sp.witness.padding_labels == ()
    for nm, pad in (("Y1", ("D_3",)), ("Y0", ("D_1",))):
        sp = stably_permutation(build(nm, 3), FAST)
        assert sp
        assert sp.witness.padding_labels == pad
        sp.witness.iso_map.check()


def test_stably_permutation_requires_flabby():
    sign = sign_lattice(dihedral(3))
    with pytest.raises(LatticeError) as info:
        stably_permutation(sign, FAST)
    assert str(info.value) == (
        f"stably-permutation question is posed for flabby lattices: {is_flabby(sign).failing}"
    )


def test_classify_catalog_p3():
    for name in LEE_NAMES:
        v = classify(build(name, 3), budget=FAST)
        assert v.status == "StablyRational", (name, v)


def test_classify_explicit_beats_theorem():
    # monotone consistency: an explicit witness is never downgraded
    v = classify(build("Y1", 3), budget=FAST)
    assert v.status == "StablyRational" and not v.by_theorem


def test_classify_random_sums_smoke():
    rng = random.Random(42)
    for p in (3, 5):
        for _ in range(3):
            names = rng.sample(LEE_NAMES, 2)
            lat = direct_sum(*(build(nm, p) for nm in names))
            v = classify(lat, budget=FAST)
            assert v.status == "StablyRational", (names, p, v)


def test_classify_cyclic_branch():
    v = classify(trivial_lattice(cyclic(5)), budget=FAST)
    assert v.status == "StablyRational"
    r5 = restrict(build("Nplus", 5), class_by_label(dihedral(5), "C_5"))
    v = classify(r5, budget=FAST)
    assert v.status == "StablyRational"


def test_classify_cyclic_explicit_witness_for_small_inputs():
    from glattice.catalog import _nonsplit_extension

    r3 = restrict(build("Nplus", 3), class_by_label(dihedral(3), "C_3"))
    w = _nonsplit_extension([r3], trivial_lattice(cyclic(3)))
    v = classify(w, budget=FAST)
    assert v.status == "StablyRational" and not v.by_theorem
    assert "padding" in v.evidence


def test_classify_searches_at_the_callers_budget(monkeypatch):
    """classify searches the flabby part E alone, at the caller's budget,
    over the census at p = 3 and 5 and R restricted to C_5."""
    calls = []
    search = rationality.stably_permutation

    def recording(lat, budget):
        calls.append((lat, budget))
        return search(lat, budget)

    monkeypatch.setattr(rationality, "stably_permutation", recording)
    r5 = restrict(build("R", 5), class_by_label(dihedral(5), "C_5"))
    for m in [build(name, p) for p in (3, 5) for name in LEE_NAMES] + [r5]:
        calls.clear()
        classify(m, budget=FAST)
        e = flabby_resolution(m).flabby_part
        assert all(lat == e and budget == FAST for lat, budget in calls), calls
    assert calls  # R restricted to C_5, classified last, is searched


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize("name", ["Y0", "Y1"])
def test_catalog_identities_decide_m_before_any_search(monkeypatch, name, p):
    """T35 pads Y0 by Z[G/<tau>] and T34 pads Y1 by Z: classify reads both
    off M at the default budget, before the resolution and with no iso."""
    _refuse_iso(monkeypatch)
    v = classify(build(name, p))
    assert v.reason == "character lattice is stably permutation by explicit witness"
    assert v.evidence["padding"] == (["D_1"] if name == "Y0" else [f"D_{p}"])
    assert v.status == "StablyRational" and not v.by_theorem


def test_every_explicit_verdict_is_a_checked_sequence():
    """Permutation lattices included, every explicit verdict over the census
    singletons and pair sums at p = 3 and 5 and the census restricted to C_5
    carries the padding, target and total rank of its checked sequence."""
    inputs = [build(name, p) for p in (3, 5) for name in LEE_NAMES]
    inputs += [direct_sum(build(a, p), build(b, p)) for p in (3, 5) for a, b in itertools.combinations(LEE_NAMES, 2)]
    c5 = class_by_label(dihedral(5), "C_5")
    inputs += [restrict(build(name, 5), c5) for name in LEE_NAMES]
    explicit = 0
    for m in inputs:
        v = classify(m, budget=FAST)
        if v.status == "StablyRational" and not v.by_theorem:
            explicit += 1
            assert {"padding", "target", "sequence_total_rank"} <= set(v.evidence), v
            assert "orbit_types" not in v.evidence, v
    assert explicit >= 107  # of 120; the rest are decided by h_p^+


def test_permutation_resolutions_have_stably_permutation_parts():
    wide = Budget(box_radius=3, draws=20000, padding_rank_factor=3, sp_attempts=150)
    for p in (3, 5):
        for nm in ("ZGmodTau", "ZH"):
            res = flabby_resolution(build(nm, p))
            sp = stably_permutation(res.flabby_part, wide)
            assert sp, (nm, p, sp.detail)
            sp.witness.iso_map.check()


def test_classify_c23_obstruction():
    from glattice.cyclotomic import ideal_cyclic_lattice
    from steinitz_oracle import factor_cyclotomic_mod, prime_ideal_above

    b = prime_ideal_above(23, 2, factor_cyclotomic_mod(23, 2)[0])
    lat = ideal_cyclic_lattice(b)
    v = classify(
        lat, budget=FAST, annotations={"non_principal_ideal": b, "assertion_source": "test"}
    )
    assert v.status == "NotStablyRational"
    # without the assertion the verdict must stay honest
    v2 = classify(lat, budget=FAST)
    assert v2.status == "Unknown"


def _stress_inputs():
    """Seeded duals, norm kernels and mixed sums of census lattices at p = 3, 5."""
    rng = random.Random(99)
    out = []
    for p in (3, 5):
        pool = [build(nm, p) for nm in LEE_NAMES]
        for _ in range(8):
            parts = rng.sample(pool, rng.choice([1, 2]))
            lat = direct_sum(*parts)
            choice = rng.random()
            if choice < 0.3:
                lat = dual(lat)
            elif choice < 0.6:
                lat = quotient_with_maps(lat, right_kernel_basis(lat.full_norm_matrix())).sub_lattice
            if lat.rank:
                out.append(lat)
    return out


def test_flabby_resolution_stress_random_inputs():
    # duals, norm kernels, and mixed sums all must resolve with verified
    # exactness and a flabby cokernel
    for lat in _stress_inputs():
        res = flabby_resolution(lat)
        res.seq.check()
        assert is_flabby(res.flabby_part).ok
        assert res.perm.is_permutation
        assert dual(res.perm) == res.perm


def _covers(res, keep) -> bool:
    """Whether the summands numbered in `keep` map Q'^S onto (M*)^S for
    every class S, read from the resolution's own inclusion M -> Q, whose
    row j is the image in M* of the j-th basis vector of Q."""
    m = res.lattice
    g = m.group
    mdual = dual(m)
    by_label = {c.label: c for c in subgroup_classes(g)}
    parts = [perm_lattice(g, by_label[label]) for label in res.summands]
    starts = [0]
    for part in parts:
        starts.append(starts[-1] + part.rank)
    rows = res.seq.inclusion.matrix.data
    for cls in subgroup_classes(g):
        target = row_space_hnf(fixed_sublattice(mdual, cls))
        if target.rows == 0:
            continue
        images = []
        for i in keep:
            block = IntMatrix(rows[starts[i] : starts[i + 1]], cols=m.rank)
            images.extend(block.vecmat(r) for r in fixed_sublattice(parts[i], cls).data)
        if not images or row_space_hnf(IntMatrix(images, cols=m.rank)) != target:
            return False
    return True


def test_flabby_resolution_is_exact_flabby_and_minimal():
    """Every cover is onto on each (M*)^S and loses that when any one summand
    is dropped; its flabby part is never larger than the all-at-once one."""
    lats = [build(name, p) for p in (3, 5, 7) for name in LEE_NAMES] + _stress_inputs()
    lats += [restrict(build(name, p), class_by_label(dihedral(p), f"C_{p}"))
             for p in (3, 5) for name in LEE_NAMES]
    for lat in lats:
        res = flabby_resolution(lat)
        res.seq.check()
        assert is_flabby(res.flabby_part).ok
        by_label = {c.label: c for c in subgroup_classes(lat.group)}
        assert res.perm == direct_sum(*(perm_lattice(lat.group, by_label[x]) for x in res.summands))
        everything = range(len(res.summands))
        assert _covers(res, everything), lat
        for i in everything:
            assert not _covers(res, [j for j in everything if j != i]), (lat, res.summands, i)
        assert res.flabby_part.rank <= oracle_flabby_rank(lat), (lat, res.summands)


@pytest.mark.parametrize("name,p", [("R", 5), ("P", 5), ("R", 7), ("P", 7)])
def test_classify_restricted_census_explicitly(name, p):
    # these spent minutes in failed searches on a rank-16 to rank-36 flabby
    # part before falling back to the theorem; Z[C_p] alone covers them now
    lat = restrict(build(name, p), class_by_label(dihedral(p), f"C_{p}"))
    v = classify(lat, budget=FAST)
    assert v.status == "StablyRational" and not v.by_theorem, v
    assert v.evidence["resolution_summands"] == ["1"]


def test_flabby_class_additivity_fingerprints():
    # [E_{A+B}] = [E_A] + [E_B]: the flabby invariants agree outright, and the
    # permutation-sensitive fields match after small permutation paddings
    g = dihedral(3)
    rng = random.Random(7)
    pieces = ["Z", "Zminus", "ZH", "R", "P", "V"]
    from glattice.rationality import _perm_multisets, perm_from_decomposition

    for _ in range(3):
        na, nb = rng.sample(pieces, 2)
        a, b = build(na, 3), build(nb, 3)
        ea = flabby_resolution(a).flabby_part
        eb = flabby_resolution(b).flabby_part
        eab = flabby_resolution(direct_sum(a, b)).flabby_part
        sum_e = direct_sum(ea, eb) if ea.rank and eb.rank else (ea if ea.rank else eb)
        fp_ab = fingerprint(eab)
        fp_sum = fingerprint(sum_e)
        # H^-1 and H^1 ignore permutation summands entirely
        for (la, _, ma, _, oa), (lb, _, mb, _, ob) in zip(fp_ab.entries, fp_sum.entries):
            assert ma == mb, (na, nb, la)
            if oa is not None and ob is not None:
                assert oa == ob
        # pad the smaller side into fingerprint agreement
        found = False
        for labels1, r1 in _perm_multisets(g, 12):
            for labels2, r2 in _perm_multisets(g, 12):
                if eab.rank + r1 != sum_e.rank + r2:
                    continue
                left = direct_sum(eab, perm_from_decomposition(g, list(labels1))) if labels1 else eab
                right = (
                    direct_sum(sum_e, perm_from_decomposition(g, list(labels2)))
                    if labels2
                    else sum_e
                )
                if fingerprint(left).differs_from(fingerprint(right)) is None:
                    found = True
                    break
            if found:
                break
        assert found, (na, nb)


def _census_over(g):
    """The census lattices at p, over D_p or restricted to C_p."""
    lats = [build(name, g.n) for name in LEE_NAMES]
    if g.is_dihedral:
        return lats
    return [restrict(m, class_by_label(dihedral(g.n), f"C_{g.n}")) for m in lats]


@pytest.mark.parametrize("g", [dihedral(3), dihedral(5), dihedral(7), cyclic(5), cyclic(7)],
                         ids=str)
def test_summed_fingerprint_equals_the_direct_one(g):
    """Fixed rank and Tate cohomology commute with direct sums, so the gate of
    `stably_permutation` may add fingerprints instead of computing them on
    M + P: each census lattice plus every pair of Z[G/S] parts."""
    parts = [perm_lattice(g, c) for c in subgroup_classes(g)]
    pairs = [(a, b) for i, a in enumerate(parts) for b in parts[i:]]
    for m in _census_over(g):
        fp_m = fingerprint(m)
        for a, b in pairs:
            summed = fp_m + fingerprint(a) + fingerprint(b)
            assert summed == fingerprint(direct_sum(m, a, b)), (g, m, a, b)


def test_flabby_resolutions_build_each_part_once(monkeypatch):
    """Z[G/S] and its fixed rows depend on the group alone: two resolutions
    over one group build each part once."""
    built = []

    def counting(g, s):
        built.append((g, s.label))
        return perm_lattice(g, s)

    monkeypatch.setattr(rationality, "perm_lattice", counting)
    _perm_part.cache_clear()
    res = [flabby_resolution(build(name, 5)) for name in ("Y0", "Y2")]
    assert all(res[i].summands for i in range(2))
    assert built and len(built) == len(set(built))
    assert {label for _, label in built} >= set(res[0].summands) | set(res[1].summands)
    _perm_part.cache_clear()


def test_the_fingerprint_cache_is_bounded_and_keeps_recent_hits(monkeypatch):
    cache = {}
    monkeypatch.setattr(rationality, "_fingerprint_cache", cache)
    monkeypatch.setattr(rationality, "FINGERPRINT_CACHE_SIZE", 4)
    lats = [trivial_lattice(cyclic(3), rank) for rank in range(1, 8)]
    for lat in lats[:4]:
        fingerprint(lat)
    hit = fingerprint(lats[0])  # the hit makes lats[0] the most recent key
    for lat in lats[4:]:  # three inserts at capacity evict lats[1], lats[2], lats[3]
        fingerprint(lat)
        assert len(cache) == 4
    assert list(cache) == [lat.key() for lat in (lats[0], *lats[4:])]
    assert cache[lats[0].key()] is hit


def test_the_part_cache_is_bounded():
    _perm_part.cache_clear()
    assert _perm_part.cache_info().maxsize == PERM_PART_CACHE_SIZE
    for n in range(1, 31):  # 111 (group, class) pairs
        for c in subgroup_classes(cyclic(n)):
            _perm_part(cyclic(n), c.label)
    assert _perm_part.cache_info().currsize == PERM_PART_CACHE_SIZE
    _perm_part.cache_clear()


def _unimodular(n, rng):
    """A seeded product of elementary row operations."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            c = rng.choice((-1, 1))
            rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def _iso_oracle_cases():
    rng = random.Random(11)
    cases = []  # (a, b, budget)
    for p in (3, 5):
        for name in LEE_NAMES:
            m = build(name, p)
            t = _unimodular(m.rank, rng)
            tinv = inverse_unimodular(t)
            moved = GLattice(m.group, t * m.sigma * tinv, t * m.tau * tinv)
            cases.append((m, moved, Budget(box_radius=2, draws=500)))
            if p == 3:  # the box paths: an empty box, and a 3-candidate cap
                cases.append((m, moved, Budget(box_radius=0)))
                cases.append((m, moved, Budget(box_radius=1, draws=3)))
        for na, nb in zip(LEE_NAMES, LEE_NAMES[1:]):
            cases.append((build(na, p), build(nb, p), FAST))
    g = dihedral(3)
    for _ in range(6):
        na, nb = rng.sample(LEE_NAMES, 2)
        a, b = build(na, 3), build(nb, 3)
        cases.append((direct_sum(a, b), direct_sum(b, a), Budget(box_radius=2, draws=500)))
    # a failed search of 3,000 draws: Z + Y0 + Z[G/D_1] against
    # Z[G/D_3]^2 + Z[G], the first attempt of classify on Z + Y0 over D_3
    padded = direct_sum(build("Z", 3), build("Y0", 3), perm_lattice(g, class_by_label(g, "D_1")))
    target = perm_from_decomposition(g, ["D_3", "D_3", "1"])
    cases.append((padded, target, Budget(box_radius=2, draws=3000)))
    return cases


def test_box_shells_follow_the_stable_sort_of_the_box():
    """iso's box comes one l1 shell at a time, in the order of the stable
    sort of `itertools.product` by l1 norm."""
    for d in range(1, 5):
        for radius in range(4):
            box = itertools.product(range(-radius, radius + 1), repeat=d)
            assert list(_box_by_l1(d, radius)) == sorted(box, key=lambda c: sum(map(abs, c)))


def test_iso_matches_the_unscreened_oracle():
    """The mod-2 screen drops only candidates _verify_iso would refuse."""
    outcomes = []
    for a, b, budget in _iso_oracle_cases():
        got, want = iso(a, b, budget), iso_oracle(a, b, budget)
        assert (got.outcome, got.detail) == (want.outcome, want.detail)
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert got.witness.matrix == want.witness.matrix
        outcomes.append(got.outcome if got.outcome != "unknown" else got.detail)
    assert outcomes.count("iso") >= 20
    assert "3000 draws exhausted, dim 14" in outcomes
    assert "box 0 exhausted, dim 2" in outcomes
    assert "box cap 3 hit, dim 2" in outcomes


@st.composite
def _basis_and_coefficients(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 3))
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    basis = [IntMatrix(draw(square)) for _ in range(k)]
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=k, max_size=k))
    return basis, coeffs


@settings(max_examples=300, deadline=None)
@given(_basis_and_coefficients())
def test_mod2_screen_never_rejects_an_odd_det(case):
    basis, coeffs = case
    combo = combine(basis, coeffs)
    cand = _candidate_maker(basis)(coeffs)
    if det(combo) % 2:
        assert cand == combo
    else:
        assert cand is None
