"""Flabby resolutions, isomorphism search, and rationality verdicts.

The verdict engine mirrors the decision structure for D_p and C_p tori:
take a witness for the lattice, or for each of its literal direct summands,
that needs no search (a permutation lattice's orbit map or a catalog
identity), else build a minimal flabby resolution and try to certify its
flabby part stably permutation by an explicit unimodular intertwiner, and
otherwise fall back to class-number facts from the table, or to the
Steinitz obstruction over C_p.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import NamedTuple

from .exactla import (
    IntMatrix,
    block_diag,
    det,
    hnf,
    inverse_unimodular,
    right_kernel_basis,
    row_space_hnf,
    smith_with_vinv,
    solve_with_hnf,
)
from .groups import GroupElement, class_by_label, subgroup_classes
from .lattices import (
    ExtensionSpec,
    GLattice,
    LatticeError,
    LatticeMap,
    cosets,
    direct_sum,
    dual,
    fixed_sublattice,
    is_cyclic,
    perm_lattice,
    quotient_with_maps,
    trivial_lattice,
)
from .cohomology import h1, tate_h0, tate_hminus1
from .catalog import build, witness
from .cyclotomic import ideal_cyclic_lattice, is_prime
from .steinitz import ClassTable, default_class_table, steinitz_class


@dataclass(frozen=True)
class Budget:
    box_radius: int = 3
    draws: int = 100_000
    padding_rank_factor: int = 4  # padding rank up to this times rank(M)
    seed: int = 0
    sp_attempts: int = 200  # iso attempts inside the padding enumeration

    def __post_init__(self):
        for name, least in (
            ("box_radius", 0),
            ("draws", 1),
            ("padding_rank_factor", 0),
            ("sp_attempts", 0),
        ):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"budget field {name!r} must be at least {least}, got {value}")


DEFAULT_BUDGET = Budget()
CLASSIFY_RANK_CAP = 6  # explicit search cap on the rank searched inside classify
PERM_PART_CACHE_SIZE = 64  # (group, class) pairs whose Z[G/S] `_perm_part` keeps
BLOCK_CACHE_SIZE = 256  # (lattice, budget) pairs whose explicit route `_block_route` keeps
FINGERPRINT_CACHE_SIZE = 1024  # lattices whose fingerprint `fingerprint` keeps, least recent out first


# --- fingerprints -------------------------------------------------------------


@dataclass(frozen=True)
class Fingerprint:
    rank: int
    entries: tuple  # per class: (label, fixed_rank, hminus1, h0, h1)

    def differs_from(self, other: "Fingerprint") -> str | None:
        if self.rank != other.rank:
            return "rank"
        for (la, fa, ma, za, oa), (lb, fb, mb, zb, ob) in zip(self.entries, other.entries):
            if la != lb:
                return "class labels"
            if fa != fb:
                return f"fixed_rank at {la}"
            if ma != mb:
                return f"hminus1 at {la}"
            if za != zb:
                return f"h0 at {la}"
            if oa != ob:
                return f"h1 at {la}"
        return None

    def __add__(self, other: "Fingerprint") -> "Fingerprint":
        """The fingerprint of the direct sum: fixed rank and Tate cohomology
        commute with finite direct sums, so every entry adds."""
        entries = []
        for (la, fa, ma, za, oa), (lb, fb, mb, zb, ob) in zip(self.entries, other.entries):
            if la != lb:
                raise LatticeError("fingerprints over different groups")
            entries.append((la, fa + fb, ma + mb, za + zb, oa + ob))
        return Fingerprint(rank=self.rank + other.rank, entries=tuple(entries))


_fingerprint_cache: dict = {}  # insertion order is recency order


def fingerprint(m: GLattice) -> Fingerprint:
    key = m.key()
    cached = _fingerprint_cache.pop(key, None)
    if cached is not None:
        _fingerprint_cache[key] = cached
        return cached
    entries = []
    for cls in subgroup_classes(m.group):
        norm = m.norm_matrix(cls)
        # N_S / |S| projects M (x) Q onto the fixed space: rank M^S = trace(N_S) / |S|
        fixed_rank = sum(norm.data[i][i] for i in range(m.rank)) // cls.order
        hm1 = tate_hminus1(m, cls)
        h1v = hm1 if is_cyclic(cls) else h1(m, cls)
        entries.append((cls.label, fixed_rank, hm1, tate_h0(m, cls, norm), h1v))
    fp = Fingerprint(rank=m.rank, entries=tuple(entries))
    if len(_fingerprint_cache) >= FINGERPRINT_CACHE_SIZE:
        del _fingerprint_cache[next(iter(_fingerprint_cache))]
    _fingerprint_cache[key] = fp
    return fp


def _flabby_failures(fp: Fingerprint) -> tuple:
    """(label, H^-1) for each class S with H^-1(S, M) != 0; empty when M is flabby."""
    return tuple((label, hm1) for label, _, hm1, _, _ in fp.entries if not hm1.is_trivial)


# --- isomorphism search -------------------------------------------------------


@dataclass(frozen=True)
class IsoResult:
    outcome: str  # "iso" | "noniso" | "unknown"
    witness: LatticeMap | None = None
    detail: str = ""

    def __bool__(self):
        return self.outcome == "iso"


def hom_space_basis(a: GLattice, b: GLattice) -> list[IntMatrix]:
    """Z-basis of the equivariant Hom(a, b) inside b.rank x a.rank matrices."""
    ra, rb = a.rank, b.rank
    n_vars = ra * rb
    rows = []
    for rho_a, rho_b in zip(a.gens, b.gens):
        # X rho_a - rho_b X = 0, unknowns X[i][j] flattened as i * ra + j
        for i in range(rb):
            for j in range(ra):
                row = [0] * n_vars
                for k in range(ra):
                    row[i * ra + k] += rho_a[k, j]
                for k in range(rb):
                    row[k * ra + j] -= rho_b[i, k]
                rows.append(row)
    constraint = IntMatrix(rows, cols=n_vars)
    kernel = right_kernel_basis(constraint)
    out = []
    for vec in kernel.data:
        out.append(IntMatrix([[vec[i * ra + j] for j in range(ra)] for i in range(rb)]))
    return out


def _verify_iso(a: GLattice, b: GLattice, matrix: IntMatrix) -> bool:
    if matrix.rows != b.rank or matrix.cols != a.rank or a.rank != b.rank:
        return False
    if det(matrix) not in (1, -1):
        return False
    return all(matrix * x == y * matrix for x, y in zip(a.gens, b.gens))


def iso(a: GLattice, b: GLattice, budget: Budget = DEFAULT_BUDGET) -> IsoResult:
    """Three-valued equivariant-isomorphism search with verified output."""
    if a.group != b.group:
        raise LatticeError("iso needs lattices over one group")
    if a.rank != b.rank:
        return IsoResult("noniso", detail="rank")
    if a == b:
        ident = IntMatrix.identity(a.rank)
        return IsoResult("iso", LatticeMap(a, b, ident))
    diff = fingerprint(a).differs_from(fingerprint(b))
    if diff is not None:
        return IsoResult("noniso", detail=diff)
    basis = hom_space_basis(a, b)
    if not basis:
        return IsoResult("noniso", detail="empty hom space")
    d = len(basis)
    candidate = _candidate_maker(basis)
    radius = budget.box_radius
    cap = budget.draws
    if (box_size := (2 * radius + 1) ** d) <= cap * 4:
        # the box, smallest coefficients first, capped by the draw budget
        coords = itertools.islice(_box_by_l1(d, radius), 1, cap + 1)  # skip the zero vector
        failure = f"box cap {cap} hit" if box_size - 1 > cap else f"box {radius} exhausted"
    else:
        rng = random.Random(budget.seed)
        coords = ([rng.randint(-radius, radius) for _ in range(d)] for _ in range(cap))
        failure = f"{budget.draws} draws exhausted"
    for c in coords:
        if any(c) and (cand := candidate(c)) is not None and _verify_iso(a, b, cand):
            return IsoResult("iso", LatticeMap(a, b, cand))
    return IsoResult("unknown", detail=f"{failure}, dim {d}")


def _box_by_l1(d: int, radius: int):
    """The points of [-radius, radius]^d one l1 shell at a time, each shell in
    `itertools.product` order: the stable sort of the box by l1 norm."""
    for total in range(d * radius + 1):
        yield from _l1_shell(d, radius, total)


def _l1_shell(d: int, radius: int, total: int):
    """The points of the box with l1 norm `total`, in `itertools.product`
    order; d >= 1 and total <= d * radius."""
    if d == 1:
        yield (-total,)
        if total:
            yield (total,)
        return
    for v in range(-radius, radius + 1):
        if 0 <= total - abs(v) <= radius * (d - 1):
            for rest in _l1_shell(d - 1, radius, total - abs(v)):
                yield (v, *rest)


def _candidate_maker(basis: list[IntMatrix]):
    """Coefficients -> the Hom-basis combination, or None when it cannot be
    unimodular.

    A unimodular matrix has odd det, so its reduction mod 2 has full rank.
    Each basis matrix mod 2 is packed row-major into one int, so the
    reduction of a combination is the XOR of its odd-coefficient members.
    Only the combinations that pass are formed over the integers.
    """
    rows, cols = basis[0].rows, basis[0].cols
    flat = [tuple(itertools.chain.from_iterable(mat.data)) for mat in basis]
    packed = [sum(1 << k for k, x in enumerate(f) if x & 1) for f in flat]
    entries = list(zip(*flat))

    def make(coeffs) -> IntMatrix | None:
        bits = 0
        for c, mask in zip(coeffs, packed):
            if c & 1:
                bits ^= mask
        if not _full_rank_mod2(bits, rows, cols):
            return None
        values = [sum(map(mul, coeffs, e)) for e in entries]
        return IntMatrix([values[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)

    return make


def _full_rank_mod2(bits: int, rows: int, cols: int) -> bool:
    """Whether the rows x cols GF(2) matrix packed row-major into bits has rank rows."""
    width = (1 << cols) - 1
    pivots: dict[int, int] = {}  # leading bit -> reduced row
    for i in range(rows):
        v = (bits >> (i * cols)) & width
        while v:
            top = v.bit_length()
            if top not in pivots:
                pivots[top] = v
                break
            v ^= pivots[top]
        else:
            return False
    return True


# --- permutation-lattice structure -------------------------------------------


def permutation_decomposition(m: GLattice) -> tuple[list[str], IntMatrix] | None:
    """(labels, W) when m is literally permutation: the sorted coset types of
    its basis orbits, and the permutation matrix W from m onto
    `perm_from_decomposition(g, labels)`.  An orbit's stabilizers are the
    conjugates of one class representative S, so some orbit vector e is fixed
    by exactly S, and x S -> rho(x) e maps Z[G/S] onto the orbit.
    """
    if not m.is_permutation:
        return None
    g = m.group
    # acts[a][k] is the index of the basis vector rho(a) sends e_k to.  A
    # generator sends e_k to the row holding the 1 of its column k, and
    # rho(sigma^r tau) applies tau first.
    sigma, *tau = ({row.index(1): i for i, row in enumerate(x.data)} for x in m.gens)
    power = list(range(m.rank))
    acts = {}
    for r in range(g.n):
        acts[GroupElement(r, 0)] = power
        for t in tau:
            acts[GroupElement(r, 1)] = [power[t[k]] for k in range(m.rank)]
        power = [sigma[k] for k in power]
    by_representative = {c.representative: c.label for c in subgroup_classes(g)}
    orbits = []
    seen = set()
    for k in range(m.rank):
        if k in seen:
            continue
        stabilizer = tuple(sorted(a for a, act in acts.items() if act[k] == k))
        if (label := by_representative.get(stabilizer)) is None:
            continue
        orbit = [acts[x][k] for x in _perm_part(g, label).coset_reps]
        seen.update(orbit)
        orbits.append((label, orbit))
    orbits.sort()
    return [label for label, _ in orbits], _permutation_matrix([k for _, orbit in orbits for k in orbit], m.rank)


def _permutation_matrix(order: list[int], rank: int) -> IntMatrix:
    """The matrix whose row i is the basis vector e_{order[i]}."""
    return IntMatrix([[int(j == k) for j in range(rank)] for k in order], cols=rank)


class _PermPart(NamedTuple):
    lattice: GLattice  # Z[G/S] on the coset basis
    coset_reps: tuple  # the first element of each coset, in basis order
    fixed: MappingProxyType  # class label -> saturated basis of the lattice's fixed rows


@lru_cache(maxsize=PERM_PART_CACHE_SIZE)
def _perm_part(g, label: str) -> _PermPart:
    """Z[G/S] for the class S labelled `label`, with the data the search
    reads from it; all of it depends on the group alone."""
    cls = class_by_label(g, label)
    part = perm_lattice(g, cls)
    fixed = {c.label: fixed_sublattice(part, c) for c in subgroup_classes(g)}
    # every caller shares the cached value, so it is read-only
    return _PermPart(part, tuple(c[0] for c in cosets(g, cls)), MappingProxyType(fixed))


def perm_from_decomposition(g, labels: list[str]) -> GLattice:
    parts = [_perm_part(g, lab).lattice for lab in labels]
    return direct_sum(*parts) if parts else trivial_lattice(g, 0)


# --- flabby resolutions -------------------------------------------------------


@dataclass(frozen=True)
class FlabbyResolution:
    lattice: GLattice
    perm: GLattice
    flabby_part: GLattice
    seq: ExtensionSpec
    summands: tuple  # subgroup-class labels of the permutation cover


def _missing_generator(fixed: IntMatrix, coords: list) -> tuple | None:
    """A vector of (M*)^S outside the image, or None when the image spans it.

    `fixed` is a basis of (M*)^S and `coords` are the image rows in that
    basis.  With U C V = D the SNF of the coordinates, the image is spanned
    by d_i times row i of V^-1, so the first row with d_i != 1 is missing.
    """
    diag, vinv = smith_with_vinv(IntMatrix(coords, cols=fixed.rows))
    missing = [i for i in range(fixed.rows) if i >= len(diag) or diag[i] != 1]
    return fixed.vecmat(vinv.data[missing[0]]) if missing else None


def flabby_resolution(m: GLattice) -> FlabbyResolution:
    """0 -> M -> Q -> E -> 0 with Q permutation and E flabby.

    Built by covering the dual (Colliot-Thelene-Sansuc): Q is a sum of
    Z[G/S_i] sending the coset S_i to a vector of (M*)^{S_i}, and the dual
    of Q -> M* has a flabby cokernel once Q^S -> (M*)^S is onto for every
    class S.  The cover is kept minimal, as in the low-rank step of
    Hoshi-Yamasaki: a greedy pass over the classes, largest subgroups
    first, adds one summand at a time for a vector the image still misses,
    and a drop pass then removes each summand the others can do without.
    """
    g = m.group
    mdual = dual(m)
    classes = sorted(subgroup_classes(g), key=lambda c: -c.order)
    fixed = {c.label: fixed_sublattice(mdual, c) for c in classes}
    fixed_hnf = {label: hnf(f) for label, f in fixed.items()}

    def summand(cls, vec):
        """(label, translates, S-fixed image coordinates per class S)."""
        part = _perm_part(g, cls.label)
        # the coset basis of Z[G/S] maps to rho(x_i) . vec
        translates = IntMatrix([mdual.rho(x).matvec(vec) for x in part.coset_reps])
        images = {}
        for c in classes:
            rows = [translates.vecmat(r) for r in part.fixed[c.label].data]
            images[c.label] = [solve_with_hnf(fixed_hnf[c.label], row) for row in rows]
            if None in images[c.label]:
                raise LatticeError("fixed image escaped the fixed sublattice")
        return cls.label, translates, images

    def gap(cls, cover):
        coords = [row for *_, images in cover for row in images[cls.label]]
        return _missing_generator(fixed[cls.label], coords)

    cover = []
    for cls in classes:
        while (vec := gap(cls, cover)) is not None:
            cover.append(summand(cls, vec))
    for item in list(cover):
        rest = [other for other in cover if other is not item]
        if all(gap(cls, rest) is None for cls in classes):
            cover = rest
    q = direct_sum(*(_perm_part(g, label).lattice for label, _, _ in cover)) if cover else m
    # M -> Q is the transpose of Q -> M*, since Q is its own dual (a
    # permutation matrix's inverse is its transpose); the trivial class
    # being covered makes Q -> M* onto
    inclusion = IntMatrix.from_rows(
        [row for _, translates, _ in cover for row in translates.data], cols=m.rank
    )
    quo = quotient_with_maps(q, row_space_hnf(inclusion.transpose()))
    flabby_part = quo.lattice
    seq = ExtensionSpec(
        sub=m,
        total=q,
        quotient=flabby_part,
        inclusion=LatticeMap(m, q, inclusion),
        projection=LatticeMap(q, flabby_part, quo.projection),
    )
    seq.check()
    # the fingerprint holds every H^-1, and a search on E reads it from the cache
    if failing := _flabby_failures(fingerprint(flabby_part)):
        raise LatticeError(f"flabby part failed the flabbiness test: {failing}")
    return FlabbyResolution(
        lattice=m,
        perm=q,
        flabby_part=flabby_part,
        seq=seq,
        summands=tuple(label for label, *_ in cover),
    )


# --- stably permutation search ------------------------------------------------


@dataclass(frozen=True)
class StablyPermutationWitness:
    padding: GLattice  # P1
    iso_map: LatticeMap  # m + P1 -> P2, a permutation lattice
    padding_labels: tuple
    target_labels: tuple


@dataclass(frozen=True)
class StablyPermutationResult:
    outcome: str  # "witness" | "unknown"
    witness: StablyPermutationWitness | None = None
    detail: str = ""

    def __bool__(self):
        return self.outcome == "witness"


def _perm_multisets(g, max_rank: int):
    """Multisets of coset types with total rank <= max_rank, smallest first."""
    classes = subgroup_classes(g)
    sizes = sorted((g.order // c.order, c.label) for c in classes)

    def rec(idx, total):
        if idx == len(sizes):
            yield ((), total)
            return
        size, lab = sizes[idx]
        count = 0
        prefix = ()
        while total + count * size <= max_rank:
            for rest, t in rec(idx + 1, total + count * size):
                yield (prefix + rest, t)
            count += 1
            prefix = prefix + (lab,)

    return sorted(rec(0, 0), key=lambda item: (item[1], item[0]))


def _witness_seeds(m: GLattice):
    """Catalog identities that pad m to a permutation lattice, if m matches."""
    g = m.group
    n = g.n
    # n + 1 is the rank of both MplusTilde and MminusTilde
    if not g.is_dihedral or n % 2 == 0 or n < 3 or m.rank != n + 1:
        return []
    seeds = []
    if m == build("MplusTilde", n):
        w = witness("T34", n)
        seeds.append(((f"D_{n}",), w))  # pad by Z = Z[G/G]
    if m == build("MminusTilde", n):
        w = witness("T35", n)
        seeds.append((("D_1",), w))  # pad by Z[G/<tau>]
    return seeds


def _found(iso_map: LatticeMap, padding: GLattice, pad_labels, target_labels) -> StablyPermutationResult:
    w = StablyPermutationWitness(padding, iso_map, tuple(pad_labels), tuple(target_labels))
    return StablyPermutationResult("witness", w)


def _exact_witness(m: GLattice) -> StablyPermutationResult:
    """A witness that needs no search, at any rank: the orbit map of a
    literal permutation lattice (empty padding), or a catalog identity."""
    g = m.group
    if (decomposition := permutation_decomposition(m)) is not None:
        labels, w = decomposition
        target = perm_from_decomposition(g, labels)
        if not _verify_iso(m, target, w):
            raise LatticeError("the orbit map of a permutation lattice is not an isomorphism")
        return _found(LatticeMap(m, target, w), trivial_lattice(g, 0), (), labels)
    # catalog-seeded identities, each intertwiner checked against M + P1
    for pad_labels, wit in _witness_seeds(m):
        padding = perm_from_decomposition(g, pad_labels)
        padded = direct_sum(m, padding)
        if padded == wit.lhs and _verify_iso(padded, wit.rhs, wit.intertwiner):
            iso_map = LatticeMap(padded, wit.rhs, wit.intertwiner)
            return _found(iso_map, padding, pad_labels, permutation_decomposition(wit.rhs)[0])
    return StablyPermutationResult("unknown", detail="no exact witness")


def stably_permutation(m: GLattice, budget: Budget = DEFAULT_BUDGET) -> StablyPermutationResult:
    """Search for P1, P2 permutation with m + P1 isomorphic to P2.

    The question is posed for flabby lattices: an m with H^-1(S, m) != 0 for
    some class S raises LatticeError.  Those groups are read off the
    fingerprint of m, which the padding gate below needs anyway.
    """
    m_fp = fingerprint(m)
    if failing := _flabby_failures(m_fp):
        raise LatticeError(f"stably-permutation question is posed for flabby lattices: {failing}")
    if exact := _exact_witness(m):
        return exact
    g = m.group
    # generic bounded enumeration: a cheap fingerprint gate first, a capped
    # number of real searches after.  The gate sums the fingerprints of M and
    # of the parts, so only a pair that passes it has its lattices built.
    # Its H^1 entries never reject a pair over C_n or odd D_n: H^1 of a
    # permutation lattice is 0 (Shapiro), and a flabby m is coflabby there.
    max_pad = budget.padding_rank_factor * m.rank
    multisets = _perm_multisets(g, m.rank + max_pad)
    targets: dict[int, list] = {}
    for target_labels, t_rank in multisets:
        targets.setdefault(t_rank, []).append(target_labels)
    part_fp = {c.label: fingerprint(_perm_part(g, c.label).lattice) for c in subgroup_classes(g)}
    target_fp: dict[tuple, Fingerprint] = {}
    attempts = 0
    for pad_labels, pad_rank in multisets:
        total_rank = m.rank + pad_rank
        if pad_rank > max_pad:
            break
        padded_fp = sum((part_fp[lab] for lab in pad_labels), m_fp)
        for target_labels in targets.get(total_rank, ()):
            if target_labels not in target_fp:
                first, *rest = target_labels
                target_fp[target_labels] = sum((part_fp[lab] for lab in rest), part_fp[first])
            if padded_fp.differs_from(target_fp[target_labels]):
                continue
            attempts += 1
            if attempts > budget.sp_attempts:
                return StablyPermutationResult(
                    "unknown", detail=f"attempt cap {budget.sp_attempts} hit"
                )
            padding = perm_from_decomposition(g, pad_labels)
            target = perm_from_decomposition(g, list(target_labels))
            res = iso(direct_sum(m, padding), target, budget)
            if res:
                return _found(res.witness, padding, pad_labels, target_labels)
    return StablyPermutationResult("unknown", detail="padding budget exhausted")


# --- verdicts ------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    status: str  # StablyRational | RetractRationalOnly | NotStablyRational | Unknown
    by_theorem: bool
    reason: str
    evidence: dict = field(default_factory=dict)


STATUS_EXIT = {
    "StablyRational": 0,
    "RetractRationalOnly": 1,
    "NotStablyRational": 2,
    "Unknown": 3,
}


def classify(
    m: GLattice,
    table: ClassTable | None = None,
    budget: Budget = DEFAULT_BUDGET,
    annotations: dict | None = None,
) -> Verdict:
    """Rationality status of the torus with character lattice m.

    M is first split into its literal blocks (`literal_blocks`).  When it
    has more than one, each block takes the explicit route below, memoised
    for at most `BLOCK_CACHE_SIZE` (lattice, budget) pairs; if every block
    gets a witness, the direct sum of their sequences, with M's basis put
    in block order, is M's sequence, checked afresh on every call.  A
    one-block M, or one with a block that gets no witness, takes the route
    whole.

    The explicit route: a witness for M that needs no search (the orbit
    map of a literal permutation lattice, or a T34/T35 catalog identity);
    else an explicit stably-permutation witness for the flabby part E of
    0 -> M -> Q -> E -> 0 (searched at `budget` up to `CLASSIFY_RANK_CAP`,
    above it only one that needs no search).  Without a witness come
    theorems, per group: the class number h_p^+ of the table over D_p, and
    over C_p an asserted non-principal ideal, the Steinitz class and h_p;
    after a failed block split their evidence names the first block without
    a witness and why its search failed.  Every explicit verdict is a
    sequence 0 -> M -> X -> Y -> 0 with X and Y permutation, checked by
    `_sequence_verdict`; no theorem verdicts of blocks are combined.

    E alone is searched: C_p and D_p have cyclic Sylow subgroups, so a
    flabby M is invertible, hence coflabby (Endo-Miyata;
    Colliot-Thelene-Sansuc), Ext^1(E, M) = 0 and M + E = Q, so a witness for
    M would prove no more than one for E.
    """
    g = m.group
    if g.is_dihedral and (g.n % 2 == 0 or not is_prime(g.n)):
        raise LatticeError("dihedral classification needs D_p, p an odd prime")
    if not g.is_dihedral and not is_prime(g.n):
        raise LatticeError("cyclic classification needs prime order")
    blocks = literal_blocks(m)
    split_failure = {}
    if len(blocks) > 1:
        ranks = [len(b) for b in blocks]
        routes = []
        for i, b in enumerate(blocks):
            route = _block_route(GLattice(g, *(x.submatrix(b, b) for x in m.gens), validate=False), budget)
            if route.sequence is None:
                split_failure = {"block_ranks": ranks, "failed_block": i, "search": route.detail}
                break
            routes.append(route)
        else:
            return _sequence_verdict(
                *_block_sum(m, blocks, routes),
                [lab for r in routes for lab in r.padding],
                [lab for r in routes for lab in r.target],
                "explicit witness for every literal direct summand",
                block_ranks=ranks,
            )
        # uncached: a large sum seldom recurs and would push out block entries
        route = _route(m, budget)
    else:
        route = _block_route(m, budget)
    if route.sequence is not None:
        if route.summands is None:
            reason, evidence = "character lattice is stably permutation by explicit witness", {}
        else:
            reason = "explicit stably-permutation witness for the flabby part"
            evidence = {"resolution_summands": list(route.summands)}
        return _sequence_verdict(*route.sequence, route.padding, route.target, reason, **evidence)
    table = table or default_class_table()  # built only here: the theorems alone read it
    if g.is_dihedral:
        verdict = _dihedral_theorem(g.n, route.summands, table)
    else:
        verdict = _cyclic_theorem(m, table, annotations or {})
    verdict.evidence.update(split_failure)
    return verdict


def literal_blocks(m: GLattice) -> list[list[int]]:
    """M's basis indices split into the connected components of the nonzero
    pattern of its generators, each increasing, ordered by least index.

    No generator has an entry between two components, so M is the direct
    sum of the components' spans, and listing the basis block by block is a
    permutation P with P rho P^T block diagonal for every generator rho.
    """
    parent = list(range(m.rank))

    def root(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x in m.gens:
        for i, row in enumerate(x.data):
            for j, a in enumerate(row):
                if a:
                    parent[root(i)] = root(j)
    blocks: dict[int, list[int]] = {}
    for k in range(m.rank):
        blocks.setdefault(root(k), []).append(k)
    return list(blocks.values())


class _Route(NamedTuple):
    """A lattice L's explicit route: 0 -> L -> X -> Y -> 0 with the labels of
    its witness, or the reason the search failed.  It keeps no witness or
    resolution, so a cached route holds only what a verdict reads."""

    sequence: tuple | None  # (inclusion L -> X, projection X -> Y), None without a witness
    padding: tuple  # the witness's P1 and P2 coset types
    target: tuple
    summands: tuple | None  # L's resolution cover, None when L's own witness needed no search
    detail: str = ""


def _route(m: GLattice, budget: Budget) -> _Route:
    """M's no-search witness, else a witness for its flabby part E: the
    search at `budget` up to `CLASSIFY_RANK_CAP`, above it one that needs none."""
    if spw := _exact_witness(m):
        # 0 -> M -> P2 -> P1 -> 0 read off the intertwiner W: M + P1 -> P2;
        # the orbit map of a permutation lattice has P1 = 0
        w = spw.witness
        mat, p2 = w.iso_map.matrix, w.iso_map.target
        inc = mat.submatrix(range(mat.rows), range(m.rank))
        proj = IntMatrix.from_rows(inverse_unimodular(mat).data[m.rank :], cols=mat.rows)
        seq = (LatticeMap(m, p2, inc), LatticeMap(p2, w.padding, proj))
        return _Route(seq, w.padding_labels, w.target_labels, None)
    res = flabby_resolution(m)
    e = res.flabby_part
    spw = stably_permutation(e, budget) if e.rank <= CLASSIFY_RANK_CAP else _exact_witness(e)
    if not spw:
        detail = f"flabby part of rank {e.rank} (search cap {CLASSIFY_RANK_CAP}): {spw.detail}"
        return _Route(None, (), (), res.summands, detail)
    # 0 -> M -> Q + P1 -> P2 -> 0 through Q + P1 -> E + P1 -> P2
    w = spw.witness
    pad, p2 = w.padding.rank, w.iso_map.target
    total = direct_sum(res.perm, w.padding)
    inc = res.seq.inclusion.matrix.vstack(IntMatrix.zero(pad, m.rank))
    proj = w.iso_map.matrix * block_diag(res.seq.projection.matrix, IntMatrix.identity(pad))
    seq = (LatticeMap(m, total, inc), LatticeMap(total, p2, proj))
    return _Route(seq, w.padding_labels, w.target_labels, res.summands)


# the route of a literal block, shared by every input that contains the block
_block_route = lru_cache(maxsize=BLOCK_CACHE_SIZE)(_route)


def _block_sum(m: GLattice, blocks: list[list[int]], routes: list[_Route]) -> tuple[LatticeMap, LatticeMap]:
    """0 -> M -> X_1 + ... + X_k -> Y_1 + ... + Y_k -> 0 from the blocks'
    sequences: the inclusion is block_diag(inc_i) * P, with P listing M's
    basis block by block, and the projection block_diag(proj_i)."""
    perm = _permutation_matrix([k for b in blocks for k in b], m.rank)
    incs, projs = zip(*(r.sequence for r in routes))
    x = direct_sum(*(f.target for f in incs))
    y = direct_sum(*(f.target for f in projs))
    inclusion = block_diag(*(f.matrix for f in incs)) * perm
    return LatticeMap(m, x, inclusion), LatticeMap(x, y, block_diag(*(f.matrix for f in projs)))


def _sequence_verdict(
    inclusion: LatticeMap, projection: LatticeMap, padding, target, reason: str, **evidence
) -> Verdict:
    """StablyRational from 0 -> M -> X -> Y -> 0, X and Y permutation, once
    the sequence checks; `padding` and `target` label the witness's P1 and P2."""
    ext = ExtensionSpec(inclusion.source, inclusion.target, projection.target, inclusion, projection)
    ext.check()
    evidence.update(padding=list(padding), target=list(target), sequence_total_rank=ext.total.rank)
    return Verdict(status="StablyRational", by_theorem=False, reason=reason, evidence=evidence)


def _dihedral_theorem(p: int, summands: tuple, table: ClassTable) -> Verdict:
    """Over D_p: h_p^+ = 1 makes every flabby class stably permutation."""
    h_plus = table.h_plus(p)
    if h_plus == 1:
        return Verdict(
            status="StablyRational",
            by_theorem=True,
            reason=f"flabby part verified flabby; h_{p}^+ = 1 makes every flabby class stably permutation",
            evidence={"resolution_summands": list(summands), "h_plus": 1},
        )
    return Verdict(
        status="RetractRationalOnly",
        by_theorem=True,
        reason="cyclic Sylow subgroups force invertibility (retract floor); "
        "stable rationality undetermined at this budget",
        evidence={"h_plus": h_plus},
    )


def _cyclic_theorem(m: GLattice, table: ClassTable, annotations: dict) -> Verdict:
    """Over C_p: an asserted non-principal ideal, then the Steinitz class of M
    (cl(M), the inverse of the flabby class), then h_p."""
    p = m.group.n
    asserted = annotations.get("non_principal_ideal")
    if asserted is not None:
        ideal = asserted
        candidate = ideal_cyclic_lattice(ideal)
        if candidate == m:
            return Verdict(
                status="NotStablyRational",
                by_theorem=True,
                reason="character lattice is the ideal lattice of an asserted-non-principal ideal; "
                "its Steinitz class is that ideal class",
                evidence={
                    "ideal_norm": ideal.norm(),
                    "assertion": annotations.get("assertion_source", "input"),
                },
            )
    rep = steinitz_class(m)
    h = table.h(p)
    if rep.known_trivial:
        return Verdict(
            status="StablyRational",
            by_theorem=True,
            reason="trivial Steinitz class with exhibited generator; "
            "the anisotropic part is free over the cyclotomic ring",
            evidence={"generator": list(rep.generator)},
        )
    if h == 1:
        return Verdict(
            status="StablyRational",
            by_theorem=True,
            reason=f"h_{p} = 1: every class is principal",
            evidence={},
        )
    return Verdict(
        status="Unknown",
        by_theorem=False,
        reason="Steinitz class not certified trivial and no class-number shortcut",
        evidence={"steinitz_norm": rep.ideal.norm()},
    )

