"""G-lattices as exact integer matrix representations of C_n and D_n.

A lattice is Z^rank with the group acting on column vectors through
unimodular matrices for the generators.  `GLattice.gens` holds them in
presentation order, (sigma,) over C_n and (sigma, tau) over D_n, so the
constructors below treat both groups with one loop over `gens`.
Sublattices are always handed around as saturated row-basis matrices, so
induced quotient actions stay integral.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactla import (
    IntMatrix,
    block_diag,
    inverse_unimodular,
    is_saturated,
    kron,
    right_kernel_basis,
    smith_diagonal,
    smith_with_vinv,
)
from .groups import (
    DIHEDRAL,
    GroupElement,
    GroupSpec,
    SubgroupClass,
    cyclic,
    elements,
    full_class,
    mul,
    trivial_class,
)


class LatticeError(ValueError):
    pass


class RelationError(LatticeError):
    """Generator matrices do not satisfy the group presentation."""


class NonSaturatedSublattice(LatticeError):
    pass


class NonStableSublattice(LatticeError):
    pass


class GLattice:
    """Integer representation of C_n or D_n on Z^rank.

    `gens` holds the generator matrices in presentation order: (sigma,) over
    C_n and (sigma, tau) over D_n.  Over C_n a tau argument is shape-checked
    and then dropped, so `tau` is None.
    """

    __slots__ = ("group", "rank", "sigma", "tau", "gens", "_pow_cache", "_hash")

    def __init__(
        self,
        group: GroupSpec,
        sigma: IntMatrix,
        tau: IntMatrix | None = None,
        validate: bool = True,
    ):
        self.group = group
        self.sigma = sigma
        self.tau = tau if group.is_dihedral else None
        self.gens = (sigma,) if self.tau is None else (sigma, tau)
        self.rank = sigma.rows
        self._pow_cache = [IntMatrix.identity(self.rank), sigma]
        self._hash = None
        if group.is_dihedral and tau is None:
            raise LatticeError("dihedral lattice needs a tau matrix")
        if not sigma.is_square or (tau is not None and not tau.is_square):
            raise LatticeError("generator matrices must be square")
        if tau is not None and tau.rows != sigma.rows:
            raise LatticeError("generator matrices must have equal size")
        if validate:
            self._check_relations()

    def _check_relations(self):
        n = self.group.n
        ident = self._pow_cache[0]
        if self.sigma.power(n) != ident:
            raise RelationError(f"sigma^{n} != identity")
        for tau in self.gens[1:]:
            if tau * tau != ident:
                raise RelationError("tau^2 != identity")
            # given tau^2 = 1, tau*sigma*tau = sigma^-1 says (tau*sigma)^2 = 1
            ts = tau * self.sigma
            if ts * ts != ident:
                raise RelationError("tau*sigma*tau != sigma^-1")

    def sigma_power(self, k: int) -> IntMatrix:
        k %= self.group.n
        cache = self._pow_cache
        while len(cache) <= k:
            cache.append(cache[-1] * self.sigma)
        return cache[k]

    def rho(self, a: GroupElement) -> IntMatrix:
        if not a.flip:
            return self.sigma_power(a.rot)
        if self.tau is None:
            raise LatticeError("cyclic lattice acted on by a reflection")
        return self.sigma_power(a.rot) * self.tau if a.rot else self.tau

    def norm_matrix(self, s: SubgroupClass) -> IntMatrix:
        """N_S = R + R'.tau, with R the sum of sigma^k over the rotations of S
        and R' over its reflections sigma^k.tau: one product."""
        rotations, reflections = [], []
        for a in s.representative:
            (reflections if a.flip else rotations).append(self.sigma_power(a.rot))
        total = _matrix_sum(rotations)
        return total + _matrix_sum(reflections) * self.tau if reflections else total

    def full_norm_matrix(self) -> IntMatrix:
        return self.norm_matrix(full_class(self.group))

    def key(self):
        return (self.group, self.rank, self.sigma, self.tau)

    def __eq__(self, other):
        return isinstance(other, GLattice) and self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.key())
        return self._hash

    def __repr__(self):
        return f"GLattice({self.group}, rank={self.rank})"

    @property
    def is_permutation(self) -> bool:
        """Entrywise test: all generator matrices are permutation matrices."""
        for m in self.gens:
            for row in m.data:
                if sum(row) != 1 or any(x not in (0, 1) for x in row):
                    return False
            for j in range(m.cols):
                if sum(m[i, j] for i in range(m.rows)) != 1:
                    return False
        return True


def _matrix_sum(mats: list[IntMatrix]) -> IntMatrix:
    rows = zip(*(m.data for m in mats))
    return IntMatrix([[sum(col) for col in zip(*r)] for r in rows], cols=mats[0].cols)


@dataclass(frozen=True)
class LatticeMap:
    """Equivariant map given by a target.rank x source.rank matrix."""

    source: GLattice
    target: GLattice
    matrix: IntMatrix

    def check(self) -> None:
        if self.source.group != self.target.group:
            raise LatticeError("map between lattices over different groups")
        if (self.matrix.rows, self.matrix.cols) != (self.target.rank, self.source.rank):
            raise LatticeError("map matrix has wrong shape")
        for name, a, b in zip(("sigma", "tau"), self.source.gens, self.target.gens):
            if self.matrix * a != b * self.matrix:
                raise LatticeError(f"map does not intertwine {name}")


@dataclass(frozen=True)
class ExtensionSpec:
    """Short exact sequence 0 -> sub -> total -> quotient -> 0."""

    sub: GLattice
    total: GLattice
    quotient: GLattice
    inclusion: LatticeMap
    projection: LatticeMap

    def check(self) -> None:
        self.inclusion.check()
        self.projection.check()
        if self.sub.rank + self.quotient.rank != self.total.rank:
            raise LatticeError("ranks do not add up")
        inc = self.inclusion.matrix
        if not is_saturated(inc.transpose()):
            raise LatticeError("inclusion image is not saturated")
        proj = self.projection.matrix
        diag = [d for d in smith_diagonal(proj) if d]
        if len(diag) != self.quotient.rank:
            raise LatticeError("projection is not surjective")
        if any(d != 1 for d in diag):
            raise LatticeError("projection is not surjective onto Z^quotient")
        # the image is saturated of rank sub, the kernel of a projection onto
        # Z^quotient is saturated of rank total - quotient = sub: so the image
        # equals the kernel once it lies inside it
        if any(any(row) for row in (proj * inc).data):
            raise LatticeError("image of inclusion differs from kernel of projection")


# ---------------------------------------------------------------------------
# constructors


def trivial_lattice(g: GroupSpec, rank: int = 1) -> GLattice:
    ident = IntMatrix.identity(rank)
    return GLattice(g, ident, ident, validate=False)


def sign_lattice(g: GroupSpec) -> GLattice:
    """Rank-1 lattice where sigma acts trivially and tau by -1."""
    if not g.is_dihedral:
        raise LatticeError("sign lattice needs a dihedral group")
    return GLattice(g, IntMatrix([[1]]), IntMatrix([[-1]]), validate=False)


def _coset_sort_key(a: GroupElement):
    return (a.flip, a.rot)


def cosets(g: GroupSpec, s: SubgroupClass) -> list[tuple]:
    """Left cosets of the representative subgroup, canonically ordered."""
    members = list(s.representative)
    seen = set()
    out = []
    for x in sorted(elements(g), key=_coset_sort_key):
        if x in seen:
            continue
        coset = frozenset(mul(g, x, h) for h in members)
        seen |= coset
        out.append(tuple(sorted(coset, key=_coset_sort_key)))
    out.sort(key=lambda c: _coset_sort_key(c[0]))
    return out


def perm_lattice(g: GroupSpec, s: SubgroupClass) -> GLattice:
    """Z[G/S] on the coset basis."""
    cs = cosets(g, s)
    coset_of = {x: i for i, c in enumerate(cs) for x in c}

    def act_matrix(a: GroupElement) -> IntMatrix:
        m = [[0] * len(cs) for _ in range(len(cs))]
        for j, c in enumerate(cs):
            m[coset_of[mul(g, a, c[0])]][j] = 1
        return IntMatrix(m)

    gens = [GroupElement(1 % g.n, 0)] + ([GroupElement(0, 1)] if g.is_dihedral else [])
    return GLattice(g, *map(act_matrix, gens), validate=False)


def regular_lattice(g: GroupSpec) -> GLattice:
    return perm_lattice(g, trivial_class(g))


def shift_matrix(n: int) -> IntMatrix:
    """Cyclic shift: e_i -> e_{i+1}."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[(i + 1) % n][i] = 1
    return IntMatrix(a)


def flip_matrix(n: int) -> IntMatrix:
    """e_i -> e_{n-i} (fixes e_0)."""
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        b[(n - i) % n][i] = 1
    return IntMatrix(b)


def induce(g: GroupSpec, tau_sign: int) -> GLattice:
    """Induced lattice from <tau>: sigma a cyclic shift, tau the (signed) flip."""
    if not g.is_dihedral:
        raise LatticeError("induction needs a dihedral group")
    if tau_sign not in (1, -1):
        raise LatticeError("tau_sign must be +1 or -1")
    return GLattice(g, shift_matrix(g.n), flip_matrix(g.n) * tau_sign)


def direct_sum(*lattices: GLattice) -> GLattice:
    if not lattices:
        raise LatticeError("empty direct sum needs a group")
    g = lattices[0].group
    if any(m.group != g for m in lattices):
        raise LatticeError("direct sum over mismatched groups")
    blocks = zip(*(m.gens for m in lattices))
    return GLattice(g, *(block_diag(*mats) for mats in blocks), validate=False)


def dual(m: GLattice) -> GLattice:
    """Contragredient: rho*(g) = rho(g^{-1})^T."""
    inverses = (m.sigma_power(m.group.n - 1),) + m.gens[1:]
    return GLattice(m.group, *(x.transpose() for x in inverses), validate=False)


def presentation_generators(s: SubgroupClass) -> tuple:
    """(s, t) from `s.generators`: (s, None) when S is cyclic, with s the
    identity for the trivial subgroup."""
    gens = s.generators or (GroupElement(0, 0),)
    return gens[0], (gens[1] if len(gens) == 2 else None)


def is_cyclic(s: SubgroupClass) -> bool:
    """True when S has a single presentation generator."""
    return len(s.generators) < 2


def restrict(m: GLattice, s: SubgroupClass) -> GLattice:
    """The same Z^rank viewed as a lattice over the subgroup, on the
    generators chosen by `presentation_generators`."""
    gen, refl = presentation_generators(s)
    if refl is None:
        return GLattice(cyclic(s.order), m.rho(gen), validate=False)
    return GLattice(
        GroupSpec(DIHEDRAL, s.order // 2), m.rho(gen), m.rho(refl), validate=False
    )


def fixed_sublattice(m: GLattice, s: SubgroupClass) -> IntMatrix:
    """Saturated row basis of the common fixed space of the subgroup."""
    ident = IntMatrix.identity(m.rank)
    if not s.generators:
        return ident
    stacked = None
    for a in s.generators:
        block = m.rho(a) - ident
        stacked = block if stacked is None else stacked.vstack(block)
    return right_kernel_basis(stacked)


def full_fixed_sublattice(m: GLattice) -> IntMatrix:
    return fixed_sublattice(m, full_class(m.group))


@dataclass(frozen=True)
class QuotientResult:
    lattice: GLattice
    sub_lattice: GLattice
    inclusion: IntMatrix  # ambient coords of sub basis vectors (columns)
    projection: IntMatrix  # ambient coords -> quotient coords


def quotient_with_maps(m: GLattice, sub_basis: IntMatrix) -> QuotientResult:
    """Quotient by a saturated G-stable sublattice, with all the maps.

    One Smith form u * sub * v = D gives both steps: the sublattice is
    saturated exactly when D = [1 | 0], and then u * sub is the top of
    v^-1, so t = v^-1 is a unimodular basis whose first rows span the
    sublattice.  In the basis t a stable sublattice makes the action block
    upper triangular, and the lower block acts on the quotient.
    """
    k = sub_basis.rows
    if sub_basis.cols != m.rank:
        raise LatticeError("sublattice basis has wrong ambient rank")
    diag, t = smith_with_vinv(sub_basis)
    if len(diag) != k or any(d != 1 for d in diag):
        raise NonSaturatedSublattice("sublattice is not saturated")
    tinv = inverse_unimodular(t)
    tinv_t = tinv.transpose()
    tt = t.transpose()

    def transform(rho: IntMatrix) -> IntMatrix:
        return tinv_t * rho * tt

    mats = []
    for name, rho in zip(("sigma", "tau"), m.gens):
        conj = transform(rho)
        for i in range(k, m.rank):
            for j in range(k):
                if conj[i, j] != 0:
                    raise NonStableSublattice(f"sublattice is not stable under {name}")
        mats.append(conj)
    top, bottom = range(k), range(k, m.rank)
    sub_lat = GLattice(m.group, *(c.submatrix(top, top) for c in mats), validate=False)
    quo_lat = GLattice(m.group, *(c.submatrix(bottom, bottom) for c in mats), validate=False)
    inclusion = t.submatrix(range(k), range(m.rank)).transpose()
    projection = IntMatrix.from_rows(tinv_t.data[k:], cols=m.rank)
    return QuotientResult(
        lattice=quo_lat,
        sub_lattice=sub_lat,
        inclusion=inclusion,
        projection=projection,
    )


def hom_lattice(a: GLattice, b: GLattice) -> GLattice:
    """Hom_Z(a, b) with the conjugation action g . X = rho_b(g) X rho_a(g)^{-1}.

    Coordinates: X is b.rank x a.rank, flattened row-major, so g acts by
    kron(rho_b(g), (rho_a(g)^{-1})^T).
    """
    if a.group != b.group:
        raise LatticeError("hom lattice needs a common group")
    g = a.group
    a_inverses = (a.sigma_power(g.n - 1),) + a.gens[1:]
    mats = (kron(rho_b, rho_a_inv.transpose()) for rho_b, rho_a_inv in zip(b.gens, a_inverses))
    return GLattice(g, *mats, validate=False)
