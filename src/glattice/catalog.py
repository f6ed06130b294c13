"""Named lattices of the odd-dihedral catalog and their explicit witnesses.

Every matrix displayed in the source constructions is generated here for
arbitrary odd n: the induced pair M+/M-, the rank n-1 quotients N+/N-,
the rank n+1 extensions, and the four change-of-basis witnesses behind
the stable-permutation identities.  The census names (R, P, V, X, Y0,
Y1, Y2) are aliases of these for prime n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cohomology import coboundary_matrix
from .cyclotomic import conj_matrix, elem_mul, eta_power_rows, is_prime, mult_matrix, reduce_poly
from .exactla import (
    IntMatrix,
    block_diag,
    det,
    express_rows,
    is_unimodular,
    resultant,
    row_space_hnf,
    smith_with_vinv,
)
from .groups import class_by_label, dihedral, full_class
from .lattices import (
    GLattice,
    LatticeError,
    LatticeMap,
    direct_sum,
    flip_matrix,
    hom_lattice,
    induce,
    perm_lattice,
    regular_lattice,
    shift_matrix,
    sign_lattice,
    trivial_lattice,
)

CATALOG_NAMES = (
    "Z",
    "Zminus",
    "ZH",
    "ZGmodTau",
    "ZG",
    "Mplus",
    "Mminus",
    "Nplus",
    "Nminus",
    "MplusTilde",
    "MminusTilde",
    "R",
    "P",
    "V",
    "X",
    "Y0",
    "Y1",
    "Y2",
)

LEE_NAMES = ("Z", "Zminus", "ZH", "R", "P", "V", "X", "Y0", "Y1", "Y2")

# constructive aliases through the census identifications
_ALIASES = {"R": "Nplus", "P": "Nminus", "V": "Mplus", "X": "Mminus",
            "Y0": "MminusTilde", "Y1": "MplusTilde", "Y2": "ZG"}

WITNESS_IDS = ("T34", "T35", "T37", "L46")


def _check_n(name: str, n: int) -> None:
    if n < 3 or n % 2 == 0:
        raise LatticeError(f"catalog needs odd n >= 3, got {n}")
    if name in ("R", "P", "V", "X", "Y0", "Y1", "Y2") and not is_prime(n):
        raise LatticeError(f"census name {name} needs prime n, got {n}")


def n_quotient_sigma(n: int) -> IntMatrix:
    """Companion-style shift with -1 last column (rank n-1)."""
    a = [[0] * (n - 1) for _ in range(n - 1)]
    for i in range(n - 2):
        a[i + 1][i] = 1
    for i in range(n - 1):
        a[i][n - 2] = -1
    return IntMatrix(a)


def n_quotient_tau(n: int) -> IntMatrix:
    """Anti-diagonal of size n-1."""
    return IntMatrix(
        [[1 if i + j == n - 2 else 0 for j in range(n - 1)] for i in range(n - 1)]
    )


def tilde_sigma(n: int) -> IntMatrix:
    return block_diag(shift_matrix(n), IntMatrix.identity(1))


def tilde_tau(n: int) -> IntMatrix:
    """tau on the rank n+1 extension: flip on the head, last column (1..1,-1)."""
    return flip_matrix(n).hstack(IntMatrix([[1]] * n)).vstack(IntMatrix([[0] * n + [-1]]))


def build(name: str, n: int) -> GLattice:
    """Construct a catalog lattice over D_n."""
    if name not in CATALOG_NAMES:
        raise LatticeError(f"unknown catalog name {name!r}")
    _check_n(name, n)
    name = _ALIASES.get(name, name)
    g = dihedral(n)
    if name == "Z":
        return trivial_lattice(g)
    if name == "Zminus":
        return sign_lattice(g)
    if name == "ZH":
        return perm_lattice(g, class_by_label(g, f"C_{n}"))
    if name == "ZGmodTau":
        return perm_lattice(g, class_by_label(g, "D_1"))
    if name == "ZG":
        return regular_lattice(g)
    if name == "Mplus":
        return induce(g, 1)
    if name == "Mminus":
        return induce(g, -1)
    if name == "Nplus":
        return GLattice(g, n_quotient_sigma(n), n_quotient_tau(n))
    if name == "Nminus":
        return GLattice(g, n_quotient_sigma(n), -n_quotient_tau(n))
    if name == "MplusTilde":
        return GLattice(g, tilde_sigma(n), tilde_tau(n))
    if name == "MminusTilde":
        return GLattice(g, tilde_sigma(n), -tilde_tau(n))
    raise LatticeError(f"unhandled name {name}")  # pragma: no cover


def lee_census(p: int, class_table=None) -> list[tuple[str, GLattice]]:
    """The ten indecomposable lattices over D_p (principal-ideal reps)."""
    if not is_prime(p) or p == 2:
        raise LatticeError(f"census needs an odd prime, got {p}")
    if class_table is not None and class_table.h_plus(p) != 1:
        raise LatticeError(f"census at p={p} needs h_p^+ = 1 in the class table")
    return [(name, build(name, p)) for name in LEE_NAMES]


def circulant(c) -> IntMatrix:
    """n x n circulant with first column c: entry (i, j) = c[(i - j) mod n]."""
    c = [int(x) for x in c]
    n = len(c)
    if n < 1:
        raise LatticeError("circulant needs at least one coefficient")
    return IntMatrix([[c[(i - j) % n] for j in range(n)] for i in range(n)])


def circulant_det(c) -> int:
    """det(circulant(c)) as Res(x^n - 1, c_0 + c_1 x + ... + c_{n-1} x^{n-1}),
    the product of that polynomial over the n-th roots of unity."""
    c = [int(x) for x in c]
    n = len(c)
    if n < 1:
        raise LatticeError("circulant needs at least one coefficient")
    return resultant([-1] + [0] * (n - 1) + [1], c)


def circulant_pattern_one(n: int) -> list[int]:
    """(n-1)/2 ones then zeros; determinant (n-1)/2."""
    return [1] * ((n - 1) // 2) + [0] * ((n + 1) // 2)


def circulant_pattern_two(n: int) -> list[int]:
    """(n-1)/2 minus-ones, 0, (n-3)/2 ones, 0; determinant -1."""
    return [-1] * ((n - 1) // 2) + [0] + [1] * ((n - 3) // 2) + [0]


# ---------------------------------------------------------------------------
# explicit witnesses


@dataclass(frozen=True)
class WitnessRecord:
    witness_id: str
    n: int
    lhs: GLattice
    rhs: GLattice
    change_of_basis: IntMatrix  # columns in the printed order
    intertwiner: IntMatrix  # columns reordered so rhs . W = W . lhs exactly
    allowed_dets: tuple
    embedding: LatticeMap | None = None  # L46: kernel lattice inside Z[G]


@dataclass(frozen=True)
class WitnessCheck:
    ok: bool
    failures: tuple
    determinant: int

    def __bool__(self):
        return self.ok


def _columns(vectors, rank) -> IntMatrix:
    return IntMatrix(
        [[vec[i] for vec in vectors] for i in range(rank)], cols=len(vectors)
    )


def _sigma_orbit(rhs: GLattice, vec) -> list:
    """sigma^k . vec for k = 0 .. n - 1."""
    orbit = [tuple(vec)]
    for _ in range(rhs.group.n - 1):
        orbit.append(rhs.sigma.matvec(orbit[-1]))
    return orbit


def witness(witness_id: str, n: int) -> WitnessRecord:
    if witness_id not in WITNESS_IDS:
        raise LatticeError(f"unknown witness {witness_id!r}")
    if n < 3 or n % 2 == 0:
        raise LatticeError(f"witnesses need odd n >= 3, got {n}")
    builder = {
        "T34": _witness_t34,
        "T35": _witness_t35,
        "T37": _witness_t37,
        "L46": _witness_l46,
    }[witness_id]
    return builder(n)


def _witness_t34(n: int) -> WitnessRecord:
    g = dihedral(n)
    rhs = direct_sum(
        perm_lattice(g, class_by_label(g, f"C_{n}")),
        perm_lattice(g, class_by_label(g, "D_1")),
    )
    rank = n + 2
    half = (n - 1) // 2
    # coordinates: u_0, u_1, v_0..v_{n-1}
    x = [1, 1] + [0] + [1] * (n - 1)
    y = [half, half + 1] + [half] * n
    t = [1, 1] + [1] * n
    orbit = _sigma_orbit(rhs, x)
    std = [orbit[k % n] for k in range(n)] + [y, t]
    printed = [orbit[k % n] for k in range(1, n + 1)] + [y, t]
    lhs = direct_sum(build("MplusTilde", n), trivial_lattice(g))
    return WitnessRecord(
        "T34", n, lhs, rhs, _columns(printed, rank), _columns(std, rank), (1,)
    )


def _witness_t35(n: int) -> WitnessRecord:
    g = dihedral(n)
    rhs = direct_sum(regular_lattice(g), trivial_lattice(g))
    rank = 2 * n + 1
    # coordinates: u_0..u_{n-1}, v_0..v_{n-1}, t
    x = [0] * rank
    x[0] = 1
    x[n] = -1
    y = [1] * n + [0] * n + [1]
    z = [0] * rank
    for i in range(1, (n - 1) // 2 + 1):
        z[i] = 1
    for j in range((n + 1) // 2, n):
        z[n + j] = 1
    z[2 * n] = 1
    xo = _sigma_orbit(rhs, x)
    zo = _sigma_orbit(rhs, z)
    std = xo + [y] + zo
    printed = [xo[k % n] for k in range(1, n + 1)] + [y] + zo
    lhs = direct_sum(
        build("MminusTilde", n), perm_lattice(g, class_by_label(g, "D_1"))
    )
    return WitnessRecord(
        "T35", n, lhs, rhs, _columns(printed, rank), _columns(std, rank), (1, -1)
    )


def _witness_t37(n: int) -> WitnessRecord:
    g = dihedral(n)
    rhs = direct_sum(
        regular_lattice(g), perm_lattice(g, class_by_label(g, f"C_{n}"))
    )
    rank = 2 * n + 2
    half = (n - 1) // 2
    # coordinates: u_0..u_{n-1}, v_0..v_{n-1}, t_0, t_1
    x = [0] * rank
    x[0] = 1
    for i in range((n + 3) // 2, n):
        x[i] = 1
    for j in range(2, (n + 1) // 2 + 1):
        x[n + j] = 1
    x[2 * n] = 1
    x[2 * n + 1] = 1
    y0 = [0] * n + [half] * n + [1, n - 1]
    z = [0] * rank
    z[0] = 1
    z[1] = 1
    for i in range((n + 3) // 2, n):
        z[i] = 1
    for j in range(1, (n + 1) // 2 + 1):
        z[n + j] = -1
    z[2 * n] = 1
    z[2 * n + 1] = -1
    y1 = [1] * n + [-half] * n + [1, -(n - 1)]
    xo = _sigma_orbit(rhs, x)
    zo = _sigma_orbit(rhs, z)
    start = (n - 3) // 2
    printed = (
        [xo[(start + k) % n] for k in range(n)]
        + [y0]
        + [zo[(start + k) % n] for k in range(n)]
        + [y1]
    )
    std = (
        [xo[(n - 1 + k) % n] for k in range(n)]
        + [y0]
        + [zo[(n - 1 + k) % n] for k in range(n)]
        + [y1]
    )
    lhs = direct_sum(build("MplusTilde", n), build("MminusTilde", n))
    return WitnessRecord(
        "T37", n, lhs, rhs, _columns(printed, rank), _columns(std, rank), (-1,)
    )


def l46_kernel_lattice(n: int) -> GLattice:
    """ker(Z[G] -> Z[H]) on the basis u_1..u_{n-1}, v_1..v_{n-1}."""
    g = dihedral(n)
    a = n_quotient_sigma(n)
    anti = n_quotient_tau(n)  # tau: u_i -> v_{n-i}, v_i -> u_{n-i}
    zero = IntMatrix.zero(n - 1, n - 1)
    return GLattice(g, block_diag(a, a), zero.hstack(anti).vstack(anti.hstack(zero)))


def l46_embedding(n: int) -> LatticeMap:
    """The explicit kernel basis as vectors inside Z[G]."""
    g = dihedral(n)
    reg = regular_lattice(g)
    ker = l46_kernel_lattice(n)
    m = n - 1
    cols = []
    for i in range(1, n):
        vec = [0] * (2 * n)
        vec[(i + (n - 1) // 2) % n] = 1
        vec[(i + (n + 1) // 2) % n] = -1
        cols.append(vec)
    for i in range(1, n):
        vec = [0] * (2 * n)
        vec[n + (i + (n + 1) // 2) % n] = 1
        vec[n + (i + (n - 1) // 2) % n] = -1
        cols.append(vec)
    matrix = IntMatrix([[cols[j][i] for j in range(2 * m)] for i in range(2 * n)])
    return LatticeMap(source=ker, target=reg, matrix=matrix)


def _witness_l46(n: int) -> WitnessRecord:
    rhs = l46_kernel_lattice(n)
    m = n - 1
    # coordinates: u_1..u_{n-1}, v_1..v_{n-1}
    def uvec(i):  # u_i with u_0 folded in
        vec = [0] * (2 * m)
        if i % n == 0:
            for k in range(m):
                vec[k] = -1
        else:
            vec[(i % n) - 1] = 1
        return vec

    def vvec(i):
        vec = [0] * (2 * m)
        if i % n == 0:
            for k in range(m):
                vec[m + k] = -1
        else:
            vec[m + (i % n) - 1] = 1
        return vec

    def add(a, b, sb=1):
        return [p + sb * q for p, q in zip(a, b)]

    xs = [add(uvec(i), vvec(i)) for i in range(1, n)]
    ys = [add(uvec(i - 1), vvec(i + 1), -1) for i in range(1, n)]
    std = xs + ys
    coef = _columns(std, 2 * m)
    printed = coef.transpose()  # the source prints the transpose
    lhs = direct_sum(build("Nplus", n), build("Nminus", n))
    return WitnessRecord(
        "L46", n, lhs, rhs, printed, coef, (1,), embedding=l46_embedding(n)
    )


def verify_witness(w: WitnessRecord) -> WitnessCheck:
    """Unimodularity plus exact intertwining of the generator matrices."""
    failures = []
    d = det(w.change_of_basis) if w.change_of_basis.is_square else 0
    if d not in w.allowed_dets:
        failures.append(f"det(change_of_basis) = {d}, expected one of {w.allowed_dets}")
    wi = w.intertwiner
    if not is_unimodular(wi):
        failures.append("intertwiner is not unimodular")
    for name, lhs, rhs in zip(("sigma", "tau"), w.lhs.gens, w.rhs.gens):
        if rhs * wi != wi * lhs:
            failures.append(f"{name} relation fails: rhs.{name} * W != W * lhs.{name}")
    if w.embedding is not None:
        try:
            w.embedding.check()
        except LatticeError as exc:
            failures.append(f"embedding fails: {exc}")
    return WitnessCheck(ok=not failures, failures=tuple(failures), determinant=d)


def render_matrix(m: IntMatrix) -> str:
    """Canonical text form used for golden-file byte comparison."""
    return "\n".join(" ".join(str(x) for x in row) for row in m.data) + "\n"


# ---------------------------------------------------------------------------
# ideal-twisted census lattices

TWISTABLE = ("R", "P", "V", "X", "Y0", "Y1", "Y2")


def _ideal_row_lattice(p: int, ideal, extra_factor=None) -> "GLattice":
    """R.A (optionally times an element) with sigma = zeta, tau = conjugation."""
    emb = eta_power_rows(p)
    rows = []
    zeta_m = mult_matrix(p, [0, 1])
    for a_row in ideal.basis.data:
        cur = emb.vecmat(a_row)
        if extra_factor is not None:
            cur = elem_mul(p, cur, extra_factor)
        for _ in range(p - 1):
            rows.append(cur)
            cur = zeta_m.vecmat(cur)
    basis = row_space_hnf(IntMatrix(rows, cols=p - 1))
    if basis.rows != p - 1:
        raise LatticeError("twist ideal did not span a full-rank lattice")
    sig = express_rows(basis, basis * zeta_m)
    conj = express_rows(basis, basis * conj_matrix(p))
    if sig is None or conj is None:
        raise LatticeError("twisted basis is not stable under the action")
    return GLattice(dihedral(p), sig.transpose(), conj.transpose())


def _noncoboundary_cocycle(bottom: GLattice, top: GLattice) -> tuple:
    """A 1-cocycle G -> Hom(top, bottom) whose class is nonzero, as its values
    (f(sigma), f(tau)) on the generators (f(sigma) alone over C_n).

    Those values are the coordinates of `cohomology.coboundary_matrix`; in
    the basis v^-1 from its Smith form B^1 is spanned by d_i times row i,
    so the first row with d_i > 1 is a cocycle outside B^1.
    """
    hom = hom_lattice(top, bottom)
    diagonal, vinv = smith_with_vinv(coboundary_matrix(hom, full_class(bottom.group)))
    for d, row in zip(diagonal, vinv.data):
        if d > 1:
            return row
    raise LatticeError("every cocycle is a coboundary; extension would split")


def _nonsplit_extension(bottoms: list, top: GLattice) -> GLattice:
    """0 -> (+)bottoms -> E -> top -> 0, class nonzero in every component.

    Each component's cocycle phi comes as (phi(sigma), phi(tau)) from
    `_noncoboundary_cocycle`; block k of it, read row by row as a
    bottom.rank x top.rank matrix, is phi at generator k, and E acts by
    [[rho_bottom, phi * rho_top], [0, rho_top]].
    """
    rt = top.rank
    phis = []  # per bottom: [phi(sigma), phi(tau)]
    for bottom in bottoms:
        chosen = _noncoboundary_cocycle(bottom, top)
        rows = [chosen[k : k + rt] for k in range(0, len(chosen), rt)]
        rb = bottom.rank
        phis.append([IntMatrix(rows[k : k + rb], cols=rt) for k in range(0, len(rows), rb)])

    def assemble(k, rho_t):
        rho_b = block_diag(*(bottom.gens[k] for bottom in bottoms))
        phi = IntMatrix.from_rows([row for f in phis for row in (f[k] * rho_t).data], cols=rt)
        return rho_b.hstack(phi).vstack(IntMatrix.zero(rt, rho_b.cols).hstack(rho_t))

    return GLattice(top.group, *(assemble(k, rho) for k, rho in enumerate(top.gens)))


def twisted_lattice(base: str, ideal) -> GLattice:
    """Census lattice twisted by an ideal of the real subfield."""
    if base not in TWISTABLE:
        raise LatticeError(f"twistable bases are {TWISTABLE}, got {base!r}")
    if not ideal.real_subfield:
        raise LatticeError("twisting ideal must live in the real subfield")
    p = ideal.p
    _check_n(base, p)
    ideal.validate()
    if base == "R":
        return _ideal_row_lattice(p, ideal)
    if base == "P":
        one_minus_zeta = tuple(reduce_poly(p, [1, -1]))
        return _ideal_row_lattice(p, ideal, extra_factor=one_minus_zeta)
    g = dihedral(p)
    if base == "V":
        return _nonsplit_extension([twisted_lattice("P", ideal)], trivial_lattice(g))
    if base == "X":
        return _nonsplit_extension([twisted_lattice("R", ideal)], sign_lattice(g))
    if base == "Y0":
        return _nonsplit_extension([twisted_lattice("R", ideal)], build("ZH", p))
    if base == "Y1":
        return _nonsplit_extension([twisted_lattice("P", ideal)], build("ZH", p))
    # Y2: the class must be nonzero in both bottom components
    return _nonsplit_extension(
        [twisted_lattice("R", ideal), build("P", p)], build("ZH", p)
    )
