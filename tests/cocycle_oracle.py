"""The kernel-quotient route to Tate cohomology and Fox's equation system,
kept as oracles for `cohomology` and `catalog`.

`_invariants_of_submodule` reads L/B the long way: a saturated basis of the
kernel L, the coordinates of every generator of B in it (raising when one
escapes L), and the Smith form of those coordinates.  `oracle_hminus1`,
`oracle_h0` and `oracle_h1` apply it to ker N_S / I_S.M, M^S / N_S.M (M^S
from `fixed_sublattice`) and Z^1 / B^1 (Z^1 from `oracle_fox_system`); the
library reads each group off one Smith diagonal of B's generators instead.

`oracle_fox_system` builds Fox's equation matrix one basis vector at a time
(what unknown e_j contributes to N_s, 1 + t and (1 + ts)(b + ta)) and takes
Z^1 as its kernel; the library never builds it and reads Z^1 as the
saturation of B^1.  The extension route picks the first row of that Z^1
basis outside the Hermite form of the B^1 generators, one solve per row,
and assembles E from its values at sigma and tau.  The library may pick
another cocycle, so the two extensions agree on whether the pair splits,
not on sigma and tau.
"""

from glattice.exactla import (
    AbelianInvariants,
    IntMatrix,
    cokernel_invariants,
    express_rows,
    hnf,
    kernel_basis,
    right_kernel_basis,
    solve_with_hnf,
)
from glattice.groups import full_class
from glattice.lattices import (
    GLattice,
    LatticeError,
    fixed_sublattice,
    hom_lattice,
    presentation_generators,
    restrict,
)


def _invariants_of_submodule(kernel_rows, generators):
    """Invariants of span(kernel_rows) / span(generators)."""
    if kernel_rows.rows == 0:
        return AbelianInvariants((), 0)
    gen_matrix = IntMatrix.from_rows(generators, cols=kernel_rows.cols)
    coords = express_rows(kernel_rows, gen_matrix)
    if coords is None:
        raise LatticeError("submodule generators escape the kernel")
    return cokernel_invariants(coords)


def oracle_hminus1(m, s):
    """ker(N_S) / I_S.M, I_S.M spanned by (g - 1)M over the generators of S."""
    ident = IntMatrix.identity(m.rank)
    gens = []
    for a in presentation_generators(s):
        if a is not None:
            gens.extend((m.rho(a) - ident).transpose().data)
    return _invariants_of_submodule(right_kernel_basis(m.norm_matrix(s)), gens)


def oracle_h0(m, s):
    """M^S / N_S.M with M^S the saturated fixed sublattice."""
    return _invariants_of_submodule(fixed_sublattice(m, s), m.norm_matrix(s).transpose().data)


def oracle_h1(m, s):
    """Z^1 / B^1 from the per-basis-vector Fox system."""
    cocycles, boundaries = oracle_fox_system(m, s)
    return _invariants_of_submodule(cocycles, boundaries)


def _act(mat, v):
    return [sum(x * v[j] for j, x in enumerate(row) if x) for row in mat.data]


def _add(u, v):
    return [x + y for x, y in zip(u, v)]


def oracle_fox_system(m, s):
    """Z^1 and the B^1 generators from the per-basis-vector equation build."""
    lat = restrict(m, s)
    sig, tau = lat.sigma, lat.tau
    r = m.rank
    zero = [0] * r
    rows_a, rows_b, boundaries = [], [], []
    for j in range(r):
        e = [0] * r
        e[j] = 1
        norm, v = zero, e
        for _ in range(lat.group.n):
            norm, v = _add(norm, v), _act(sig, v)
        s_e = _act(sig, e)
        s_minus_1 = [x - y for x, y in zip(s_e, e)]
        if tau is None:
            rows_a.append(norm)
            boundaries.append(s_minus_1)
            continue
        t_e = _act(tau, e)
        rows_a.append(norm + zero + _add(t_e, _act(tau, _act(sig, t_e))))
        rows_b.append(zero + _add(e, t_e) + _add(e, _act(tau, s_e)))
        boundaries.append(s_minus_1 + [x - y for x, y in zip(t_e, e)])
    equations = IntMatrix.from_rows(rows_a + rows_b, cols=r if tau is None else 3 * r)
    return kernel_basis(equations), boundaries


def oracle_noncoboundary_cocycle(bottom, top):
    """The first Z^1 row of Fox's system for Hom(top, bottom) outside B^1,
    in (f(sigma), f(tau)) coordinates."""
    cocycles, boundaries = oracle_fox_system(hom_lattice(top, bottom), full_class(bottom.group))
    span = hnf(IntMatrix.from_rows(boundaries, cols=cocycles.cols))
    for row in cocycles.data:
        if solve_with_hnf(span, row) is None:
            return row
    raise LatticeError("every cocycle is a coboundary; extension would split")


def oracle_nonsplit_extension(bottom, top):
    """0 -> bottom -> E -> top -> 0 from the oracle's cocycle."""
    rb, rt = bottom.rank, top.rank
    chosen = oracle_noncoboundary_cocycle(bottom, top)

    def assemble(k, rho_b, rho_t):
        base = k * rb * rt
        phi = IntMatrix(
            [[chosen[base + i * rt + j] for j in range(rt)] for i in range(rb)], cols=rt
        ) * rho_t
        rows = [list(rho_b.data[i]) + list(phi.data[i]) for i in range(rb)]
        rows += [[0] * rb + list(rho_t.data[i]) for i in range(rt)]
        return IntMatrix(rows, cols=rb + rt)

    gens = [assemble(k, *pair) for k, pair in enumerate(zip(bottom.gens, top.gens))]
    return GLattice(top.group, *gens)
