"""The all-elements cocycle route, kept as an oracle for
`catalog._noncoboundary_cocycle` and `catalog._nonsplit_extension`.

`oracle_fox_system` builds Fox's equation matrix one basis vector at a time
(what unknown e_j contributes to N_s, 1 + t and (1 + ts)(b + ta)), the way
the library did before it formed whole-matrix products.  The extension
route extends every Z^1 basis row and every B^1 generator to all of G with
`one_cocycles`, projects them onto the generator columns, and reads phi at
sigma and tau off the chosen row through `space.elements.index`.  The
library works in (f(sigma), f(tau)) coordinates from the start; both must
pick the same cocycle and build the same sigma and tau.
"""

from glattice.exactla import IntMatrix, hnf, kernel_basis, solve_with_hnf
from glattice.groups import GroupElement, full_class
from glattice.lattices import GLattice, LatticeError, hom_lattice, restrict
from glattice.cohomology import one_cocycles


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
    """(space, row): the first all-elements Z^1 row outside B^1."""
    hom = hom_lattice(top, bottom)
    space = one_cocycles(hom, full_class(bottom.group))
    cols = [
        space.elements.index(a) * space.rank + k
        for a in space.generators
        for k in range(space.rank)
    ]
    boundaries = hnf(
        IntMatrix.from_rows([[v[c] for c in cols] for v in space.coboundaries], cols=len(cols))
    )
    for row in space.cocycles.data:
        if solve_with_hnf(boundaries, [row[c] for c in cols]) is None:
            return space, row
    raise LatticeError("every cocycle is a coboundary; extension would split")


def oracle_nonsplit_extension(bottom, top):
    """0 -> bottom -> E -> top -> 0 from the all-elements cocycle."""
    g = top.group
    rb, rt = bottom.rank, top.rank
    space, chosen = oracle_noncoboundary_cocycle(bottom, top)

    def assemble(el, rho_name):
        base = space.elements.index(el) * rb * rt
        phi = IntMatrix(
            [[chosen[base + i * rt + j] for j in range(rt)] for i in range(rb)], cols=rt
        ) * getattr(top, rho_name)
        rho_b, rho_t = getattr(bottom, rho_name), getattr(top, rho_name)
        rows = [list(rho_b.data[i]) + list(phi.data[i]) for i in range(rb)]
        rows += [[0] * rb + list(rho_t.data[i]) for i in range(rt)]
        return IntMatrix(rows, cols=rb + rt)

    sigma = assemble(GroupElement(1 % g.n, 0), "sigma")
    if not g.is_dihedral:
        return GLattice(g, sigma)
    return GLattice(g, sigma, assemble(GroupElement(0, 1), "tau"))
