"""Pairwise 1-cocycle solver, kept as an independent oracle for H^1.

It solves f(ab) = f(a) + a.f(b) for every pair (a, b) of subgroup elements:
|S|^2 * rank equations in |S| * rank unknowns, with no use of a
presentation.  The library computes H^1 from the subgroup's presentation
instead; the tests compare the two.
"""

from glattice.cohomology import CocycleSpace
from glattice.exactla import IntMatrix, right_kernel_basis
from glattice.groups import mul
from cocycle_oracle import _invariants_of_submodule


class _SparseEchelon:
    """Incremental integer row echelon over sparse rows (dict col -> value)."""

    def __init__(self):
        self.pivots: dict[int, dict] = {}

    @staticmethod
    def _combine(a: dict, ca: int, b: dict, cb: int) -> dict:
        out = {k: ca * v for k, v in a.items()}
        for k, v in b.items():
            out[k] = out.get(k, 0) + cb * v
        return {k: v for k, v in out.items() if v}

    def insert(self, row: dict) -> None:
        row = {k: v for k, v in row.items() if v}
        while row:
            j = min(row)
            aj = row[j]
            piv = self.pivots.get(j)
            if piv is None:
                if aj < 0:
                    row = {k: -v for k, v in row.items()}
                self.pivots[j] = row
                return
            pj = piv[j]
            if aj % pj == 0:
                row = self._combine(row, 1, piv, -(aj // pj))
            else:
                g, x, y = _extgcd(pj, aj)
                new_piv = self._combine(piv, x, row, y)
                row = self._combine(piv, -(aj // g), row, pj // g)
                self.pivots[j] = new_piv

    def matrix(self, cols: int) -> IntMatrix:
        dense = []
        for j in sorted(self.pivots):
            line = [0] * cols
            for k, v in self.pivots[j].items():
                line[k] = v
            dense.append(line)
        return IntMatrix.from_rows(dense, cols=cols)


def _extgcd(a: int, b: int):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def pairwise_cocycles(m, s) -> CocycleSpace:
    """Z^1 and the generators of B^1 from the full pairwise system."""
    els = list(s.representative)
    index = {a: i for i, a in enumerate(els)}
    r = m.rank
    n_vars = len(els) * r
    ech = _SparseEchelon()
    rhos = {a: m.rho(a) for a in els}
    for a in els:
        ia = index[a]
        for b in els:
            ib = index[b]
            iab = index[mul(m.group, a, b)]
            for k in range(r):
                row: dict[int, int] = {}
                for col, val in [(iab * r + k, 1), (ia * r + k, -1)] + [
                    (ib * r + k2, -rhos[a][k, k2]) for k2 in range(r)
                ]:
                    row[col] = row.get(col, 0) + val
                ech.insert(row)
    cocycles = right_kernel_basis(ech.matrix(n_vars))
    ident = IntMatrix.identity(r)
    gens = []
    for j in range(r):
        vec = [0] * n_vars
        for a in els:
            d = rhos[a] - ident
            for k in range(r):
                vec[index[a] * r + k] = d[k, j]
        gens.append(tuple(vec))
    return CocycleSpace(
        elements=tuple(els),
        generators=tuple(els),
        rank=r,
        cocycles=cocycles,
        coboundaries=tuple(gens),
    )


def pairwise_h1(m, s):
    """H^1 = Z^1 / B^1 from the pairwise system."""
    space = pairwise_cocycles(m, s)
    return _invariants_of_submodule(space.cocycles, list(space.coboundaries))
