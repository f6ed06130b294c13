"""The all-at-once permutation cover, kept as an oracle for
`rationality.flabby_resolution`.

Over the classes, largest subgroups first, every generator of (M*)^S that
the current image misses (read off the SNF of the image coordinates) gets
its own Z[G/S] summand at once, without counting the G-translates the
earlier summands of the same class already bring.  This is the cover the
library built before it went greedy with a drop pass; both cover every
(M*)^S, and the library's must never be the larger one.
"""

from glattice.exactla import IntMatrix, express_rows, inverse_unimodular, snf
from glattice.groups import subgroup_classes
from glattice.lattices import cosets, dual, fixed_sublattice, perm_lattice


def _needed_generators(mdual, cls, image_rows):
    """Vectors of (M*)^S needed on top of the current image."""
    fixed = fixed_sublattice(mdual, cls)
    if fixed.rows == 0:
        return []
    if not image_rows:
        return [tuple(row) for row in fixed.data]
    coords = express_rows(fixed, IntMatrix(image_rows, cols=mdual.rank))
    res = snf(coords)
    diag = res.diagonal() + [0] * (fixed.rows - min(coords.rows, fixed.rows))
    needed = [i for i in range(fixed.rows) if i >= len(diag) or diag[i] != 1]
    vinv = inverse_unimodular(res.v)
    return [fixed.vecmat(vinv.data[i]) for i in needed]


def oracle_cover(m) -> list[str]:
    """Subgroup-class labels of the all-at-once cover of M*."""
    g = m.group
    mdual = dual(m)
    classes = sorted(subgroup_classes(g), key=lambda c: -c.order)
    parts = {c.label: perm_lattice(g, c) for c in classes}
    summands = []  # (label, rho(x_i) . vec over the coset representatives x_i)
    for cls in classes:
        images = []
        for label, translates in summands:
            for row in fixed_sublattice(parts[label], cls).data:
                images.append(IntMatrix(translates).vecmat(row))
        for vec in _needed_generators(mdual, cls, images):
            translates = [mdual.rho(c[0]).matvec(vec) for c in cosets(g, cls)]
            summands.append((cls.label, translates))
    return [label for label, _ in summands]


def oracle_flabby_rank(m) -> int:
    """Rank of the flabby part of the all-at-once resolution."""
    g = m.group
    by_label = {c.label: c for c in subgroup_classes(g)}
    return sum(g.order // by_label[label].order for label in oracle_cover(m)) - m.rank
