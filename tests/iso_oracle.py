"""Isomorphism search that forms and verifies every candidate, kept as an
oracle for `rationality.iso`.

Each drawn coefficient vector is combined into an integer matrix and passed
to `_verify_iso` (exact det, then the intertwining checks), with no screen.
The draws, their order, the caps and the detail strings are those of the
library's search, so both must return the same `IsoResult`.
"""

import itertools
import random

from glattice.exactla import IntMatrix
from glattice.lattices import LatticeError, LatticeMap
from glattice.rationality import (
    DEFAULT_BUDGET,
    IsoResult,
    _verify_iso,
    fingerprint,
    hom_space_basis,
)


def combine(basis, coeffs) -> IntMatrix:
    out = [[0] * basis[0].cols for _ in range(basis[0].rows)]
    for c, mat in zip(coeffs, basis):
        if c:
            for i, row in enumerate(mat.data):
                orow = out[i]
                for j, x in enumerate(row):
                    if x:
                        orow[j] += c * x
    return IntMatrix(out, cols=basis[0].cols)


def iso_oracle(a, b, budget=DEFAULT_BUDGET) -> IsoResult:
    if a.group != b.group:
        raise LatticeError("iso needs lattices over one group")
    if a.rank != b.rank:
        return IsoResult("noniso", detail="rank")
    if a == b:
        return IsoResult("iso", LatticeMap(a, b, IntMatrix.identity(a.rank)))
    diff = fingerprint(a).differs_from(fingerprint(b))
    if diff is not None:
        return IsoResult("noniso", detail=diff)
    basis = hom_space_basis(a, b)
    if not basis:
        return IsoResult("noniso", detail="empty hom space")
    d = len(basis)
    radius = budget.box_radius
    cap = max(budget.draws, 1)
    if (2 * radius + 1) ** d <= cap * 4:
        coords = sorted(
            itertools.product(range(-radius, radius + 1), repeat=d),
            key=lambda c: sum(abs(x) for x in c),
        )
        tried = 0
        for c in coords:
            if not any(c):
                continue
            tried += 1
            if tried > cap:
                return IsoResult("unknown", detail=f"box cap {cap} hit, dim {d}")
            cand = combine(basis, c)
            if _verify_iso(a, b, cand):
                return IsoResult("iso", LatticeMap(a, b, cand))
        return IsoResult("unknown", detail=f"box {radius} exhausted, dim {d}")
    rng = random.Random(budget.seed)
    for _ in range(cap):
        c = [rng.randint(-radius, radius) for _ in range(d)]
        if not any(c):
            continue
        cand = combine(basis, c)
        if _verify_iso(a, b, cand):
            return IsoResult("iso", LatticeMap(a, b, cand))
    return IsoResult("unknown", detail=f"{budget.draws} draws exhausted, dim {d}")
