"""Paper statements about Steinitz classes that the library does not
compute, kept as oracles for `steinitz.steinitz_class`.

`same_class` and `class_multiplicativity_check` test cl(N) = cl(N_1) and
cl(M) = cl(M') * cl(M'') on exact sequences; `sublattice_action` gives the
induced action on a stable sublattice such as N_1 = ker Phi_p(sigma); and
`minkowski_h_is_one` is an independent certificate of the class table's
h_p = 1 for p <= 7.
"""

from fractions import Fraction
from math import isqrt

from glattice.cyclotomic import (
    IdealHNF,
    factor_cyclotomic_mod,
    ideal_inverse,
    ideal_mul,
    is_prime,
    prime_ideal_above,
)
from glattice.exactla import IntMatrix, express_rows
from glattice.lattices import GLattice, LatticeError, NonStableSublattice
from glattice.steinitz import principality, steinitz_class


def sublattice_action(m: GLattice, basis: IntMatrix) -> GLattice:
    """Induced action on a G-stable (not necessarily saturated) sublattice."""
    mats = []
    for rho in m.gens:
        mapped = IntMatrix.from_rows(
            [rho.matvec(row) for row in basis.data], cols=m.rank
        )
        coords = express_rows(basis, mapped)
        if coords is None:
            raise NonStableSublattice("sublattice not stable under the action")
        mats.append(coords.transpose())
    return GLattice(m.group, *mats, validate=False)


def same_class(a: IdealHNF, b: IdealHNF, search_bound: int = 3) -> bool | None:
    """True if provably equal classes; None when the search is inconclusive."""
    if a == b:
        return True
    quotient = ideal_mul(a, ideal_inverse(b))
    if principality(quotient, search_bound=search_bound):
        return True
    return None


def class_multiplicativity_check(ext, search_bound: int = 3) -> bool | None:
    """cl(total) = cl(sub) * cl(quotient); None if not certifiable."""
    ext.check()  # rejects non-exact input
    reps = [steinitz_class(lat, search_bound) for lat in (ext.sub, ext.total, ext.quotient)]
    sub_rep, total_rep, quot_rep = reps
    product = ideal_mul(sub_rep.ideal, quot_rep.ideal)
    return same_class(total_rep.ideal, product, search_bound=search_bound)


def minkowski_h_is_one(p: int) -> bool:
    """Certify h_p = 1 for small p by checking primes under the Minkowski bound.

    Uses the exact overestimate (4/pi)^r2 <= (12734/10000)^r2 and
    sqrt(disc) <= isqrt(disc) + 1; every prime ideal with norm under the
    bound must test principal.
    """
    if p not in (3, 5, 7):
        raise LatticeError("Minkowski certification implemented for p <= 7 only")
    n = p - 1
    r2 = n // 2
    disc = p ** (p - 2)
    fact = 1
    for k in range(2, n + 1):
        fact *= k
    bound = Fraction(12734, 10000) ** r2 * Fraction(fact, n**n) * (isqrt(disc) + 1)
    limit = int(bound) + 1
    for ell in range(2, limit + 1):
        if not is_prime(ell):
            continue
        for factor in factor_cyclotomic_mod(p, ell):
            prime = prime_ideal_above(p, ell, factor)
            if prime.norm() > limit:
                continue
            if not principality(prime, search_bound=4):
                return False
    return True
