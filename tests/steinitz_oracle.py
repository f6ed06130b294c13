"""Paper statements about Steinitz classes that the library does not
compute, and the order-ideal route, kept as oracles for
`steinitz.steinitz_class`.

`same_class` and `class_multiplicativity_check` test cl(N) = cl(N_1) and
cl(M) = cl(M') * cl(M'') on exact sequences; `sublattice_action` gives the
induced action on a stable sublattice such as N_1 = ker Phi_p(sigma); and
`minkowski_h_is_one` is an independent certificate of the class table's
h_p = 1 for p <= 7.

`order_ideal_class` is the route `steinitz_class` took before it read the
class off one Hermite form: the order ideal of N/F, built prime by prime
from a filtration over the factors of Phi_p mod ell, then inverted.
`prime_ideal_above` also builds the prime-ideal lattices the tests use.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from glattice.cyclotomic import (
    IdealHNF,
    _check_p,
    ideal_from_rows,
    ideal_mul,
    is_prime,
    mult_matrix,
    reduce_poly,
    unit_ideal,
)
from glattice.exactla import (
    IntMatrix,
    det,
    express_rows,
    kernel_basis,
    row_space_hnf,
    smith_diagonal,
)
from glattice.lattices import (
    GLattice,
    LatticeError,
    NonStableSublattice,
    full_fixed_sublattice,
    quotient_with_maps,
)
from glattice.steinitz import ideal_module, principality, steinitz_class


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


# --- the order-ideal route ----------------------------------------------------


def order_ideal_class(n: GLattice) -> IdealHNF:
    """ideal_inverse(order_ideal(N/F)) for the F that `ideal_module` picks."""
    p = n.group.n
    _, basis = ideal_module(n)
    zq = quotient_with_maps(n, full_fixed_sublattice(n)).lattice.sigma
    torsion = TorsionModule(p=p, dim=basis.cols, relations=row_space_hnf(basis), zmat=zq)
    return ideal_inverse(order_ideal(torsion, p))


@dataclass(frozen=True)
class TorsionModule:
    """Finite Z[zeta_p]-module: Z^dim / relations, zeta acting by zmat."""

    p: int
    dim: int
    relations: IntMatrix  # full-rank row lattice
    zmat: IntMatrix  # column action, satisfies Phi_p(zmat) = 0 mod relations

    @property
    def order(self) -> int:
        return abs(det(self.relations))

def _apply_poly(poly, zmat: IntMatrix) -> IntMatrix:
    out = IntMatrix.zero(zmat.rows, zmat.rows)
    power = IntMatrix.identity(zmat.rows)
    for c in poly:
        if c:
            out = out + power * int(c)
        power = power * zmat
    return out


def order_ideal(torsion: TorsionModule, p: int) -> IdealHNF:
    """0th Fitting-style order ideal: product of p^(length) over primes p."""
    result = unit_ideal(p)
    remaining = torsion.order
    ell = 2
    while remaining > 1:
        if ell * ell > remaining:
            ell = remaining  # no factor up to its square root: what remains is prime
        if remaining % ell:
            ell += 1
            continue
        while remaining % ell == 0:
            remaining //= ell
        for factor in factor_cyclotomic_mod(p, ell):
            prime = prime_ideal_above(p, ell, factor)
            norm_prime = prime.norm()
            g_z = _apply_poly(factor, torsion.zmat)
            level = IntMatrix.identity(torsion.dim)
            length = 0
            while True:
                nxt_rows = (
                    [[ell * x for x in row] for row in level.data]
                    + [list(g_z.matvec(row)) for row in level.data]
                    + list(torsion.relations.data)
                )
                nxt = row_space_hnf(IntMatrix(nxt_rows, cols=torsion.dim))
                idx = lattice_index(level, nxt)
                if idx is None:
                    raise LatticeError("order-ideal filtration step is not a full-rank sublattice")
                if idx == 1:
                    break
                dim_drop = 0
                while idx > 1:
                    if idx % norm_prime:
                        raise LatticeError("index is not a power of the residue norm")
                    idx //= norm_prime
                    dim_drop += 1
                length += dim_drop
                level = nxt
            for _ in range(length):
                result = ideal_mul(result, prime)
        ell += 1
    if result.norm() != torsion.order:
        raise LatticeError(
            f"order ideal norm {result.norm()} != module order {torsion.order}"
        )
    return result

def ideal_inverse(a: IdealHNF) -> IdealHNF:
    """Integral representative C / g of the class of (R : A) = C / N, with
    C = {y : y.A inside N.R}, N = norm(A) and g = gcd(N, entries of C)."""
    if a.real_subfield:
        raise NotImplementedError("inverse only needed over the full ring")
    p = a.p
    n = a.norm()
    degree = p - 1
    blocks = [mult_matrix(p, list(row)) for row in a.basis.data]
    stacked = blocks[0]
    for b in blocks[1:]:
        stacked = stacked.hstack(b)
    # y in Z^degree with y*stacked = n * z
    aug = stacked.vstack(IntMatrix([[n if i == j else 0 for j in range(stacked.cols)] for i in range(stacked.cols)]))
    kern = kernel_basis(aug)
    ys = [row[:degree] for row in kern.data]
    g = gcd(n, *(x for row in ys for x in row))
    return ideal_from_rows(p, IntMatrix([[x // g for x in row] for row in ys], cols=degree))


# --- factorization of the cyclotomic polynomial mod ell ----------------------


def _poly_trim(f):
    while f and f[-1] == 0:
        f = f[:-1]
    return f


def _poly_mul_mod(a, b, f, ell):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % ell
    return _poly_divmod(out, f, ell)[1]


def _poly_gcd(a, b, ell):
    a = _poly_trim([x % ell for x in a]) or [0]
    b = _poly_trim([x % ell for x in b]) or [0]
    while b != [0]:
        a, b = b, _poly_divmod(a, b, ell)[1]
    # monic normalize
    if a != [0]:
        inv = pow(a[-1], -1, ell)
        a = [(x * inv) % ell for x in a]
    return a


def _poly_powmod(base, e, f, ell):
    result = [1]
    base = _poly_divmod(base, f, ell)[1]
    while e:
        if e & 1:
            result = _poly_mul_mod(result, base, f, ell)
        base = _poly_mul_mod(base, base, f, ell)
        e >>= 1
    return result


def _poly_sub(a, b, ell):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] - x) % ell
    return _poly_trim([x % ell for x in out]) or [0]


def factor_cyclotomic_mod(p: int, ell: int) -> list[list[int]]:
    """Monic irreducible factors of Phi_p mod ell (distinct unless ell = p).

    For ell = p the single factor X - 1 is returned (with multiplicity
    p - 1 implied).  Otherwise all factors share degree ord_p(ell).
    """
    _check_p(p)
    if ell == p:
        return [[-1 % p, 1]]
    phi = [1] * p  # 1 + X + ... + X^{p-1}
    d = 1
    r = ell % p
    while r != 1:
        r = (r * ell) % p
        d += 1
    count = (p - 1) // d
    factors = [phi]
    rng_state = [17]

    def next_rand_poly(deg):
        out = []
        for _ in range(deg):
            rng_state[0] = (rng_state[0] * 1103515245 + 12345) % (2**31)
            # the low bits of this generator have short periods (bit 0
            # alternates), so the coefficient comes from bits 16 and up
            out.append((rng_state[0] >> 16) % ell)
        return _poly_trim(out) or [0]

    result = []
    while factors:
        f = factors.pop()
        if (len(f) - 1) == d:
            inv = pow(f[-1], -1, ell)
            result.append([(x * inv) % ell for x in f])
            continue
        # Cantor-Zassenhaus equal-degree split
        while True:
            a = next_rand_poly(len(f) - 1)
            if _poly_trim(a) in ([], [0]):
                continue
            if ell == 2:
                # trace map over F_2
                t = list(a)
                acc = list(a)
                for _ in range(d - 1):
                    acc = _poly_mul_mod(acc, acc, f, ell)
                    t = _poly_sub(t, [(-x) % ell for x in acc], ell)
                g = _poly_gcd(f, t, ell)
            else:
                e = (ell**d - 1) // 2
                b = _poly_powmod(a, e, f, ell)
                g = _poly_gcd(f, _poly_sub(b, [1], ell), ell)
            if g != [0] and 0 < len(g) - 1 < len(f) - 1:
                q, rr = _poly_divmod(f, g, ell)
                if rr != [0]:
                    raise LatticeError(f"split factor does not divide modulo {ell}")
                factors.append(g)
                factors.append(q)
                break
    if len(result) != count:
        raise LatticeError(f"found {len(result)} of {count} factors modulo {ell}")
    return sorted(result)


def _poly_divmod(a, b, ell):
    a = [x % ell for x in a]
    b = _poly_trim([x % ell for x in b])
    db = len(b) - 1
    inv = pow(b[-1], -1, ell)
    q = [0] * max(1, len(a) - db)
    r = list(a)
    for i in range(len(a) - 1, db - 1, -1):
        c = (r[i] * inv) % ell
        if c:
            q[i - db] = c
            for j in range(db + 1):
                r[i - db + j] = (r[i - db + j] - c * b[j]) % ell
    return _poly_trim(q) or [0], _poly_trim(r) or [0]


def prime_ideal_above(p: int, ell: int, factor: list[int]) -> IdealHNF:
    """(ell, g(zeta)) for a factor g of Phi_p mod ell."""
    rows = [[ell if i == j else 0 for j in range(p - 1)] for i in range(p - 1)]
    g_coords = reduce_poly(p, [x % ell for x in factor])
    rows.extend(mult_matrix(p, g_coords).data)
    return ideal_from_rows(p, IntMatrix(rows, cols=p - 1))

def lattice_index(sup: IntMatrix, sub: IntMatrix) -> int | None:
    """Index [sup : sub] for sub contained in sup (row lattices, equal rank).

    Returns None when sub is not contained in sup or the ranks differ.
    """
    coords = express_rows(sup, sub)
    if coords is None:
        return None
    diag = smith_diagonal(coords)
    if sum(1 for d in diag if d) < sup.rows:
        return None
    idx = 1
    for d in diag:
        idx *= d
    return abs(idx)
