"""Exact-arithmetic toolkit for integral representations of C_n and D_n.

Builds the named lattices of the odd-dihedral catalog, computes Tate
cohomology and flabbiness, verifies the explicit stable-permutation
change-of-basis identities, evaluates Steinitz classes over cyclotomic
rings, and classifies the rationality of the corresponding tori.
"""

__version__ = "0.1.0"

from .exactla import AbelianInvariants, IntMatrix, det, hnf, snf
from .groups import GroupSpec, cyclic, dihedral, subgroup_classes
from .lattices import GLattice, direct_sum, dual, perm_lattice, restrict
from .cohomology import ext1, h1, is_coflabby, is_flabby, tate_h0, tate_hminus1
from .catalog import build, circulant, lee_census, twisted_lattice, verify_witness, witness
from .rationality import Budget, classify, flabby_resolution, iso, stably_permutation
from .steinitz import default_class_table, principality, steinitz_class

__all__ = [
    "AbelianInvariants",
    "Budget",
    "GLattice",
    "GroupSpec",
    "IntMatrix",
    "build",
    "circulant",
    "classify",
    "cyclic",
    "default_class_table",
    "det",
    "dihedral",
    "direct_sum",
    "dual",
    "ext1",
    "flabby_resolution",
    "h1",
    "hnf",
    "is_coflabby",
    "is_flabby",
    "iso",
    "lee_census",
    "perm_lattice",
    "principality",
    "restrict",
    "snf",
    "stably_permutation",
    "steinitz_class",
    "subgroup_classes",
    "tate_h0",
    "tate_hminus1",
    "twisted_lattice",
    "verify_witness",
    "witness",
]
