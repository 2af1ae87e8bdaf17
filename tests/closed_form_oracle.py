"""Closed forms for the top two sublattice ranks, kept as a test oracle.

For a full-rank integral lattice L of dimension n:

* d_n(L) = det L: every rank-n sublattice has finite index k in L and
  determinant k**2 * det L.
* d_{n-1}(L) = det L * lambda1(L*)**2: the primitive rank-(n-1)
  sublattices are L meet v-perp for the primitive vectors v of the dual
  lattice L*, with determinant det L * |v|**2 (Conway & Sloane, SPLAG
  ch. 1 section 2; Martinet, Perfect Lattices in Euclidean Spaces, ch. 1).

L* is reached through `dual_basis(L, s)`, a basis of s * L*, with s the
product of the HNF diagonal (the basis determinant), so that s * L* is
integral; lambda1(L*)**2 = lambda1(s L*)**2 / s**2.  Neither form uses the
norm-product budget, the Hermite floor or any tuple walk of the search.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from codelattice.enumeration import lattice_minimum
from codelattice.lattices import IntegralLattice, dual_basis


def top_rank_minimum(lattice: IntegralLattice) -> int:
    """d_n(L) = det L."""
    return lattice.det_gram


def corank_one_minimum(lattice: IntegralLattice) -> int:
    """d_{n-1}(L) = det L * lambda1(L*)**2 (n >= 2)."""
    if lattice.n < 2:
        raise ValueError("d_{n-1} needs n >= 2")
    s = prod(lattice.basis[i][i] for i in range(lattice.n))
    scaled_dual = IntegralLattice.from_rows(dual_basis(lattice, s))
    value = lattice.det_gram * Fraction(lattice_minimum(scaled_dual)[0], s * s)
    if value.denominator != 1:
        raise ValueError(f"d_(n-1) = {value} is not an integer")
    return value.numerator
