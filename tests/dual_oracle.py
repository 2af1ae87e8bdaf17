"""Reference for `lattices.dual_basis`: Fraction Gauss-Jordan inversion.

This is the routine `dual_code` used before the integer back substitution
on the triangular HNF basis; it stays here as the oracle.
"""

from __future__ import annotations

from fractions import Fraction

from codelattice.lattices import RankDeficient


def inverse_times(mat, scalar: int) -> list[list[int]]:
    """scalar * mat^{-1} as an integer matrix (error if not integral)."""
    n = len(mat)
    aug = [
        [Fraction(mat[i][j]) for j in range(n)]
        + [Fraction(scalar if j == i else 0) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next((i for i in range(col, n) if aug[i][col]), None)
        if piv is None:
            raise RankDeficient(f"rows span less than rank {n}")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [e * inv for e in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n, 2 * n):
            v = aug[i][j]
            if v.denominator != 1:
                raise ValueError("inverse times scalar is not integral")
            row.append(v.numerator)
        out.append(row)
    return out


def dual_basis(lattice, q: int) -> list[list[int]]:
    """Rows of q * (B^{-1})^T: the transpose of `inverse_times(B, q)`."""
    scaled_inv = inverse_times([list(r) for r in lattice.basis], q)
    n = lattice.n
    return [[scaled_inv[i][j] for i in range(n)] for j in range(n)]
