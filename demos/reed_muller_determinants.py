"""Reed-Muller generator matrices and their lattice determinants.

Prints, for every order r < m up to m = 5, the exact Gram determinant of
the generator rows and the determinant of the Construction A lattice of
the code, then shows the rank-l sublattice ratios in dimension 8 that
make the first-order code at m = 3 (a scaled E8) remarkable.
"""

from codelattice import (
    construction_a,
    gamma_ratio,
    reed_muller_code,
    reed_muller_generators,
    reed_muller_table,
    sublattice_from_rows,
)

print(f"{'m':>2} {'r':>2} {'k':>3} {'det of rows':>14} {'det of lattice':>16}")
for m, r, k, det_rows, det_lattice in reed_muller_table(5):
    print(f"{m:>2} {r:>2} {k:>3} {det_rows:>14} {det_lattice:>16}")

print()
print("sublattice ratios inside the m=3 first-order lattice (scaled E8):")
lat = construction_a(reed_muller_code(1, 3))
rows = reed_muller_generators(1, 3)
rows[0] = [a + b for a, b in zip(rows[0], rows[1])]  # all-ones first row

for l, picked in ((2, rows[1:3]), (3, rows[:3]), (4, rows[:4])):
    sub = sublattice_from_rows(lat, picked)
    ratio = gamma_ratio(lat, sub)
    print(f"  rank {l}: det = {sub.det_l:>3}, ratio = {ratio} = {ratio.to_decimal(6)}")

print()
print("the rank-2 plane of determinant 12 is optimal: 12 / det^(1/4) = 3,")
print("the largest rank-2 value any 8-dimensional lattice attains.")
