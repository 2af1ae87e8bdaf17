"""Reproduce the known constants that have a code construction.

Walks the full pipeline for each case: build the code, lift it to a
lattice with Construction A, search for the minimal rank-l sublattice
determinant, and evaluate the invariant as an exact radical.
"""

from codelattice import (
    berge_martinet_invariant,
    construction_a,
    known_facts,
    minimal_sublattice,
    parity_check_code,
    rankin_invariant,
    reed_muller_code,
    RANKIN,
)

CASES = [
    ("D3 = single parity check, n=3", parity_check_code(3, 2), 1),
    ("D4", parity_check_code(4, 2), 1),
    ("D4", parity_check_code(4, 2), 2),
    ("D5", parity_check_code(5, 2), 1),
    ("E8 (scaled) = first-order Reed-Muller, m=3", reed_muller_code(1, 3), 1),
    ("E8 (scaled)", reed_muller_code(1, 3), 2),
]

table = {(f.kind, f.n, f.l): f.value for f in known_facts()}

print("Rankin invariants from code constructions")
print("=" * 60)
for name, code, l in CASES:
    lattice = construction_a(code)
    cert = minimal_sublattice(lattice, l)
    value = rankin_invariant(lattice, cert)
    known = table.get((RANKIN, lattice.n, l))
    mark = "matches the known constant" if value == known else "lattice value"
    print(f"n={lattice.n} l={l}  {name}")
    print(f"  d_{l} = {cert.value}")
    print(f"  gamma = {value} = {value.to_decimal(6)}   [{mark}]")

print()
print("Berge-Martinet invariants (via the dual code)")
print("=" * 60)
for name, code, l in CASES:
    value = berge_martinet_invariant(code, l)
    print(f"n={code.n} l={l}  {name}: gamma' = {value} = {value.to_decimal(6)}")
