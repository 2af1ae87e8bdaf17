"""Exact lattices from linear codes over Z_q.

Construction A, certified short-vector enumeration and densest-sublattice
search, and exact evaluation of Rankin and Berge-Martinet invariants as
radical numbers.
"""

from .exact import Radical, compare
from .codes import (
    LinearCode,
    WeightReport,
    parity_check_code,
    reed_muller_generators,
    reed_muller_code,
    extended_hamming_code,
    full_code,
    zero_code,
    weight_report,
    rank2_code_bound,
    dual_code,
    same_row_space,
    is_self_dual,
)
from .lattices import (
    IntegralLattice,
    Sublattice,
    RankDeficient,
    NotInLattice,
    hnf,
    construction_a,
    is_even,
    sublattice_from_rows,
    gamma_ratio,
)
from .enumeration import (
    ShortVector,
    ShortVectorList,
    EnumerationCap,
    CertificateError,
    short_vectors,
    lattice_minimum,
)
from .sublattice_search import SearchCertificate, minimal_sublattice
from .invariants import (
    KnownFact,
    BoundInterval,
    known_facts,
    known_fact_seeds,
    standard_seeds,
    rankin_invariant,
    berge_martinet_invariant,
    propagate_bounds,
    asymptotic_bounds,
    RANKIN,
    BERGE_MARTINET,
)

__version__ = "0.1.0"

__all__ = [
    "Radical",
    "compare",
    "LinearCode",
    "WeightReport",
    "parity_check_code",
    "reed_muller_generators",
    "reed_muller_code",
    "extended_hamming_code",
    "full_code",
    "zero_code",
    "weight_report",
    "dual_code",
    "same_row_space",
    "is_self_dual",
    "IntegralLattice",
    "Sublattice",
    "RankDeficient",
    "NotInLattice",
    "hnf",
    "construction_a",
    "is_even",
    "sublattice_from_rows",
    "gamma_ratio",
    "ShortVector",
    "ShortVectorList",
    "EnumerationCap",
    "CertificateError",
    "short_vectors",
    "lattice_minimum",
    "SearchCertificate",
    "minimal_sublattice",
    "rank2_code_bound",
    "KnownFact",
    "BoundInterval",
    "known_facts",
    "known_fact_seeds",
    "standard_seeds",
    "rankin_invariant",
    "berge_martinet_invariant",
    "propagate_bounds",
    "asymptotic_bounds",
    "RANKIN",
    "BERGE_MARTINET",
    "__version__",
]
