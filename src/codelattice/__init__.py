"""Exact lattices from linear codes over Z_q.

Construction A, certified short-vector enumeration and densest-sublattice
search, and exact evaluation of Rankin and Berge-Martinet invariants as
radical numbers.

The package exports the public names of its six layers: each layer's
`__all__` is the one place a name is declared public, and this module
lists none itself.  `cli` and `verify` are imported on first attribute
access (`codelattice.verify.CHECKS`) or by an import of their own.
"""

import importlib

from . import codes, enumeration, exact, invariants, lattices, sublattice_search
from .exact import *
from .lattices import *
from .enumeration import *
from .sublattice_search import *
from .codes import *
from .invariants import *

__version__ = "0.1.0"

_LAYERS = (exact, lattices, enumeration, sublattice_search, codes, invariants)
__all__ = [name for layer in _LAYERS for name in layer.__all__] + ["__version__"]


def __getattr__(name):
    """The `cli` and `verify` modules, imported on first access (PEP 562)."""
    if name in ("cli", "verify"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
