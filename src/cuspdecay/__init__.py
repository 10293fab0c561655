"""Numerical toolkit for a composition operator on the Hardy space of
the bidisk whose approximation numbers decay exponentially along the
n^2 diagonal.

Layout:

* maps      -- cusp map chain, damping factor, symbol parameters, calibration
* hardy     -- coefficient-space assembly of the operator matrix
* spectrum  -- singular values, decay-rate fits, split Gram experiments
* verifier  -- numerically checkable statements behind the construction
* cli       -- configuration, orchestration, artifact emission
"""

from . import errors, hardy, maps, spectrum, verifier
from .maps import SymbolParams
from .hardy import TruncationSpec

__version__ = "0.1.0"

__all__ = [
    "SymbolParams",
    "TruncationSpec",
    "errors",
    "hardy",
    "maps",
    "spectrum",
    "verifier",
    "__version__",
]
