"""fglab: exact-arithmetic formal group laws, Adams operations, Chern numbers
and 2-adic Mahler calculus, with the source tables reproduced as golden data.
"""

from .rings import GF2, Padic2, Padic2Ring, RAT, padic_from_rat, padic_log
from .series import MultiSeries

__version__ = "0.1.0"

__all__ = [
    "GF2",
    "MultiSeries",
    "Padic2",
    "Padic2Ring",
    "RAT",
    "padic_from_rat",
    "padic_log",
    "__version__",
]
