"""fglab: exact-arithmetic formal group laws, Adams operations, Chern numbers
and 2-adic Mahler calculus, with the source tables reproduced as golden data.
"""

__version__ = "0.1.0"
