"""Exception hierarchy shared by all fglab modules."""


class FglabError(Exception):
    """Base class for all computation errors raised by fglab."""


# -- scalar / 2-adic ------------------------------------------------------

class NotInDomain(FglabError):
    """Input lies outside the convergence/definition domain of the operation."""


class PrecisionTooLow(FglabError):
    pass


class NotAUnit(FglabError):
    """Element is not invertible in the coefficient ring."""


class DivisionUndefined(FglabError):
    """A division the operation cannot perform, such as a negative power of a series."""


# -- series ---------------------------------------------------------------

class VariableMismatch(FglabError):
    pass


class BoundMismatch(FglabError):
    pass


class NonUnitConstantTerm(FglabError):
    pass


class NotStrict(FglabError):
    """Series is not a strict isomorphism (leading coefficient != 1)."""


# -- formal group laws ----------------------------------------------------

class UnsupportedDimension(FglabError):
    pass


# -- chern ----------------------------------------------------------------

class DimensionMismatch(FglabError):
    pass


# -- adams ----------------------------------------------------------------

class UnsupportedK(FglabError):
    pass


class NotReducible(FglabError):
    def __init__(self, weight, msg=""):
        self.weight = weight
        super().__init__(f"not reducible through weight {weight}" + (f": {msg}" if msg else ""))


class InsufficientTable(FglabError):
    pass


class IndexOutOfRange(FglabError):
    pass


# -- cannibalistic classes ------------------------------------------------

class EvenK(FglabError):
    pass


# -- mahler ---------------------------------------------------------------

class MismatchAt(FglabError):
    def __init__(self, i, j, left, right):
        self.i = i
        self.j = j
        self.left = left
        self.right = right
        super().__init__(f"matrices differ first at ({i}, {j}): {left} vs {right}")


# -- cli ------------------------------------------------------------------

class UsageError(FglabError):
    pass
