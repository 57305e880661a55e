"""Exception hierarchy shared by every mulogic module.

All library errors derive from :class:`MuLogicError` so callers can catch
kernel, model, and checker failures with one handler.  Parse failures carry
positioned diagnostics and live in :mod:`mulogic.parser`.
"""

from __future__ import annotations


class MuLogicError(Exception):
    """Base class for all mulogic errors."""


# --- signature ---------------------------------------------------------


class DuplicateSortError(MuLogicError):
    pass


class DuplicateSymbolError(MuLogicError):
    pass


class UnknownSortError(MuLogicError):
    pass


class UnknownSymbolError(MuLogicError):
    pass


# --- kernel ------------------------------------------------------------


class IndexOutOfScopeError(MuLogicError):
    """A bound-variable index points past its sorting context."""


class SortMismatchError(MuLogicError):
    pass


class ArityMismatchError(MuLogicError):
    pass


class ArgSortMismatchError(MuLogicError):
    def __init__(self, position: int, message: str):
        super().__init__(message)
        self.position = position


class ContextMismatchError(MuLogicError):
    pass


class BinderSortMismatchError(MuLogicError):
    pass


# --- substitution ------------------------------------------------------


class BadSplitError(MuLogicError):
    """A context split point exceeds the context length."""


class SlotNotFoundError(MuLogicError):
    """The target pattern's context does not decompose around the
    replacement pattern's sort and context."""


# --- models ------------------------------------------------------------


class EmptyCarrierError(MuLogicError):
    pass


class BadTupleError(MuLogicError):
    pass


class BadValueSortError(MuLogicError):
    pass


class DuplicateLabelError(MuLogicError):
    pass


# --- evaluation --------------------------------------------------------


class NotClosedError(MuLogicError):
    pass


class UnboundFreeVariableError(MuLogicError):
    def __init__(self, variable, message: str):
        super().__init__(message)
        self.variable = variable


class NonPositiveMuError(MuLogicError):
    """Iterative fixpoint computation requires a positive binder body."""


class CarrierTooLargeError(MuLogicError):
    """Pre-fixpoint enumeration refused: 2^|carrier| exceeds the cap."""


class StateSpaceTooLargeError(MuLogicError):
    """Axiom checking refused: the valuation count exceeds the cap."""


class NestingTooDeepError(MuLogicError):
    """Evaluation refused: binder loops nest deeper at run time than the
    interpreter's recursion limit leaves room for."""


class NonPositiveMuWarning(UserWarning):
    """Pre-fixpoint intersection computed for a non-positive binder; the
    result need not be a fixpoint."""
