"""Sorts, variables, and many-sorted symbols.

A :class:`Signature` is an append-only registry: sorts and symbols receive
dense integer ids in declaration order and are never removed, so patterns
may hold references into it for the signature's lifetime.  A populated
signature is treated as immutable and can be shared across threads.
Sorts and symbols compare by identity, so those of two signatures are
never equal, even under the same name and id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateSortError,
    DuplicateSymbolError,
    UnknownSortError,
    UnknownSymbolError,
)


@dataclass(frozen=True, eq=False)
class Sort:
    name: str
    id: int

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, eq=False)
class SymbolDecl:
    name: str
    params: tuple[Sort, ...]
    result: Sort
    id: int

    @property
    def arity(self) -> int:
        return len(self.params)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ElemVar:
    """Free element variable; identity is the (name, sort) pair."""

    name: str
    sort: Sort

    def __str__(self) -> str:
        return f"{self.name}:{self.sort.name}"


@dataclass(frozen=True)
class SetVar:
    """Free set variable; identity is the (name, sort) pair."""

    name: str
    sort: Sort

    def __str__(self) -> str:
        return f"#{self.name}:{self.sort.name}"


class Signature:
    """Registry of sorts and many-sorted symbols."""

    def __init__(self) -> None:
        self._sorts: list[Sort] = []
        self._sorts_by_name: dict[str, Sort] = {}
        self._symbols: list[SymbolDecl] = []
        self._symbols_by_name: dict[str, SymbolDecl] = {}

    @property
    def sorts(self) -> tuple[Sort, ...]:
        return tuple(self._sorts)

    @property
    def symbols(self) -> tuple[SymbolDecl, ...]:
        return tuple(self._symbols)

    def declare_sort(self, name: str) -> Sort:
        if not name:
            raise ValueError("sort name must be non-empty")
        if name in self._sorts_by_name:
            raise DuplicateSortError(f"sort {name!r} already declared")
        sort = Sort(name, len(self._sorts))
        self._sorts.append(sort)
        self._sorts_by_name[name] = sort
        return sort

    def declare_symbol(
        self, name: str, params: Iterable[Sort], result: Sort
    ) -> SymbolDecl:
        if not name:
            raise ValueError("symbol name must be non-empty")
        if name in self._symbols_by_name:
            raise DuplicateSymbolError(f"symbol {name!r} already declared")
        params = tuple(params)
        for sort in (*params, result):
            self._require_sort(sort)
        decl = SymbolDecl(name, params, result, len(self._symbols))
        self._symbols.append(decl)
        self._symbols_by_name[name] = decl
        return decl

    def sort(self, name: str) -> Sort:
        try:
            return self._sorts_by_name[name]
        except KeyError:
            raise UnknownSortError(f"sort {name!r} is not declared") from None

    def symbol(self, name: str) -> SymbolDecl:
        try:
            return self._symbols_by_name[name]
        except KeyError:
            raise UnknownSymbolError(f"symbol {name!r} is not declared") from None

    def has_sort(self, name: str) -> bool:
        return name in self._sorts_by_name

    def has_symbol(self, name: str) -> bool:
        return name in self._symbols_by_name

    def symbol_signature(self, symbol: SymbolDecl) -> tuple[tuple[Sort, ...], Sort]:
        """Echo the declared (parameter sorts, result sort) of ``symbol``."""
        self._require_symbol(symbol)
        return symbol.params, symbol.result

    def _require_sort(self, sort: Sort) -> None:
        if self._sorts_by_name.get(sort.name) is not sort:
            raise UnknownSortError(f"sort {sort.name!r} is not declared here")

    def _require_symbol(self, symbol: SymbolDecl) -> None:
        if self._symbols_by_name.get(symbol.name) is not symbol:
            raise UnknownSymbolError(f"symbol {symbol.name!r} is not declared here")

    def elem_var(self, name: str, sort: Sort) -> ElemVar:
        self._require_sort(sort)
        return ElemVar(name, sort)

    def set_var(self, name: str, sort: Sort) -> SetVar:
        self._require_sort(sort)
        return SetVar(name, sort)

    def __repr__(self) -> str:
        return (
            f"Signature(sorts=[{', '.join(s.name for s in self._sorts)}], "
            f"symbols=[{', '.join(s.name for s in self._symbols)}])"
        )
