"""Finite models: per-sort carriers, symbol interpretation tables, and the
pointwise-lifted (extended) application.

Carrier subsets are bit vectors over the carrier's declaration order, which
keeps the set algebra cheap and every iteration order deterministic.
Interpretation tables map argument tuples to result subsets; tuples absent
from a table denote the empty set, so partial tables (e.g. a successor
capped at the largest element) stay small.

Each model also keeps every table in the form the compiled evaluator reads
(:meth:`FiniteModel.mask_table`): a map from tuples of one-bit masks, one
per argument, to the result's bits.  They are built once, with the model.
Symbol application is one pointwise routine over those tables,
:func:`_lift`, shared with the evaluator: it ORs the entries of every
combination of argument choices.  A key of singletons has one
combination, so a plain lookup (:meth:`FiniteModel.interpret_symbol`, and
the evaluator's application of arguments of at most one element each)
reads the table straight instead.  Elements compare by identity, so each
belongs to the one model that built it; the public methods validate their
input once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .errors import (
    BadTupleError,
    BadValueSortError,
    DuplicateLabelError,
    EmptyCarrierError,
    SortMismatchError,
    UnknownSortError,
    UnknownSymbolError,
)
from .signature import Signature, Sort, SymbolDecl

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class CarrierElem:
    """Element ``ordinal`` of one model's ``sort`` carrier.  Compares by
    identity: a model accepts only its own (``carrier[e.ordinal] is e``)."""

    sort: Sort
    ordinal: int
    label: str

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class CarrierSet:
    """Subset of one sort's carrier as a fixed-width bit vector."""

    sort: Sort
    width: int
    bits: int

    def __post_init__(self) -> None:
        if not 0 <= self.bits < (1 << self.width):
            raise ValueError(f"bits 0x{self.bits:x} exceed width {self.width}")

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == (1 << self.width) - 1

    def __len__(self) -> int:
        return self.bits.bit_count()

    def ordinals(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def contains(self, elem: CarrierElem) -> bool:
        self._check_elem(elem)
        return bool(self.bits >> elem.ordinal & 1)

    def union(self, other: CarrierSet) -> CarrierSet:
        self._check_compatible(other)
        return CarrierSet(self.sort, self.width, self.bits | other.bits)

    def intersection(self, other: CarrierSet) -> CarrierSet:
        self._check_compatible(other)
        return CarrierSet(self.sort, self.width, self.bits & other.bits)

    def complement(self) -> CarrierSet:
        return CarrierSet(self.sort, self.width, ((1 << self.width) - 1) ^ self.bits)

    def issubset(self, other: CarrierSet) -> bool:
        self._check_compatible(other)
        return self.bits & ~other.bits == 0

    __or__ = union
    __and__ = intersection
    __invert__ = complement
    __le__ = issubset

    def _check_compatible(self, other: CarrierSet) -> None:
        if self.sort != other.sort or self.width != other.width:
            raise SortMismatchError(
                f"cannot combine carrier sets of sort {self.sort} (width "
                f"{self.width}) and {other.sort} (width {other.width})"
            )

    def _check_elem(self, elem: CarrierElem) -> None:
        if elem.sort != self.sort or elem.ordinal >= self.width:
            raise SortMismatchError(
                f"element {elem} does not belong to the {self.sort} carrier"
            )


@dataclass(frozen=True)
class SymbolInterp:
    """Interpretation table of one symbol; unlisted tuples mean the empty set."""

    symbol: SymbolDecl
    table: Mapping[tuple[CarrierElem, ...], CarrierSet]


class FiniteModel:
    """Nonempty finite carrier per sort plus one interpretation per symbol.

    Immutable after construction; build through :func:`build_model`.
    """

    def __init__(
        self,
        signature: Signature,
        carriers: Mapping[Sort, tuple[CarrierElem, ...]],
        interps: Mapping[SymbolDecl, SymbolInterp],
    ):
        self.signature = signature
        self._carriers = dict(carriers)
        self._interps = {s: interps.get(s) or SymbolInterp(s, {})
                         for s in signature.symbols}
        self._by_label = {
            sort: {e.label: e for e in elems} for sort, elems in self._carriers.items()
        }
        self._masks = {
            s: {tuple(1 << e.ordinal for e in args): value.bits
                for args, value in interp.table.items() if value.bits}
            for s, interp in self._interps.items()
        }

    def carrier(self, sort: Sort) -> tuple[CarrierElem, ...]:
        try:
            return self._carriers[sort]
        except KeyError:
            raise UnknownSortError(f"model has no carrier for sort {sort}") from None

    def carrier_size(self, sort: Sort) -> int:
        return len(self.carrier(sort))

    def elem(self, sort: Sort, label: str) -> CarrierElem:
        return _find(self._by_label, sort, label)

    def interp(self, symbol: SymbolDecl) -> SymbolInterp:
        return _lookup(self._interps, symbol)

    def mask_table(self, symbol: SymbolDecl) -> Mapping[tuple[int, ...], int]:
        """The symbol's table keyed by argument one-bit masks (``1 <<
        ordinal``), valued by result bits; nonempty entries only.  The
        evaluator reads a key of singleton arguments straight from it; a
        key with an empty argument is absent, so it reads 0."""
        return _lookup(self._masks, symbol)

    # --- carrier subsets -------------------------------------------------

    def empty_set(self, sort: Sort) -> CarrierSet:
        return CarrierSet(sort, self.carrier_size(sort), 0)

    def full_set(self, sort: Sort) -> CarrierSet:
        n = self.carrier_size(sort)
        return CarrierSet(sort, n, (1 << n) - 1)

    def singleton(self, elem: CarrierElem) -> CarrierSet:
        return self.set_of(elem.sort, (elem,))

    def set_of(self, sort: Sort, elems: Iterable[CarrierElem]) -> CarrierSet:
        carrier = self.carrier(sort)
        bits = 0
        for e in elems:
            if not _member(carrier, e):
                raise SortMismatchError(f"element {e} is not in this model's {sort} carrier")
            bits |= 1 << e.ordinal
        return CarrierSet(sort, len(carrier), bits)

    def elems(self, cset: CarrierSet) -> tuple[CarrierElem, ...]:
        carrier = self.carrier(cset.sort)
        if cset.width != len(carrier):
            raise SortMismatchError(f"a set of width {cset.width} is not a subset of this "
                                    f"model's {cset.sort} carrier of {len(carrier)} elements")
        return tuple(carrier[i] for i in cset.ordinals())

    def format_set(self, cset: CarrierSet) -> str:
        labels = [e.label for e in self.elems(cset)]
        if not labels:
            return "{ }"
        return "{ " + ", ".join(labels) + " }"

    # --- symbol application ----------------------------------------------

    def interpret_symbol(
        self, symbol: SymbolDecl, args: Sequence[CarrierElem]
    ) -> CarrierSet:
        """Look up one tuple in the symbol's table (empty set if unlisted)."""
        args = tuple(args)
        table = self._mask_table(symbol, len(args))
        for k, (elem, param) in enumerate(zip(args, symbol.params)):
            if not _member(self._carriers[param], elem):
                raise BadTupleError(f"argument {k} of {symbol.name} must be an "
                                    f"element of this model's {param} carrier, got {elem}")
        return self._result(symbol, table.get(tuple([1 << e.ordinal for e in args]), 0))

    def extended_app(
        self, symbol: SymbolDecl, arg_sets: Sequence[CarrierSet]
    ) -> CarrierSet:
        """Pointwise lift: union of the table over every combination of
        elements drawn from the argument sets."""
        table = self._mask_table(symbol, len(arg_sets))
        for cset, param in zip(arg_sets, symbol.params):
            if cset.sort is not param or cset.width != len(self._carriers[param]):
                raise BadTupleError(f"argument set of sort {cset.sort} does not match "
                                    f"parameter sort {param} of {symbol.name}")
        return self._result(symbol, _lift(table, [cset.bits for cset in arg_sets]))

    def definedness(self, result_sort: Sort, arg_set: CarrierSet) -> CarrierSet:
        """Two-valued lift: empty if the argument set is empty, otherwise
        the full carrier of ``result_sort``.  Like :meth:`elems`, it refuses
        a set that is not over this model's carrier."""
        return self.full_set(result_sort) if self.elems(arg_set) else self.empty_set(result_sort)

    def _mask_table(self, symbol: SymbolDecl, count: int) -> Mapping[tuple[int, ...], int]:
        table = self.mask_table(symbol)
        _check_arity(symbol, count)
        return table

    def _result(self, symbol: SymbolDecl, bits: int) -> CarrierSet:
        return CarrierSet(symbol.result, len(self._carriers[symbol.result]), bits)


def _lift(table: Mapping[tuple[int, ...], int], key: Sequence[int]) -> int:
    """Pointwise application over a :meth:`FiniteModel.mask_table`: the OR
    of the entries of every combination of one-bit masks, one drawn from
    each argument's bits in ``key``."""
    choices = []
    for bits in key:
        ones = []
        while bits:
            low = bits & -bits
            ones.append(low)
            bits ^= low
        choices.append(ones)
    out = 0
    for combo in itertools.product(*choices):
        out |= table.get(combo, 0)
    return out


def _lookup(tables: Mapping[SymbolDecl, T], symbol: SymbolDecl) -> T:
    found = tables.get(symbol)
    if found is None:
        raise UnknownSymbolError(f"symbol {symbol.name!r} is not declared here")
    return found


def _member(carrier: tuple[CarrierElem, ...], elem: CarrierElem) -> bool:
    return elem.ordinal < len(carrier) and carrier[elem.ordinal] is elem


def _check_arity(symbol: SymbolDecl, count: int) -> None:
    if count != len(symbol.params):
        raise BadTupleError(
            f"{symbol.name} expects {len(symbol.params)} argument(s), got {count}"
        )


def _find(by_label: Mapping[Sort, Mapping], sort: Sort, label: str) -> CarrierElem:
    elems = by_label.get(sort)
    if elems is None:
        raise UnknownSortError(f"model has no carrier for sort {sort}")
    if label not in elems:
        raise BadTupleError(f"{label!r} is not an element of the {sort} carrier")
    return elems[label]


def singleton_fastpath(
    model: FiniteModel, arg_sets: Sequence[CarrierSet]
) -> tuple[CarrierElem, ...] | None:
    """Extract the element tuple when every argument set is a singleton.

    On success the extended application agrees with the plain table lookup
    on the extracted tuple (the one-combination case of the lift).  The
    0-ary case extracts the empty tuple.
    """
    out = []
    for cset in arg_sets:
        if len(cset) != 1:
            return None
        out += model.elems(cset)
    return tuple(out)


def build_model(
    sig: Signature,
    carriers: Mapping[str, Sequence[str]],
    interps: Mapping[str, Mapping[tuple[str, ...], Iterable[str]]],
) -> FiniteModel:
    """Validate and assemble a model from label-level data.

    ``carriers`` maps sort names to element labels; ``interps`` maps symbol
    names to {argument-label tuple: result-label collection}.  Symbols
    without an entry get the everywhere-empty interpretation.
    """
    by_label: dict[Sort, dict[str, CarrierElem]] = {}
    for name, labels in carriers.items():
        sort = sig.sort(name)
        index: dict[str, CarrierElem] = {}
        for label in labels:
            if label in index:
                raise DuplicateLabelError(
                    f"carrier of {sort} lists element {label!r} twice"
                )
            index[label] = CarrierElem(sort, len(index), label)
        by_label[sort] = index
    for sort in sig.sorts:
        if not by_label.get(sort):
            raise EmptyCarrierError(f"sort {sort} has an empty carrier")

    interp_map: dict[SymbolDecl, SymbolInterp] = {}
    for name, table in interps.items():
        symbol = sig.symbol(name)
        result = symbol.result
        built: dict[tuple[CarrierElem, ...], CarrierSet] = {}
        for arg_labels, value_labels in table.items():
            _check_arity(symbol, len(arg_labels))
            args = tuple(
                _find(by_label, param, label)
                for param, label in zip(symbol.params, arg_labels)
            )
            bits = 0
            try:
                for label in value_labels:
                    bits |= 1 << _find(by_label, result, label).ordinal
            except BadTupleError as err:
                raise BadValueSortError(f"value of {symbol.name}{arg_labels}: {err}") from None
            built[args] = CarrierSet(result, len(by_label[result]), bits)
        interp_map[symbol] = SymbolInterp(symbol, built)

    carrier_map = {sort: tuple(index.values()) for sort, index in by_label.items()}
    return FiniteModel(sig, carrier_map, interp_map)
