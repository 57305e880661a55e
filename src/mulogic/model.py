"""Finite models: per-sort carriers, symbol interpretation tables, and the
pointwise-lifted (extended) application.

Carrier subsets are bit vectors over the carrier's declaration order, which
keeps the set algebra cheap and every iteration order deterministic.

A model stores each symbol's interpretation in one form, the mask table
(:meth:`FiniteModel.mask_table`): a map from tuples of one-bit masks
(``1 << ordinal``), one per argument, to the result's bits.
:func:`build_model` writes those tables straight from the label data, and
:meth:`FiniteModel.interp` is a view of one, keyed by element tuples and
built on each call.  Tuples absent from a table denote the empty set, so
partial tables (e.g. a successor capped at the largest element) stay
small, and a tuple listed with an empty value is stored like an unlisted
one: not at all.

Symbol application is one pointwise routine over those tables,
:func:`_lift`, shared with the evaluator: it ORs the entries of every
combination of argument choices.  A key of singletons has one
combination, so a plain lookup (:meth:`FiniteModel.interpret_symbol`, and
the evaluator's application of arguments of at most one element each)
reads the table straight instead.  The model records which symbols
denote partial functions (no entry of more than one element), so that
the evaluator knows which applications hold at most one element.
Elements compare by identity, so each belongs to the one model that
built it; :meth:`FiniteModel._elem_mask` and :meth:`FiniteModel._set_bits`
alone decide carrier membership, for the public methods and the
evaluator alike.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    BadTupleError,
    BadValueSortError,
    DuplicateLabelError,
    EmptyCarrierError,
    MuLogicError,
    SortMismatchError,
    UnknownSortError,
    UnknownSymbolError,
)
from ._record import record, set_field
from .signature import Signature, Sort, SymbolDecl


@record(eq=False)
class CarrierElem:
    """Element ``ordinal`` of one model's ``sort`` carrier.  Compares by
    identity: a model accepts only its own (``carrier[e.ordinal] is e``)."""

    sort: Sort
    ordinal: int
    label: str

    def __init__(self, sort: Sort, ordinal: int, label: str) -> None:
        set_field(self, "sort", sort)
        set_field(self, "ordinal", ordinal)
        set_field(self, "label", label)

    def __str__(self) -> str:
        return self.label


@record
class CarrierSet:
    """Subset of one sort's carrier as a fixed-width bit vector."""

    sort: Sort
    width: int
    bits: int

    def __init__(self, sort: Sort, width: int, bits: int) -> None:
        set_field(self, "sort", sort)
        set_field(self, "width", width)
        set_field(self, "bits", bits)
        self.__post_init__()

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


@record
class SymbolInterp:
    """Interpretation table of one symbol, keyed by element tuples; unlisted
    tuples mean the empty set.  A view of :meth:`FiniteModel.mask_table`."""

    symbol: SymbolDecl
    table: Mapping[tuple[CarrierElem, ...], CarrierSet]

    def __init__(
        self, symbol: SymbolDecl, table: Mapping[tuple[CarrierElem, ...], CarrierSet]
    ) -> None:
        set_field(self, "symbol", symbol)
        set_field(self, "table", table)


class FiniteModel:
    """Nonempty finite carrier per sort plus one interpretation per symbol.

    ``carriers`` maps each sort to {label: element} in declaration order,
    ``masks`` each symbol to its mask table (everywhere empty if absent).
    Immutable after construction; build through :func:`build_model`.
    """

    def __init__(
        self,
        signature: Signature,
        carriers: Mapping[Sort, Mapping[str, CarrierElem]],
        masks: Mapping[SymbolDecl, Mapping[tuple[int, ...], int]],
    ):
        self.signature = signature
        self._by_label = carriers
        self._carriers = {sort: tuple(index.values()) for sort, index in carriers.items()}
        self._masks = {s: masks.get(s) or {} for s in signature.symbols}
        # per sort, the carrier's full mask and its elements' one-bit masks
        self._fulls = {sort: (1 << len(c)) - 1 for sort, c in self._carriers.items()}
        self._ones = {sort: tuple([1 << k for k in range(len(c))])
                      for sort, c in self._carriers.items()}
        # the symbols that denote partial functions: every entry of their
        # table holds one bit, so an application of them to arguments of
        # at most one element each denotes at most one element
        self._functions = frozenset([
            s for s, table in self._masks.items()
            if not any([bits & (bits - 1) for bits in table.values()])])

    def carrier(self, sort: Sort) -> tuple[CarrierElem, ...]:
        try:
            return self._carriers[sort]
        except KeyError:
            raise _no_carrier(sort) from None

    def carrier_size(self, sort: Sort) -> int:
        return len(self.carrier(sort))

    def elem(self, sort: Sort, label: str) -> CarrierElem:
        return _find(self._by_label, sort, label)

    def interp(self, symbol: SymbolDecl) -> SymbolInterp:
        """The symbol's mask table keyed by element tuples, valued by
        ``CarrierSet``s: a view built on each call, nonempty entries only."""
        table = self.mask_table(symbol)
        params = [self._carriers[param] for param in symbol.params]
        return SymbolInterp(symbol, {
            tuple([carrier[m.bit_length() - 1] for carrier, m in zip(params, key)]):
                self._result(symbol, bits)
            for key, bits in table.items()
        })

    def mask_table(self, symbol: SymbolDecl) -> Mapping[tuple[int, ...], int]:
        """The symbol's stored table, keyed by argument one-bit masks (``1
        << ordinal``), valued by result bits; nonempty entries only.  The
        evaluator reads a key of singleton arguments straight from it; a
        key with an empty argument is absent, so it reads 0."""
        table = self._masks.get(symbol)
        if table is None:
            raise UnknownSymbolError(f"symbol {symbol.name!r} is not declared here")
        return table

    def _full_mask(self, sort: Sort) -> int:
        """The bits of the whole carrier of ``sort``."""
        try:
            return self._fulls[sort]
        except KeyError:
            raise _no_carrier(sort) from None

    def _elem_masks(self, sort: Sort) -> tuple[int, ...]:
        """The one-bit mask of each element of ``sort``, in carrier order."""
        try:
            return self._ones[sort]
        except KeyError:
            raise _no_carrier(sort) from None

    # --- carrier membership ----------------------------------------------

    def _elem_mask(self, sort: Sort, elem: CarrierElem,
                   error: type[MuLogicError] = SortMismatchError) -> int:
        """``elem``'s one-bit mask; raises ``error`` unless ``elem`` is this
        model's element of ``sort``."""
        carrier = self.carrier(sort)
        if elem.ordinal < len(carrier) and carrier[elem.ordinal] is elem:
            return 1 << elem.ordinal
        raise error(f"{elem} is not an element of this model's {sort} carrier")

    def _set_bits(self, sort: Sort, cset: CarrierSet,
                  error: type[MuLogicError] = SortMismatchError) -> int:
        """``cset``'s bits; raises ``error`` unless ``cset`` is a subset of
        this model's carrier of ``sort``."""
        n = self.carrier_size(sort)
        if cset.sort is sort and cset.width == n:
            return cset.bits
        raise error(f"a set of sort {cset.sort} and width {cset.width} is not a subset "
                    f"of this model's {sort} carrier of {n} elements")

    # --- carrier subsets -------------------------------------------------

    def empty_set(self, sort: Sort) -> CarrierSet:
        return CarrierSet(sort, self.carrier_size(sort), 0)

    def full_set(self, sort: Sort) -> CarrierSet:
        n = self.carrier_size(sort)
        return CarrierSet(sort, n, (1 << n) - 1)

    def singleton(self, elem: CarrierElem) -> CarrierSet:
        return self.set_of(elem.sort, (elem,))

    def set_of(self, sort: Sort, elems: Iterable[CarrierElem]) -> CarrierSet:
        bits = 0
        for e in elems:
            bits |= self._elem_mask(sort, e)
        return CarrierSet(sort, self.carrier_size(sort), bits)

    def elems(self, cset: CarrierSet) -> tuple[CarrierElem, ...]:
        self._set_bits(cset.sort, cset)
        carrier = self._carriers[cset.sort]
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
        key = tuple([self._elem_mask(param, elem, BadTupleError)
                     for elem, param in zip(args, symbol.params)])
        return self._result(symbol, table.get(key, 0))

    def extended_app(
        self, symbol: SymbolDecl, arg_sets: Sequence[CarrierSet]
    ) -> CarrierSet:
        """Pointwise lift: union of the table over every combination of
        elements drawn from the argument sets."""
        table = self._mask_table(symbol, len(arg_sets))
        key = [self._set_bits(param, cset, BadTupleError)
               for cset, param in zip(arg_sets, symbol.params)]
        return self._result(symbol, _lift(table, key))

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
    each argument's bits in ``key``.  One argument's combinations are its
    bits, so it ORs their entries with no ``itertools.product``."""
    if len(key) == 1:
        (bits,) = key
        out = 0
        while bits:
            low = bits & -bits
            out |= table.get((low,), 0)
            bits ^= low
        return out
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


def _check_arity(symbol: SymbolDecl, count: int) -> None:
    if count != len(symbol.params):
        raise BadTupleError(
            f"{symbol.name} expects {len(symbol.params)} argument(s), got {count}"
        )


def _no_carrier(sort: Sort) -> UnknownSortError:
    return UnknownSortError(f"model has no carrier for sort {sort}")


def _find(by_label: Mapping[Sort, Mapping], sort: Sort, label: str) -> CarrierElem:
    elems = by_label.get(sort)
    if elems is None:
        raise _no_carrier(sort)
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

    masks: dict[SymbolDecl, dict[tuple[int, ...], int]] = {}
    for name, table in interps.items():
        symbol = sig.symbol(name)
        result = symbol.result
        built: dict[tuple[int, ...], int] = {}
        for arg_labels, value_labels in table.items():
            _check_arity(symbol, len(arg_labels))
            key = tuple([1 << _find(by_label, param, label).ordinal
                         for param, label in zip(symbol.params, arg_labels)])
            bits = 0
            try:
                for label in value_labels:
                    bits |= 1 << _find(by_label, result, label).ordinal
            except BadTupleError as err:
                raise BadValueSortError(f"value of {symbol.name}{arg_labels}: {err}") from None
            if bits:
                built[key] = bits
        masks[symbol] = built
    return FiniteModel(sig, by_label, masks)
