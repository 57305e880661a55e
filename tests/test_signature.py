import random

import pytest

from mulogic import Signature, mk_app
from mulogic.errors import (
    DuplicateSortError,
    DuplicateSymbolError,
    UnknownSortError,
    UnknownSymbolError,
)


def test_declare_sort_assigns_dense_ids():
    sig = Signature()
    nat = sig.declare_sort("Nat")
    assert (nat.name, nat.id) == ("Nat", 0)
    bool_ = sig.declare_sort("Bool")
    assert (bool_.name, bool_.id) == ("Bool", 1)
    assert sig.sort("Nat") == nat


def test_duplicate_sort_rejected():
    sig = Signature()
    sig.declare_sort("Nat")
    with pytest.raises(DuplicateSortError):
        sig.declare_sort("Nat")


def test_empty_sort_name_rejected():
    with pytest.raises(ValueError):
        Signature().declare_sort("")


def test_declare_symbol_round_trips(std_sig):
    is_zero = std_sig.symbol("isZero")
    params, result = std_sig.symbol_signature(is_zero)
    assert [s.name for s in params] == ["Nat"]
    assert result.name == "Bool"


def test_nullary_symbol(std_sig):
    zero = std_sig.symbol("O")
    assert std_sig.symbol_signature(zero) == ((), std_sig.sort("Nat"))


def test_symbol_with_undeclared_sort_rejected():
    sig = Signature()
    nat = sig.declare_sort("Nat")
    other = Signature()
    foreign = other.declare_sort("Undeclared")
    with pytest.raises(UnknownSortError):
        sig.declare_symbol("f", [foreign], nat)


def test_duplicate_symbol_rejected(std_sig):
    with pytest.raises(DuplicateSymbolError):
        std_sig.declare_symbol("isZero", [], std_sig.sort("Bool"))


def test_foreign_symbol_lookup_rejected(std_sig):
    other = Signature()
    b = other.declare_sort("Bool")
    stray = other.declare_symbol("stray", [], b)
    with pytest.raises(UnknownSymbolError):
        std_sig.symbol_signature(stray)
    with pytest.raises(UnknownSymbolError):
        std_sig.symbol("stray")
    # A twin signature declares the same names with the same ids; its sorts
    # and symbols are still foreign.
    a, b = Signature(), Signature()
    a_nat, b_nat = a.declare_sort("Nat"), b.declare_sort("Nat")
    a_zero = a.declare_symbol("zero", [], a_nat)
    b.declare_symbol("zero", [], b_nat)
    assert a_nat != b_nat
    with pytest.raises(UnknownSortError):
        b.elem_var("x", a_nat)
    with pytest.raises(UnknownSymbolError):
        mk_app(b, a_zero, [])


def test_unknown_sort_lookup(std_sig):
    with pytest.raises(UnknownSortError):
        std_sig.sort("Undeclared")


def test_declarations_echo_exactly():
    rng = random.Random(7)
    sig = Signature()
    sorts = [sig.declare_sort(f"S{i}") for i in range(5)]
    declared = []
    for i in range(20):
        params = [rng.choice(sorts) for _ in range(rng.randint(0, 3))]
        result = rng.choice(sorts)
        declared.append((sig.declare_symbol(f"f{i}", params, result), tuple(params), result))
    for symbol, params, result in declared:
        assert sig.symbol_signature(symbol) == (params, result)
    assert len({s.id for s in sig.sorts}) == len(sig.sorts)
    assert len({s.name for s in sig.symbols}) == len(sig.symbols)
    assert [s.id for s in sig.symbols] == list(range(20))
