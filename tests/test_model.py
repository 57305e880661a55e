import itertools
import random

import pytest

from mulogic import CarrierSet, Signature, build_model, singleton_fastpath
from mulogic.errors import (
    BadTupleError,
    BadValueSortError,
    DuplicateLabelError,
    EmptyCarrierError,
    SortMismatchError,
    UnknownSortError,
    UnknownSymbolError,
)
from conftest import make_std_model, make_std_signature


def elems(model, sort_name, *labels):
    sort = model.signature.sort(sort_name)
    return tuple(model.elem(sort, label) for label in labels)


def test_std_model_lookups(std_model):
    nat = std_model.signature.sort("Nat")
    bool_ = std_model.signature.sort("Bool")
    assert [e.label for e in std_model.carrier(nat)] == ["0", "1", "2", "3"]
    assert std_model.carrier_size(bool_) == 2
    is_zero = std_model.signature.symbol("isZero")
    assert std_model.format_set(
        std_model.interpret_symbol(is_zero, elems(std_model, "Nat", "0"))
    ) == "{ t }"
    assert std_model.format_set(
        std_model.interpret_symbol(is_zero, elems(std_model, "Nat", "2"))
    ) == "{ f }"


def test_unlisted_tuple_defaults_to_empty():
    sig = Signature()
    nat = sig.declare_sort("Nat")
    sig.declare_symbol("S", [nat], nat)
    model = build_model(sig, {"Nat": ["0", "1"]}, {"S": {("0",): ["1"]}})
    succ = sig.symbol("S")
    assert model.interpret_symbol(succ, elems(model, "Nat", "1")).is_empty


def test_empty_carrier_rejected():
    sig = Signature()
    sig.declare_sort("Bool")
    with pytest.raises(EmptyCarrierError):
        build_model(sig, {"Bool": []}, {})
    with pytest.raises(EmptyCarrierError):
        build_model(sig, {}, {})


def test_bad_tuple_rejected(std_sig):
    with pytest.raises(BadTupleError):
        build_model(
            std_sig,
            {"Bool": ["t", "f"], "Nat": ["0"]},
            {"isZero": {("t",): ["t"]}},
        )
    with pytest.raises(BadTupleError):
        build_model(
            std_sig,
            {"Bool": ["t", "f"], "Nat": ["0"]},
            {"isZero": {("0", "0"): ["t"]}},
        )


def test_bad_value_sort_rejected(std_sig):
    with pytest.raises(BadValueSortError):
        build_model(
            std_sig,
            {"Bool": ["t", "f"], "Nat": ["0"]},
            {"isZero": {("0",): ["0"]}},
        )


def test_duplicate_carrier_label_rejected(std_sig):
    with pytest.raises(DuplicateLabelError):
        build_model(std_sig, {"Bool": ["t", "t"], "Nat": ["0"]}, {})


def test_unknown_names_rejected(std_sig):
    with pytest.raises(UnknownSortError):
        build_model(std_sig, {"Undeclared": ["a"]}, {})
    with pytest.raises(UnknownSymbolError):
        build_model(
            std_sig, {"Bool": ["t"], "Nat": ["0"]}, {"mystery": {(): []}}
        )


def test_foreign_symbol_raises_one_error_type(std_model):
    # a same-named symbol of a second signature is not this model's
    twin = make_std_signature().symbol("isZero")
    for lookup in (std_model.interp, std_model.mask_table):
        with pytest.raises(UnknownSymbolError):
            lookup(twin)
    with pytest.raises(UnknownSymbolError):
        std_model.extended_app(twin, [std_model.full_set(std_model.signature.sort("Nat"))])


def test_mask_tables_key_one_bit_masks(std_sig, std_model):
    plus = std_model.mask_table(std_sig.symbol("plus"))
    one, two = (std_model.elem(std_sig.sort("Nat"), label) for label in "12")
    assert plus[(1 << one.ordinal, 1 << two.ordinal)] == std_model.interpret_symbol(
        std_sig.symbol("plus"), (one, two)).bits
    assert (1 << two.ordinal, 1 << two.ordinal) not in plus  # 2 + 2 maps to the empty set


def test_interpret_symbol_checks_tuples(std_sig, std_model):
    is_zero = std_model.signature.symbol("isZero")
    with pytest.raises(BadTupleError):
        std_model.interpret_symbol(is_zero, elems(std_model, "Bool", "t"))
    with pytest.raises(BadTupleError):
        std_model.interpret_symbol(is_zero, ())
    # Same signature, same labels, separate build: its elements are not ours.
    foreign = elems(make_std_model(std_sig), "Nat", "0")
    with pytest.raises(BadTupleError):
        std_model.interpret_symbol(is_zero, foreign)
    with pytest.raises(SortMismatchError):
        std_model.set_of(std_sig.sort("Nat"), foreign)


def test_extended_app_with_empty_argument(std_model):
    is_zero = std_model.signature.symbol("isZero")
    nat = std_model.signature.sort("Nat")
    out = std_model.extended_app(is_zero, [std_model.empty_set(nat)])
    assert out.is_empty


def test_extended_app_singletons_match_lookup(std_model):
    plus = std_model.signature.symbol("plus")
    one, two = elems(std_model, "Nat", "1", "2")
    lifted = std_model.extended_app(
        plus, [std_model.singleton(one), std_model.singleton(two)]
    )
    assert lifted == std_model.interpret_symbol(plus, (one, two))


def test_extended_app_unions_over_elements(std_model):
    is_zero = std_model.signature.symbol("isZero")
    nat = std_model.signature.sort("Nat")
    zero_one = std_model.set_of(nat, elems(std_model, "Nat", "0", "1"))
    assert std_model.format_set(std_model.extended_app(is_zero, [zero_one])) == "{ t, f }"


def test_extended_app_checks_sorts(std_model):
    is_zero = std_model.signature.symbol("isZero")
    bool_ = std_model.signature.sort("Bool")
    with pytest.raises(BadTupleError):
        std_model.extended_app(is_zero, [std_model.full_set(bool_)])


def test_definedness_is_two_valued(std_model):
    nat = std_model.signature.sort("Nat")
    bool_ = std_model.signature.sort("Bool")
    assert std_model.definedness(bool_, std_model.empty_set(nat)).is_empty
    one = std_model.set_of(nat, elems(std_model, "Nat", "1"))
    assert std_model.definedness(bool_, one) == std_model.full_set(bool_)
    assert std_model.definedness(nat, std_model.full_set(nat)) == std_model.full_set(nat)


def test_singleton_fastpath(std_model):
    nat = std_model.signature.sort("Nat")
    zero = elems(std_model, "Nat", "0")
    assert singleton_fastpath(std_model, [std_model.singleton(zero[0])]) == zero
    both = std_model.set_of(nat, elems(std_model, "Nat", "0", "1"))
    assert singleton_fastpath(std_model, [both]) is None
    assert singleton_fastpath(std_model, []) == ()


def test_carrier_set_algebra_laws(std_model):
    rng = random.Random(31)
    nat = std_model.signature.sort("Nat")
    n = std_model.carrier_size(nat)
    full = std_model.full_set(nat)
    for _ in range(200):
        a = CarrierSet(nat, n, rng.randrange(1 << n))
        b = CarrierSet(nat, n, rng.randrange(1 << n))
        assert (a | b) == (b | a)
        assert (a & b) == (b & a)
        assert a.complement().complement() == a
        assert (a | b).complement() == a.complement() & b.complement()
        assert (a & b).issubset(a) and a.issubset(a | b)
        assert (a | a.complement()) == full
        assert (a & a.complement()).is_empty


def test_carrier_set_sort_guard(std_model):
    nat = std_model.signature.sort("Nat")
    bool_ = std_model.signature.sort("Bool")
    with pytest.raises(SortMismatchError):
        std_model.full_set(nat) | std_model.full_set(bool_)


def test_extended_app_is_monotone(std_model):
    rng = random.Random(32)
    plus = std_model.signature.symbol("plus")
    nat = std_model.signature.sort("Nat")
    n = std_model.carrier_size(nat)
    for _ in range(60):
        small = CarrierSet(nat, n, rng.randrange(1 << n))
        big = small | CarrierSet(nat, n, rng.randrange(1 << n))
        other = CarrierSet(nat, n, rng.randrange(1 << n))
        assert std_model.extended_app(plus, [small, other]).issubset(
            std_model.extended_app(plus, [big, other])
        )
        assert std_model.extended_app(plus, [other, small]).issubset(
            std_model.extended_app(plus, [other, big])
        )


def test_extended_app_matches_bruteforce(std_model):
    rng = random.Random(33)
    plus = std_model.signature.symbol("plus")
    nat = std_model.signature.sort("Nat")
    n = std_model.carrier_size(nat)
    for _ in range(40):
        a = CarrierSet(nat, n, rng.randrange(1 << n))
        b = CarrierSet(nat, n, rng.randrange(1 << n))
        expected = set()
        for ea, eb in itertools.product(std_model.elems(a), std_model.elems(b)):
            expected.update(
                e.label for e in std_model.elems(std_model.interpret_symbol(plus, (ea, eb)))
            )
        got = {e.label for e in std_model.elems(std_model.extended_app(plus, [a, b]))}
        assert got == expected
