import itertools
import math
import random
import re

import pytest

from mulogic import (
    CarrierSet,
    Signature,
    Theory,
    Valuation,
    Verdict,
    build_model,
    eval_pattern,
    parse_model,
    parse_pattern,
    parse_theory,
    satisfies,
    singleton_fastpath,
)
from mulogic.corpus import corpus_path
from mulogic.errors import (
    BadTupleError,
    BadValueSortError,
    DuplicateLabelError,
    EmptyCarrierError,
    MuLogicError,
    SortMismatchError,
    UnknownSortError,
    UnknownSymbolError,
)
from mulogic.model import _lift
from mulogic.pattern import free_vars
from conftest import make_std_model, make_std_signature
from gen import (
    random_model_data,
    random_nested_fixpoint,
    random_pattern,
    random_positive_mu,
    random_signature,
    random_term_model_data,
)
from reference import ref_tables


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


@pytest.mark.parametrize("carriers, interps, error, message", [
    # each input carries two faults; the one checked first is raised
    ({"Bool": ["t"], "Undeclared": ["a", "a"]}, {},
     UnknownSortError, "sort 'Undeclared' is not declared"),
    ({"Bool": ["t", "t"]}, {},
     DuplicateLabelError, "carrier of Bool lists element 't' twice"),
    ({"Bool": ["t"]}, {"mystery": {(): []}},
     EmptyCarrierError, "sort Nat has an empty carrier"),
    ({"Bool": ["t"], "Nat": ["0"]}, {"mystery": {("0", "0", "0"): ["t"]}},
     UnknownSymbolError, "symbol 'mystery' is not declared"),
    ({"Bool": ["t"], "Nat": ["0"]}, {"isZero": {("t", "0"): ["t"]}},
     BadTupleError, "isZero expects 1 argument(s), got 2"),
    ({"Bool": ["t"], "Nat": ["0"]}, {"isZero": {("t",): ["0"]}},
     BadTupleError, "'t' is not an element of the Nat carrier"),
    ({"Bool": ["t"], "Nat": ["0"]}, {"plus": {("0", "0"): ["0", "t"]}, "isZero": {("0",): ["0"]}},
     BadValueSortError, "value of plus('0', '0'): 't' is not an element of the Nat carrier"),
])
def test_build_model_error_precedence(std_sig, carriers, interps, error, message):
    with pytest.raises(error) as caught:
        build_model(std_sig, carriers, interps)
    assert type(caught.value) is error and str(caught.value) == message


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
    # listed with an empty value, 2 + 2 is stored as an unlisted tuple is: not at all
    assert (two, two) not in std_model.interp(std_sig.symbol("plus")).table


def test_stored_tables_match_reference_builder():
    rng = random.Random(34)
    for _ in range(200):
        sig = random_signature(rng)
        carriers, interps = random_model_data(rng, sig)
        model = build_model(sig, carriers, interps)
        for sort in sig.sorts:
            assert [e.label for e in model.carrier(sort)] == carriers[sort.name]
        for symbol, table in ref_tables(model, carriers, interps).items():
            assert model.interp(symbol).table == table
            assert model.mask_table(symbol) == {
                tuple(1 << e.ordinal for e in args): value.bits for args, value in table.items()}


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
    # a Nat set over a 10-element carrier, on this model's 4-element one
    with pytest.raises(BadTupleError):
        std_model.extended_app(is_zero, [CarrierSet(std_model.signature.sort("Nat"), 10, 1 << 9)])


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


def test_sets_over_another_carrier_are_refused(std_model):
    # a set over a 10-element Nat carrier, on this model's 4-element one
    wide = CarrierSet(std_model.signature.sort("Nat"), 10, 1 << 9)
    for read in (std_model.elems, std_model.format_set,
                 lambda cset: singleton_fastpath(std_model, [cset])):
        with pytest.raises(SortMismatchError):
            read(wide)


def test_singleton_refuses_an_element_of_another_model(std_sig, std_model):
    small = build_model(std_sig, {"Bool": ["t", "f"], "Nat": ["0", "1"]}, {})
    # one element past the small carrier, one whose ordinal fits in it
    for label in ("3", "0"):
        with pytest.raises(SortMismatchError):
            small.singleton(elems(std_model, "Nat", label)[0])
    (zero,) = elems(small, "Nat", "0")
    assert small.elems(small.singleton(zero)) == (zero,)


def test_definedness_refuses_a_set_over_another_carrier(std_model):
    nat = std_model.signature.sort("Nat")
    bool_ = std_model.signature.sort("Bool")
    for width in (10, 3):
        with pytest.raises(SortMismatchError):
            std_model.definedness(bool_, CarrierSet(nat, width, 1 << (width - 1)))
        with pytest.raises(SortMismatchError):
            std_model.definedness(bool_, CarrierSet(nat, width, 0))


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
    with pytest.raises(SortMismatchError):
        std_model.full_set(nat).contains(std_model.elem(bool_, "t"))
    for bits in (-1, 1 << 4):
        with pytest.raises(ValueError, match="exceed width 4"):
            CarrierSet(nat, 4, bits)


# a sort declared after the model was built has no carrier in it
@pytest.mark.parametrize("text, closed", [
    (r"\top{Late}", True),
    (r"\exists{Late} \top{Bool}", True),
    (r"\ceil{Bool}(x:Late)", False),
    (r"\ceil{Bool}(#X:Late)", False),
])
def test_a_sort_without_a_carrier_is_refused(std_sig, std_model, text, closed):
    late = std_sig.declare_sort("Late")
    message = "model has no carrier for sort Late"
    for lookup in (std_model.carrier, lambda sort: std_model.elem(sort, "a")):
        with pytest.raises(UnknownSortError, match=message):
            lookup(late)
    p = parse_pattern(text, std_sig)
    if closed:
        with pytest.raises(UnknownSortError, match=message):
            eval_pattern(std_model, Valuation.empty(), p)
    (result,) = satisfies(std_model, Theory(std_sig).add_axiom("late", p.sort, p)).results
    assert (result.verdict, result.message) == (Verdict.ERROR, f"UnknownSortError: {message}")


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


def lifted_entries(table, key):
    """The OR of the entries of a mask table whose every argument bit lies
    in that argument's bits in ``key``: the pointwise lift read off the
    table's entries instead of built from the key's combinations."""
    out = 0
    for args, bits in table.items():
        if all(arg & bits_of_arg for arg, bits_of_arg in zip(args, key)):
            out |= bits
    return out


def lift_keys(rng, n):
    """Argument bits over an ``n``-element carrier: none, one element,
    several (two or more, not all, where the carrier allows) and all."""
    full = (1 << n) - 1
    several = [bits for bits in range(full) if bits.bit_count() > 1]
    return [0, 1 << rng.randrange(n), *([rng.choice(several)] if several else []), full]


def test_lift_matches_the_entries_it_covers():
    """``_lift`` and ``extended_app`` over unary and binary symbols that are
    total functions, partial functions, relations or have no entry at all,
    at keys of no bit, one bit, several bits and the full carrier."""
    rng = random.Random(38)
    shapes, arities = set(), set()
    for case in range(150):
        sig = Signature()
        a, b = sig.declare_sort("A"), sig.declare_sort("B")
        unary, binary = sig.declare_symbol("f", [a], b), sig.declare_symbol("g", [a, b], a)
        carriers, interps = random_term_model_data(rng, sig, max_carrier=5)
        if case % 5 == 0:  # no entry: every key lifts to the empty set
            interps[rng.choice(["f", "g"])] = {}
        model = build_model(sig, carriers, interps)
        for symbol in (unary, binary):
            table = model.mask_table(symbol)
            values = list(table.values())
            domain = math.prod(model.carrier_size(param) for param in symbol.params)
            shapes.add("empty" if not values else "relation" if any(
                v & (v - 1) for v in values) else "partial" if len(values) < domain else "total")
            interp = model.interp(symbol).table
            for key in itertools.product(*[lift_keys(rng, model.carrier_size(param))
                                           for param in symbol.params]):
                arity_bits = tuple(min(bits.bit_count(), 2) for bits in key)
                arities.add((len(key), arity_bits))
                want = lifted_entries(table, key)
                assert _lift(table, key) == want, (case, symbol.name, key)
                arg_sets = [CarrierSet(param, model.carrier_size(param), bits)
                            for param, bits in zip(symbol.params, key)]
                got = model.extended_app(symbol, arg_sets)
                # the same set, read off the element-keyed view of the table
                seen = model.empty_set(symbol.result)
                for args, value in interp.items():
                    if all(s.contains(e) for s, e in zip(arg_sets, args)):
                        seen = seen | value
                assert got == seen == CarrierSet(symbol.result, got.width, want)
    assert shapes == {"empty", "total", "partial", "relation"}
    # every pairing of no bit, one bit and two or more bits, in both arities
    assert arities >= {(1, (k,)) for k in range(3)} | {
        (2, (k, m)) for k in range(3) for m in range(3)}


_CARRIER_LINE_RE = re.compile(r"^(carrier \w+ = \{ )(.*)( \})$", re.M)


def relabelled(text, rng):
    """``text`` with the labels of each carrier line in a seeded order."""
    def shuffle(m):
        labels = m.group(2).split(", ")
        rng.shuffle(labels)
        return m.group(1) + ", ".join(labels) + m.group(3)
    return _CARRIER_LINE_RE.sub(shuffle, text)


def label_outcomes(model, p, mode):
    """The labels ``p`` denotes in ``model`` under ``mode``, once per
    valuation of its free element variables by label, or the error."""
    evars = sorted(free_vars(p)[0], key=lambda v: (v.name, v.sort.id))
    choices = [sorted(e.label for e in model.carrier(v.sort)) for v in evars]
    out = []
    for labels in itertools.product(*choices):
        rho = Valuation.empty()
        for var, label in zip(evars, labels):
            rho = rho.update_evar(var, model.elem(var.sort, label))
        try:
            got = eval_pattern(model, rho, p, lfp_mode=mode)
            out.append(sorted(e.label for e in model.elems(got)))
        except MuLogicError as err:
            out.append(f"{type(err).__name__}: {err}")
    return out


def closed_patterns(rng, sig, count):
    """``count`` seeded closed ``gen.py`` patterns over ``sig``, every mu
    binder positive."""
    makers = (
        lambda: random_pattern(rng, sig, rng.choice(sig.sorts), budget=rng.randint(2, 14),
                               allow_free=False, positive_only=True),
        lambda: random_positive_mu(rng, sig, budget=rng.randint(2, 12)),
        lambda: random_nested_fixpoint(rng, sig, depth=rng.randint(1, 3)),
    )
    return [makers[i % 3]() for i in range(count)]


def test_carrier_relabelling_permutes_every_denotation():
    theory = parse_theory(corpus_path("natbool.mlt").read_text(encoding="utf-8"))
    text = corpus_path("natbool.mlm").read_text(encoding="utf-8")
    permuted = relabelled(text, random.Random(42))
    models = [parse_model(t, theory)[0] for t in (text, permuted)]
    sig = theory.signature
    for sort in sig.sorts:
        a, b = ([e.label for e in m.carrier(sort)] for m in models)
        assert a != b and sorted(a) == sorted(b)

    rng = random.Random(43)
    cases = [(models, [a.pattern for a in theory.axioms] + closed_patterns(rng, sig, 200))]
    # seeded random models, built again with each carrier list shuffled
    for _ in range(40):
        rsig = random_signature(rng)
        carriers, interps = random_model_data(rng, rsig)
        shuffled = {name: rng.sample(labels, len(labels)) for name, labels in carriers.items()}
        pair = [build_model(rsig, c, interps) for c in (carriers, shuffled)]
        cases.append((pair, closed_patterns(rng, rsig, 20)))
    for pair, patterns in cases:
        for p in patterns:
            for mode in ("iterate", "prefix"):
                a, b = (label_outcomes(m, p, mode) for m in pair)
                assert a == b, (p, mode)

    for mode in ("iterate", "prefix"):
        a, b = ([(r.axiom.label, r.verdict) for r in satisfies(m, theory, lfp_mode=mode).results]
                for m in models)
        assert a == b
