import random

import pytest

from mulogic import (
    Axiom,
    ElemVar,
    SetVar,
    Signature,
    Theory,
    Valuation,
    Verdict,
    check_axiom,
    eval_pattern,
    instantiate_definedness,
    mk_and,
    mk_app,
    mk_bottom,
    mk_bound_evar,
    mk_defined,
    mk_equals,
    mk_free_evar,
    mk_free_svar,
    mk_or,
    mk_top,
    report_records,
    report_text,
    satisfies,
)
from mulogic.errors import (
    DuplicateLabelError,
    MuLogicError,
    NotClosedError,
    SortMismatchError,
    StateSpaceTooLargeError,
)
from gen import random_model, random_pattern, random_signature


@pytest.fixture
def bool_(std_sig):
    return std_sig.sort("Bool")


@pytest.fixture
def nat(std_sig):
    return std_sig.sort("Nat")


@pytest.fixture
def bool_domain(std_sig):
    return mk_or(
        mk_app(std_sig, std_sig.symbol("false"), []),
        mk_app(std_sig, std_sig.symbol("true"), []),
    )


def test_add_axiom(std_sig, bool_, bool_domain):
    theory = Theory(std_sig).add_axiom("bool-domain", bool_, bool_domain)
    assert [a.label for a in theory.axioms] == ["bool-domain"]
    assert theory.axiom("bool-domain") is theory.axioms[0]
    with pytest.raises(KeyError):
        theory.axiom("missing")


def test_open_axiom_rejected(std_sig, bool_):
    with pytest.raises(NotClosedError):
        Theory(std_sig).add_axiom("bad", bool_, mk_bound_evar((bool_,), (), 0))


def test_axiom_sort_mismatch_rejected(std_sig, bool_, nat):
    with pytest.raises(SortMismatchError):
        Theory(std_sig).add_axiom("bad", nat, mk_top(bool_))


def test_duplicate_label_rejected(std_sig, bool_, bool_domain):
    theory = Theory(std_sig).add_axiom("bool-domain", bool_, bool_domain)
    with pytest.raises(DuplicateLabelError):
        theory.add_axiom("bool-domain", bool_, bool_domain)


def test_theory_requires_a_sort():
    with pytest.raises(ValueError):
        Theory(Signature())


def test_instantiate_definedness_counts():
    sig = Signature()
    sig.declare_sort("Bool")
    single = instantiate_definedness(Theory(sig))
    assert [a.label for a in single.axioms] == ["definedness/Bool/Bool"]

    sig2 = Signature()
    sig2.declare_sort("Bool")
    sig2.declare_sort("Nat")
    four = instantiate_definedness(Theory(sig2))
    assert len(four.axioms) == 4
    assert {a.label for a in four.axioms} == {
        "definedness/Bool/Bool",
        "definedness/Bool/Nat",
        "definedness/Nat/Bool",
        "definedness/Nat/Nat",
    }
    with pytest.raises(DuplicateLabelError):
        instantiate_definedness(four)



def test_instantiate_definedness_order_and_clash():
    sig = Signature()
    sorts = [sig.declare_sort(name) for name in ("A", "B", "C")]
    top = mk_top(sorts[0])
    theory = Theory(sig).add_axiom("domain", sorts[0], top)
    out = instantiate_definedness(theory)
    assert [a.label for a in out.axioms] == ["domain"] + [
        f"definedness/{arg}/{result}" for arg in "ABC" for result in "ABC"
    ]
    assert [a.sort for a in out.axioms[1:]] == sorts * 3
    assert out.axioms[0] is theory.axioms[0]
    # a clash with a label the theory already has
    taken = Theory(sig).add_axiom("definedness/B/A", sorts[0], top)
    with pytest.raises(DuplicateLabelError, match="'definedness/B/A' declared twice"):
        instantiate_definedness(taken)

def test_check_axiom_satisfied(std_sig, std_model, bool_, bool_domain):
    theory = Theory(std_sig).add_axiom("bool-domain", bool_, bool_domain)
    result = check_axiom(std_model, theory.axiom("bool-domain"))
    assert result.verdict is Verdict.SATISFIED


def test_check_definedness_axiom_enumerates_elements(std_sig, std_model):
    theory = instantiate_definedness(Theory(std_sig))
    result = check_axiom(std_model, theory.axiom("definedness/Nat/Bool"))
    assert result.verdict is Verdict.SATISFIED


def test_check_axiom_violated_with_witness(std_sig, std_model, bool_):
    theory = Theory(std_sig).add_axiom("absurd", bool_, mk_bottom(bool_))
    result = check_axiom(std_model, theory.axiom("absurd"))
    assert result.verdict is Verdict.VIOLATED
    assert result.got is not None and result.got.is_empty
    assert result.witness is not None


def test_witness_reproduces_violation(std_sig, std_model, nat):
    x = ElemVar("x", nat)
    axiom_pattern = mk_equals(
        nat, mk_free_evar(x), mk_app(std_sig, std_sig.symbol("O"), [])
    )
    theory = Theory(std_sig).add_axiom("x-is-zero", nat, axiom_pattern)
    result = check_axiom(std_model, theory.axiom("x-is-zero"))
    assert result.verdict is Verdict.VIOLATED
    again = eval_pattern(std_model, result.witness, axiom_pattern)
    assert again == result.got
    assert again != std_model.full_set(nat)


def test_satisfies_reports_in_declaration_order(std_sig, std_model, bool_, bool_domain):
    theory = (
        Theory(std_sig)
        .add_axiom("bool-domain", bool_, bool_domain)
        .add_axiom("always", bool_, mk_top(bool_))
        .add_axiom("never", bool_, mk_bottom(bool_))
    )
    report = satisfies(std_model, theory)
    assert [r.axiom.label for r in report.results] == ["bool-domain", "always", "never"]
    assert [r.verdict for r in report.results] == [
        Verdict.SATISFIED,
        Verdict.SATISFIED,
        Verdict.VIOLATED,
    ]
    assert not report.satisfied


def test_satisfies_label_filter(std_sig, std_model, bool_, bool_domain):
    theory = (
        Theory(std_sig)
        .add_axiom("bool-domain", bool_, bool_domain)
        .add_axiom("never", bool_, mk_bottom(bool_))
    )
    report = satisfies(std_model, theory, labels=["bool-domain"])
    assert len(report.results) == 1 and report.satisfied


def test_satisfies_refuses_labels_that_name_no_axiom(std_sig, std_model, bool_, bool_domain):
    theory = Theory(std_sig).add_axiom("bool-domain", bool_, bool_domain)
    for labels, missing in [
        (["bool-domian"], "bool-domian"),
        (["x", "bool-domain", "y"], "x, y"),
        ("bool-domain", "b, o, o, l, -, d, o, m, a, i, n"),
    ]:
        with pytest.raises(MuLogicError) as err:
            satisfies(std_model, theory, labels=labels)
        assert str(err.value) == f"no such axiom(s): {missing}"
    assert theory.select(["bool-domain"]) == theory.axioms == theory.select()


def test_theory_keeps_no_container_of_the_callers(std_sig, std_model, bool_, bool_domain):
    axioms = [Axiom("bool-domain", bool_, bool_domain)]
    options = {"instantiate-definedness"}
    theory = Theory(std_sig, axioms, options)
    axioms.append(axioms[0])
    options.add("other")
    assert theory.axioms == (axioms[0],) and theory.options == {"instantiate-definedness"}
    hash(theory)
    assert len(theory.add_axiom("never", bool_, mk_bottom(bool_)).axioms) == 2
    assert len(instantiate_definedness(theory).axioms) == 1 + len(std_sig.sorts) ** 2
    kept = Theory(std_sig, theory.axioms, theory.options)
    assert kept.axioms is theory.axioms and kept.options is theory.options


def test_satisfies_aggregates_errors_and_continues(std_sig, std_model, bool_, nat, bool_domain):
    from mulogic import mk_mu, mk_not, mk_bound_svar

    non_positive = mk_mu(mk_not(mk_bound_svar((), (nat,), 0)))
    theory = (
        Theory(std_sig)
        .add_axiom("broken", nat, non_positive)
        .add_axiom("bool-domain", bool_, bool_domain)
    )
    report = satisfies(std_model, theory, lfp_mode="iterate")
    assert report.results[0].verdict is Verdict.ERROR
    assert "NonPositiveMu" in report.results[0].message
    assert report.results[1].verdict is Verdict.SATISFIED
    assert not report.satisfied


def test_satisfies_lets_faults_propagate(std_sig, std_model, bool_, bool_domain):
    theory = Theory(std_sig).add_axiom("bool-domain", bool_, bool_domain)
    with pytest.raises(ValueError, match="unknown lfp mode 'bogus'"):
        satisfies(std_model, theory, lfp_mode="bogus")


def test_monotone_reporting(std_sig, std_model, bool_, bool_domain):
    theory = Theory(std_sig).add_axiom("bool-domain", bool_, bool_domain)
    before = satisfies(std_model, theory)
    extended = theory.add_axiom("never", bool_, mk_bottom(bool_))
    after = satisfies(std_model, extended)
    assert [r.verdict for r in after.results[:1]] == [r.verdict for r in before.results]


def test_state_space_cap(std_sig, std_model, bool_):
    # two set variables over Nat make 16 * 16 valuations; cap below that
    X, Y = SetVar("X", std_sig.sort("Nat")), SetVar("Y", std_sig.sort("Nat"))
    pattern = mk_defined(bool_, mk_and(mk_free_svar(X), mk_free_svar(Y)))
    theory = Theory(std_sig).add_axiom("big", bool_, pattern)
    with pytest.raises(StateSpaceTooLargeError):
        check_axiom(std_model, theory.axiom("big"), state_cap=100)
    report = satisfies(std_model, theory, state_cap=100)
    assert report.results[0].verdict is Verdict.ERROR
    assert "StateSpaceTooLarge" in report.results[0].message


def test_equality_axioms_are_two_valued():
    rng = random.Random(51)
    for _ in range(40):
        sig = random_signature(rng)
        model = random_model(rng, sig)
        sort = rng.choice(sig.sorts)
        result_sort = rng.choice(sig.sorts)
        left = random_pattern(rng, sig, sort, budget=6, allow_free=False, mu_depth=0)
        right = random_pattern(rng, sig, sort, budget=6, allow_free=False, mu_depth=0)
        out = eval_pattern(model, Valuation.empty(), mk_equals(result_sort, left, right))
        assert out.is_empty or out == model.full_set(result_sort)


def test_definedness_axioms_valid_in_random_models():
    rng = random.Random(52)
    for _ in range(15):
        sig = random_signature(rng)
        model = random_model(rng, sig)
        theory = instantiate_definedness(Theory(sig))
        report = satisfies(model, theory)
        assert report.satisfied


def test_report_rendering(std_sig, std_model, bool_, bool_domain):
    theory = (
        Theory(std_sig)
        .add_axiom("bool-domain", bool_, bool_domain)
        .add_axiom("never", bool_, mk_bottom(bool_))
    )
    report = satisfies(std_model, theory)
    text = report_text(std_model, report)
    assert "bool-domain: satisfied" in text
    assert "never: violated" in text
    assert "NOT satisfied" in text
    records = report_records(std_model, report)
    assert [r["label"] for r in records] == ["bool-domain", "never"]
    assert records[0]["verdict"] == "satisfied"
    assert records[1]["verdict"] == "violated"
    assert records[1]["got"] == []
    assert records[0]["expected"] == ["t", "f"]
