"""The compiled evaluator against the reference fold and the prefix oracle."""

import random
import warnings

import pytest

from mulogic import (
    Axiom,
    ElemVar,
    SetVar,
    Valuation,
    build_model,
    check_axiom,
    eval_pattern,
    mk_and,
    mk_app,
    mk_bound_evar,
    mk_bound_svar,
    mk_defined,
    mk_exists,
    mk_forall,
    mk_free_evar,
    mk_free_svar,
    mk_mu,
    mk_not,
    mk_or,
)
from mulogic import semantics
from mulogic.errors import MuLogicError
from gen import (
    random_model,
    random_pattern,
    random_positive_mu,
    random_signature,
    random_valuation,
)
from reference import ref_check_axiom, ref_eval_pattern

EVAL_ARMS = ({"lfp_mode": "iterate"}, {"lfp_mode": "prefix"},
             {"lfp_mode": "prefix", "prefix_cap": 2})
CHECK_ARMS = ({"lfp_mode": "iterate", "state_cap": 4096},
              {"lfp_mode": "prefix", "state_cap": 4096},
              {"lfp_mode": "iterate", "state_cap": 3})


def outcome(fn, *args, **kwargs):
    """The value or the error (type and message) of one call, and the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(*args, **kwargs)
        except MuLogicError as err:
            value = (type(err), str(err))
    return value, [w.category for w in caught]


def axiom_view(result):
    if isinstance(result, tuple):
        return result
    return result.verdict, result.got, result.witness


def test_compiled_matches_reference_and_prefix_oracle():
    # every other pattern is conjoined with a closed positive mu, so that
    # fixpoints, hoisting out of them and the prefix cap are well covered
    rng = random.Random(60)
    for case in range(600):
        sig = random_signature(rng)
        model = random_model(rng, sig, max_carrier=3)
        if case % 2:
            mu = random_positive_mu(rng, sig, budget=rng.randint(3, 9))
            sort = mu.sort
            p = mk_and(random_pattern(rng, sig, sort, budget=rng.randint(2, 10)), mu)
        else:
            sort = rng.choice(sig.sorts)
            p = random_pattern(rng, sig, sort, budget=rng.randint(2, 12))
        rho = random_valuation(rng, model, p)
        got = {}
        for arm in EVAL_ARMS:
            mine = outcome(eval_pattern, model, rho, p, **arm)
            assert mine == outcome(ref_eval_pattern, model, rho, p, **arm), (case, arm, str(p))
            got[tuple(arm.items())] = mine
        fast, oracle = got[(("lfp_mode", "iterate"),)], got[(("lfp_mode", "prefix"),)]
        if not isinstance(fast[0], tuple):
            assert fast == oracle, (case, str(p))

        axiom = Axiom("a", sort, p)
        for arm in CHECK_ARMS:
            mine, warned = outcome(check_axiom, model, axiom, **arm)
            ref, ref_warned = outcome(ref_check_axiom, model, axiom, **arm)
            assert (axiom_view(mine), warned) == (axiom_view(ref), ref_warned), (case, arm, str(p))


@pytest.fixture
def nat(std_sig):
    return std_sig.sort("Nat")


def test_node_shared_by_sibling_binders_gets_a_register_in_each(std_sig, std_model, nat):
    # one S(b0) object under two sibling \exists, each reading its own b0,
    # and one plus(b0, b1) object under two sibling \exists inside a third
    S, plus = std_sig.symbol("S"), std_sig.symbol("plus")
    shared = mk_app(std_sig, S, [mk_bound_evar((nat,), (), 0)])
    p = mk_and(mk_exists(nat, shared), mk_exists(nat, mk_not(shared)))
    deep = mk_app(std_sig, plus, [mk_bound_evar((nat, nat), (), 0),
                                  mk_bound_evar((nat, nat), (), 1)])
    q = mk_exists(nat, mk_and(mk_exists(nat, deep), mk_exists(nat, mk_not(deep))))
    empty = Valuation.empty()
    for pattern in (p, q):
        assert eval_pattern(std_model, empty, pattern) == ref_eval_pattern(std_model, empty, pattern)
    assert std_model.format_set(eval_pattern(std_model, empty, p)) == "{ 1, 2, 3 }"


def forall_mu(sig):
    # \forall{Nat} \ceil{Nat}(\and(b0, \mu{Nat} \or(O(), S(B0))))
    nat = sig.sort("Nat")
    zero = mk_app(sig, sig.symbol("O"), [], ex=(nat,), mu=(nat,))
    step = mk_app(sig, sig.symbol("S"), [mk_bound_svar((nat,), (nat,), 0)])
    reach = mk_mu(mk_or(zero, step))
    return mk_forall(nat, mk_defined(nat, mk_and(mk_bound_evar((nat,), (), 0), reach)))


@pytest.fixture
def mu_runs(monkeypatch):
    """Runs of compiled mu instructions, under either engine."""
    runs = []
    for name in ("_iterate_op", "_prefix_op"):
        make = getattr(semantics, name)

        def counted(*args, make=make):
            op = make(*args)
            return lambda: (runs.append(1), op())

        monkeypatch.setattr(semantics, name, counted)
    return runs


def test_forall_mu_runs_its_closed_mu_once(std_sig, std_model, mu_runs):
    cycle = build_model(
        std_sig, {"Bool": ["t", "f"], "Nat": ["0", "1", "2", "3"]},
        {"O": {(): ["0"]}, "S": {("0",): ["1"], ("1",): ["0"], ("2",): ["3"], ("3",): ["2"]}},
    )
    runs = mu_runs
    p, empty = forall_mu(std_sig), Valuation.empty()
    for model in (std_model, cycle):
        for mode in ("iterate", "prefix"):
            runs.clear()
            got = eval_pattern(model, empty, p, lfp_mode=mode)
            assert runs == [1]
            assert got == ref_eval_pattern(model, empty, p, lfp_mode=mode)
    assert eval_pattern(std_model, empty, p).is_full
    assert eval_pattern(cycle, empty, p).is_empty


def test_mu_reading_one_variable_runs_once_per_value_of_it(std_sig, std_model, nat, mu_runs):
    # a \mu that reads only x sits at x's level, the outermost in valuation
    # order, so it runs once per element of x's carrier (4), not once per
    # valuation (16 with y, 64 with #X)
    x = ElemVar("x", nat)
    step = mk_app(std_sig, std_sig.symbol("S"), [mk_bound_svar((), (nat,), 0)])
    reach = mk_mu(mk_or(mk_free_evar(x, mu=(nat,)), step))
    for other in (mk_free_evar(ElemVar("y", nat)), mk_free_svar(SetVar("X", nat))):
        reached = mk_defined(nat, mk_and(reach, other))
        axiom = Axiom("tautology", nat, mk_or(reached, mk_not(reached)))
        for mode in ("iterate", "prefix"):
            mu_runs.clear()
            result = check_axiom(std_model, axiom, lfp_mode=mode)
            assert mu_runs == [1] * 4
            assert result.verdict.value == "satisfied"
            assert axiom_view(result) == axiom_view(ref_check_axiom(std_model, axiom, lfp_mode=mode))


def test_check_axiom_reruns_only_what_a_changed_variable_reads(std_sig, std_model, nat, mu_runs):
    # the closed mu runs once for all 16 valuations; the witness is the
    # first failing one in product order
    x, y = ElemVar("x", nat), ElemVar("y", nat)
    plus = std_sig.symbol("plus")
    body = mk_and(mk_app(std_sig, plus, [mk_free_evar(x), mk_free_evar(y)]),
                  forall_mu(std_sig))
    axiom = Axiom("sum-defined", nat, mk_defined(nat, body))
    result = check_axiom(std_model, axiom)
    assert mu_runs == [1]
    assert result.verdict.value == "violated"
    assert {str(v): e.label for v, e in result.witness.evars.items()} == {"x:Nat": "1", "y:Nat": "3"}
    assert axiom_view(result) == axiom_view(ref_check_axiom(std_model, axiom))
