import dataclasses
import random
import sys
import warnings
from functools import partial

import pytest

from mulogic import (
    And,
    Axiom,
    CarrierSet,
    ElemVar,
    MuCheck,
    SetVar,
    Signature,
    Sort,
    Valuation,
    bevar_subst,
    bsvar_subst,
    build_model,
    check_axiom,
    check_mu_positivity,
    eval_pattern,
    extend_env,
    fevar_subst,
    free_vars,
    fsvar_subst,
    index_subst,
    index_subst_set,
    mk_and,
    mk_app,
    mk_bottom,
    mk_bound_evar,
    mk_bound_svar,
    mk_defined,
    mk_equals,
    mk_exists,
    mk_floor,
    mk_forall,
    mk_free_evar,
    mk_free_svar,
    mk_iff,
    mk_implies,
    mk_mu,
    mk_not,
    mk_nu,
    mk_or,
    mk_subseteq,
    mk_top,
    parse_pattern,
    print_pattern,
    size,
    structural_eq,
    validate,
)
from mulogic.errors import (
    ArgSortMismatchError,
    ArityMismatchError,
    BinderSortMismatchError,
    ContextMismatchError,
    IndexOutOfScopeError,
    MuLogicError,
    NonPositiveMuWarning,
    SlotNotFoundError,
    SortMismatchError,
)
from mulogic.pattern import (
    App,
    BoundEVar,
    BoundSVar,
    Defined,
    Exists,
    FreeEVar,
    FreeSVar,
    Mu,
    Not,
    Pattern,
    fold_pattern,
    walk,
)
from gen import (
    checked_model,
    iter_nodes,
    random_context,
    random_pattern,
    random_positive_mu,
    random_signature,
)
from reference import (
    ref_bound_subst,
    ref_check_axiom,
    ref_equal,
    ref_eval_pattern,
    ref_extend_env,
    ref_facts,
    ref_free_subst,
    ref_free_var_sets,
    ref_index_subst,
    ref_repr,
    ref_weaken,
    ref_well_sorted,
)


@pytest.fixture
def nat(std_sig):
    return std_sig.sort("Nat")


@pytest.fixture
def bool_(std_sig):
    return std_sig.sort("Bool")


def test_bound_evar_reads_sort_from_context(nat, bool_):
    assert mk_bound_evar((nat, bool_), (), 0).sort == nat
    assert mk_bound_evar((nat, bool_), (), 1).sort == bool_


def test_bound_evar_out_of_scope(nat):
    with pytest.raises(IndexOutOfScopeError):
        mk_bound_evar((nat,), (), 3)


def test_app_under_exists_shrinks_context(std_sig, nat, bool_):
    # exists s. isZero(b1) with the context [s, Nat] collapsing to [Nat]
    s = bool_
    arg = mk_bound_evar((s, nat), (), 1)
    app = mk_app(std_sig, std_sig.symbol("isZero"), [arg])
    assert app.sort == bool_
    closed_over = mk_exists(s, app)
    assert closed_over.ex == (nat,)
    assert closed_over.sort == bool_


def test_app_wrong_argument_sort(std_sig, bool_):
    wrong = mk_app(std_sig, std_sig.symbol("true"), [])
    with pytest.raises(ArgSortMismatchError) as err:
        mk_app(std_sig, std_sig.symbol("isZero"), [wrong])
    assert err.value.position == 0


def test_app_arity_mismatch(std_sig):
    with pytest.raises(ArityMismatchError):
        mk_app(std_sig, std_sig.symbol("isZero"), [])


def test_app_context_mismatch(std_sig, nat):
    a = mk_app(std_sig, std_sig.symbol("O"), [], ex=(nat,))
    b = mk_app(std_sig, std_sig.symbol("O"), [])
    with pytest.raises(ContextMismatchError):
        mk_and(a, b)


def test_exists_forms_top(nat):
    top = mk_exists(nat, mk_bound_evar((nat,), (), 0))
    assert top.is_closed and top.sort == nat
    assert size(top) == 2
    assert structural_eq(top, mk_top(nat))


def test_exists_binder_sort_mismatch(nat, bool_):
    body = mk_bound_evar((nat,), (), 0)
    with pytest.raises(BinderSortMismatchError):
        mk_exists(bool_, body)


def test_mu_binds_its_own_sort(nat):
    p = mk_mu(mk_bound_svar((), (nat,), 0))
    assert p.is_closed and p.sort == nat


def test_mu_binder_sort_mismatch(std_sig, nat, bool_):
    body = mk_app(std_sig, std_sig.symbol("true"), [], mu=(nat,))
    with pytest.raises(BinderSortMismatchError):
        mk_mu(body)


def test_mu_nat_domain_pattern(std_sig, nat):
    zero = mk_app(std_sig, std_sig.symbol("O"), [], mu=(nat,))
    succ = mk_app(std_sig, std_sig.symbol("S"), [mk_bound_svar((), (nat,), 0)])
    p = mk_mu(mk_or(zero, succ))
    assert p.is_closed and p.sort == nat
    assert validate(p)


def test_defined_sort_is_free(nat, bool_):
    x = mk_free_evar(ElemVar("x", nat))
    assert mk_defined(bool_, x).sort == bool_
    assert mk_defined(nat, x).sort == nat
    open_body = mk_bound_evar((nat,), (), 0)
    lifted = mk_defined(bool_, open_body)
    assert lifted.ex == (nat,) and lifted.sort == bool_


def test_and_requires_one_sort(std_sig, nat, bool_):
    t = mk_app(std_sig, std_sig.symbol("true"), [])
    z = mk_app(std_sig, std_sig.symbol("O"), [])
    with pytest.raises(SortMismatchError):
        mk_and(t, z)
    both = mk_and(t, mk_not(t))
    assert both.sort == bool_


def test_direct_node_construction_is_checked(std_sig, nat, bool_):
    t = mk_app(std_sig, std_sig.symbol("true"), [])
    z = mk_app(std_sig, std_sig.symbol("O"), [])
    with pytest.raises(SortMismatchError):
        And(bool_, (), (), t, z)


def _set_over_a_larger_carrier(sig, nat, bool_):
    x = SetVar("X", nat)
    small = build_model(sig, {"Nat": ["0", "1"], "Bool": ["t"]}, {})
    large = build_model(sig, {"Nat": ["0", "1", "2"], "Bool": ["t"]}, {})
    return eval_pattern(small, Valuation({}, {x: large.full_set(nat)}), mk_free_svar(x))


@pytest.mark.parametrize("attempt, error", [
    pytest.param(lambda sig, nat, bool_: Exists(
        nat, (), (), nat, mk_bound_evar((nat,), (nat,), 0)),
        ContextMismatchError, id="exists-body-mu-context"),
    pytest.param(lambda sig, nat, bool_: Exists(
        bool_, (), (), nat, mk_bound_evar((nat,), (), 0)),
        SortMismatchError, id="exists-body-sort"),
    pytest.param(lambda sig, nat, bool_: Mu(
        nat, (), (), mk_bound_svar((nat,), (nat,), 0)),
        ContextMismatchError, id="mu-body-ex-context"),
    pytest.param(lambda sig, nat, bool_: Mu(
        bool_, (), (), mk_app(sig, sig.symbol("O"), [], mu=(bool_,))),
        SortMismatchError, id="mu-body-sort"),
    pytest.param(lambda sig, nat, bool_: Defined(
        bool_, (), (), mk_bound_evar((nat,), (), 0)),
        ContextMismatchError, id="defined-body-context"),
    pytest.param(lambda sig, nat, bool_: FreeSVar(
        bool_, (), (), SetVar("X", nat)),
        SortMismatchError, id="free-svar-sort"),
    pytest.param(lambda sig, nat, bool_: FreeEVar(
        nat, (), (), SetVar("X", nat)),
        SortMismatchError, id="free-evar-holds-a-set-variable"),
    pytest.param(_set_over_a_larger_carrier, SortMismatchError,
                 id="eval-set-over-another-carrier"),
    pytest.param(lambda sig, nat, bool_: fevar_subst(
        mk_bound_evar((nat,), (), 0), ElemVar("x", nat), mk_free_evar(ElemVar("x", nat))),
        SlotNotFoundError, id="fevar-subst-open-replacement"),
    pytest.param(lambda sig, nat, bool_: fevar_subst(
        mk_bound_evar((nat,), (), 0), ElemVar("x", nat),
        mk_free_evar(ElemVar("x", nat), ex=(bool_,))),
        SlotNotFoundError, id="fevar-subst-replacement-context-not-a-suffix"),
    pytest.param(lambda sig, nat, bool_: Pattern(nat, (), ()), MuLogicError, id="bare-pattern"),
    pytest.param(lambda sig, nat, bool_: Exists(
        nat, [], (), nat, BoundEVar(nat, [nat], [], 0)),
        BinderSortMismatchError, id="exists-list-context"),
    pytest.param(lambda sig, nat, bool_: Mu(
        nat, (), [], BoundSVar(nat, [], [nat], 0)),
        BinderSortMismatchError, id="mu-list-context"),
])
def test_ill_formed_construction_is_refused(std_sig, nat, bool_, attempt, error):
    with pytest.raises(error):
        attempt(std_sig, nat, bool_)


def test_no_list_of_the_caller_ends_up_in_a_node(std_sig, std_model, nat):
    """Leaves and App store their contexts and arguments as tuples, so a
    list the caller changes later changes no node; a tuple is kept as the
    same object."""
    succ = std_sig.symbol("S")
    x = ElemVar("x", nat)
    args = [mk_free_evar(x)]
    app = App(nat, (), (), succ, args)
    args.append(mk_free_evar(x))
    assert app.args == (args[0],) and validate(app)
    zero = std_model.elem(nat, "0")
    got = eval_pattern(std_model, Valuation({x: zero}, {}), app)
    assert got == eval_pattern(std_model, Valuation.empty(), mk_app(std_sig, succ, [_o(std_sig)]))
    ex, mu = [nat], []
    b0 = BoundEVar(nat, ex, mu, 0)
    ex.append(nat)
    assert (b0.ex, b0.mu) == ((nat,), ()) and mk_exists(nat, b0) == mk_top(nat)
    assert dataclasses.replace(app).args is app.args
    assert dataclasses.replace(b0).ex is b0.ex


def _o(sig, ex=(), mu=()):
    return mk_app(sig, sig.symbol("O"), [], ex, mu)


def _t(sig, ex=(), mu=()):
    return mk_app(sig, sig.symbol("true"), [], ex, mu)


# (id, attempt(sig, nat, bool_), exception class, exact message): one row
# per refusal branch of the node constructors
_REFUSALS = [
    ("free-evar-sort", lambda s, n, b: FreeEVar(b, (), (), ElemVar("x", n)),
     SortMismatchError, "free element variable x:Nat cannot have sort Bool"),
    ("free-svar-sort", lambda s, n, b: FreeSVar(b, (), (), SetVar("X", n)),
     SortMismatchError, "free set variable #X:Nat cannot have sort Bool"),
    ("free-evar-kind", lambda s, n, b: FreeEVar(n, (), (), SetVar("X", n)),
     SortMismatchError, "free element variable node cannot hold the set variable #X:Nat"),
    ("free-svar-kind", lambda s, n, b: FreeSVar(n, (), (), ElemVar("x", n)),
     SortMismatchError, "free set variable node cannot hold the element variable x:Nat"),
    ("bound-evar-past-scope", lambda s, n, b: BoundEVar(n, (n,), (), 1),
     IndexOutOfScopeError, "bound element variable b1 out of scope (context has 1 entries)"),
    ("bound-evar-negative", lambda s, n, b: BoundEVar(n, (n,), (), -1),
     IndexOutOfScopeError, "bound element variable b-1 out of scope (context has 1 entries)"),
    ("bound-evar-reads-ex", lambda s, n, b: BoundEVar(n, (), (n,), 0),
     IndexOutOfScopeError, "bound element variable b0 out of scope (context has 0 entries)"),
    ("mk-bound-evar-past-scope", lambda s, n, b: mk_bound_evar((n,), (), 3),
     IndexOutOfScopeError, "bound element variable b3 out of scope (context has 1 entries)"),
    ("bound-evar-sort", lambda s, n, b: BoundEVar(b, (n,), (), 0),
     SortMismatchError, "bound element variable b0 has sort Nat, not Bool"),
    ("bound-svar-past-scope", lambda s, n, b: BoundSVar(n, (), (n,), 1),
     IndexOutOfScopeError, "bound set variable B1 out of scope (context has 1 entries)"),
    ("bound-svar-negative", lambda s, n, b: BoundSVar(n, (), (n,), -1),
     IndexOutOfScopeError, "bound set variable B-1 out of scope (context has 1 entries)"),
    ("bound-svar-reads-mu", lambda s, n, b: BoundSVar(n, (n,), (), 0),
     IndexOutOfScopeError, "bound set variable B0 out of scope (context has 0 entries)"),
    ("mk-bound-svar-past-scope", lambda s, n, b: mk_bound_svar((), (n, b), 2),
     IndexOutOfScopeError, "bound set variable B2 out of scope (context has 2 entries)"),
    ("bound-svar-sort", lambda s, n, b: BoundSVar(b, (), (n, b), 0),
     SortMismatchError, "bound set variable B0 has sort Nat, not Bool"),
    ("app-arity", lambda s, n, b: App(b, (), (), s.symbol("isZero"), ()),
     ArityMismatchError, "isZero expects 1 arguments, got 0"),
    ("app-result-sort", lambda s, n, b: App(n, (), (), s.symbol("isZero"), (_o(s),)),
     SortMismatchError, "application of isZero has sort Bool, not Nat"),
    ("app-argument-sort", lambda s, n, b: App(n, (), (), s.symbol("plus"), (_o(s), _t(s))),
     ArgSortMismatchError, "argument 1 of plus must have sort Nat, got Bool"),
    ("app-argument-ex", lambda s, n, b: App(n, (), (), s.symbol("plus"), (_o(s), _o(s, ex=(n,)))),
     ContextMismatchError, "argument 1 of plus lives in a different context"),
    ("app-argument-mu", lambda s, n, b: App(n, (), (), s.symbol("S"), (_o(s, mu=(b,)),)),
     ContextMismatchError, "argument 0 of S lives in a different context"),
    ("not-sort", lambda s, n, b: Not(n, (), (), _t(s)),
     SortMismatchError, "negation requires sort Nat, got Bool"),
    ("not-ex", lambda s, n, b: Not(b, (), (), _t(s, ex=(n,))),
     ContextMismatchError, "negation child lives in a different context"),
    ("not-mu", lambda s, n, b: Not(b, (), (), _t(s, mu=(n,))),
     ContextMismatchError, "negation child lives in a different context"),
    ("and-left-sort", lambda s, n, b: And(b, (), (), _o(s), _t(s)),
     SortMismatchError, "conjunction requires sort Bool, got Nat"),
    ("and-right-sort", lambda s, n, b: And(b, (), (), _t(s), _o(s)),
     SortMismatchError, "conjunction requires sort Bool, got Nat"),
    ("and-left-ex", lambda s, n, b: And(b, (), (), _t(s, ex=(n,)), _t(s)),
     ContextMismatchError, "conjunction child lives in a different context"),
    ("and-right-mu", lambda s, n, b: And(b, (), (), _t(s), _t(s, mu=(n,))),
     ContextMismatchError, "conjunction child lives in a different context"),
    ("exists-binder-sort", lambda s, n, b: Exists(n, (), (), b, _o(s, ex=(n,))),
     BinderSortMismatchError, "exists binder over Bool does not match the body context ['Nat']"),
    ("exists-binder-missing", lambda s, n, b: Exists(n, (), (), n, _o(s)),
     BinderSortMismatchError, "exists binder over Nat does not match the body context []"),
    ("exists-binder-tail", lambda s, n, b: Exists(n, (b,), (), n, _o(s, ex=(n,))),
     BinderSortMismatchError, "exists binder over Nat does not match the body context ['Nat']"),
    ("exists-binder-in-mu", lambda s, n, b: Exists(n, (), (), n, _o(s, mu=(n,))),
     BinderSortMismatchError, "exists binder over Nat does not match the body context []"),
    ("exists-other-context", lambda s, n, b: Exists(n, (), (), n, _o(s, (n,), (b,))),
     ContextMismatchError, "exists body has a different mu context"),
    ("exists-sort", lambda s, n, b: Exists(b, (), (), n, _o(s, ex=(n,))),
     SortMismatchError, "exists inherits the sort of its body"),
    ("mu-binder-sort", lambda s, n, b: Mu(n, (), (), _o(s, mu=(b,))),
     BinderSortMismatchError, "mu binder of sort Nat does not match the body context ['Bool']"),
    ("mu-binder-missing", lambda s, n, b: Mu(n, (), (), _o(s)),
     BinderSortMismatchError, "mu binder of sort Nat does not match the body context []"),
    ("mu-binder-tail", lambda s, n, b: Mu(n, (), (b,), _o(s, mu=(n,))),
     BinderSortMismatchError, "mu binder of sort Nat does not match the body context ['Nat']"),
    ("mu-binder-in-ex", lambda s, n, b: Mu(n, (), (), _o(s, ex=(n,))),
     BinderSortMismatchError, "mu binder of sort Nat does not match the body context []"),
    ("mu-other-context", lambda s, n, b: Mu(n, (), (), _o(s, (b,), (n,))),
     ContextMismatchError, "mu body has a different ex context"),
    ("mu-sort", lambda s, n, b: Mu(b, (), (), _o(s, mu=(b,))),
     SortMismatchError, "mu inherits the sort of its body"),
    ("defined-ex", lambda s, n, b: Defined(b, (), (), _o(s, ex=(n,))),
     ContextMismatchError, "definedness body has a different context"),
    ("defined-mu", lambda s, n, b: Defined(b, (), (), _o(s, mu=(n,))),
     ContextMismatchError, "definedness body has a different context"),
    ("bare-pattern", lambda s, n, b: Pattern(n, (), ()),
     MuLogicError, "a bare Pattern has no node kind; build one of its node classes"),
]


@pytest.mark.parametrize("attempt, error, message",
                         [pytest.param(*row[1:], id=row[0]) for row in _REFUSALS])
def test_each_refusal_has_its_exact_error(std_sig, nat, bool_, attempt, error, message):
    with pytest.raises(MuLogicError) as err:
        attempt(std_sig, nat, bool_)
    assert type(err.value) is error
    assert str(err.value) == message
    if error is ArgSortMismatchError:
        assert err.value.position == 1


def test_free_evar_identity_includes_sort(nat, bool_):
    assert not structural_eq(
        mk_free_evar(ElemVar("x", nat)), mk_free_evar(ElemVar("x", bool_))
    )
    assert structural_eq(mk_free_evar(ElemVar("x", nat)), mk_free_evar(ElemVar("x", nat)))


def test_derived_expansions(std_sig, nat, bool_):
    t = mk_app(std_sig, std_sig.symbol("true"), [])
    f = mk_app(std_sig, std_sig.symbol("false"), [])
    assert structural_eq(mk_bottom(nat), mk_not(mk_top(nat)))
    assert structural_eq(mk_or(t, f), mk_not(mk_and(mk_not(t), mk_not(f))))
    assert structural_eq(mk_implies(t, f), mk_or(mk_not(t), f))
    assert structural_eq(
        mk_iff(t, f), mk_and(mk_implies(t, f), mk_implies(f, t))
    )
    body = mk_app(std_sig, std_sig.symbol("isZero"), [mk_bound_evar((nat,), (), 0)])
    assert structural_eq(mk_forall(nat, body), mk_not(mk_exists(nat, mk_not(body))))
    assert structural_eq(mk_floor(bool_, t), mk_not(mk_defined(bool_, mk_not(t))))
    assert structural_eq(mk_equals(nat, t, f), mk_floor(nat, mk_iff(t, f)))
    assert structural_eq(mk_subseteq(nat, t, f), mk_floor(nat, mk_implies(t, f)))


def test_nu_negates_its_bound_variable(std_sig, nat):
    v = mk_bound_svar((), (nat,), 0)
    succ = mk_app(std_sig, std_sig.symbol("S"), [v])
    expected = mk_not(mk_mu(mk_not(
        mk_app(std_sig, std_sig.symbol("S"), [mk_not(v)])
    )))
    assert structural_eq(mk_nu(succ), expected)


def test_nu_skips_inner_binders(std_sig, nat):
    # nu. mu. B1 — the outer binder's occurrences shift under the inner mu
    inner_body = mk_bound_svar((), (nat, nat), 1)
    body = mk_mu(inner_body)
    expected_inner = mk_mu(mk_not(mk_bound_svar((), (nat, nat), 1)))
    assert structural_eq(mk_nu(body), mk_not(mk_mu(mk_not(expected_inner))))


def test_size_examples(std_sig, nat):
    x = mk_free_evar(ElemVar("x", nat))
    assert size(x) == 1
    assert size(mk_and(x, x)) == 1 + size(x) + size(x)
    assert size(mk_top(nat)) == 2
    assert size(mk_app(std_sig, std_sig.symbol("O"), [])) == 1


def test_free_vars(std_sig, nat, bool_):
    x = ElemVar("x", nat)
    p = mk_and(mk_free_evar(x), mk_free_evar(x))
    assert free_vars(p) == (frozenset({x}), frozenset())
    assert free_vars(mk_top(nat)) == (frozenset(), frozenset())
    assert free_vars(mk_defined(bool_, mk_free_evar(x))) == (frozenset({x}), frozenset())
    X = SetVar("X", nat)
    assert free_vars(mk_free_svar(X)) == (frozenset(), frozenset({X}))


def test_positivity_examples(nat):
    v = mk_bound_svar((), (nat,), 0)
    assert check_mu_positivity(mk_mu(v)).all_positive
    negative = check_mu_positivity(mk_mu(mk_not(v)))
    assert not negative.all_positive
    assert negative.negative_paths() == ((),)
    assert check_mu_positivity(mk_mu(mk_not(mk_not(v)))).all_positive


def test_positivity_through_defined_and_nested_mu(nat, bool_):
    v = mk_bound_svar((), (nat,), 0)
    assert check_mu_positivity(mk_mu(mk_defined(nat, mk_not(v)))).negative_paths() == ((),)
    # outer variable used negatively inside an inner mu body
    outer = mk_bound_svar((), (nat, nat), 1)
    inner = mk_mu(mk_not(outer))
    report = check_mu_positivity(mk_mu(inner))
    assert [c.positive for c in report.checks] == [False, True]


def test_nu_of_positive_body_is_positive(std_sig, nat):
    v = mk_bound_svar((), (nat,), 0)
    succ = mk_app(std_sig, std_sig.symbol("S"), [v])
    assert check_mu_positivity(mk_nu(succ)).all_positive


def test_random_patterns_validate_and_respect_contexts():
    rng = random.Random(11)
    for _ in range(150):
        sig = random_signature(rng)
        sort = rng.choice(sig.sorts)
        ex = random_context(rng, sig)
        mu = random_context(rng, sig)
        p = random_pattern(rng, sig, sort, ex, mu, budget=rng.randint(2, 16))
        assert p.sort == sort and p.ex == ex and p.mu == mu
        assert validate(p)
        assert size(p) >= 1
        for node in iter_nodes(p):
            assert validate(node)
            if hasattr(node, "index"):
                ctx = node.ex if type(node).__name__ == "BoundEVar" else node.mu
                assert ctx[node.index] == node.sort


def test_observers_handle_shared_expansions(std_sig, bool_):
    # nested iff/equals duplicate operands: the tree is exponential in the
    # nesting depth but the shared structure is not, and the observers
    # must stay fast (and exact) on it
    p = mk_app(std_sig, std_sig.symbol("true"), [])
    for _ in range(60):
        p = mk_iff(p, p)
    n = size(p)
    assert n > 2**60
    assert validate(p)
    assert free_vars(p) == (frozenset(), frozenset())
    assert check_mu_positivity(p).all_positive
    # hand-check the count on a small instance: iff(a, b) expands to
    # and(implies(a, b), implies(b, a)) with implies adding 5 nodes
    t = mk_app(std_sig, std_sig.symbol("true"), [])
    assert size(mk_iff(t, t)) == 1 + 2 * (5 + 2 * size(t))


def test_size_strictly_monotone_in_subterms():
    rng = random.Random(12)
    for _ in range(80):
        sig = random_signature(rng)
        p = random_pattern(rng, sig, rng.choice(sig.sorts), budget=rng.randint(2, 20))
        for node in iter_nodes(p):
            for child in iter_nodes(node):
                if child is not node:
                    assert size(child) < size(node)


def test_structural_eq_is_an_equivalence():
    rng = random.Random(13)
    sig = random_signature(rng)
    patterns = [
        random_pattern(rng, sig, rng.choice(sig.sorts), budget=8) for _ in range(40)
    ]
    for p in patterns:
        assert structural_eq(p, p)
    for p in patterns:
        for q in patterns:
            assert structural_eq(p, q) == structural_eq(q, p)


def test_validate_rejects_nodes_changed_behind_the_constructor(std_sig, nat, bool_):
    # a leaf's sort, an application's argument and a binder's body, each
    # changed after construction; validate must answer False, not raise
    x = mk_free_evar(ElemVar("x", nat))
    pair = mk_and(x, x)
    object.__setattr__(x, "sort", bool_)
    app = mk_app(std_sig, std_sig.symbol("S"), [mk_app(std_sig, std_sig.symbol("O"), [])])
    object.__setattr__(app, "args", (mk_app(std_sig, std_sig.symbol("true"), []),))
    binder = mk_exists(nat, mk_bound_evar((nat,), (), 0))
    object.__setattr__(binder, "body", mk_bound_evar((bool_,), (), 0))
    for tampered in (x, pair, app, mk_not(app), binder):
        assert validate(tampered) is False


def test_validate_rejects_stale_facts(nat):
    # a non-positive mu made to claim positivity behind the constructor;
    # its other fields are intact, so only the stored facts give it away
    fix = mk_mu(mk_not(mk_bound_svar((), (nat,), 0)))
    assert validate(fix) and not check_mu_positivity(fix).all_positive
    object.__setattr__(fix, "_facts", fix._facts[:4] + (True,))
    assert validate(fix) is False
    assert validate(mk_and(fix, fix)) is False


def test_positivity_report_over_nested_binders(nat):
    # 1,500 nested \mu, each the only child of the node above it or the
    # left child of an \and; every third binder reads its own variable
    # under a negation, the next one reads it plainly, the third not at all
    depth, checks, nodes_above = 1_500, [], 0
    for j in range(depth):
        checks.append(MuCheck((0,) * nodes_above, j % 3 != 0))
        nodes_above += 2 if j % 3 < 2 else 1
    ctx = (nat,) * depth
    p = mk_bound_svar((), ctx, 0)
    for j in reversed(range(depth)):
        own = mk_bound_svar((), ctx[: j + 1], 0)
        if j % 3 == 0:
            p = mk_and(p, mk_not(own))
        elif j % 3 == 1:
            p = mk_and(p, own)
        p = mk_mu(p)
    report = check_mu_positivity(p)
    assert report.checks == tuple(checks)
    assert report.negative_paths() == tuple(c.path for c in checks[::3])


def test_long_conjunction_of_distinct_variables(std_model, nat):
    xs = [ElemVar(f"x{k}", nat) for k in range(4_000)]
    p = mk_free_evar(xs[0])
    for x in xs[1:]:
        p = mk_and(p, mk_free_evar(x))
    assert free_vars(p) == (frozenset(xs), frozenset())
    assert validate(p)
    one, two = std_model.elem(nat, "1"), std_model.elem(nat, "2")
    rho = Valuation({x: one for x in xs}, {})
    assert eval_pattern(std_model, rho, p) == std_model.set_of(nat, (one,))
    rho = Valuation({**rho.evars, xs[-1]: two}, {})
    assert eval_pattern(std_model, rho, p).is_empty


DEEP = 10_000  # even, so a mu over a chain this long is positive


def _not_chain(p, depth=DEEP):
    for _ in range(depth):
        p = mk_not(p)
    return p


def _chain_text(leaf):
    return "\\not(" * DEEP + leaf + ")" * DEEP


def test_deep_patterns_need_no_recursion(std_sig, std_model, nat, bool_):
    # every traversal runs on an explicit stack; results are compared by
    # size and printed text
    limit = sys.getrecursionlimit()
    x, X = ElemVar("x", nat), SetVar("X", nat)
    b0 = mk_bound_evar((nat,), (), 0)
    B0 = mk_bound_svar((), (nat,), 0)
    deep_b, deep_B = _not_chain(b0), _not_chain(B0)
    fix = mk_mu(_not_chain(B0))

    assert size(deep_b) == DEEP + 1 and size(fix) == DEEP + 2
    assert validate(deep_b) and validate(fix)
    assert check_mu_positivity(fix).checks == (MuCheck((), True),)
    assert print_pattern(fix) == "\\mu{Nat} " + _chain_text("B0")
    assert print_pattern(extend_env(deep_b, 0, (bool_,))) == _chain_text("b1")

    opened = bevar_subst(mk_free_evar(x), deep_b)
    assert opened.is_closed and print_pattern(opened) == _chain_text("x:Nat")
    assert free_vars(opened) == (frozenset({x}), frozenset())
    closed_again = fevar_subst(b0, x, extend_env(opened, 0, (nat,)))
    assert print_pattern(closed_again) == _chain_text("b0")

    opened = bsvar_subst(mk_free_svar(X), deep_B)
    assert opened.is_closed and print_pattern(opened) == _chain_text("#X:Nat")
    assert free_vars(opened) == (frozenset(), frozenset({X}))
    closed_again = fsvar_subst(B0, X, extend_env(opened, 0, (), 0, (nat,)))
    assert print_pattern(closed_again) == _chain_text("B0")
    assert size(closed_again) == DEEP + 1

    zero = std_sig.symbol("O")
    zero_set = std_model.set_of(nat, (std_model.elem(nat, "0"),))
    grows = mk_mu(mk_or(deep_B, mk_app(std_sig, zero, [], mu=(nat,))))
    empty = Valuation.empty()
    assert eval_pattern(std_model, empty, _not_chain(mk_app(std_sig, zero, []))) == zero_set
    assert eval_pattern(std_model, empty, grows) == zero_set
    assert sys.getrecursionlimit() == limit


def assert_facts_match_reference(p):
    # ref_free_var_sets(p)[id(node)] is ref_free_vars(node), for every node
    # from one walk
    expected, free = ref_facts(p), ref_free_var_sets(p)
    for node, kids in walk(p):
        if kids is not None:
            assert node._facts == expected[id(node)], str(node)
            assert type(node._facts[3]) is bool
            assert free_vars(node) == free[id(node)], str(node)


def test_stored_facts_match_an_independent_walk(std_sig, nat):
    rng = random.Random(14)
    for _ in range(300):
        sig = random_signature(rng)
        sort = rng.choice(sig.sorts)
        ex, mu = random_context(rng, sig), random_context(rng, sig)
        assert_facts_match_reference(
            random_pattern(rng, sig, sort, ex, mu, budget=rng.randint(2, 20)))
        assert_facts_match_reference(random_positive_mu(rng, sig, budget=rng.randint(3, 12)))
    B0 = mk_bound_svar((), (nat,), 0)
    assert_facts_match_reference(mk_mu(_not_chain(B0)))
    # a non-positive binder below each kind of node with several children
    negative = mk_mu(mk_not(B0))
    assert_facts_match_reference(mk_and(mk_mu(B0), negative))
    assert_facts_match_reference(mk_app(std_sig, std_sig.symbol("plus"), [mk_mu(B0), negative]))


def _copy(p):
    # a new node for every distinct node of p, shared as p shares them
    return fold_pattern(p, lambda node, kids: node.rebuild(node.ex, node.mu, kids))


def _unshared(p):
    # a new node for every path through p (the patterns here are small)
    return p.rebuild(p.ex, p.mu, [_unshared(kid) for kid in p.children])


def _deepest_leaf(p):
    stack, best = [(p, 0)], (-1, None)
    while stack:
        node, depth = stack.pop()
        if not node.children and depth > best[0]:
            best = (depth, node)
        stack += [(kid, depth + 1) for kid in node.children]
    return best[1]


def _perturbed(p, field):
    # a copy of p with one field of its deepest leaf changed behind the
    # constructor: the sort (to a twin with the same name and id), the
    # variable's name or the index; None if the leaf has no such field
    copy = _copy(p)
    leaf = _deepest_leaf(copy)
    if field == "sort":
        value = Sort(leaf.sort.name, leaf.sort.id)
    elif field == "var" and hasattr(leaf, "var"):
        value = type(leaf.var)(leaf.var.name + "'", leaf.var.sort)
    elif field == "index" and hasattr(leaf, "index"):
        value = leaf.index + 1
    else:
        return None
    object.__setattr__(leaf, field, value)
    return copy


def test_eq_hash_and_repr_match_recursive_references():
    rng = random.Random(10)
    perturbed = 0
    for k in range(300):
        sig = random_signature(rng)
        if k % 2:
            p = random_positive_mu(rng, sig, budget=rng.randint(3, 12))
        else:
            sort = rng.choice(sig.sorts)
            ex, mu = random_context(rng, sig), random_context(rng, sig)
            p = random_pattern(rng, sig, sort, ex, mu, budget=rng.randint(2, 20))
        assert repr(p) == ref_repr(p)
        for copy in (_copy(p), _unshared(p)):
            assert copy is not p
            assert p == copy and copy == p and ref_equal(p, copy)
            assert hash(p) == hash(copy) and repr(copy) == repr(p)
        for field in ("sort", "var", "index"):
            other = _perturbed(p, field)
            if other is not None:
                perturbed += 1
                assert not ref_equal(p, other)
                assert p != other and other != p and not p == other
                assert repr(other) == ref_repr(other)
    assert perturbed > 450


def test_eq_hash_and_repr_of_deep_and_shared_patterns(nat):
    x = mk_free_evar(ElemVar("x", nat))
    deep, again = _not_chain(x), _not_chain(mk_free_evar(ElemVar("x", nat)))
    assert deep == again and hash(deep) == hash(again)
    assert repr(deep) == repr(again)
    assert repr(deep).startswith("Not(sort=Sort(name='Nat', id=1), ex=(), mu=(), body=Not(")
    assert repr(deep).count("Not(") == DEEP
    assert deep != _not_chain(mk_free_evar(ElemVar("y", nat)))

    def iff_nest(depth, right):
        # tree size above 2 ** depth, in O(depth) shared nodes
        p, q = x, mk_free_evar(ElemVar(right, nat))
        for _ in range(depth):
            p, q = mk_iff(p, q), mk_iff(q, p)
        return p

    nest = iff_nest(30, "y")
    assert nest == iff_nest(30, "y") and hash(nest) == hash(iff_nest(30, "y"))
    assert nest != iff_nest(30, "z")


def test_repr_of_each_node_kind(std_sig, nat, bool_):
    N, B = "Sort(name='Nat', id=1)", "Sort(name='Bool', id=0)"
    closed = f"sort={N}, ex=(), mu=()"
    zero = std_sig.symbol("O")
    O = mk_app(std_sig, zero, [])
    O_text = f"App({closed}, symbol={zero!r}, args=())"
    x = mk_free_evar(ElemVar("x", nat))
    x_text = f"FreeEVar({closed}, var=ElemVar(name='x', sort={N}))"
    b0 = mk_bound_evar((nat,), (), 0)
    b0_text = f"BoundEVar(sort={N}, ex=({N},), mu=(), index=0)"
    B0 = mk_bound_svar((), (nat,), 0)
    B0_text = f"BoundSVar(sort={N}, ex=(), mu=({N},), index=0)"
    S, plus = std_sig.symbol("S"), std_sig.symbol("plus")
    cases = [
        (x, x_text),
        (mk_free_svar(SetVar("X", bool_)),
         f"FreeSVar(sort={B}, ex=(), mu=(), var=SetVar(name='X', sort={B}))"),
        (b0, b0_text),
        (B0, B0_text),
        (O, O_text),
        (mk_app(std_sig, S, [O]), f"App({closed}, symbol={S!r}, args=({O_text},))"),
        (mk_app(std_sig, plus, [O, x]),
         f"App({closed}, symbol={plus!r}, args=({O_text}, {x_text}))"),
        (mk_not(x), f"Not({closed}, body={x_text})"),
        (mk_and(O, x), f"And({closed}, left={O_text}, right={x_text})"),
        (mk_exists(nat, b0), f"Exists({closed}, binder_sort={N}, body={b0_text})"),
        (mk_mu(B0), f"Mu({closed}, body={B0_text})"),
        (mk_defined(bool_, x), f"Defined(sort={B}, ex=(), mu=(), body={x_text})"),
    ]
    assert {type(p).__name__ for p, _ in cases} == {
        "FreeEVar", "FreeSVar", "BoundEVar", "BoundSVar", "App",
        "Not", "And", "Exists", "Mu", "Defined",
    }
    for p, text in cases:
        assert repr(p) == text == ref_repr(p)
    assert repr(zero) == f"SymbolDecl(name='O', params=(), result={N}, id=4)"


# --- the sorting judgement, checked exhaustively to size 3 -----------------


def _judged_signature() -> Signature:
    sig = Signature()
    a, b = sig.declare_sort("A"), sig.declare_sort("B")
    sig.declare_symbol("c", [], a)
    sig.declare_symbol("f", [a], b)
    sig.declare_symbol("g", [a, b], a)
    return sig


def _candidates(sig, size, accepted):
    """``(node class, constructor arguments)`` for every candidate node of
    ``size``: each sort and pair of contexts of length 0 or 1, with leaves
    of every index in -1..1 and free variables of either sort, and inner
    nodes over the accepted nodes of ``size - 1`` (both operands of size 1
    for ``And`` and ``g``)."""
    sorts = (sig.sort("A"), sig.sort("B"))
    ctxs = ((), *((s,) for s in sorts))
    if size == 1:
        fields = [(FreeEVar, (ElemVar("x", s),)) for s in sorts]
        fields += [(FreeSVar, (SetVar("X", s),)) for s in sorts]
        fields += [(kind, (i,)) for kind in (BoundEVar, BoundSVar) for i in (-1, 0, 1)]
        fields.append((App, (sig.symbol("c"), ())))
    else:
        kids = accepted[size - 1]
        fields = [(kind, (kid,)) for kind in (Not, Mu, Defined) for kid in kids]
        fields += [(Exists, (s, kid)) for s in sorts for kid in kids]
        fields += [(App, (sig.symbol("f"), (kid,))) for kid in kids]
        if size == 3:
            pairs = [(left, right) for left in accepted[1] for right in accepted[1]]
            fields += [(And, pair) for pair in pairs]
            fields += [(App, (sig.symbol("g"), pair)) for pair in pairs]
    for sort in sorts:
        for ex in ctxs:
            for mu in ctxs:
                for kind, rest in fields:
                    yield kind, (sort, ex, mu, *rest)


@pytest.fixture(scope="module")
def judged():
    """The signature, the number of candidates, every candidate on which the
    kernel and ``ref_well_sorted`` disagree, and the accepted nodes by size.
    A refusal that is not a ``MuLogicError`` propagates."""
    sig = _judged_signature()
    accepted: dict[int, list] = {}
    disagreements, count = [], 0
    for size in (1, 2, 3):
        accepted[size] = []
        for kind, args in _candidates(sig, size, accepted):
            count += 1
            try:
                node = kind(*args)
            except MuLogicError:
                node = None
            if (node is not None) != ref_well_sorted(kind.__name__, *args):
                disagreements.append((kind.__name__, args))
            if node is not None:
                accepted[size].append(node)
    return sig, count, disagreements, accepted


def test_kernel_builds_exactly_the_well_sorted_nodes(judged):
    _, count, disagreements, accepted = judged
    assert disagreements == []
    assert count == 152_154
    assert [len(accepted[size]) for size in (1, 2, 3)] == [57, 267, 1454]


def _outcome(call, *args):
    """``call(*args)``, or the type of the ``MuLogicError`` it raises."""
    try:
        return call(*args)
    except MuLogicError as err:
        return type(err)


def test_closed_well_sorted_nodes_denote_sets_of_their_sort(judged):
    sig, _, _, accepted = judged
    a, b = sig.sort("A"), sig.sort("B")
    model = build_model(sig, {"A": ["a0", "a1"], "B": ["b0", "b1", "b2"]}, {
        "c": {(): ["a0"]},
        "f": {("a0",): ["b0", "b1"]},
        "g": {("a0", "b0"): ["a1"], ("a1", "b1"): ["a0", "a1"], ("a0", "b2"): ["a0"]},
    })
    rho = Valuation(
        {ElemVar("x", a): model.elem(a, "a1"), ElemVar("x", b): model.elem(b, "b2")},
        {SetVar("X", a): model.set_of(a, [model.elem(a, "a0")]),
         SetVar("X", b): model.set_of(b, [model.elem(b, "b0"), model.elem(b, "b2")])},
    )
    closed = [p for size in (1, 2, 3) for p in accepted[size] if p.is_closed]
    refused = 0
    for p in closed:
        for mode in ("iterate", "prefix"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NonPositiveMuWarning)
                got = _outcome(eval_pattern, model, rho, p, mode)
                want = _outcome(ref_eval_pattern, model, rho, p, mode)
            assert got == want, (print_pattern(p), mode)
            if type(got) is CarrierSet:
                assert got.sort is p.sort and got.width == model.carrier_size(p.sort)
            else:
                refused += 1
    assert (len(closed), refused) == (288, 2)


def _checked_model(sig, carriers, interps):
    """``build_model``'s model, with each mask table checked (see
    ``gen.CheckedTable``)."""
    return checked_model(build_model(sig, carriers, interps))


def _closed_of_size_4(sig, accepted):
    """Every well-sorted closed node of size 4 over the judged nodes of
    sizes 1-3, built from the operands that fit rather than by filtering
    candidates: contexts of length 0 or 1 close only under a binder."""
    a, b = sig.sort("A"), sig.sort("B")
    closed = {size: [p for p in accepted[size] if not p.ex and not p.mu] for size in (1, 2, 3)}
    nodes = []
    for kid in closed[3]:
        nodes.append(Not(kid.sort, (), (), kid))
        nodes += [Defined(s, (), (), kid) for s in (a, b)]
        if kid.sort is a:
            nodes.append(App(b, (), (), sig.symbol("f"), (kid,)))
    for kid in accepted[3]:
        if len(kid.ex) == 1 and not kid.mu:
            nodes.append(Exists(kid.sort, (), (), kid.ex[0], kid))
        if not kid.ex and kid.mu == (kid.sort,):
            nodes.append(Mu(kid.sort, (), (), kid))
    for left, right in [(p, q) for p in closed[1] for q in closed[2]] + [
            (p, q) for p in closed[2] for q in closed[1]]:
        if left.sort is right.sort:
            nodes.append(And(left.sort, (), (), left, right))
        if (left.sort, right.sort) == (a, b):
            nodes.append(App(a, (), (), sig.symbol("g"), (left, right)))
    return nodes


def _verdict(result):
    """An ``AxiomResult``'s verdict, set and witness, or a refusal's type."""
    return result if isinstance(result, type) else (result.verdict, result.got, result.witness)


# the judged model, one where f is a total function and g a relation, and
# one with a one-element carrier, where every symbol is a function
_CHECKED_MODELS = {
    "partial-f": ({"A": ["a0", "a1"], "B": ["b0", "b1", "b2"]}, {
        "c": {(): ["a0"]},
        "f": {("a0",): ["b0", "b1"]},
        "g": {("a0", "b0"): ["a1"], ("a1", "b1"): ["a0", "a1"], ("a0", "b2"): ["a0"]},
    }),
    "total-f": ({"A": ["a0", "a1"], "B": ["b0", "b1", "b2"]}, {
        "c": {(): ["a1"]},
        "f": {("a0",): ["b1"], ("a1",): ["b2"]},
        "g": {("a1", "b0"): ["a0"], ("a0", "b1"): ["a1"], ("a1", "b2"): ["a0", "a1"]},
    }),
    "one-element": ({"A": ["a0"], "B": ["b0", "b1"]}, {
        "c": {(): ["a0"]},
        "f": {("a0",): ["b1"]},
        "g": {("a0", "b0"): ["a0"]},
    }),
}


@pytest.mark.parametrize("name", _CHECKED_MODELS)
def test_evaluation_to_size_4_reads_only_keys_in_their_carriers(judged, name):
    # every closed node of size 1-4 (1,654 of size 4), under both engines,
    # against the reference, on a model whose tables check every key they
    # are asked for; those with free variables also through check_axiom,
    # over every valuation.  The refusals are the iterate engine's of a
    # non-positive binder
    sig, _, _, accepted = judged
    model = _checked_model(sig, *_CHECKED_MODELS[name])
    rho = Valuation(
        {ElemVar("x", s): model.carrier(s)[-1] for s in sig.sorts},
        {SetVar("X", s): model.set_of(s, {model.carrier(s)[0], model.carrier(s)[-1]})
         for s in sig.sorts},
    )
    nodes = [p for size in (1, 2, 3) for p in accepted[size] if p.is_closed]
    nodes += _closed_of_size_4(sig, accepted)
    refused = checked = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonPositiveMuWarning)
        for p in nodes:
            for mode in ("iterate", "prefix"):
                got = _outcome(eval_pattern, model, rho, p, mode)
                want = _outcome(ref_eval_pattern, model, rho, p, mode)
                assert got == want, (print_pattern(p), mode)
                refused += type(got) is not CarrierSet
                if any(free_vars(p)):
                    axiom = Axiom("a", p.sort, p)
                    got, want = [_verdict(_outcome(check, model, axiom, mode))
                                 for check in (check_axiom, ref_check_axiom)]
                    assert got == want, (print_pattern(p), mode)
                    checked += 1
    assert (len(nodes), refused, checked) == (1942, 25, 2728)


def test_closed_well_sorted_nodes_print_and_parse_back(judged):
    sig, _, _, accepted = judged
    for size in (1, 2, 3):
        for p in accepted[size]:
            if p.is_closed:
                assert parse_pattern(print_pattern(p), sig) == p


def test_substitution_matches_its_reference(judged):
    # every replacement and target among the judged nodes whose sizes add
    # up to at most 3, and every size-1 replacement into a size-1 node with
    # one sort put in front of either context (a context of length 2 has
    # a slot before a nonempty tail), under both bound substitutions and
    # the free substitution of each of x and X at either sort
    sig, _, _, accepted = judged
    a, b = sig.sort("A"), sig.sort("B")
    variables = [ElemVar("x", a), ElemVar("x", b), SetVar("X", a), SetVar("X", b)]
    longer = _weakened(accepted[1], (a, b))

    def calls():
        for replacements, targets in ((accepted[1], accepted[1] + accepted[2] + longer),
                                      (accepted[2], accepted[1])):
            for psi in replacements:
                for p in targets:
                    yield bevar_subst, partial(ref_bound_subst, BoundEVar), (psi, p)
                    yield bsvar_subst, partial(ref_bound_subst, BoundSVar), (psi, p)
                    for x in variables:
                        yield (fevar_subst if isinstance(x, ElemVar) else fsvar_subst,
                               ref_free_subst, (psi, x, p))

    count, results, disagreements = _compare(calls())
    assert disagreements == []
    assert (count, results) == (280_098, 36_936)


def _weakened(nodes, sorts):
    """Each of ``nodes`` with one of ``sorts`` put in front of either
    context: a context of length 2 has a slot before a nonempty tail."""
    return [ref_weaken(p, *heads) for p in nodes
            for s in sorts for heads in (((s,), ()), ((), (s,)))]


def _compare(calls, check=None):
    """Run each ``(kernel, reference, args)`` of ``calls``; the number of
    calls, of results, and each call on which kernel and reference differ,
    in a result (by ``==`` and contexts) or in the ``MuLogicError``
    subclass of a refusal.  ``check(args, result)``, when given, runs on
    each result."""
    count, results, disagreements = 0, 0, []
    for kernel, reference, args in calls:
        got, want = _outcome(kernel, *args), _outcome(reference, *args)
        count += 1
        if isinstance(want, type):
            agree = got is want
        else:
            results += 1
            agree = got == want and (got.ex, got.mu) == (want.ex, want.mu)
            if agree and check is not None:
                check(args, got)
        if not agree:
            disagreements.append((kernel.__name__, args, got, want))
    return count, results, disagreements


def test_extension_and_index_procedure_match_their_references(judged):
    # over the replacements and targets above: extend_env at every split
    # of either context, one past each end included, with each insert of
    # one or two sorts, and at every pair of splits with one sort in each;
    # index_subst and index_subst_set of each node at every prefix of up
    # to two sorts and every index, one past each end included.  Each
    # extension keeps its pattern's size.
    sig, _, _, accepted = judged
    a, b = sig.sort("A"), sig.sort("B")
    nodes = accepted[1] + accepted[2] + _weakened(accepted[1], (a, b))
    inserts = [(s,) for s in (a, b)] + [(s, t) for s in (a, b) for t in (a, b)]
    prefixes = [()] + [(s,) for s in (a, b)] + [(s, t) for s in (a, b) for t in (a, b)]

    def calls():
        for p in nodes:
            for insert in inserts:
                for split in range(-1, len(p.ex) + 2):
                    yield extend_env, ref_extend_env, (p, split, insert)
                for split in range(-1, len(p.mu) + 2):
                    yield extend_env, ref_extend_env, (p, 0, (), split, insert)
            for ex_split in range(len(p.ex) + 1):
                for mu_split in range(len(p.mu) + 1):
                    for s in (a, b):
                        for t in (a, b):
                            yield extend_env, ref_extend_env, (p, ex_split, (s,), mu_split, (t,))
            for prefix in prefixes:
                for index in range(-1, len(prefix) + len(p.ex) + 2):
                    yield index_subst, partial(ref_index_subst, BoundEVar), (index, prefix, p)
                for index in range(-1, len(prefix) + len(p.mu) + 2):
                    yield index_subst_set, partial(ref_index_subst, BoundSVar), (index, prefix, p)

    def same_size(args, result):
        if isinstance(args[0], Pattern):  # an extension
            assert size(result) == size(args[0]), args

    count, results, disagreements = _compare(calls(), same_size)
    assert disagreements == []
    assert (count, results) == (74_190, 45_486)


def test_closing_an_opened_binder_gives_it_back(judged):
    # open each binder among the judged nodes and the size-2 ones weakened
    # with a fresh free variable (bevar_subst/bsvar_subst), then close it
    # again (extend_env at the front, then fevar_subst/fsvar_subst with the
    # binder's bound variable): the body comes back, and so the binder
    sig, _, _, accepted = judged
    a, b = sig.sort("A"), sig.sort("B")
    nodes = accepted[2] + accepted[3] + _weakened(accepted[2], (a, b))
    binders = [q for q in nodes if type(q) in (Exists, Mu)]
    for q in binders:
        body = q.body
        if type(q) is Exists:
            x = ElemVar("fresh", q.binder_sort)
            opened = bevar_subst(mk_free_evar(x, q.ex, q.mu), body)
            b0 = mk_bound_evar(body.ex, body.mu, 0)
            closed = fevar_subst(b0, x, extend_env(opened, 0, (q.binder_sort,)))
        else:
            x = SetVar("Fresh", q.sort)
            opened = bsvar_subst(mk_free_svar(x, q.ex, q.mu), body)
            b0 = mk_bound_svar(body.ex, body.mu, 0)
            closed = fsvar_subst(b0, x, extend_env(opened, 0, (), 0, (q.sort,)))
        assert (opened.ex, opened.mu) == (q.ex, q.mu)
        assert closed == body, q
        assert q.rebuild(q.ex, q.mu, (closed,)) == q
    assert len(binders) == 563
