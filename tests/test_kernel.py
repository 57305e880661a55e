import random
import sys

import pytest

from mulogic import (
    And,
    ElemVar,
    MuCheck,
    SetVar,
    Valuation,
    bevar_subst,
    bsvar_subst,
    check_mu_positivity,
    eval_pattern,
    extend_env,
    fevar_subst,
    free_vars,
    fsvar_subst,
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
    SortMismatchError,
)
from mulogic.pattern import walk
from gen import (
    iter_nodes,
    random_context,
    random_pattern,
    random_positive_mu,
    random_signature,
)
from reference import ref_facts


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


DEEP = 10_000  # even, so a mu over a chain this long is positive


def _not_chain(p, depth=DEEP):
    for _ in range(depth):
        p = mk_not(p)
    return p


def _chain_text(leaf):
    return "\\not(" * DEEP + leaf + ")" * DEEP


def test_deep_patterns_need_no_recursion(std_sig, std_model, nat, bool_):
    # every traversal runs on an explicit stack; results are compared by
    # size and printed text, since == and hash still recurse
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
    expected = ref_facts(p)
    for node, kids in walk(p):
        if kids is not None:
            assert node._facts == expected[id(node)], str(node)


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
