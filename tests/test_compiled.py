"""The compiled evaluator against the reference fold and the prefix oracle."""

import collections
import itertools
import random
import tracemalloc
import warnings

import pytest

from mulogic import (
    App,
    Axiom,
    BoundSVar,
    ElemVar,
    Not,
    SetVar,
    Signature,
    Theory,
    Valuation,
    bevar_subst,
    build_model,
    check_axiom,
    eval_pattern,
    free_vars,
    mk_and,
    mk_app,
    mk_bound_evar,
    mk_bound_svar,
    mk_defined,
    mk_equals,
    mk_exists,
    mk_forall,
    mk_free_evar,
    mk_free_svar,
    mk_floor,
    mk_implies,
    mk_mu,
    mk_not,
    mk_or,
    parse_model,
    parse_pattern,
    parse_theory,
    print_pattern,
    satisfies,
)
from mulogic import model as models, semantics
from mulogic.model import _lift
from mulogic.corpus import corpus_path
from mulogic.errors import (
    CarrierTooLargeError,
    MuLogicError,
    NestingTooDeepError,
    UnknownSortError,
    UnknownSymbolError,
)
from mulogic.pattern import walk
from mulogic.semantics import _valuation_order
from gen import (
    EQUALITY_SHAPES,
    checked_model,
    iter_nodes,
    random_equality,
    random_model,
    random_nested_fixpoint,
    random_pattern,
    random_positive_mu,
    random_signature,
    random_term_equation,
    random_term_model_data,
    random_valuation,
    random_warm_chain,
)
from reference import ref_check_axiom, ref_eval_pattern
from test_model_lines import bench_gen  # noqa: F401  (a fixture: bench/generate.py)

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


def test_equalities_and_near_misses_match_reference():
    # the compiled equality instruction, and the near misses that compile
    # node by node, against the reference under every engine and through
    # check_axiom: values, errors, warnings, verdicts, witnesses and got
    rng = random.Random(140)
    shapes = set()
    for case in range(500):
        sig = random_signature(rng)
        model = random_model(rng, sig, max_carrier=3)
        shape, p = random_equality(rng, sig)
        shapes.add(shape)
        rho = random_valuation(rng, model, p)
        for arm in EVAL_ARMS:
            mine = outcome(eval_pattern, model, rho, p, **arm)
            assert mine == outcome(ref_eval_pattern, model, rho, p, **arm), (case, arm, str(p))
        axiom = Axiom("a", p.sort, p)
        for arm in CHECK_ARMS:
            mine, warned = outcome(check_axiom, model, axiom, **arm)
            ref, ref_warned = outcome(ref_check_axiom, model, axiom, **arm)
            assert (axiom_view(mine), warned) == (axiom_view(ref), ref_warned), (case, arm, str(p))
    assert shapes == set(EQUALITY_SHAPES)


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


def test_nested_fixpoints_match_reference_and_prefix_oracle():
    # inner fixpoints that resume from their last value must agree with
    # the reference, which always starts from the empty set; a wrong
    # resumption shows only on some tables, so many cases run under
    # iterate, and every fifth below depth 4 also under the prefix oracle
    rng = random.Random(90)
    empty = Valuation.empty()
    for case in range(1000):
        sig = random_signature(rng)
        model = random_model(rng, sig, max_carrier=3)
        depth = rng.randint(2, 4)
        p = random_nested_fixpoint(rng, sig, depth)
        fast = outcome(eval_pattern, model, empty, p)
        assert fast == outcome(ref_eval_pattern, model, empty, p), (case, str(p))
        if case % 5 == 0 and depth < 4:
            for arm in EVAL_ARMS[1:]:
                mine = outcome(eval_pattern, model, empty, p, **arm)
                assert mine == outcome(ref_eval_pattern, model, empty, p, **arm), (case, arm, str(p))
            assert fast == outcome(eval_pattern, model, empty, p, lfp_mode="prefix"), (case, str(p))


def chain_outcome(model, root, p, evaluate, check, **arm):
    """The value of a ``random_warm_chain`` pattern ``p`` under
    ``evaluate``; for a free root, the verdict, got and witness of
    ``check`` on it as an axiom, which runs its chain once per valuation
    until the first failure."""
    if root == "free":
        return axiom_view(check(model, Axiom("a", p.sort, p), **arm))
    return evaluate(model, Valuation.empty(), p, **arm)


def test_warm_chains_match_reference_and_prefix_oracle():
    # chains of 3 to 5 mus or nus, whose inner ones resume from their last
    # fixpoint, under a root that runs the chain more than once: the root
    # must start every warm mu below it afresh, not only the ones in its
    # own body.  Every other model interprets symbols as functions, whose
    # closures differ by where they start.  Every other case whose
    # carriers have at most two elements also runs under the prefix
    # oracle, which takes no warm start
    rng = random.Random(36)
    roots = collections.Counter()
    for case in range(1000):
        sig = random_signature(rng)
        if case % 2:
            model = build_model(sig, *random_term_model_data(rng, sig, max_carrier=3))
        else:
            model = random_model(rng, sig, max_carrier=3)
        root, p = random_warm_chain(rng, sig)
        roots[root] += 1
        fast = chain_outcome(model, root, p, eval_pattern, check_axiom)
        assert fast == chain_outcome(model, root, p, ref_eval_pattern, ref_check_axiom), (
            case, str(p))
        if case % 4 < 2 and max(map(model.carrier_size, sig.sorts)) <= 2:
            oracle = chain_outcome(model, root, p, eval_pattern, check_axiom, lfp_mode="prefix")
            assert fast == oracle, (case, str(p))
    assert min(roots.values()) > 250


@pytest.mark.parametrize("text, succ", [
    # the outer variable reaches the inner mu under one negation (a nu in
    # between), so the inner fixpoint shrinks as the outer one grows
    (r"\mu{Nat} \or(O(), S(\not(\mu{Nat} \not(\and(B1, \not(B0))))))",
     {"0": "1", "1": "2", "2": "3"}),
    # the inner mu reads the exists variable, whose values do not ascend
    (r"\exists{Nat} \not(\mu{Nat} \or(S(b0), S(B0)))",
     {"0": "1", "1": "0", "2": "3", "3": "2"}),
    # the inner mu may resume while the middle one ascends, but not from
    # where it stopped for the previous value of the exists variable
    (r"\exists{Nat} \not(\mu{Nat} \or(b0, \mu{Nat} \or(B1, S(B0))))",
     {"0": "1", "1": "0", "2": "3", "3": "2"}),
    # the innermost mu resumes while both mus around it ascend, but the
    # root of their chain, run afresh at each tick, resets it too, not
    # only the middle one
    (r"\exists{Nat} \not(\mu{Nat} \or(b0, \mu{Nat} \mu{Nat} \or(B2, S(\or(B0, B1)))))",
     {"0": "1", "1": "0", "2": "3", "3": "2"}),
], ids=["nu-between", "exists-tick", "restart", "restart-below"])
def test_no_warm_start_where_the_inner_fixpoint_may_shrink(std_sig, text, succ):
    model = build_model(std_sig, {"Bool": ["t", "f"], "Nat": ["0", "1", "2", "3"]},
                        {"O": {(): ["0"]}, "S": {(a,): [b] for a, b in succ.items()}})
    p, empty = parse_pattern(text, std_sig), Valuation.empty()
    for mode in ("iterate", "prefix"):
        got = eval_pattern(model, empty, p, lfp_mode=mode)
        assert got.is_full
        assert got == ref_eval_pattern(model, empty, p, lfp_mode=mode)


@pytest.fixture
def kleene_rounds(monkeypatch):
    """Rounds of every Kleene iteration, counted as runs of its body."""
    rounds = []
    iterate = semantics._iterate

    def counted(regs, var, res, body, *rest):
        return iterate(regs, var, res, [lambda: rounds.append(1), *body], *rest)

    monkeypatch.setattr(semantics, "_iterate", counted)
    return rounds


def chain_model(n):
    """``S`` walks 0, 1, ..., n - 2; n - 1 points back to 0, unreachable."""
    sig = Signature()
    nat = sig.declare_sort("Nat")
    sig.declare_symbol("O", [], nat)
    sig.declare_symbol("S", [nat], nat)
    labels = [str(k) for k in range(n)]
    succ = {(str(k),): [str(k + 1)] for k in range(n - 2)}
    succ[(str(n - 1),)] = ["0"]
    return sig, build_model(sig, {"Nat": labels}, {"O": {(): ["0"]}, "S": succ})


def and_chain(depth):
    """``depth`` nested mus over Nat whose innermost body,
    ``\\or(O(), S(\\and(B0, \\and(B1, ...))))``, reads every variable of
    the chain."""
    body = f"B{depth - 1}"
    for k in reversed(range(depth - 1)):
        body = f"\\and(B{k}, {body})"
    return "\\mu{Nat} " * depth + f"\\or(O(), S({body}))"


@pytest.mark.parametrize("text, n, rounds", [
    (and_chain(2), 24, 71),
    (and_chain(3), 12, 69),
    (and_chain(4), 12, 114),
    (and_chain(16), None, 560),
    (r"\exists{Nat} \not(\mu{Nat} \mu{Nat} \mu{Nat} \or(b0, S(\or(B0, \and(B1, B2)))))", 12, 174),
    (r"\forall{Nat} \ceil{Nat}(\and(b0, \mu{Nat} \or(O(), S(B0))))", 24, 24),
])
def test_kleene_rounds_of_nested_fixpoints(std_sig, std_model, kleene_rounds, text, n, rounds):
    # every mu of a chain but its root resumes from its last fixpoint while
    # all the mus around it ascend: 71, 69 and 114 rounds where restarting
    # from the empty set takes 347, 619 and 3,205, and the 16-deep chain
    # over the corpus model's 4 elements takes 560 (resuming only the
    # innermost mu took 287,604); under the exists, the root of the chain
    # resets every mu below it at each of the 12 ticks (129 rounds if it
    # reset only the mu in its own body, 366 with no warm start); the
    # closed mu under the forall takes one round per reachable element and
    # one more either way
    sig, model = chain_model(n) if n else (std_sig, std_model)
    p, empty = parse_pattern(text, sig), Valuation.empty()
    got = eval_pattern(model, empty, p)
    assert len(kleene_rounds) == rounds
    if n:  # the reference restarts every mu afresh, far too slow 16 deep
        assert got == ref_eval_pattern(model, empty, p)
    else:
        assert got.is_full


def nested_binders(sig, depth, binder):
    """``depth`` nested binders over Nat, each reading its parent's
    variable: below the second, each body conjoins that variable with the
    next binder."""
    nat = sig.sort("Nat")

    def var(d, index):  # in a context of d binders
        if binder is mk_exists:
            return mk_bound_evar((nat,) * d, (), index)
        return mk_bound_svar((), (nat,) * d, index)

    def wrap(body):
        return mk_exists(nat, body) if binder is mk_exists else mk_mu(body)

    p = mk_and(var(depth, 0), var(depth, 1))
    for d in range(depth - 1, 1, -1):
        p = mk_and(var(d, 1), wrap(p))
    return wrap(wrap(p))


@pytest.mark.parametrize("binder", [mk_exists, mk_mu], ids=["exists", "mu"])
def test_binders_nested_too_deep_for_the_recursion_limit(binder):
    sig = Signature()
    nat = sig.declare_sort("Nat")
    model = build_model(sig, {"Nat": ["0"]}, {})
    empty = Valuation.empty()
    shallow = eval_pattern(model, empty, nested_binders(sig, 300, binder))
    assert shallow.is_full if binder is mk_exists else shallow.is_empty
    deep = nested_binders(sig, 1000, binder)
    with pytest.raises(NestingTooDeepError, match="recursion limit"):
        eval_pattern(model, empty, deep)
    report = satisfies(model, Theory(sig, (Axiom("deep", nat, deep),)))
    (result,) = report.results
    assert result.verdict.value == "error"
    assert result.message.startswith("NestingTooDeepError: ")


# --- signed registers ---------------------------------------------------------

SIGN_CASES = [
    # the union of a complement: a union loop that reads its body by XOR
    r"\exists{Nat} \not(S(b0))",
    r"\not(\exists{Nat} \not(\and(b0, S(b0))))",
    r"\forall{Nat} \forall{Nat} \forall{Nat} \or(plus(b0, \and(b1, b2)), \not(S(b2)))",
    r"\forall{Nat} \exists{Nat} \forall{Nat} \implies(\and(b0, b2), \not(plus(b1, b1)))",
    # the meet of two complements is the complement of a union; of one, a difference
    r"\and(\not(S(O())), \not(plus(O(), S(O()))))",
    r"\and(S(O()), \not(O()))",
    r"\and(\not(O()), \mu{Nat} \or(O(), S(B0)))",
    r"\exists{Nat} \and(\not(b0), \not(S(b0)))",
    # definedness of a complement, into another sort
    r"\ceil{Bool}(\not(S(O())))",
    r"\ceil{Bool}(\not(\top{Nat}))",
    r"\exists{Nat} \and(\ceil{Bool}(\not(S(b0))), isZero(b0))",
    r"\floor{Bool}(\not(\and(S(O()), O())))",
    # an application of a complement that no binder variable reaches
    r"\forall{Nat} \or(b0, S(\not(S(O()))))",
    r"\forall{Nat} \implies(\ceil{Nat}(b0), plus(\not(O()), b0))",
    # a greatest fixpoint, and a mu body that complements its own variable
    r"\nu{Nat} \or(\not(O()), S(B0))",
    r"\nu{Nat} \and(S(B0), \not(O()))",
    r"\mu{Nat} \or(O(), S(\not(\nu{Nat} \and(\not(B0), S(B1)))))",
    r"\mu{Nat} \or(O(), S(\not(B0)))",
    # complemented roots
    r"\not(\not(\not(O())))",
    r"\not(\mu{Nat} \or(O(), S(B0)))",
    # complemented arguments into another sort and into both places of a
    # binary symbol; a double complement and a complemented argument in a
    # mu body, where a plain unary argument lifts only the bits it gained
    r"isZero(\not(O()))",
    r"plus(\not(O()), \not(S(O())))",
    r"\mu{Nat} \or(O(), S(\not(\not(B0))))",
    r"\mu{Nat} \or(O(), S(\or(B0, O())))",
    r"\mu{Nat} \not(\and(\not(B0), S(O())))",
]


def cycle_model(sig):
    """``S`` swaps 0 and 1 and swaps 2 and 3."""
    return build_model(
        sig, {"Bool": ["t", "f"], "Nat": ["0", "1", "2", "3"]},
        {"O": {(): ["0"]}, "isZero": {("0",): ["t"], ("1",): ["f"]},
         "S": {("0",): ["1"], ("1",): ["0"], ("2",): ["3"], ("3",): ["2"]},
         "plus": {("0", "0"): ["0"], ("1", "1"): ["2", "3"], ("2", "0"): ["1"]}},
    )


@pytest.mark.parametrize("text", SIGN_CASES)
def test_each_sign_rule_matches_the_reference(std_sig, std_model, text):
    p, empty = parse_pattern(text, std_sig), Valuation.empty()
    for model in (std_model, cycle_model(std_sig)):
        for arm in EVAL_ARMS:
            mine = outcome(eval_pattern, model, empty, p, **arm)
            assert mine == outcome(ref_eval_pattern, model, empty, p, **arm), arm


def test_complemented_root_through_check_axiom(std_sig, std_model, nat):
    # x = S(y) first at x = 1, y = 0, where the axiom denotes all but 1
    x, y = ElemVar("x", nat), ElemVar("y", nat)
    S = std_sig.symbol("S")
    for p in (mk_not(mk_and(mk_free_evar(x), mk_app(std_sig, S, [mk_free_evar(y)]))),
              mk_not(mk_not(mk_not(mk_and(mk_free_evar(x), mk_free_evar(y)))))):
        axiom = Axiom("apart", nat, p)
        for model in (std_model, cycle_model(std_sig)):
            for arm in EVAL_ARMS:
                mine = outcome(check_axiom, model, axiom, **arm)
                ref = outcome(ref_check_axiom, model, axiom, **arm)
                assert (axiom_view(mine[0]), mine[1]) == (axiom_view(ref[0]), ref[1]), arm
    result = check_axiom(std_model, Axiom("apart", nat, mk_not(
        mk_and(mk_free_evar(x), mk_app(std_sig, S, [mk_free_evar(y)])))))
    assert result.verdict.value == "violated"
    assert {str(v): e.label for v, e in result.witness.evars.items()} == {"x:Nat": "1", "y:Nat": "0"}
    assert std_model.format_set(result.got) == "{ 0, 2, 3 }"


def ternary_model():
    """A local signature with a ternary symbol ``pick`` and a model whose
    ``pick`` table is sparse and many-valued."""
    sig = Signature()
    nat = sig.declare_sort("Nat")
    sig.declare_symbol("O", [], nat)
    sig.declare_symbol("S", [nat], nat)
    sig.declare_symbol("pick", [nat, nat, nat], nat)
    labels = ["0", "1", "2", "3"]
    pick = {}
    for a in range(4):
        for b in range(4):
            for c in range(4):
                if (a + b + c) % 3:
                    pick[(str(a), str(b), str(c))] = sorted({str((a + 2 * b) % 4), str(c)})
    succ = {(str(k),): [str((k + 1) % 3)] for k in range(4)}
    return sig, build_model(sig, {"Nat": labels}, {"O": {(): ["0"]}, "S": succ, "pick": pick})


@pytest.mark.parametrize("text", [
    # no complemented argument
    r"pick(O(), S(O()), S(S(O())))",
    r"\forall{Nat} \or(b0, pick(b0, S(b0), O()))",
    r"\mu{Nat} \or(O(), pick(B0, S(B0), O()))",
    # one
    r"pick(\not(O()), S(O()), O())",
    r"\exists{Nat} pick(b0, \not(S(b0)), O())",
    r"\mu{Nat} \or(O(), pick(S(B0), B0, \or(B0, O())))",
    # three
    r"pick(\not(O()), \not(S(O())), \not(\top{Nat}))",
    r"\forall{Nat} pick(\not(b0), \not(S(O())), \not(S(b0)))",
    r"\mu{Nat} \or(O(), pick(\or(B0, O()), \not(S(O())), \or(S(B0), B0)))",
])
def test_ternary_application_of_complements_matches_the_reference(text):
    sig, model = ternary_model()
    p, empty = parse_pattern(text, sig), Valuation.empty()
    for arm in EVAL_ARMS:
        mine = outcome(eval_pattern, model, empty, p, **arm)
        assert mine == outcome(ref_eval_pattern, model, empty, p, **arm), arm


@pytest.fixture
def placed(monkeypatch):
    """The instructions placed, one maker name per instruction."""
    names = []
    for name in [n for n in dir(semantics) if n.startswith("_") and n.endswith("_op")]:
        make = getattr(semantics, name)

        def counted(*args, make=make, name=name):
            names.append(name)
            return make(*args)

        monkeypatch.setattr(semantics, name, counted)
    return names


@pytest.mark.parametrize("text, same", [
    (r"\not(\exists{Nat} \and(b0, S(b0)))",
     r"\not(\not(\not(\exists{Nat} \and(b0, S(b0)))))"),
    (r"\exists{Nat} \and(b0, \mu{Nat} \or(O(), S(\and(b0, B0))))",
     r"\forall{Nat} \and(b0, \mu{Nat} \or(O(), S(\and(b0, B0))))"),
    # a complemented argument or mu body result is read, not computed
    (r"isZero(\not(O()))", r"isZero(O())"),
    (r"plus(\not(O()), \not(S(O())))", r"plus(O(), S(O()))"),
    (r"\mu{Nat} \or(O(), S(\not(\not(B0))))", r"\mu{Nat} \or(O(), S(B0))"),
    (r"\mu{Nat} \not(\and(\not(B0), O()))", r"\mu{Nat} \and(B0, \not(O()))"),
])
def test_negation_places_no_register_and_no_instruction(std_sig, std_model, placed, text, same):
    def placement(text):
        placed.clear()
        program = semantics._compile(std_model, parse_pattern(text, std_sig), "iterate", 20, ())
        return len(program.regs), sorted(placed)

    assert placement(text) == placement(same)


def _runs(monkeypatch, name):
    """Runs of each instruction that maker ``name`` places, in placement
    order."""
    runs = []
    make = getattr(semantics, name)

    def counted(*args):
        op = make(*args)
        k = len(runs)
        runs.append(0)

        def run():
            runs[k] += 1
            op()

        return run

    monkeypatch.setattr(semantics, name, counted)
    return runs


@pytest.fixture
def app_runs(monkeypatch):
    """Runs of each placed application instruction, in placement order."""
    return _runs(monkeypatch, "_app_op")


@pytest.fixture
def exists_runs(monkeypatch):
    """Runs of each placed ``Exists`` instruction, in placement order."""
    return _runs(monkeypatch, "_exists_op")


def test_placement_runs_nothing(std_sig, std_model, exists_runs):
    # the forall is placed before the mu's carrier is refused, and runs
    # neither before nor after the refusal
    p = parse_pattern(r"\and(\forall{Nat} \exists{Nat} plus(b0, b1), \mu{Nat} \or(O(), S(B0)))",
                      std_sig)
    empty = Valuation.empty()
    with pytest.raises(CarrierTooLargeError):
        eval_pattern(std_model, empty, p, lfp_mode="prefix", prefix_cap=2)
    assert exists_runs == [0, 0]
    assert (eval_pattern(std_model, empty, p, lfp_mode="prefix")
            == ref_eval_pattern(std_model, empty, p, lfp_mode="prefix"))


def test_complement_runs_where_its_operand_is_computed(std_sig, std_model, nat, app_runs):
    # the closed S(O()) runs once, not once per element of the forall, and
    # so does the application that reads its complement; an application
    # of the complement of x runs once per value of x, not per valuation
    empty = Valuation.empty()
    for text, runs in ((r"\forall{Nat} \or(b0, S(\not(S(O()))))", [1, 1]),
                       (r"\forall{Nat} \forall{Nat} plus(\not(S(O())), \or(b0, b1))", [1, 16])):
        p = parse_pattern(text, std_sig)
        app_runs.clear()
        assert eval_pattern(std_model, empty, p) == ref_eval_pattern(std_model, empty, p)
        assert app_runs == runs
    x, y = ElemVar("x", nat), ElemVar("y", nat)
    S = std_sig.symbol("S")
    either = mk_and(mk_app(std_sig, S, [mk_not(mk_free_evar(x))]), mk_free_evar(y))
    axiom = Axiom("tautology", nat, mk_or(either, mk_not(either)))
    app_runs.clear()
    result = check_axiom(std_model, axiom)
    assert app_runs == [4]
    assert result.verdict.value == "satisfied"
    assert axiom_view(result) == axiom_view(ref_check_axiom(std_model, axiom))


def perturbed_plus(std_sig, i, j):
    """The standard model with ``plus(i, j)`` changed to an element that
    ``plus(j, i)`` does not hold, or unchanged when ``i`` is None."""
    table = {(str(a), str(b)): [str(a + b)] if a + b <= 3 else []
             for a in range(4) for b in range(4)}
    if i is not None:
        table[str(i), str(j)] = [str((i + j + 1) % 4)]
    return build_model(std_sig, {"Bool": ["t", "f"], "Nat": ["0", "1", "2", "3"]},
                       {"O": {(): ["0"]}, "plus": table})


class CountingTable(dict):
    """A mask table that counts the calls of its ``get``."""

    calls = 0

    def get(self, key, default=None):
        self.calls += 1
        return super().get(key, default)


def counted_plus(model, sig):
    """``model``'s ``plus`` table, replaced by a ``CountingTable``."""
    plus = sig.symbol("plus")
    table = model._masks[plus] = CountingTable(model._masks[plus])
    return table


@pytest.mark.parametrize("i, j", [(None, None), *itertools.permutations(range(4), 2)])
def test_forall_runs_every_pair_wherever_one_fails(std_sig, i, j):
    # the union of the complemented equality is full, and the forall
    # decided empty, at the first pair with plus(x, y) != plus(y, x); the
    # loops still read both sides for all 16 pairs, so the work does not
    # depend on where in carrier order the failing pair lies
    p = parse_pattern(r"\forall{Nat} \forall{Nat} \equals{Nat}(plus(b0, b1), plus(b1, b0))",
                      std_sig)
    model, empty = perturbed_plus(std_sig, i, j), Valuation.empty()
    plus = counted_plus(model, std_sig)
    got = eval_pattern(model, empty, p)
    assert plus.calls == 2 * 16
    assert got == ref_eval_pattern(model, empty, p)
    assert got.is_full == (i is None) and got.is_empty == (i is not None)


@pytest.mark.parametrize("i, j", [(None, None), *itertools.permutations(range(4), 2)])
def test_forall_with_a_term_in_its_body_runs_every_triple(std_sig, i, j):
    # associativity: plus(b1, b0) is computed in the innermost loop before
    # the equality reads both sides, and plus(b2, b1) once per pair of the
    # outer two; each of the 64 triples reads plus three times wherever
    # the first triple that fails lies
    p = parse_pattern(r"\forall{Nat} \forall{Nat} \forall{Nat} "
                      r"\equals{Nat}(plus(plus(b2, b1), b0), plus(b2, plus(b1, b0)))", std_sig)
    model, empty = perturbed_plus(std_sig, i, j), Valuation.empty()
    plus = counted_plus(model, std_sig)
    got = eval_pattern(model, empty, p)
    assert plus.calls == 3 * 64 + 16
    assert got == ref_eval_pattern(model, empty, p)


# --- binder bodies and the placement walk -------------------------------------


@pytest.fixture
def bodies(monkeypatch):
    """For each placed binder instruction, in placement order, its maker
    and the makers of the instructions in its body list."""
    made, out = {}, []  # id(op) -> (maker, op), kept so that no id is reused
    for name in [n for n in dir(semantics) if n.startswith("_") and n.endswith("_op")]:
        make = getattr(semantics, name)

        def recorded(*args, make=make, name=name):
            if name in ("_exists_op", "_exists_equals_op", "_iterate_op", "_prefix_op"):
                out.append((name, [made[id(step)][0] for step in args[4]]))
            op = make(*args)
            made[id(op)] = name, op
            return op

        monkeypatch.setattr(semantics, name, recorded)
    return out


def mu_maker(mode):
    return "_iterate_op" if mode == "iterate" else "_prefix_op"


# the body of the outermost binder, which is placed last; "mu" stands for
# the maker of a mu instruction under the engine run
LOOP_BODIES = [
    # no instruction: the body is the bound variable, or its complement
    (r"\forall{Nat} b0", []),
    (r"\exists{Nat} \not(b0)", []),
    # one instruction, of each maker that can be alone in a body
    (r"\forall{Nat} \equals{Nat}(S(b0), plus(b0, O()))", ["_equals_reads_op"]),
    (r"\forall{Nat} \equals{Nat}(S(b0), O())", ["_equals_read_op"]),
    (r"\forall{Nat} \equals{Nat}(b0, O())", ["_equals_op"]),
    (r"\exists{Nat} S(b0)", ["_app_op"]),
    (r"\forall{Nat} \not(S(b0))", ["_app_op"]),
    (r"\exists{Nat} \ceil{Bool}(\and(b0, S(O())))", ["_and_op", "_defined_op"]),
    (r"\forall{Nat} \ceil{Bool}(b0)", ["_defined_op"]),
    (r"\exists{Nat} \exists{Nat} plus(b0, b1)", ["_exists_op"]),
    (r"\forall{Nat} \forall{Nat} \not(plus(b1, b0))", ["_exists_op"]),
    (r"\exists{Nat} \mu{Nat} \or(b0, S(B0))", ["mu"]),
    (r"\forall{Nat} \not(\mu{Nat} \or(b0, S(B0)))", ["mu"]),
    # two instructions
    (r"\exists{Nat} S(S(b0))", ["_app_op", "_app_op"]),
    (r"\forall{Nat} \or(b0, S(b0))", ["_app_op", "_and_op"]),
]


# the (row, arm) pairs whose mu the capped prefix arm refuses, on both
# models, before any binder is placed
CAP_REFUSES = {(r"\exists{Nat} \mu{Nat} \or(b0, S(B0))", 2),
               (r"\forall{Nat} \not(\mu{Nat} \or(b0, S(B0)))", 2)}


@pytest.mark.parametrize("text, body", LOOP_BODIES)
def test_loop_bodies_of_no_one_or_two_instructions(std_sig, std_model, bodies, text, body):
    p, empty = parse_pattern(text, std_sig), Valuation.empty()
    for model in (std_model, cycle_model(std_sig)):
        for k, arm in enumerate(EVAL_ARMS):
            bodies.clear()
            mine = outcome(eval_pattern, model, empty, p, **arm)
            assert mine == outcome(ref_eval_pattern, model, empty, p, **arm), arm
            if (text, k) in CAP_REFUSES:
                assert mine[0][0] is CarrierTooLargeError and bodies == [], arm
            else:
                want = [mu_maker(arm["lfp_mode"]) if m == "mu" else m for m in body]
                assert bodies[-1] == ("_exists_op", want), arm


# each binder's leave restores the contexts of the binders around it, so
# a node entered after it reads the variables of those: the placement, by
# binder in placement order, and the result are those of the reference
WALK_CASES = [
    # a closed inner binder is placed at the top; the sibling after it
    # reads the outer variable, in the outer loop
    (r"\exists{Nat} \and(\exists{Nat} plus(b0, O()), S(b0))",
     [("_exists_op", ["_app_op"]), ("_exists_op", ["_app_op", "_and_op"])]),
    # an inner binder that reads the outer variable, then a sibling binder
    # that reads it too
    (r"\exists{Nat} \and(\exists{Nat} plus(b0, b1), \exists{Nat} plus(b1, S(b0)))",
     [("_exists_op", ["_app_op"]), ("_exists_op", ["_app_op", "_app_op"]),
      ("_exists_op", ["_exists_op", "_exists_op", "_and_op"])]),
    # ex inside mu inside ex: the sibling after the inner exists reads the
    # outer exists' variable, in the mu's loop
    (r"\exists{Nat} \mu{Nat} \or(\exists{Nat} \and(b0, S(B0)), \or(b0, S(\and(b0, B0))))",
     [("_exists_op", ["_and_op"]),
      ("mu", ["_app_op", "_exists_op", "_and_op", "_app_op", "_and_op", "_and_op"]),
      ("_exists_op", ["mu"])]),
    # mu inside ex inside mu: the sibling after the inner mu reads the
    # outer mu's variable, in the exists' loop
    (r"\mu{Nat} \or(S(O()), \exists{Nat} \and(\mu{Nat} \or(b0, S(B0)), \and(b0, B0)))",
     [("mu", ["_app_op", "_and_op"]), ("_exists_op", ["mu", "_and_op", "_and_op"]),
      ("mu", ["_exists_op", "_and_op"])]),
]


@pytest.mark.parametrize("text, placed_bodies", WALK_CASES)
def test_a_binder_leave_restores_the_outer_contexts(std_sig, std_model, bodies, text,
                                                    placed_bodies):
    p, empty = parse_pattern(text, std_sig), Valuation.empty()
    for model in (std_model, cycle_model(std_sig)):
        for arm in EVAL_ARMS[:2]:
            bodies.clear()
            mine = outcome(eval_pattern, model, empty, p, **arm)
            assert mine == outcome(ref_eval_pattern, model, empty, p, **arm), arm
            mu = mu_maker(arm["lfp_mode"])
            assert bodies == [(mu if name == "mu" else name,
                               [mu if m == "mu" else m for m in body])
                              for name, body in placed_bodies], arm


# two placement errors on either side of a binder: the one a node-by-node
# evaluation reaches first is raised; g and Late are declared after the
# model is built, so it has no table for g and no carrier for Late
PLACEMENT_ERRORS = [
    (r"\and(\exists{Nat} g(b0), \mu{Nat} \or(O(), S(B0)))", UnknownSymbolError),
    (r"\and(\mu{Nat} \or(O(), S(B0)), \exists{Nat} g(b0))", CarrierTooLargeError),
    (r"\and(g(O()), \exists{Late} \top{Nat})", UnknownSymbolError),
    (r"\and(\exists{Late} \top{Nat}, g(O()))", UnknownSortError),
    (r"\exists{Nat} \and(\exists{Nat} \and(b0, \exists{Late} \top{Nat}), g(b0))",
     UnknownSortError),
    (r"\exists{Nat} \and(\exists{Nat} \and(b0, g(b1)), \exists{Late} \top{Nat})",
     UnknownSymbolError),
    (r"\and(\exists{Nat} \and(b0, S(b0)), \and(g(O()), \exists{Late} \top{Nat}))",
     UnknownSymbolError),
]


@pytest.mark.parametrize("text, error", PLACEMENT_ERRORS)
def test_the_first_placement_error_reached_is_raised(std_sig, std_model, text, error):
    nat = std_sig.sort("Nat")
    std_sig.declare_sort("Late")
    std_sig.declare_symbol("g", [nat], nat)
    p = parse_pattern(text, std_sig)
    with pytest.raises(error):
        eval_pattern(std_model, Valuation.empty(), p, lfp_mode="prefix", prefix_cap=2)


# --- fused instructions -------------------------------------------------------


def instantiated_equality(sig):
    """The body of a ``\\forall`` with ``O()`` put for its variable: the
    ``\\equals`` is rebuilt, node by node, through the constructors."""
    forall = parse_pattern(r"\forall{Nat} \equals{Bool}(S(b0), plus(b0, S(O())))", sig)
    return bevar_subst(parse_pattern("O()", sig), forall.body.body.body)


def look_alike_equality(sig):
    """The fourteen core nodes of an ``\\equals``, with two equal but
    distinct objects for its left operand."""
    a, twin, b = [parse_pattern(text, sig) for text in ("S(O())", "S(O())", "plus(O(), S(O()))")]
    assert a == twin and a is not twin
    return mk_floor(sig.sort("Bool"), mk_and(mk_implies(a, b), mk_implies(b, twin)))


@pytest.mark.parametrize("make, names", [
    (r"\equals{Bool}(S(O()), plus(O(), S(O())))",
     ["_app_op", "_app_op", "_equals_op"]),
    # S(b0) is read by the comparison itself; the complement is not
    (r"\forall{Nat} \equals{Nat}(S(b0), \not(plus(b0, S(O()))))",
     ["_app_op", "_app_op", "_equals_read_op", "_exists_op"]),
    (instantiated_equality, ["_app_op", "_app_op", "_app_op", "_equals_op"]),
    # near misses compile node by node
    (r"\subseteq{Bool}(S(O()), plus(O(), S(O())))",
     ["_and_op", "_app_op", "_app_op", "_defined_op"]),
    (look_alike_equality,
     ["_and_op", "_and_op", "_and_op", "_app_op", "_app_op", "_app_op", "_app_op",
      "_defined_op"]),
    # a floor of two implications whose first lacks the double negation
    (r"\floor{Bool}(\and(\or(S(O()), O()), \or(O(), O())))",
     ["_and_op", "_and_op", "_and_op", "_app_op", "_defined_op"]),
], ids=["top", "forall", "substituted", "subseteq", "look-alike", "no-double-negation"])
def test_equality_places_one_instruction(std_sig, std_model, placed, make, names):
    p = make(std_sig) if callable(make) else parse_pattern(make, std_sig)
    empty = Valuation.empty()
    for model in (std_model, cycle_model(std_sig)):
        placed.clear()
        assert eval_pattern(model, empty, p) == ref_eval_pattern(model, empty, p)
        assert sorted(placed) == names


@pytest.mark.parametrize("text, mode, functional, relational", [
    # both sides are read, on either model, and the inner loop compares them
    (r"\forall{Nat} \forall{Nat} \equals{Nat}(plus(b0, b1), plus(b1, b0))", "iterate",
     ["_exists_equals_op", "_exists_op"], ["_exists_equals_op", "_exists_op"]),
    # S(b0) and S(S(b0)) are terms where S is a partial function
    (r"\forall{Nat} \equals{Nat}(S(S(b0)), plus(b0, S(b0)))", "iterate",
     ["_app_op", "_equals_reads_op", "_exists_op"],
     ["_app_op", "_app_op", "_app_op", "_equals_op", "_exists_op"]),
    # the other side placed S(b0) in the same loop: its register is read
    (r"\forall{Nat} \equals{Nat}(S(b0), S(S(b0)))", "iterate",
     ["_app_op", "_equals_read_op", "_exists_op"],
     ["_app_op", "_app_op", "_equals_op", "_exists_op"]),
    (r"\forall{Nat} \equals{Nat}(S(b0), \not(S(b0)))", "iterate",
     ["_app_op", "_equals_op", "_exists_op"], ["_app_op", "_equals_op", "_exists_op"]),
    # the left side placed the right one, which reads a mu variable: each is
    # an application of its own, once
    (r"\mu{Nat} \or(B0, \forall{Nat} \equals{Nat}(plus(b0, S(plus(b0, B0))), "
     r"S(plus(b0, B0))))", "prefix",
     ["_and_op", "_app_op", "_app_op", "_app_op", "_equals_op", "_exists_op", "_prefix_op"],
     ["_and_op", "_app_op", "_app_op", "_app_op", "_equals_op", "_exists_op", "_prefix_op"]),
    # a side hoisted out of the loop is an application of its own
    (r"\forall{Nat} \equals{Nat}(S(b0), S(O()))", "iterate",
     ["_app_op", "_equals_read_op", "_exists_op"], ["_app_op", "_equals_read_op", "_exists_op"]),
    # over free variables, the left side reads x only: it runs at x's level
    (r"\equals{Bool}(S(x:Nat), plus(x:Nat, y:Nat))", "iterate",
     ["_app_op", "_equals_read_op"], ["_app_op", "_equals_read_op"]),
], ids=["both-read", "nested-terms", "placed-by-the-other", "complement", "mu-argument",
        "hoisted", "outer-level"])
def test_equality_reads_its_terms_where_it_runs(
        std_sig, std_model, placed, text, mode, functional, relational):
    p = parse_pattern(text, std_sig)
    variables = _valuation_order(*free_vars(p))
    for model, names in ((std_model, functional), (relational_model(std_sig), relational)):
        placed.clear()
        program = semantics._compile(model, p, mode, 20, variables)
        assert sorted(placed) == names
        # each free variable's level keeps one instruction
        assert [len(level.code) for level in program.levels] == [1] * len(variables)
        if variables:
            axiom = Axiom("a", p.sort, p)
            mine = outcome(check_axiom, model, axiom, lfp_mode=mode)
            ref = outcome(ref_check_axiom, model, axiom, lfp_mode=mode)
            assert (axiom_view(mine[0]), mine[1]) == (axiom_view(ref[0]), ref[1])
        else:
            empty = Valuation.empty()
            assert (outcome(eval_pattern, model, empty, p, lfp_mode=mode)
                    == outcome(ref_eval_pattern, model, empty, p, lfp_mode=mode))


def _features(model, p):
    """Which fallbacks the terms of ``p`` take: an application of a
    relation, and an argument that is a mu variable or a complement."""
    seen = set()
    for node in iter_nodes(p):
        if type(node) is App:
            if node.symbol not in model._functions:
                seen.add("relation")
            for kid in node.args:
                seen.add({BoundSVar: "mu-argument", Not: "complement"}.get(type(kid)))
    return seen - {None}


def test_term_equations_match_the_reference(placed):
    """Equations between nested applications, on models of total and
    partial functions and relations whose tables check every key, against
    the reference under both engines: eval_pattern's set, and
    check_axiom's verdict, witness and got where there are free
    variables."""
    rng = random.Random(350)
    features = collections.Counter()
    for case in range(400):
        sig = random_signature(rng)
        model = checked_model(build_model(sig, *random_term_model_data(rng, sig)))
        p = random_term_equation(rng, sig)
        features.update(_features(model, p))
        rho = random_valuation(rng, model, p)
        for arm in EVAL_ARMS[:2]:
            mine = outcome(eval_pattern, model, rho, p, **arm)
            assert mine == outcome(ref_eval_pattern, model, rho, p, **arm), (case, arm, str(p))
        if any(free_vars(p)):
            axiom = Axiom("a", p.sort, p)
            for arm in CHECK_ARMS[:2]:
                mine, warned = outcome(check_axiom, model, axiom, **arm)
                ref, ref_warned = outcome(ref_check_axiom, model, axiom, **arm)
                assert (axiom_view(mine), warned) == (axiom_view(ref), ref_warned), (
                    case, arm, str(p))
    made = collections.Counter(placed)
    assert min(made["_equals_reads_op"], made["_equals_read_op"], made["_equals_op"]) > 40, made
    assert len(features) == 3 and min(features.values()) > 20, features


def fused_loop_signature():
    sig = Signature()
    nat = sig.declare_sort("Nat")
    sig.declare_sort("Bool")
    sig.declare_symbol("O", [], nat)
    sig.declare_symbol("S", [nat], nat)
    sig.declare_symbol("plus", [nat, nat], nat)
    sig.declare_symbol("times", [nat, nat], nat)
    return sig


def fused_loop_model(rng, sig, partial):
    """Every symbol a total function, or a partial one whose entries are
    each empty with probability 0.3; ``times`` is now and then ``plus``
    with its arguments swapped, so that equations across the two hold."""
    labels = [str(k) for k in range(rng.randint(1, 4))]

    def entry():
        return [] if partial and rng.random() < 0.3 else [rng.choice(labels)]

    plus = {(a, b): entry() for a in labels for b in labels}
    times = ({(a, b): plus[b, a] for a, b in plus} if rng.random() < 0.3
             else {(a, b): entry() for a in labels for b in labels})
    return build_model(sig, {"Nat": labels, "Bool": ["t", "f"]},
                       {"O": {(): entry()}, "S": {(a,): entry() for a in labels},
                        "plus": plus, "times": times})


def fused_loop_pattern(rng, sig, features):
    """An equation of two binary applications under one to three
    quantifiers, plain or complemented.  Each key is the innermost
    variable b0, an outer one, a constant, a term of an outer variable,
    now and then a free variable, or the one term of b0 that the body
    computes before the equation (the shape of associativity), in one
    instruction or two."""
    depth = rng.randint(1, 3)
    outer = [f"b{k}" for k in range(1, depth)]
    computed = rng.choice(["S(b0)", f"plus({outer[0]}, b0)" if outer else "times(b0, O())",
                           "S(S(b0))", None, None, None])
    keys = ["b0", "b0", "O()", *outer, *(["S(b1)"] if outer else []),
            *(["x:Nat"] if rng.random() < 0.3 else []), *([computed] * 2 if computed else [])]
    sides = [[rng.choice(keys) for _ in range(2)] for _ in range(2)]
    body = r"\equals{%s}(%s(%s, %s), %s(%s, %s))" % (
        rng.choice(("Nat", "Bool")), rng.choice(("plus", "times")), *sides[0],
        rng.choice(("plus", "times")), *sides[1])
    if rng.random() < 0.5:
        body = rf"\not({body})"
        features["complemented"] += 1
    quantifiers = [rng.choice(("forall", "exists")) for _ in range(depth)]
    features[quantifiers[-1]] += 1
    for quantifier in quantifiers:
        body = rf"\{quantifier}{{Nat}} {body}"
    for first, second in sides:
        features[{(True, True): "b0 both", (True, False): "b0 first",
                  (False, True): "b0 second", (False, False): "b0 neither"}[
            first == "b0", second == "b0"]] += 1
    return parse_pattern(body, sig)


def test_fused_loops_match_the_reference(bodies):
    """Quantified equations of two binary terms, over total and partial
    functions, against the reference under both engines: eval_pattern's
    set, and check_axiom's verdict, witness and got where there is a free
    variable.  Most innermost loops fuse with their equation, with and
    without terms computed before it."""
    rng = random.Random(390)
    sig = fused_loop_signature()
    features = collections.Counter()
    for case in range(300):
        partial = case % 2 == 1
        model = checked_model(fused_loop_model(rng, sig, partial))
        p = fused_loop_pattern(rng, sig, features)
        rho = random_valuation(rng, model, p)
        for arm in EVAL_ARMS[:2]:
            mine = outcome(eval_pattern, model, rho, p, **arm)
            assert mine == outcome(ref_eval_pattern, model, rho, p, **arm), (case, arm, str(p))
        if any(free_vars(p)):
            features["free"] += 1
            axiom = Axiom("a", p.sort, p)
            for arm in CHECK_ARMS[:2]:
                mine, warned = outcome(check_axiom, model, axiom, **arm)
                ref, ref_warned = outcome(ref_check_axiom, model, axiom, **arm)
                assert (axiom_view(mine), warned) == (axiom_view(ref), ref_warned), (
                    case, arm, str(p))
    fused = collections.Counter(len(body) for name, body in bodies
                                if name == "_exists_equals_op")
    assert set(fused) == {0, 1, 2} and min(fused.values()) > 30, fused
    assert len(features) == 8 and min(features.values()) > 40, features


# bodies that end in no equality of two reads keep the plain loop
UNFUSED = [
    (r"\forall{Nat} \and(\equals{Nat}(plus(b0, O()), plus(O(), b0)), \ceil{Nat}(S(b0)))",
     "std"),
    # S(O()) is a register of the top: the comparison reads one side only
    (r"\forall{Nat} \equals{Nat}(plus(b0, b0), S(O()))", "std"),
    # S is a relation here: plus(S(b0), b0) is an application of its own
    (r"\forall{Nat} \equals{Nat}(plus(S(b0), b0), plus(b0, O()))", "relational"),
]


@pytest.mark.parametrize("text, which", UNFUSED)
def test_other_bodies_keep_the_plain_loop(std_sig, std_model, placed, text, which):
    model = std_model if which == "std" else relational_model(std_sig)
    p, empty = parse_pattern(text, std_sig), Valuation.empty()
    for arm in EVAL_ARMS[:2]:
        placed.clear()
        mine = outcome(eval_pattern, model, empty, p, **arm)
        assert mine == outcome(ref_eval_pattern, model, empty, p, **arm), arm
        assert "_exists_op" in placed and "_exists_equals_op" not in placed, placed


@pytest.fixture
def lifts(monkeypatch):
    """The keys of every pointwise lift, in the evaluator and the model."""
    keys = []
    lift = semantics._lift

    def counted(table, key):
        keys.append(tuple(key))
        return lift(table, key)

    for module in (semantics, models):
        monkeypatch.setattr(module, "_lift", counted)
    return keys


LIFTED = [
    # singleton or empty arguments read the table straight, complemented
    # ones (the n-ary form) too
    (r"S(O())", "iterate", []),
    (r"plus(S(O()), O())", "iterate", []),
    (r"S(\bottom{Nat})", "iterate", []),
    (r"plus(\bottom{Nat}, S(O()))", "iterate", []),
    (r"\exists{Nat} \exists{Nat} \and(plus(b0, b1), S(\and(b0, b1)))", "iterate", []),
    (r"isZero(\not(\top{Nat}))", "iterate", []),
    (r"plus(\not(\or(S(O()), \not(O()))), \not(\top{Nat}))", "iterate", []),
    # an argument of two or more elements is lifted, once per value
    (r"S(\or(O(), S(O())))", "iterate", [(3,)]),
    (r"plus(O(), \or(O(), S(O())))", "iterate", [(1, 3)]),
    (r"plus(\not(O()), O())", "iterate", [(14, 1)]),
    (r"\exists{Nat} plus(b0, \or(b0, O()))", "iterate", [(2, 3), (4, 5), (8, 9)]),
    # a unary argument that grew by one bit reads only that bit's entry
    (r"\mu{Nat} \or(O(), S(B0))", "iterate", []),
    # the prefix engine counts upwards: a subset that lost bits is lifted whole
    (r"\mu{Nat} \or(O(), S(B0))", "prefix", [(6,), (10,), (12,), (14,)]),
    # a lift from empty, the same argument again (its last image, no
    # lift), a single added bit, then lost bits
    (r"\exists{Nat} S(\or(b0, \or(O(), S(O()))))", "iterate", [(3,), (11,)]),
    # an application keeps no store of the arguments it has seen, only its
    # last one: in an inner loop it lifts its keys again on each run that
    # an outer loop makes, once per outer element
    (r"\forall{Nat} \exists{Nat} \or(\not(b1), S(\or(b0, O())))", "iterate",
     [(5,), (9,)] * 4),
    (r"\forall{Nat} \or(\not(b0), \mu{Nat} \or(b0, S(B0)))", "prefix",
     [(6,), (10,), (12,), (14,)] * 4),
]


# ids name the engine only where it is not the default
@pytest.mark.parametrize("text, mode, lifted", LIFTED, ids=[
    f"{text}-{len(lifted)}" if mode == "iterate" else f"{text}-{mode}-{len(lifted)}"
    for text, mode, lifted in LIFTED])
def test_application_of_singletons_reads_the_table(std_sig, std_model, lifts, text, mode, lifted):
    p, empty = parse_pattern(text, std_sig), Valuation.empty()
    for model in (std_model, cycle_model(std_sig)):
        lifts.clear()
        assert (eval_pattern(model, empty, p, lfp_mode=mode)
                == ref_eval_pattern(model, empty, p, lfp_mode=mode))
        assert lifts == lifted
        assert all(max(bits.bit_count() for bits in key) > 1 for key in lifts)


def test_only_arguments_of_two_or_more_bits_are_lifted(lifts):
    """Over random fixpoints under both engines, every lift has an argument
    of two or more bits, and every result is the reference's."""
    rng = random.Random(61)
    empty = Valuation.empty()
    for case in range(300):
        sig = random_signature(rng)
        model = random_model(rng, sig, max_carrier=4)
        p = random_positive_mu(rng, sig) if case % 2 else random_nested_fixpoint(rng, sig)
        for mode in ("iterate", "prefix"):
            lifts.clear()
            got = outcome(eval_pattern, model, empty, p, lfp_mode=mode)
            assert all(max(bits.bit_count() for bits in key) > 1 for key in lifts), (
                case, mode, str(p), lifts)
            assert got == outcome(ref_eval_pattern, model, empty, p, lfp_mode=mode), (
                case, mode, str(p))


def test_interpret_symbol_reads_the_table(std_sig, std_model, lifts):
    plus = std_sig.symbol("plus")
    one, two = std_model.elem(std_sig.sort("Nat"), "1"), std_model.elem(std_sig.sort("Nat"), "2")
    assert std_model.format_set(std_model.interpret_symbol(plus, (one, two))) == "{ 3 }"
    assert std_model.interpret_symbol(plus, (two, two)).is_empty
    assert lifts == []


@pytest.fixture
def apps(monkeypatch):
    """Each placed application instruction, with the arguments its maker
    was given."""
    made = []
    make = semantics._app_op

    def recorded(*args):
        op = make(*args)
        made.append((op, *args))
        return op

    monkeypatch.setattr(semantics, "_app_op", recorded)
    return made


def relational_model(sig):
    """The standard model with ``S`` and ``plus`` relations: some entry of
    each holds two elements, so no application of them is a term."""
    return build_model(
        sig, {"Bool": ["t", "f"], "Nat": ["0", "1", "2", "3"]},
        {"O": {(): ["0"]}, "isZero": {("0",): ["t"], ("1",): ["f"]},
         "S": {("0",): ["1", "2"], ("1",): ["2"], ("2",): ["3"]},
         "plus": {("0", "0"): ["0"], ("0", "1"): ["1", "3"], ("1", "0"): ["1"],
                  ("1", "1"): ["2"]}},
    )


STRAIGHT = [
    # element variables always hold one bit: an Exists variable, in one
    # place or both, and a free element variable, read with no test
    (r"\exists{Nat} S(b0)", True, True),
    (r"\exists{Nat} \exists{Nat} plus(b1, b0)", True, True),
    (r"S(x:Nat)", True, True),
    (r"plus(x:Nat, y:Nat)", True, True),
    (r"\exists{Nat} plus(x:Nat, b0)", True, True),
    # a mu or free set variable, a complement or a computed argument may
    # hold any subset, and keeps the test; so does a binary application
    # with one such argument
    (r"\mu{Nat} \or(O(), S(B0))", False, False),
    (r"S(#X:Nat)", False, False),
    (r"plus(x:Nat, #X:Nat)", False, False),
    (r"\exists{Nat} S(\not(b0))", False, False),
    (r"isZero(\not(x:Nat))", False, False),
    # an application of a symbol whose every entry holds one bit, to
    # arguments that hold one bit, holds one bit: on the standard model,
    # where S is a partial function, not where it is a relation
    (r"\exists{Nat} S(S(b0))", False, True),
    (r"\exists{Nat} plus(b0, S(b0))", False, True),
]


# ids name the rows as before the functional model was added
@pytest.mark.parametrize("text, straight, functional", [
    pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in STRAIGHT])
def test_applications_of_element_variables_read_the_table_straight(
        std_sig, std_model, apps, lifts, text, straight, functional):
    nat = std_sig.sort("Nat")
    p = parse_pattern(text, std_sig)
    axiom = Axiom("a", p.sort, p)
    # straight on the relational model, and on the functional standard one
    for model, want in ((relational_model(std_sig), straight), (std_model, functional)):
        rho = Valuation({ElemVar(name, nat): model.elem(nat, "2") for name in "xy"},
                        {SetVar("X", nat): model.full_set(nat)})

        def checked():
            assert axiom_view(check_axiom(model, axiom)) == axiom_view(
                ref_check_axiom(model, axiom))

        def evaluated():
            assert eval_pattern(model, rho, p) == ref_eval_pattern(model, rho, p)

        # check_axiom only where there are free variables
        for run in (evaluated, checked) if ":" in text else (evaluated,):
            apps.clear()
            run()
            # run the last placed application with every argument {0, 1}:
            # its table has no entry for that key, so a straight read gives 0
            op, regs, dst, args, table, flips, _ = apps[-1]
            image = _lift(table, (0b11,) * len(args))  # not the counted lift
            lifts.clear()
            for a, flip in zip(args, flips):
                regs[a] = 0b11 ^ flip
            op()
            assert image and regs[dst] == (0 if want else image), (model, run)
            if want:
                assert lifts == []


def traced_peak(run):
    """What ``run()`` returns, and the most memory that Python allocated at
    once while it ran."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [10, 12])
def test_memory_stays_bounded_over_every_subset(n):
    # a prefix mu and a free set variable each run their applications on
    # all 2^n subsets of the carrier; an application that kept one entry
    # per argument it has seen would grow with them
    sig, model = chain_model(n)
    nat, empty = sig.sort("Nat"), Valuation.empty()
    fix = parse_pattern(r"\mu{Nat} \or(O(), S(B0))", sig)
    theory = Theory(sig, (Axiom("excluded-middle", nat, parse_pattern(
        r"\or(\not(S(#X:Nat)), S(#X:Nat))", sig)),))
    value, eval_peak = traced_peak(lambda: eval_pattern(model, empty, fix, lfp_mode="prefix"))
    report, check_peak = traced_peak(lambda: satisfies(model, theory))
    assert value == ref_eval_pattern(model, empty, fix) and report.satisfied
    assert max(eval_peak, check_peak) < 32 * 1024, (eval_peak, check_peak)


# --- one node per distinct subterm --------------------------------------------


def registers(model, p):
    """How many registers placement gives the closed pattern ``p``."""
    return len(semantics._compile(model, p, "iterate", 20, ()).regs)


def distinct_nodes(p):
    return sum(kids is not None for _, kids in walk(p))


def assert_fully_shared(p):
    """No two distinct nodes of ``p`` have the same head and children."""
    nodes = {}
    for node, kids in walk(p):
        if kids is not None:
            key = (*node._head(), *map(id, kids))
            assert nodes.setdefault(key, node) is node, str(node)


def test_equal_subterms_of_one_parse_are_one_node(std_sig, std_model):
    p = parse_pattern(r"\equals{Bool}(S(O()), plus(O(), S(O())))", std_sig)
    a, b = p._operands
    assert a is b.args[1] and a.args[0] is b.args[0]
    # O(), S(O()), plus(O(), S(O())) and the comparison; parsed apart, the
    # second S(O()) and its O() are other objects, with registers of their own
    apart = mk_equals(std_sig.sort("Bool"), parse_pattern("S(O())", std_sig),
                      parse_pattern("plus(O(), S(O()))", std_sig))
    assert apart == p
    assert (registers(std_model, p), registers(std_model, apart)) == (4, 6)
    empty = Valuation.empty()
    assert eval_pattern(std_model, empty, p) == eval_pattern(std_model, empty, apart)
    # a \mu with and without its annotation is one node
    p = parse_pattern(r"\and(\mu{Nat} S(B0), \mu S(B0))", std_sig)
    assert p.left is p.right
    # equal text in other contexts, or of another sort, is another pattern
    for text in (r"\and(O(), \exists{Nat} O())", r"\and(\top{Nat}, \exists{Nat} \top{Nat})"):
        p = parse_pattern(text, std_sig)
        assert p.left != p.right.body
    p = parse_pattern(r"\and(\ceil{Bool}(O()), isZero(\ceil{Nat}(O())))", std_sig)
    assert p.left.body is p.right.args[0].body and p.left != p.right.args[0]


def test_separate_parses_share_nothing(std_sig):
    a, b = parse_pattern("S(O())", std_sig), parse_pattern("S(O())", std_sig)
    assert a == b and a is not b and a.args[0] is not b.args[0]


def test_one_theory_shares_equal_subterms_across_its_axioms():
    theory = parse_theory("\n".join([
        "sort Nat",
        "symbol S : Nat -> Nat",
        "symbol plus : Nat, Nat -> Nat",
        r"axiom defined [Nat] \ceil{Nat}(plus(x:Nat, S(y:Nat)))",
        r"axiom succ [Nat] \equals{Nat}(plus(x:Nat, S(y:Nat)), S(plus(x:Nat, y:Nat)))",
    ]))
    defined, succ = (axiom.pattern for axiom in theory.axioms)
    left, right = succ._operands
    assert defined.body is left
    assert left.args[0] is right.args[0].args[0] and left.args[1].args[0] is right.args[0].args[1]


def reparsed(p, sig):
    """``p`` printed and parsed back: equal to ``p``, printed the same and
    fully shared."""
    text = print_pattern(p)
    q = parse_pattern(text, sig, p.ex, p.mu, expect_sort=p.sort)
    assert q == p and print_pattern(q) == text, text
    assert_fully_shared(q)
    return q


def test_reparsed_patterns_are_shared_and_evaluate_the_same():
    # each generator builds equal subterms as distinct objects, so some
    # reparses of each have fewer nodes
    rng = random.Random(150)
    makers = (
        lambda sig: random_pattern(rng, sig, rng.choice(sig.sorts), budget=rng.randint(2, 14)),
        lambda sig: random_positive_mu(rng, sig, budget=rng.randint(3, 10)),
        lambda sig: random_nested_fixpoint(rng, sig, rng.randint(2, 3)),
        lambda sig: random_equality(rng, sig)[1],
    )
    fewer = [0] * len(makers)
    for case in range(400):
        sig = random_signature(rng)
        model = random_model(rng, sig, max_carrier=3)
        p = makers[case % len(makers)](sig)
        q = reparsed(p, sig)
        fewer[case % len(makers)] += distinct_nodes(q) < distinct_nodes(p)
        rho = random_valuation(rng, model, p)
        for arm in EVAL_ARMS[:2]:
            mine = outcome(eval_pattern, model, rho, q, **arm)
            assert mine == outcome(ref_eval_pattern, model, rho, p, **arm), (case, arm, str(p))
    assert min(fewer) > 0, fewer


def test_reparsed_corpus_axioms_keep_their_verdicts():
    natbool = parse_theory(corpus_path("natbool.mlt").read_text(encoding="utf-8"))
    model, _ = parse_model(corpus_path("natbool.mlm").read_text(encoding="utf-8"), natbool)
    for axiom in natbool.axioms:
        again = Axiom(axiom.label, axiom.sort, reparsed(axiom.pattern, natbool.signature))
        for arm in CHECK_ARMS[:2]:
            mine, warned = outcome(check_axiom, model, again, **arm)
            ref, ref_warned = outcome(ref_check_axiom, model, axiom, **arm)
            assert (axiom_view(mine), warned) == (axiom_view(ref), ref_warned), (axiom.label, arm)
            assert axiom_view(mine) == axiom_view(check_axiom(model, axiom, **arm))


# --- the valuation search -----------------------------------------------------


def literal(sort, k, is_set):
    """A closed pattern of the std model denoting element ``k`` of ``sort``,
    or for a set variable the subset with bits ``k``."""
    names = ["true()", "false()"] if sort == "Bool" else [
        "S(" * i + "O()" + ")" * i for i in range(4)]
    if not is_set:
        return names[k]
    text = rf"\bottom{{{sort}}}"
    for i, name in enumerate(names):
        if k >> i & 1:
            text = rf"\or({name}, {text})"
    return text


@pytest.mark.parametrize("names", [
    (), ("x:Nat",), ("x:Nat", "y:Nat"), ("#X:Nat",), ("x:Nat", "#X:Nat"),
    ("x:Nat", "y:Nat", "#X:Bool"),
])
def test_search_stops_at_a_violation_planted_at_each_valuation(std_sig, std_model, names):
    # \not of the conjunction of var = value fails at exactly the planted
    # valuation; with an equality that never holds conjoined, nowhere
    variables = [(name, name.split(":")[1], name.startswith("#")) for name in names]
    sizes = [std_model.carrier_size(std_sig.sort(sort)) for _, sort, _ in variables]
    never = r"\equals{Bool}(O(), S(O()))"
    for planted in [*itertools.product(*[range(1 << n if is_set else n)
                                         for n, (_, _, is_set) in zip(sizes, variables)]), None]:
        conj = never if planted is None else r"\top{Bool}"
        for (name, sort, is_set), k in zip(variables, planted or [0] * len(variables)):
            conj = rf"\and(\equals{{Bool}}({name}, {literal(sort, k, is_set)}), {conj})"
        axiom = Axiom("planted", std_sig.sort("Bool"), parse_pattern(rf"\not({conj})", std_sig))
        for arm in CHECK_ARMS:
            mine = outcome(check_axiom, std_model, axiom, **arm)
            ref = outcome(ref_check_axiom, std_model, axiom, **arm)
            assert (axiom_view(mine[0]), mine[1]) == (axiom_view(ref[0]), ref[1]), (planted, arm)
        result = check_axiom(std_model, axiom)
        if planted is None:
            assert result.verdict.value == "satisfied"
            continue
        assert result.verdict.value == "violated" and result.got.is_empty
        witness = {str(v): e.ordinal for v, e in result.witness.evars.items()}
        witness.update({str(v): s.bits for v, s in result.witness.svars.items()})
        assert witness == dict(zip(names, planted))


def test_search_with_no_instruction_at_the_outer_level(std_sig):
    # every instruction reads y, so x's level places none; plus(x, y) is
    # 1 only at the planted pair, so the first violation is there
    labels = ["0", "1", "2", "3"]
    laws = [r"\not(\equals{Bool}(plus(x:Nat, y:Nat), S(O())))",
            r"\equals{Nat}(plus(x:Nat, S(y:Nat)), S(plus(x:Nat, y:Nat)))"]
    for a, b in itertools.product(range(4), repeat=2):
        model = build_model(
            std_sig, {"Bool": ["t", "f"], "Nat": labels},
            {"O": {(): ["0"]}, "S": {("0",): ["1"], ("1",): ["2"], ("2",): ["3"]},
             "plus": {(i, j): ["1" if (i, j) == (labels[a], labels[b]) else "0"]
                      for i in labels for j in labels}},
        )
        results = []
        for text in laws:
            axiom = Axiom("law", std_sig.sort("Bool" if "Bool" in text else "Nat"),
                          parse_pattern(text, std_sig))
            program = semantics._compile(model, axiom.pattern, "iterate", 20, axiom._variables)
            assert program.levels[0].code == [] and program.levels[1].code
            results.append(check_axiom(model, axiom))
            assert axiom_view(results[-1]) == axiom_view(ref_check_axiom(model, axiom)), (a, b, text)
        witness = {str(v): e.label for v, e in results[0].witness.evars.items()}
        assert witness == {"x:Nat": labels[a], "y:Nat": labels[b]}


# --- placement of the benchmark's shapes --------------------------------------


def scope_recorder(monkeypatch):
    """A function that places a pattern and describes every scope: the
    register count, the maker names of the top list and of each free
    variable's level (``|`` between lists, ``-`` for an empty one), in
    order, then each binder's maker with its body's makers, in placement
    order.  Names drop the ``_`` and ``_op``."""
    made, bodies = {}, []  # id(op) -> (name, op), kept so that no id is reused
    for name in [n for n in dir(semantics) if n.startswith("_") and n.endswith("_op")]:
        make = getattr(semantics, name)

        def recorded(*args, make=make, short=name[1:-3]):
            if short in ("exists", "exists_equals", "iterate", "prefix"):
                bodies.append(f"{short}[{' '.join(made[id(step)][0] for step in args[4])}]")
            op = make(*args)
            made[id(op)] = short, op
            return op

        monkeypatch.setattr(semantics, name, recorded)

    def place(model, p, mode):
        bodies.clear()
        program = semantics._compile(model, p, mode, 20, _valuation_order(*free_vars(p)))
        names = [" ".join(made[id(op)][0] for op in code) or "-"
                 for code in (program.top, *[level.code for level in program.levels])]
        return "; ".join([f"regs {len(program.regs)}", " | ".join(names), *bodies])

    return place


def bench_shapes(bench_gen):
    """(id, text, lfp mode) of each pattern shape the benchmark places."""
    numeral = bench_gen.numeral
    pair = (rf"\not(\and(\equals{{Bool}}(x:Nat, {numeral(2)}), "
            rf"\equals{{Bool}}(y:Nat, {numeral(3)})))")
    nest = bench_gen.equals_nest_case(2, random.Random(6)).pattern
    return [*[(label, text, "iterate") for label, _, text in bench_gen.BASE_AXIOMS],
            ("comm", bench_gen.COMM, "iterate"), ("assoc3", bench_gen.ASSOC3, "iterate"),
            ("mu-nest-2", bench_gen.MU_NEST[2], "iterate"),
            ("mu-nest-3", bench_gen.MU_NEST[3], "iterate"),
            ("forall-mu-iterate", bench_gen.FORALL_MU, "iterate"),
            ("forall-mu-prefix", bench_gen.FORALL_MU, "prefix"),
            ("plus-comm-free", bench_gen.PLUS_COMM_FREE, "iterate"),
            ("plus-succ-free", bench_gen.PLUS_SUCC_FREE, "iterate"),
            ("planted-zero", bench_gen.PLANTED_ZERO, "iterate"),
            ("planted-pair", pair, "iterate"), ("equals-nest-2", nest, "iterate")]


# each shape's placement on a natbool-6 model of the benchmark and on
# relational_model, where no application of S or plus is a term
BENCH_PLACEMENTS = {
    ("bool-domain", "natbool"):
        "regs 3; and",
    ("bool-domain", "relational"):
        "regs 3; and",
    ("nat-domain", "natbool"):
        "regs 5; iterate; iterate[app and]",
    ("nat-domain", "relational"):
        "regs 5; iterate; iterate[app and]",
    ("isZero-O", "natbool"):
        "regs 4; app equals",
    ("isZero-O", "relational"):
        "regs 4; app equals",
    ("isZero-S", "natbool"):
        "regs 7; exists; exists[app defined equals_read and]",
    ("isZero-S", "relational"):
        "regs 8; exists; exists[app defined app equals and]",
    ("notb-true", "natbool"):
        "regs 4; app equals",
    ("notb-true", "relational"):
        "regs 4; app equals",
    ("notb-false", "natbool"):
        "regs 4; app equals",
    ("notb-false", "relational"):
        "regs 4; app equals",
    ("andb-true", "natbool"):
        "regs 4; exists; exists[equals_read]",
    ("andb-true", "relational"):
        "regs 4; exists; exists[equals_read]",
    ("plus-O", "natbool"):
        "regs 4; exists; exists[equals_read]",
    ("plus-O", "relational"):
        "regs 4; exists; exists[equals_read]",
    ("comm", "natbool"):
        "regs 5; exists; exists_equals[]; exists[exists_equals]",
    ("comm", "relational"):
        "regs 5; exists; exists_equals[]; exists[exists_equals]",
    ("assoc3", "natbool"):
        "regs 9; exists; exists_equals[app]; exists[app exists_equals]; exists[exists]",
    ("assoc3", "relational"):
        "regs 11; exists; exists[app app app equals]; exists[app exists]; exists[exists]",
    ("mu-nest-2", "natbool"):
        "regs 8; iterate; iterate[and app and]; iterate[iterate]",
    ("mu-nest-2", "relational"):
        "regs 8; iterate; iterate[and app and]; iterate[iterate]",
    ("mu-nest-3", "natbool"):
        "regs 11; iterate; iterate[and app and]; iterate[and iterate]; iterate[iterate]",
    ("mu-nest-3", "relational"):
        "regs 11; iterate; iterate[and app and]; iterate[and iterate]; iterate[iterate]",
    ("forall-mu-iterate", "natbool"):
        "regs 9; iterate exists; iterate[app and]; exists[and defined]",
    ("forall-mu-iterate", "relational"):
        "regs 9; iterate exists; iterate[app and]; exists[and defined]",
    ("forall-mu-prefix", "natbool"):
        "regs 9; prefix exists; prefix[app and]; exists[and defined]",
    ("forall-mu-prefix", "relational"):
        "regs 9; prefix exists; prefix[app and]; exists[and defined]",
    ("plus-comm-free", "natbool"):
        "regs 3; - | - | equals_reads",
    ("plus-comm-free", "relational"):
        "regs 3; - | - | equals_reads",
    ("plus-succ-free", "natbool"):
        "regs 8; - | - | app app defined app equals_read and",
    ("plus-succ-free", "relational"):
        "regs 9; - | - | app app defined app app equals and",
    ("planted-zero", "natbool"):
        "regs 3; - | equals_read",
    ("planted-zero", "relational"):
        "regs 3; - | equals_read",
    ("planted-pair", "natbool"):
        "regs 9; app app app | equals | equals and",
    ("planted-pair", "relational"):
        "regs 9; app app app | equals | equals and",
    ("equals-nest-2", "natbool"):
        "regs 11; app app equals app equals equals app equals equals",
    ("equals-nest-2", "relational"):
        "regs 11; app app equals app equals equals app equals equals",
}


def test_bench_shapes_place_as_pinned(bench_gen, monkeypatch):
    """Each pattern shape that the benchmark evaluates keeps its placement:
    the instructions of every scope, in order, and the register count, on
    a model where S and plus are partial functions and on one where they
    are relations."""
    theory = parse_theory(bench_gen.theory_text())
    sig = theory.signature
    natbool, _ = parse_model(bench_gen.capped_model(6, random.Random(6)).text(), theory)
    place = scope_recorder(monkeypatch)
    got = {}
    for label, text, mode in bench_shapes(bench_gen):
        p = parse_pattern(text, sig)
        for name, model in (("natbool", natbool), ("relational", relational_model(sig))):
            got[label, name] = place(model, p, mode)
    assert got == BENCH_PLACEMENTS
