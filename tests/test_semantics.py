import random

import pytest

from mulogic import (
    ElemVar,
    SetVar,
    Valuation,
    bevar_subst,
    bsvar_subst,
    build_model,
    eval_pattern,
    free_vars,
    lfp_iterate,
    lfp_prefixpoints,
    mk_and,
    mk_app,
    mk_bound_evar,
    mk_bound_svar,
    mk_defined,
    mk_exists,
    mk_free_evar,
    mk_free_svar,
    mk_mu,
    mk_not,
    mk_or,
    mk_top,
)
from mulogic.errors import (
    CarrierTooLargeError,
    NonPositiveMuError,
    NonPositiveMuWarning,
    NotClosedError,
    SortMismatchError,
    UnboundFreeVariableError,
)
from gen import (
    random_model,
    random_pattern,
    random_positive_mu,
    random_signature,
    random_valuation,
)


@pytest.fixture
def nat(std_sig):
    return std_sig.sort("Nat")


@pytest.fixture
def bool_(std_sig):
    return std_sig.sort("Bool")


def nat_domain_pattern(sig):
    nat = sig.sort("Nat")
    zero = mk_app(sig, sig.symbol("O"), [], mu=(nat,))
    succ = mk_app(sig, sig.symbol("S"), [mk_bound_svar((), (nat,), 0)])
    return mk_mu(mk_or(zero, succ))


class TestValuation:
    def test_update_then_read(self, std_model, nat):
        x = ElemVar("x", nat)
        two = std_model.elem(nat, "2")
        rho = Valuation.empty().update_evar(x, two)
        assert rho.evar(x) == two

    def test_update_frames_other_variables(self, std_model, nat):
        x, y = ElemVar("x", nat), ElemVar("y", nat)
        one, two = std_model.elem(nat, "1"), std_model.elem(nat, "2")
        rho = Valuation.empty().update_evar(y, one).update_evar(x, two)
        assert rho.evar(y) == one

    def test_sort_discipline(self, std_model, nat, bool_):
        x = ElemVar("x", nat)
        with pytest.raises(SortMismatchError):
            Valuation.empty().update_evar(x, std_model.elem(bool_, "t"))
        X = SetVar("X", nat)
        with pytest.raises(SortMismatchError):
            Valuation.empty().update_svar(X, std_model.full_set(bool_))


class TestEval:
    def test_is_zero_of_one(self, std_sig, std_model):
        one = mk_app(std_sig, std_sig.symbol("S"), [mk_app(std_sig, std_sig.symbol("O"), [])])
        p = mk_app(std_sig, std_sig.symbol("isZero"), [one])
        out = eval_pattern(std_model, Valuation.empty(), p)
        assert std_model.format_set(out) == "{ f }"

    def test_top_is_full_carrier(self, std_model, nat):
        out = eval_pattern(std_model, Valuation.empty(), mk_top(nat))
        assert out == std_model.full_set(nat)

    def test_nat_domain_mu_reaches_everything(self, std_sig, std_model, nat):
        p = nat_domain_pattern(std_sig)
        for mode in ("iterate", "prefix"):
            out = eval_pattern(std_model, Valuation.empty(), p, lfp_mode=mode)
            assert out == std_model.full_set(nat)

    def test_free_variables(self, std_model, nat):
        x = ElemVar("x", nat)
        rho = Valuation.empty().update_evar(x, std_model.elem(nat, "2"))
        out = eval_pattern(std_model, rho, mk_free_evar(x))
        assert std_model.format_set(out) == "{ 2 }"
        X = SetVar("X", nat)
        chosen = std_model.set_of(nat, (std_model.elem(nat, "1"), std_model.elem(nat, "3")))
        rho = rho.update_svar(X, chosen)
        assert eval_pattern(std_model, rho, mk_free_svar(X)) == chosen

    def test_not_is_complement(self, std_sig, std_model, bool_):
        t = mk_app(std_sig, std_sig.symbol("true"), [])
        out = eval_pattern(std_model, Valuation.empty(), mk_not(t))
        assert std_model.format_set(out) == "{ f }"

    def test_and_is_intersection(self, std_sig, std_model):
        t = mk_app(std_sig, std_sig.symbol("true"), [])
        f = mk_app(std_sig, std_sig.symbol("false"), [])
        assert eval_pattern(std_model, Valuation.empty(), mk_and(t, f)).is_empty
        assert eval_pattern(std_model, Valuation.empty(), mk_and(t, t)) == eval_pattern(
            std_model, Valuation.empty(), t
        )

    def test_definedness_cases(self, std_sig, std_model, nat, bool_):
        empty = mk_and(
            mk_app(std_sig, std_sig.symbol("true"), []),
            mk_app(std_sig, std_sig.symbol("false"), []),
        )
        assert eval_pattern(
            std_model, Valuation.empty(), mk_defined(nat, empty)
        ).is_empty
        x = ElemVar("x", nat)
        rho = Valuation.empty().update_evar(x, std_model.elem(nat, "1"))
        out = eval_pattern(std_model, rho, mk_defined(bool_, mk_free_evar(x)))
        assert out == std_model.full_set(bool_)

    def test_exists_unions_instances(self, std_sig, std_model, nat, bool_):
        # exists Nat. isZero(b0) == { t, f } over Nat = {0..3}
        body = mk_app(std_sig, std_sig.symbol("isZero"), [mk_bound_evar((nat,), (), 0)])
        p = mk_exists(nat, body)
        out = eval_pattern(std_model, Valuation.empty(), p)
        assert out == std_model.full_set(bool_)

    def test_open_pattern_rejected(self, std_model, nat):
        with pytest.raises(NotClosedError):
            eval_pattern(std_model, Valuation.empty(), mk_bound_evar((nat,), (), 0))

    def test_unbound_variable_rejected(self, std_model, nat):
        with pytest.raises(UnboundFreeVariableError):
            eval_pattern(std_model, Valuation.empty(), mk_free_evar(ElemVar("x", nat)))

    def test_element_binding_outside_the_carrier_rejected(self, std_sig, std_model, nat, bool_):
        # a hand-built valuation skips update_evar's sort check; a Bool
        # element and a Nat element of a second, larger build must be
        # rejected, not read by their ordinals
        x = ElemVar("x", nat)
        larger = build_model(std_sig, {"Bool": ["t", "f"], "Nat": list("012345")}, {})
        for elem in (std_model.elem(bool_, "f"), larger.elem(nat, "5")):
            with pytest.raises(SortMismatchError):
                eval_pattern(std_model, Valuation({x: elem}), mk_free_evar(x))

    def test_nonpositive_mu_iterate_rejected(self, std_model, nat):
        p = mk_mu(mk_not(mk_bound_svar((), (nat,), 0)))
        with pytest.raises(NonPositiveMuError):
            eval_pattern(std_model, Valuation.empty(), p, lfp_mode="iterate")

    def test_nonpositive_mu_prefix_warns_but_computes(self, std_model, nat):
        p = mk_mu(mk_not(mk_bound_svar((), (nat,), 0)))
        with pytest.warns(NonPositiveMuWarning):
            out = eval_pattern(std_model, Valuation.empty(), p, lfp_mode="prefix")
        # pre-fixpoints of A -> complement(A) are the sets containing their
        # own complement; only the full carrier qualifies
        assert out == std_model.full_set(nat)

    def test_fresh_state_does_not_leak_into_results(self, std_sig, std_model, nat, bool_):
        # the same binder subterm is opened with differently-numbered fresh
        # variables depending on how much of the pattern was evaluated
        # before it; the resulting sets must not depend on that
        body = mk_app(std_sig, std_sig.symbol("isZero"), [mk_bound_evar((nat,), (), 0)])
        some = mk_exists(nat, body)
        alone = eval_pattern(std_model, Valuation.empty(), some)
        assert alone == eval_pattern(std_model, Valuation.empty(), some)
        # in the conjunction the right copy is opened with a later fresh
        # counter than the left copy; the result must be unaffected
        assert eval_pattern(std_model, Valuation.empty(), mk_and(some, some)) == alone
        assert eval_pattern(
            std_model, Valuation.empty(), mk_and(mk_not(some), some)
        ) == alone & alone.complement()

    def test_fresh_names_avoid_pattern_variables(self, std_model, nat):
        # a free variable squatting on the reserved namespace must not
        # collide with generated binder names
        squatter = ElemVar("x'1", nat)
        body = mk_and(
            mk_bound_evar((nat,), (), 0),
            mk_free_evar(squatter, ex=(nat,)),
        )
        p = mk_defined(nat, mk_exists(nat, body))
        rho = Valuation.empty().update_evar(squatter, std_model.elem(nat, "3"))
        out = eval_pattern(std_model, rho, p)
        assert out == std_model.full_set(nat)


class TestLfpEngines:
    def test_identity_step(self, std_model, nat):
        assert lfp_iterate(lambda a: a, std_model, nat).is_empty
        assert lfp_prefixpoints(lambda a: a, std_model, nat).is_empty

    def test_constant_step(self, std_model, nat):
        c = std_model.set_of(nat, (std_model.elem(nat, "2"),))
        assert lfp_iterate(lambda a: c, std_model, nat) == c
        assert lfp_prefixpoints(lambda a: c, std_model, nat) == c

    def test_successor_closure(self, std_sig, std_model, nat):
        succ = std_sig.symbol("S")
        zero = std_model.set_of(nat, (std_model.elem(nat, "0"),))

        def step(a):
            return zero | std_model.extended_app(succ, [a])

        assert lfp_iterate(step, std_model, nat) == std_model.full_set(nat)
        assert lfp_prefixpoints(step, std_model, nat) == std_model.full_set(nat)

    def test_iterate_detects_non_monotone_divergence(self, std_model, nat):
        full = std_model.full_set(nat)

        def alternate(a):
            return full if a.is_empty else std_model.empty_set(nat)

        with pytest.raises(NonPositiveMuError):
            lfp_iterate(alternate, std_model, nat)

    def test_prefix_cap(self, std_model, nat):
        with pytest.raises(CarrierTooLargeError):
            lfp_prefixpoints(lambda a: a, std_model, nat, cap=3)

    def test_engine_agreement_on_random_positive_mu(self):
        rng = random.Random(41)
        for _ in range(40):
            sig = random_signature(rng)
            model = random_model(rng, sig)
            p = random_positive_mu(rng, sig, budget=8)
            fast = eval_pattern(model, Valuation.empty(), p, lfp_mode="iterate")
            oracle = eval_pattern(model, Valuation.empty(), p, lfp_mode="prefix")
            assert fast == oracle


class TestEvalProperties:
    def test_sort_soundness(self):
        rng = random.Random(42)
        for _ in range(80):
            sig = random_signature(rng)
            model = random_model(rng, sig)
            sort = rng.choice(sig.sorts)
            p = random_pattern(rng, sig, sort, budget=rng.randint(2, 10), mu_depth=1)
            rho = random_valuation(rng, model, p)
            out = eval_pattern(model, rho, p, lfp_mode="prefix")
            assert out.sort == sort
            assert out.width == model.carrier_size(sort)

    def test_valuation_frame(self):
        rng = random.Random(43)
        for _ in range(60):
            sig = random_signature(rng)
            model = random_model(rng, sig)
            p = random_pattern(rng, sig, rng.choice(sig.sorts), budget=8, mu_depth=1)
            rho = random_valuation(rng, model, p)
            evs, _ = free_vars(p)
            stray = ElemVar("stray", rng.choice(sig.sorts))
            assert stray not in evs
            bound = rho.update_evar(stray, rng.choice(model.carrier(stray.sort)))
            assert eval_pattern(model, rho, p, lfp_mode="prefix") == eval_pattern(
                model, bound, p, lfp_mode="prefix"
            )

    def test_evaluation_is_deterministic(self):
        rng = random.Random(44)
        for _ in range(30):
            sig = random_signature(rng)
            model = random_model(rng, sig)
            p = random_pattern(rng, sig, rng.choice(sig.sorts), budget=10, mu_depth=1)
            rho = random_valuation(rng, model, p)
            assert eval_pattern(model, rho, p) == eval_pattern(model, rho, p)

    def test_exists_matches_manual_union(self):
        rng = random.Random(45)
        for _ in range(40):
            sig = random_signature(rng)
            model = random_model(rng, sig)
            binder = rng.choice(sig.sorts)
            sort = rng.choice(sig.sorts)
            body = random_pattern(rng, sig, sort, (binder,), (), budget=7, mu_depth=0)
            p = mk_exists(binder, body)
            rho = random_valuation(rng, model, p)
            out = eval_pattern(model, rho, p)
            x = ElemVar("q0", binder)
            opened = bevar_subst(mk_free_evar(x), body)
            manual = model.empty_set(sort)
            for m in model.carrier(binder):
                manual = manual | eval_pattern(model, rho.update_evar(x, m), opened)
            assert out == manual

    def test_mu_matches_iteration_over_substituted_body(self):
        # the substitution calculus stays the reference semantics for mu:
        # open the body with a free set variable, iterate by hand
        rng = random.Random(46)
        for _ in range(40):
            sig = random_signature(rng)
            model = random_model(rng, sig)
            p = random_positive_mu(rng, sig)
            rho = random_valuation(rng, model, p)
            X = SetVar("Q0", p.sort)
            opened = bsvar_subst(mk_free_svar(X), p.body)
            manual = lfp_iterate(
                lambda a: eval_pattern(model, rho.update_svar(X, a), opened),
                model,
                p.sort,
            )
            assert eval_pattern(model, rho, p) == manual
