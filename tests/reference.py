"""The reference the compiled evaluator is checked against.

A plain recursive reading of the semantics over de Bruijn environments:
each node is denoted from its children's denotations, an ``Exists`` is the
union of its body over the carrier with the element pushed at index 0, and
a ``Mu`` hands its body, with the set pushed at index 0, to
``lfp_iterate`` or ``lfp_prefixpoints`` as a ``CarrierSet`` step function.
Symbols are applied through ``FiniteModel.extended_app``.  Nothing is
shared, placed or hoisted, so it recurses once per node and suits only the
shallow patterns of the tests.  ``ref_check_axiom`` builds a
``Valuation`` per valuation in ``itertools.product`` order.

Free variables and positivity come from ``ref_facts``, a walk of its own
that reads no facts stored on the nodes.
"""

from __future__ import annotations

import itertools
import math
import warnings

from mulogic import (
    And,
    App,
    AxiomResult,
    BoundEVar,
    BoundSVar,
    CarrierSet,
    Defined,
    Exists,
    FreeEVar,
    FreeSVar,
    Mu,
    Not,
    Valuation,
    ElemVar,
    Verdict,
    lfp_iterate,
    lfp_prefixpoints,
)
from mulogic.pattern import walk
from mulogic.errors import (
    NonPositiveMuError,
    NonPositiveMuWarning,
    NotClosedError,
    StateSpaceTooLargeError,
    UnboundFreeVariableError,
)


def ref_eval_pattern(model, rho, p, lfp_mode="iterate", prefix_cap=20):
    _check(p, lfp_mode)
    evs, svs = ref_free_vars(p)
    for var in (*evs, *svs):
        if not rho.binds(var):
            raise UnboundFreeVariableError(var, f"{var} is not bound")
    return _denote(model, rho, p, (), (), lfp_mode, prefix_cap)


def ref_check_axiom(model, axiom, lfp_mode="iterate", prefix_cap=20, state_cap=10**6):
    evars, svars = ref_free_vars(axiom.pattern)
    evar_list = sorted(evars, key=lambda v: (v.name, v.sort.id))
    svar_list = sorted(svars, key=lambda v: (v.name, v.sort.id))
    count = math.prod(model.carrier_size(v.sort) for v in evar_list) * math.prod(
        2 ** model.carrier_size(v.sort) for v in svar_list
    )
    if count > state_cap:
        raise StateSpaceTooLargeError(
            f"axiom {axiom.label!r} needs {count} valuations, more than the "
            f"cap of {state_cap}"
        )
    _check(axiom.pattern, lfp_mode)
    expected = model.full_set(axiom.sort)
    elem_choices = [model.carrier(v.sort) for v in evar_list]
    set_choices = [
        [CarrierSet(v.sort, model.carrier_size(v.sort), bits)
         for bits in range(1 << model.carrier_size(v.sort))]
        for v in svar_list
    ]
    for elems in itertools.product(*elem_choices):
        for sets in itertools.product(*set_choices):
            rho = Valuation(dict(zip(evar_list, elems)), dict(zip(svar_list, sets)))
            got = _denote(model, rho, axiom.pattern, (), (), lfp_mode, prefix_cap)
            if got != expected:
                return AxiomResult(axiom, Verdict.VIOLATED, witness=rho, got=got)
    return AxiomResult(axiom, Verdict.SATISFIED)


def _check(p, lfp_mode):
    if not p.is_closed:
        raise NotClosedError(
            f"cannot evaluate a pattern with dangling bound variables "
            f"(ex has {len(p.ex)}, mu has {len(p.mu)} entries)"
        )
    if lfp_mode not in ("iterate", "prefix"):
        raise ValueError(f"unknown lfp mode {lfp_mode!r}")
    if ref_facts(p)[id(p)][4]:
        return
    if lfp_mode == "iterate":
        raise NonPositiveMuError(
            "mu binder body is not positive; iteration is unsound "
            "(use the prefix engine to apply the set-theoretic "
            "definition regardless)"
        )
    warnings.warn("non-positive mu binder", NonPositiveMuWarning, stacklevel=3)


def ref_facts(p):
    """``id(node) -> (ex, even, odd, free, positive)`` for every node of
    ``p``, from one walk: the ex indices the node reads and the mu indices
    it reads under an even and an odd number of negations, as bitmasks
    relative to the node; its free variables; whether every mu binder below
    it is positive (bit 0 of its body's odd mask is clear)."""
    facts = {}
    for node, kids in walk(p):
        if kids is None:
            continue
        kind = type(node)
        if kind is BoundEVar:
            facts[id(node)] = (1 << node.index, 0, 0, frozenset(), True)
        elif kind is BoundSVar:
            facts[id(node)] = (0, 1 << node.index, 0, frozenset(), True)
        elif kind in (FreeEVar, FreeSVar):
            facts[id(node)] = (0, 0, 0, frozenset({node.var}), True)
        else:
            ex = even = odd = 0
            free, positive = set(), True
            for kid in kids:
                e, v, o, f, pos = facts[id(kid)]
                ex, even, odd = ex | e, even | v, odd | o
                free |= f
                positive = positive and pos
            if kind is Not:
                even, odd = odd, even
            elif kind is Exists:
                ex >>= 1
            elif kind is Mu:
                positive = positive and not odd & 1
                even, odd = even >> 1, odd >> 1
            facts[id(node)] = (ex, even, odd, frozenset(free), positive)
    return facts


def ref_free_vars(p):
    free = ref_facts(p)[id(p)][3]
    evars = frozenset(v for v in free if isinstance(v, ElemVar))
    return evars, free - evars


def _denote(model, rho, p, exs, mus, mode, cap):
    def sub(q, exs=exs, mus=mus):
        return _denote(model, rho, q, exs, mus, mode, cap)

    kind = type(p)
    if kind is App:
        return model.extended_app(p.symbol, [sub(a) for a in p.args])
    if kind is Not:
        return sub(p.body).complement()
    if kind is And:
        return sub(p.left) & sub(p.right)
    if kind is BoundEVar:
        return model.singleton(exs[p.index])
    if kind is BoundSVar:
        return mus[p.index]
    if kind is FreeEVar:
        return model.singleton(rho.evar(p.var))
    if kind is FreeSVar:
        return rho.svar(p.var)
    if kind is Defined:
        return model.definedness(p.sort, sub(p.body))
    if kind is Exists:
        out = model.empty_set(p.sort)
        for m in model.carrier(p.binder_sort):
            out = out | sub(p.body, exs=(m, *exs))
        return out
    if kind is Mu:
        def step(a):
            return sub(p.body, mus=(a, *mus))

        if mode == "iterate":
            return lfp_iterate(step, model, p.sort)
        return lfp_prefixpoints(step, model, p.sort, cap)
    raise TypeError(f"unexpected pattern node {p!r}")
