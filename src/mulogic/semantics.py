"""Pattern evaluation over finite models.

Only closed patterns are evaluated, over environments: a bound variable is
a de Bruijn index into a tuple of carrier elements (ex) or carrier sets
(mu), index 0 innermost.  Evaluation is one fold that stops at binders,
so only ``Exists`` (once per element) and ``Mu`` (once per fixpoint step)
recurse, each into its body with the environment extended at index 0: the
recursion depth is the binder nesting depth, not the pattern depth.
Closedness and positivity are decided once per :func:`eval_pattern` or
:func:`mulogic.theory.check_axiom` call, so a non-positive binder under
``prefix`` warns once per call, not once per visit.

Least fixpoints come in two engines:

* ``iterate`` (default) — Kleene iteration from the empty set.  Sound only
  for monotone bodies, so it insists on a positive binder.
* ``prefix`` — the intersection of all pre-fixpoints, enumerating every
  subset of the carrier.  Exponential, but total even for non-monotone
  bodies, and therefore the oracle the fast engine is checked against.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import (
    CarrierTooLargeError,
    NonPositiveMuError,
    NonPositiveMuWarning,
    NotClosedError,
    SortMismatchError,
    UnboundFreeVariableError,
)
from .model import CarrierElem, CarrierSet, FiniteModel
from .pattern import (
    And,
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
    check_mu_positivity,
    fold_pattern,
    free_vars,
)
from .signature import ElemVar, SetVar, Sort

# Unused here; kept because the benchmark's tracer wraps these names.
from .model import singleton_fastpath  # noqa: F401
from .pattern import svar_occurs_positively  # noqa: F401
from .subst import bevar_subst, bsvar_subst  # noqa: F401

LFP_ITERATE = "iterate"
LFP_PREFIX = "prefix"
DEFAULT_PREFIX_CAP = 20


@dataclass(frozen=True)
class Valuation:
    """Sort-respecting bindings for free element and set variables."""

    evars: Mapping[ElemVar, CarrierElem] = field(default_factory=dict)
    svars: Mapping[SetVar, CarrierSet] = field(default_factory=dict)

    @staticmethod
    def empty() -> Valuation:
        return Valuation({}, {})

    def update_evar(self, x: ElemVar, m: CarrierElem) -> Valuation:
        if m.sort != x.sort:
            raise SortMismatchError(
                f"cannot bind {x} to the {m.sort} element {m}"
            )
        return Valuation({**self.evars, x: m}, self.svars)

    def update_svar(self, x: SetVar, a: CarrierSet) -> Valuation:
        if a.sort != x.sort:
            raise SortMismatchError(
                f"cannot bind {x} to a carrier set of sort {a.sort}"
            )
        return Valuation(self.evars, {**self.svars, x: a})

    def evar(self, x: ElemVar) -> CarrierElem:
        try:
            return self.evars[x]
        except KeyError:
            raise UnboundFreeVariableError(
                x, f"element variable {x} is not bound"
            ) from None

    def svar(self, x: SetVar) -> CarrierSet:
        try:
            return self.svars[x]
        except KeyError:
            raise UnboundFreeVariableError(
                x, f"set variable {x} is not bound"
            ) from None

    def binds(self, var: ElemVar | SetVar) -> bool:
        if isinstance(var, ElemVar):
            return var in self.evars
        return var in self.svars


def lfp_iterate(
    step: Callable[[CarrierSet], CarrierSet], model: FiniteModel, sort: Sort
) -> CarrierSet:
    """Least fixpoint by iteration from the empty set.

    Monotone steps converge within carrier-size + 1 applications; a step
    that fails to converge in that budget cannot be monotone.
    """
    current = model.empty_set(sort)
    for _ in range(model.carrier_size(sort) + 1):
        nxt = step(current)
        if nxt == current:
            return current
        current = nxt
    raise NonPositiveMuError(
        f"fixpoint iteration over {sort} did not converge; "
        "the step function is not monotone"
    )


def lfp_prefixpoints(
    step: Callable[[CarrierSet], CarrierSet],
    model: FiniteModel,
    sort: Sort,
    cap: int = DEFAULT_PREFIX_CAP,
) -> CarrierSet:
    """Least fixpoint as the intersection of all pre-fixpoints.

    Enumerates every subset of the carrier, so it is guarded by ``cap``.
    The full carrier is always a pre-fixpoint, so the intersection is
    well-defined for any step function.
    """
    n = model.carrier_size(sort)
    if n > cap:
        raise CarrierTooLargeError(
            f"carrier of {sort} has {n} elements; enumerating 2^{n} subsets "
            f"exceeds the cap of {cap}"
        )
    acc = (1 << n) - 1
    for bits in range(1 << n):
        candidate = CarrierSet(sort, n, bits)
        if step(candidate).bits & ~bits == 0:
            acc &= bits
    return CarrierSet(sort, n, acc)


def eval_pattern(
    model: FiniteModel,
    rho: Valuation,
    p: Pattern,
    lfp_mode: str = LFP_ITERATE,
    prefix_cap: int = DEFAULT_PREFIX_CAP,
) -> CarrierSet:
    """Interpret a closed pattern as a subset of its sort's carrier.

    ``rho`` must bind every free variable of ``p``.  ``lfp_mode`` selects
    the fixpoint engine: ``iterate`` requires each mu binder to be
    positive, ``prefix`` computes the pre-fixpoint intersection regardless
    (warning once per call if some binder is not positive).  Bound
    variables are read from environments, so the depth of ``p`` is not
    limited by the interpreter's recursion limit; its binder nesting is.
    """
    _check_evaluable(p, lfp_mode)
    evs, svs = free_vars(p)
    for var in (*evs, *svs):
        if not rho.binds(var):
            raise UnboundFreeVariableError(var, f"{var} is not bound")
    return _eval(model, rho, p, (), (), lfp_mode, prefix_cap)


def _check_evaluable(p: Pattern, lfp_mode: str) -> None:
    """Raise unless ``p`` is closed, ``lfp_mode`` is known and, under
    ``iterate``, every mu binder in ``p`` is positive; under ``prefix`` a
    non-positive binder warns instead."""
    if not p.is_closed:
        raise NotClosedError(
            f"cannot evaluate a pattern with dangling bound variables "
            f"(ex has {len(p.ex)}, mu has {len(p.mu)} entries)"
        )
    if lfp_mode not in (LFP_ITERATE, LFP_PREFIX):
        raise ValueError(f"unknown lfp mode {lfp_mode!r}")
    if check_mu_positivity(p).all_positive:
        return
    if lfp_mode == LFP_ITERATE:
        raise NonPositiveMuError(
            "mu binder body is not positive; iteration is unsound "
            "(use the prefix engine to apply the set-theoretic "
            "definition regardless)"
        )
    warnings.warn(
        "computing the pre-fixpoint intersection of a "
        "non-positive mu binder; the result need not be a fixpoint",
        NonPositiveMuWarning,
        stacklevel=3,
    )


def _eval(
    model: FiniteModel,
    rho: Valuation,
    p: Pattern,
    exs: tuple[CarrierElem, ...],
    mus: tuple[CarrierSet, ...],
    mode: str,
    cap: int,
) -> CarrierSet:
    """The denotation of ``p`` with free variables read from ``rho`` and
    bound ex and mu indices from ``exs`` and ``mus``, which must match
    ``p``'s contexts.  ``p`` must have passed :func:`_check_evaluable`."""

    def denote(node: Pattern, kids: Sequence[CarrierSet]) -> CarrierSet:
        kind = type(node)
        if kind is App:
            return model.extended_app(node.symbol, kids)
        if kind is Not:
            return kids[0].complement()
        if kind is And:
            return kids[0] & kids[1]
        if kind is BoundEVar:
            return model.singleton(exs[node.index])
        if kind is BoundSVar:
            return mus[node.index]
        if kind is FreeEVar:
            return model.singleton(rho.evar(node.var))
        if kind is FreeSVar:
            return rho.svar(node.var)
        if kind is Defined:
            return model.definedness(node.sort, kids[0])
        if kind is Exists:
            out = model.empty_set(node.sort)
            for m in model.carrier(node.binder_sort):
                out = out | _eval(model, rho, node.body, (m, *exs), mus, mode, cap)
            return out
        if kind is Mu:

            def step(a: CarrierSet) -> CarrierSet:
                return _eval(model, rho, node.body, exs, (a, *mus), mode, cap)

            if mode == LFP_ITERATE:
                return lfp_iterate(step, model, node.sort)
            return lfp_prefixpoints(step, model, node.sort, cap)
        raise TypeError(f"unexpected pattern node {node!r}")

    return fold_pattern(p, denote, stop=(Exists, Mu))
