"""Pattern evaluation over finite models.

Only closed patterns are evaluated.  Each :func:`eval_pattern` or
:func:`mulogic.theory.check_axiom` call compiles its pattern afresh, in
two stages; nothing compiled is kept between calls.  There is no facts
stage: each node fixed its facts at construction (see
:mod:`mulogic.pattern`), so closedness, the lfp mode, positivity and
unbound variables are checked first, in that order, from the root alone,
and a non-positive binder under ``prefix`` warns once per call.

* **Placement.**  One walk, on an explicit stack, puts each node into the
  flat instruction list of the innermost binder whose variable it reads
  (its ex and mu index masks say which).  A node that reads no variable
  bound inside a loop is computed once outside it: loop-invariant code
  motion.  Each (node, placement) pair gets one register, an int bitmask
  over the carrier of the node's sort, so a subtree shared within one
  scope is computed once, and one shared by two sibling binders that both
  read their own variable is computed in each.  A bound variable's node is
  its binder's register; a 0-ary symbol is a constant.  Symbol
  applications read the model's one-bit-mask tables
  (:meth:`~mulogic.model.FiniteModel.mask_table`), and a ``CarrierSet`` is
  built only for what is returned.  The errors that depend only on the
  pattern and the model (an unknown sort or symbol, a carrier larger than
  ``prefix_cap``) are raised here, in the order in which a node-by-node
  evaluation would reach them.
* **Run.**  Instructions are closures run in list order; an ``Exists`` or
  ``Mu`` instruction loops over its body's list, so Python recursion depth
  is the binder nesting depth, not the pattern depth.  Free variables are
  the outermost levels, each with its own list: ``eval_pattern`` runs each
  once, ``check_axiom`` re-runs only the levels from the first variable
  that changed.

Least fixpoints come in two engines:

* ``iterate`` (default) — Kleene iteration from the empty set.  Sound only
  for monotone bodies, so it insists on a positive binder.
* ``prefix`` — the intersection of all pre-fixpoints, enumerating every
  subset of the carrier.  Exponential, but total even for non-monotone
  bodies, and therefore the oracle the fast engine is checked against.

Each engine is stated once, as a register loop (:func:`_iterate`,
:func:`_prefix`) that a compiled ``Mu`` instruction calls once per
fixpoint; :func:`lfp_iterate` and :func:`lfp_prefixpoints` run the same
loops over a one-instruction body that calls a ``CarrierSet`` step
function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Sequence

from .errors import (
    CarrierTooLargeError,
    NonPositiveMuError,
    NonPositiveMuWarning,
    NotClosedError,
    SortMismatchError,
    UnboundFreeVariableError,
)
from .model import CarrierElem, CarrierSet, FiniteModel, _lift
from .pattern import (
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
    n = model.carrier_size(sort)
    regs, body = _step_body(step, sort, n)
    return CarrierSet(sort, n, _iterate(regs, 0, 1, body, sort, n))


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
    _check_prefix_cap(sort, n, cap)
    regs, body = _step_body(step, sort, n)
    return CarrierSet(sort, n, _prefix(regs, 0, 1, body, n))


def _step_body(
    step: Callable[[CarrierSet], CarrierSet], sort: Sort, n: int
) -> tuple[list[int], list[Callable[[], None]]]:
    """Two registers and a one-instruction body that writes ``step`` of
    register 0 to register 1."""
    regs = [0, 0]

    def op() -> None:
        regs[1] = step(CarrierSet(sort, n, regs[0])).bits

    return regs, [op]


def _iterate(regs: list[int], var: int, res: int, body: list, sort: Sort, n: int) -> int:
    """Kleene iteration from the empty set: run ``body`` with register
    ``var`` set to the current approximation until register ``res`` equals
    it, within ``n + 1`` rounds for a carrier of ``n`` elements."""
    current = 0
    for _ in range(n + 1):
        regs[var] = current
        for op in body:
            op()
        nxt = regs[res]
        if nxt == current:
            return current
        current = nxt
    raise _diverged(sort)


def _prefix(regs: list[int], var: int, res: int, body: list, n: int) -> int:
    """The intersection of every subset ``bits`` of an ``n``-element
    carrier that is a pre-fixpoint: running ``body`` with register ``var``
    set to ``bits`` leaves in register ``res`` a subset of ``bits``."""
    acc = (1 << n) - 1
    for bits in range(1 << n):
        regs[var] = bits
        for op in body:
            op()
        if not regs[res] & ~bits:
            acc &= bits
    return acc


def _check_prefix_cap(sort: Sort, n: int, cap: int) -> None:
    if n > cap:
        raise CarrierTooLargeError(
            f"carrier of {sort} has {n} elements; enumerating 2^{n} subsets "
            f"exceeds the cap of {cap}"
        )


def _diverged(sort: Sort) -> NonPositiveMuError:
    return NonPositiveMuError(
        f"fixpoint iteration over {sort} did not converge; "
        "the step function is not monotone"
    )


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
    (warning once per call if some binder is not positive).  ``p`` is
    compiled for this call and run once; its depth is not limited by the
    interpreter's recursion limit, its binder nesting is.
    """
    _check_evaluable(p, lfp_mode)
    evars, svars = free_vars(p)
    variables = (*evars, *svars)
    for var in variables:
        if not rho.binds(var):
            raise UnboundFreeVariableError(var, f"{var} is not bound")
    values = [[_bits_of(model, rho, var)] for var in variables]
    program = _compile(model, p, lfp_mode, prefix_cap, variables)
    _, bits = next(program.sweep(values))
    return CarrierSet(p.sort, model.carrier_size(p.sort), bits)


def _bits_of(model: FiniteModel, rho: Valuation, var: ElemVar | SetVar) -> int:
    """The register value of a free variable under ``rho``."""
    if isinstance(var, ElemVar):
        elem = rho.evar(var)
        carrier = model.carrier(var.sort)
        if elem.ordinal >= len(carrier) or carrier[elem.ordinal] is not elem:
            raise SortMismatchError(
                f"{var} is bound to {elem}, which is not an element of this "
                f"model's {var.sort} carrier"
            )
        return 1 << elem.ordinal
    value = rho.svar(var)
    if value.sort is not var.sort or value.width != model.carrier_size(var.sort):
        raise SortMismatchError(
            f"{var} is bound to a set that is not a subset of this model's "
            f"{var.sort} carrier"
        )
    return value.bits


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
    *_, positive = p._facts
    if positive:
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


# --- placement --------------------------------------------------------------


class _Scope:
    """One instruction list: the top level, a free variable's level or a
    binder's body.  ``var`` is the register of the variable it binds;
    ``depth`` orders the scopes of one chain, outermost first."""

    __slots__ = ("depth", "var", "code")

    def __init__(self, depth: int, var: int):
        self.depth = depth
        self.var = var
        self.code: list[Callable[[], None]] = []


class _Program:
    """Registers, the top scope and one scope per free variable."""

    def __init__(self, regs: list[int], top: _Scope, levels: list[_Scope], result: int):
        self.regs = regs
        self.top = top
        self.levels = levels
        self.result = result

    def sweep(self, choices: Sequence[Sequence[int]]) -> Iterator[tuple[list[int], int]]:
        """Run once per combination of level values, in
        ``itertools.product(*choices)`` order, and yield the index of each
        level's value together with the result register.  After the first
        run only the levels from the first one whose value changed are run
        again."""
        regs, levels = self.regs, self.levels
        for op in self.top.code:
            op()
        last = len(levels) - 1
        index = [0] * len(levels)
        start = 0
        while True:
            for k in range(start, last + 1):
                level = levels[k]
                regs[level.var] = choices[k][index[k]]
                for op in level.code:
                    op()
            yield index, regs[self.result]
            start = last
            while start >= 0 and index[start] == len(choices[start]) - 1:
                index[start] = 0
                start -= 1
            if start < 0:
                return
            index[start] += 1


def _compile(
    model: FiniteModel,
    p: Pattern,
    mode: str,
    cap: int,
    variables: Sequence[ElemVar | SetVar],
) -> _Program:
    """Place every node of ``p`` (see the module docstring); free variable
    ``variables[k]`` gets level ``k``, which ``_Program.sweep`` sets.

    The stack holds ``(node, exs, mus)`` to enter and ``(node, exs, mus,
    scope, key, inner)`` to leave, where ``exs``/``mus`` are the scopes of
    the enclosing ex and mu binders, outermost first, so de Bruijn index
    ``i`` of a node is scope ``exs[-1 - i]``.
    """
    regs: list[int] = []

    def register(value: int = 0) -> int:
        regs.append(value)
        return len(regs) - 1

    top = _Scope(0, -1)
    levels = [_Scope(k + 1, register()) for k in range(len(variables))]
    level_of = dict(zip(variables, levels))
    deepest: dict[frozenset, _Scope] = {}  # free variables -> their innermost level

    def free_scope(free: frozenset) -> _Scope:
        scope = deepest.get(free)
        if scope is None:
            scope = top
            for var in free:
                if level_of[var].depth > scope.depth:
                    scope = level_of[var]
            deepest[free] = scope
        return scope

    fulls: dict[Sort, int] = {}

    def full(sort: Sort) -> int:
        if sort not in fulls:
            fulls[sort] = (1 << model.carrier_size(sort)) - 1
        return fulls[sort]

    memos: dict = {}  # symbol -> {argument registers' values: result}
    base = len(levels)
    done: dict[tuple[int, _Scope], int] = {}
    results: list[int] = []  # registers of the children met so far
    emit = results.append
    stack: list[tuple] = [(p, (), ())]
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        node, exs, mus = item[0], item[1], item[2]
        kind = type(node)
        if len(item) == 3:  # enter
            ex, even, odd, free, _ = node._facts
            scope = top
            if ex:
                scope = exs[len(exs) - (ex & -ex).bit_length()]
            mu = even | odd
            if mu:
                inner = mus[len(mus) - (mu & -mu).bit_length()]
                if inner.depth > scope.depth:
                    scope = inner
            if scope is top and free:
                scope = free_scope(free)
            key = (id(node), scope)
            reg = done.get(key)
            if reg is not None:
                emit(reg)
            elif kind is Exists or kind is Mu:
                full(node.sort)
                if kind is Exists:
                    model.carrier_size(node.binder_sort)
                elif mode == LFP_PREFIX:
                    _check_prefix_cap(node.sort, model.carrier_size(node.sort), cap)
                inner = _Scope(base + len(exs) + len(mus) + 1, register())
                push((node, exs, mus, scope, key, inner))
                if kind is Exists:
                    push((node.body, (*exs, inner), mus))
                else:
                    push((node.body, exs, (*mus, inner)))
            elif node.children:
                push((node, exs, mus, scope, key, None))
                stack += [(kid, exs, mus) for kid in reversed(node.children)]
            else:
                if kind is BoundEVar:
                    reg = exs[-1 - node.index].var
                elif kind is BoundSVar:
                    reg = mus[-1 - node.index].var
                elif kind is FreeEVar or kind is FreeSVar:
                    reg = level_of[node.var].var
                else:  # a 0-ary symbol
                    reg = register(model.mask_table(node.symbol).get((), 0))
                done[key] = reg
                emit(reg)
            continue
        scope, key, inner = item[3], item[4], item[5]
        n = len(node.children)
        args = results[-n:]
        del results[-n:]
        if inner is not None:
            ex, even, odd, _, _ = node.body._facts
            if not (ex if kind is Exists else even | odd) & 1:
                # a body without the bound variable is its own union and fixpoint
                done[key] = args[0]
                emit(args[0])
                continue
        dst = register()
        if kind is Exists:
            elems = [1 << k for k in range(model.carrier_size(node.binder_sort))]
            op = _exists_op(regs, dst, inner.var, args[0], inner.code, elems)
        elif kind is Mu:
            width = model.carrier_size(node.sort)
            if mode == LFP_ITERATE:
                op = _iterate_op(regs, dst, inner.var, args[0], inner.code, node.sort, width)
            else:
                op = _prefix_op(regs, dst, inner.var, args[0], inner.code, width)
        elif kind is Not:
            op = _not_op(regs, dst, args[0], full(node.sort))
        elif kind is Defined:
            op = _defined_op(regs, dst, args[0], full(node.sort))
        elif kind is App:
            memo = memos.setdefault(node.symbol, {})
            op = _app_op(regs, dst, args, model.mask_table(node.symbol), memo)
        else:  # And
            op = _and_op(regs, dst, args[0], args[1])
        scope.code.append(op)
        done[key] = dst
        emit(dst)
    return _Program(regs, top, levels, results[0])


# --- instructions -----------------------------------------------------------
#
# Each maker returns a closure that reads its operands from ``regs`` and
# writes register ``dst``.


def _not_op(regs: list[int], dst: int, a: int, full: int) -> Callable[[], None]:
    def op() -> None:
        regs[dst] = full ^ regs[a]

    return op


def _and_op(regs: list[int], dst: int, a: int, b: int) -> Callable[[], None]:
    def op() -> None:
        regs[dst] = regs[a] & regs[b]

    return op


def _defined_op(regs: list[int], dst: int, a: int, full: int) -> Callable[[], None]:
    def op() -> None:
        regs[dst] = full if regs[a] else 0

    return op


def _app_op(
    regs: list[int], dst: int, args: Sequence[int], table: Mapping, memo: dict
) -> Callable[[], None]:
    """Pointwise application: the OR of the table entries of every
    combination of one-bit masks drawn from the argument registers,
    memoised per call on the registers' values."""
    if len(args) == 1:
        (a,) = args

        def op() -> None:
            key = regs[a]
            value = memo.get(key)
            if value is None:
                value = memo[key] = _lift(table, (key,))
            regs[dst] = value

    elif len(args) == 2:
        a, b = args

        def op() -> None:
            key = (regs[a], regs[b])
            value = memo.get(key)
            if value is None:
                value = memo[key] = _lift(table, key)
            regs[dst] = value

    else:

        def op() -> None:
            key = tuple([regs[a] for a in args])
            value = memo.get(key)
            if value is None:
                value = memo[key] = _lift(table, key)
            regs[dst] = value

    return op


def _exists_op(
    regs: list[int], dst: int, var: int, res: int, body: list, elems: list[int]
) -> Callable[[], None]:
    def op() -> None:
        acc = 0
        for elem in elems:
            regs[var] = elem
            for step in body:
                step()
            acc |= regs[res]
        regs[dst] = acc

    return op


def _iterate_op(
    regs: list[int], dst: int, var: int, res: int, body: list, sort: Sort, n: int
) -> Callable[[], None]:
    def op() -> None:
        regs[dst] = _iterate(regs, var, res, body, sort, n)

    return op


def _prefix_op(
    regs: list[int], dst: int, var: int, res: int, body: list, n: int
) -> Callable[[], None]:
    def op() -> None:
        regs[dst] = _prefix(regs, var, res, body, n)

    return op
