"""Pattern evaluation over finite models.

Only closed patterns are evaluated.  Each :func:`eval_pattern` or
:func:`mulogic.theory.check_axiom` call compiles its pattern afresh, in
two stages; nothing compiled is kept between calls.  Each node fixes its
facts at construction (see :mod:`mulogic.pattern`), so closedness, the
lfp mode and positivity are checked first, in that order, from the root
alone (a non-positive binder under ``prefix`` warns once per call), then
unbound variables.

* **Placement.**  One walk, on an explicit stack, puts each node into the
  flat instruction list of the innermost binder whose variable it reads
  (its ex and mu index masks say which), else of the innermost free
  variable level that its operands' registers read (read only where the
  node's free flag is set), else the top.  A node that reads no variable
  bound inside a loop is computed once outside it: loop-invariant code
  motion.  Each scope keeps a memo, keyed by node identity, of the nodes
  entered in it; each node entered in a scope gets one register there, an
  int bitmask over the carrier of the node's sort, so a subtree shared
  within one scope is computed once, and one shared by two sibling binders
  that both read their own variable is computed in each.  The parser makes
  one node of each distinct subterm written in one call (see
  :mod:`mulogic.parser`), so a subterm the text repeats is shared, and
  gets one register; equal subtrees built apart through the ``mk_*``
  helpers are distinct objects and get one each.  A bound
  variable's node is its binder's register and a free variable's its
  level's, with no memo entry; a 0-ary symbol is a constant.  Symbol
  applications read the model's one-bit-mask tables
  (:meth:`~mulogic.model.FiniteModel.mask_table`), and a ``CarrierSet`` is
  built only for what is returned.  The errors that depend only on the
  pattern and the model (an unknown sort or symbol, a carrier larger than
  ``prefix_cap``, binder loops nested deeper than the recursion limit
  leaves room for) are raised here, in the order in which a node-by-node
  evaluation would reach them.  The walk's stack holds the nodes to enter,
  bare, and one leave item per node with operands; the scopes of the
  binders around the node entered are walk state, which a binder saves
  on its body's scope when it enters its body and restores when it is
  left.  Every fact that decides a node's instruction is settled before
  the node gets a register, so no register is taken back and every
  operand's result is a register: a node's scope and memo entry when it
  is entered; its level, and whether an application is a term, from its
  operands when it is left; which operands of an equality its comparison
  reads from their tables when the equality is entered, by a look-ahead
  over their arguments, and whether it is the node an ``Exists`` loop
  reads, which it may then fuse with (see *Fused instructions*).
* **Signed registers.**  A ``Not`` places no register and no instruction
  (the complement edges of BDD packages: Brace, Rudell & Bryant, DAC
  1990).  Each placed result is a signed register, ``r`` or its complement
  ``~r``; a ``Not`` flips the sign of its operand's, so a chain of them
  costs no stack step.  Consumers take the sign into their
  instruction: ``And`` is ``a & b``, ``a & ~b``, or for two complements
  ``a | b`` with a complemented result (De Morgan); ``Defined`` of a
  complement tests its operand against the full carrier; a complemented
  root is XORed with the full carrier once per valuation; an application
  reads a complemented argument, and an ``Exists`` or ``Mu`` loop a
  complemented body result, by XOR with the full carrier of its sort, so
  ``\\forall``, which is ``\\not \\exists \\not``, is one union loop
  whose result is a complement.  Every consumer but ``And`` decodes a
  signed register in one way, into a register and that XOR value (0 for
  ``r``).  Nothing writes a complement into a register.
* **Fused instructions.**  ``\\equals{s}(A, B)`` is stored as the fourteen
  core nodes of the floor of an iff (:func:`~mulogic.pattern.mk_equals`).
  Its root ``Not`` recognises that exact shape, with the same ``A`` and
  ``B`` objects in both implications, when it is built, and keeps
  ``(A, B)`` as a node fact (see :mod:`mulogic.pattern`).  Placement reads
  that fact, places only ``A`` and ``B``, and emits one comparison: the
  full carrier of ``s`` if ``A``'s value, XORed with the full carrier of
  their sort when exactly one of them is a complement, equals ``B``'s,
  else 0 (a superoperator: Proebsting, POPL 1995).  Its scope, memo
  entry, register and free-variable level are the outer ``Not``'s, as
  for any node; every other shape compiles node by node.  When the
  equality is entered, it looks ahead at each operand: an application
  whose arguments each hold at most one bit (see *Applications*), of a
  symbol the model has a table for, that is not yet in the memo of the
  equality's scope and would be placed in that scope (it reads the
  variable that put the equality there; at the top, a free variable) may
  be read by the comparison itself, and only its arguments are entered.
  When the equality is left, such an operand that the other operand has
  placed meanwhile in the same scope is that register, and at the top one
  that reads only levels outside the equality's is an application of its
  own at its level, where it runs once per value of those; any other gets
  no register, and the comparison reads its table entry itself, so an
  equation of two terms in a loop is one instruction, read against read
  or read against register.  Every other operand is placed as any node,
  and a closed equality at the top runs once, so its operands stay
  applications of their own, which repeated operands share.  An
  ``Exists`` loop, and so a ``\\forall``, whose body ends in an equality
  of two binary reads, directly or under binders in between that read no
  variable of their own, is fused with it (:func:`_exists_equals_op`): the
  equality places no instruction, and the loop compares the two table
  entries itself after the instructions before it, with no instruction
  call per element; when the equality is the whole body it reads the
  other keys once per run.  Each ``Exists`` body scope keeps the node its
  loop reads, so the equality sees on entry that it is that node.
* **Applications.**  An application whose arguments placement knows to
  hold at most one bit each reads its table entry straight, with no test;
  any other tests its arguments when it runs, and lifts only wider ones
  pointwise.  An argument holds at most one bit when it is an element
  variable (the variable of the ``Exists`` that binds it, or the level of
  a free one), a constant whose symbol the model records as a partial
  function (every entry of its table holds at most one bit), or a term: an
  application of such a symbol whose arguments all hold at most one bit,
  which denotes at most one element.  Placement decides it from the kinds
  of the argument nodes and, for an application, the set of terms placed
  so far; it keeps no set of registers, so a pattern without terms pays
  for none.  Each instruction keeps at most its last argument and image,
  as a ``prefix`` μ or a free set variable runs it on every subset of a
  carrier: a unary application of a plain argument, in any scope, ORs its
  last image with the image of only the bits its argument gained whenever
  its last argument is a subset of the new one, since pointwise
  application distributes over union.  A μ body's variable grows under
  ``iterate``, and half of the subsets that ``prefix`` takes in counting
  order are supersets of the one before.
* **Run.**  Placement runs nothing, so its errors come before any
  instruction runs.  Every instruction is a closure in its scope's list,
  run in list order: the top list once, first, then the free variables'
  levels, outermost first, in the one search that ``eval_pattern`` and
  ``check_axiom`` share (:meth:`_Program.search`): in product order, it
  re-runs only the levels from the first variable that changed and stops
  at the first valuation whose result is not the one wanted.  An
  ``Exists`` or ``Mu`` instruction loops over its body's list.  An
  ``Exists`` loop takes one of three forms: it calls a body of one
  instruction directly, loops over any other list, or, fused with the
  equality its body ends in, compares that equality's table entries
  itself after the instructions before it.  So Python recursion depth is
  the run-time nesting of binder loops, not the pattern depth, and
  placement refuses a nesting the recursion limit has no room for
  (:class:`~mulogic.errors.NestingTooDeepError`).  Each form of an
  ``Exists`` loop runs its body for every element of its carrier, so its
  work does not depend on where in carrier order its union fills.

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

Under ``iterate``, the variable of a μ body only grows while its loop
runs (Emerson & Lei, LICS 1986), so placement gives a ``Mu`` instruction
placed in the body of an enclosing ``iterate`` μ a warm start: it resumes
from its own last fixpoint instead of the empty set when that binder's
variable occurs only positively in the inner μ node (one bit of its
facts).  Any other μ is cold: one placed at the top, at a free
variable's level or in an ``Exists`` loop, whose values do not ascend
(an inner μ that reads the variable of an ``Exists`` in between is
placed in that loop), and one that the enclosing binder's variable
reaches under a negation (a ``\\nu`` in between flips the parity).  Warm
μs form chains, each under a cold μ, its root, which resets every warm μ
below it, transitively, to the empty set each time it starts; a warm μ
resets nothing.  This is exact: every μ binder is positive, so a warm μ
node lies under an even number of negations from each binder of its
chain, and is monotone in all of their variables.  Within one run of the
root those variables only ascend, and everything else the node reads the
root reads too, and stays fixed.  So its last fixpoint is still below
its new least fixpoint, and its body maps that value to a superset of
itself: the start that :func:`_iterate` asks for.  Within one run of
the root, a warm μ's value then rises at most ``n`` times, for a carrier
of ``n`` elements, so it takes at most ``n`` more rounds than the μ
around it, and a chain of ``d`` μs at most ``d(d + 1)/2 · n + d`` rounds
per run of its root, where restarting each μ whenever the one around it
starts could take about ``n^(d - 1)``.  ``prefix`` takes no warm start:
its candidate sets are every subset in turn, not an ascending chain, so
no earlier value bounds a later one.
"""

from __future__ import annotations

import sys
import warnings
from operator import attrgetter
from typing import Callable, Iterable, Mapping, Sequence

from ._record import FACTORY, factory, record, set_field
from .errors import (
    CarrierTooLargeError,
    NestingTooDeepError,
    NonPositiveMuError,
    NonPositiveMuWarning,
    NotClosedError,
    SortMismatchError,
    UnboundFreeVariableError,
)
from .model import CarrierElem, CarrierSet, FiniteModel, _lift
from .pattern import (
    _VARIABLE,
    EX,
    MU,
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
    free_vars,
    svar_occurs_positively,
)
from .signature import ElemVar, SetVar, Sort

# Unused here; kept because the benchmark's tracer wraps these names.
from .model import singleton_fastpath  # noqa: F401
from .subst import bevar_subst, bsvar_subst  # noqa: F401

LFP_ITERATE = "iterate"
LFP_PREFIX = "prefix"
DEFAULT_PREFIX_CAP = 20


@record
class Valuation:
    """Sort-respecting bindings for free element and set variables."""

    evars: Mapping[ElemVar, CarrierElem] = factory(dict)
    svars: Mapping[SetVar, CarrierSet] = factory(dict)

    def __init__(
        self, evars: Mapping[ElemVar, CarrierElem] = FACTORY,
        svars: Mapping[SetVar, CarrierSet] = FACTORY,
    ) -> None:
        set_field(self, "evars", {} if evars is FACTORY else evars)
        set_field(self, "svars", {} if svars is FACTORY else svars)

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
        return self._value(EX, x)

    def svar(self, x: SetVar) -> CarrierSet:
        return self._value(MU, x)

    def _value(self, kind: int, x: ElemVar | SetVar):
        """The value of ``x`` in the map of ``kind``: ``evars`` for ``EX``,
        ``svars`` for ``MU``."""
        try:
            return (self.evars, self.svars)[kind][x]
        except KeyError:
            raise UnboundFreeVariableError(x, f"{_VARIABLE[kind]} {x} is not bound") from None

    def binds(self, var: ElemVar | SetVar) -> bool:
        return var in (self.evars, self.svars)[var._kind]


def lfp_iterate(
    step: Callable[[CarrierSet], CarrierSet], model: FiniteModel, sort: Sort
) -> CarrierSet:
    """Least fixpoint by iteration from the empty set.

    Monotone steps converge within carrier-size + 1 applications; a step
    that fails to converge in that budget cannot be monotone.
    """
    n = model.carrier_size(sort)
    regs, body = _step_body(step, model, sort, n)
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
    regs, body = _step_body(step, model, sort, n)
    return CarrierSet(sort, n, _prefix(regs, 0, 1, body, n))


def _step_body(
    step: Callable[[CarrierSet], CarrierSet], model: FiniteModel, sort: Sort, n: int
) -> tuple[list[int], list[Callable[[], None]]]:
    """Two registers and a one-instruction body that writes ``step`` of
    register 0 to register 1, or raises unless that is a subset of
    ``model``'s ``n``-element carrier of ``sort``."""
    regs = [0, 0]

    def op() -> None:
        regs[1] = model._set_bits(sort, step(CarrierSet(sort, n, regs[0])))

    return regs, [op]


def _iterate(
    regs: list[int], var: int, res: int, body: list, sort: Sort, n: int, start: int = 0,
    flip: int = 0,
) -> int:
    """Kleene iteration: run ``body`` with register ``var`` set to the
    current approximation until register ``res`` XORed with ``flip`` (0, or
    the full carrier for a complemented body) equals it, within ``n + 1``
    rounds for a carrier of ``n`` elements.

    The first approximation is ``start``, the empty set unless a warm μ
    instruction resumes from its last fixpoint.  Any ``start`` below the
    least fixpoint that the body maps to a superset of itself gives the
    same result: the approximations still ascend to that fixpoint.
    """
    current = start
    for _ in range(n + 1):
        regs[var] = current
        for op in body:
            op()
        nxt = regs[res] ^ flip
        if nxt == current:
            return current
        current = nxt
    raise _diverged(sort)


def _prefix(regs: list[int], var: int, res: int, body: list, n: int, flip: int = 0) -> int:
    """The intersection of every subset ``bits`` of an ``n``-element
    carrier that is a pre-fixpoint: running ``body`` with register ``var``
    set to ``bits`` leaves in register ``res``, XORed with ``flip``, a
    subset of ``bits``."""
    acc = (1 << n) - 1
    for bits in range(1 << n):
        regs[var] = bits
        for op in body:
            op()
        if not (regs[res] ^ flip) & ~bits:
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

    ``rho`` must bind every free variable of ``p``; an error names the
    first unbound one in valuation order.  ``lfp_mode`` selects the
    fixpoint engine: ``iterate`` requires each mu binder to be positive,
    ``prefix`` computes the pre-fixpoint intersection regardless (warning
    once per call if some binder is not positive).  ``p`` is compiled for
    this call and run once; its depth is not limited by the interpreter's
    recursion limit, the run-time nesting of its binder loops is, and
    binder loops nested deeper than it leaves room for raise
    ``NestingTooDeepError`` before they run.
    """
    _check_evaluable(p, lfp_mode)
    variables = _valuation_order(*free_vars(p))
    for var in variables:
        if not rho.binds(var):
            raise UnboundFreeVariableError(var, f"{var} is not bound")
    values = [[_bits_of(model, rho, var)] for var in variables]
    # no result's bits are -1, so the search stops at the one valuation
    _, bits = _compile(model, p, lfp_mode, prefix_cap, variables).search(values, -1)
    return CarrierSet(p.sort, model.carrier_size(p.sort), bits)


def _valuation_order(evars: Iterable[ElemVar], svars: Iterable[SetVar]) -> tuple:
    """Free variables in valuation order: element variables first, then
    set variables, each sorted by name and sort id.  Levels, the order of
    valuations, unbound-variable errors and witnesses all follow it."""
    return tuple(sorted((*evars, *svars), key=attrgetter("_kind", "name", "sort.id")))


def _bits_of(model: FiniteModel, rho: Valuation, var: ElemVar | SetVar) -> int:
    """The register value of a free variable under ``rho``."""
    if isinstance(var, ElemVar):
        return model._elem_mask(var.sort, rho.evar(var))
    return model._set_bits(var.sort, rho.svar(var))


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
    """One instruction list: the top, a free variable's level or a binder's
    body.  ``var`` is the register of the variable it binds; ``depth``
    orders the scopes of one chain, outermost first; ``loops`` counts the
    binder loops its code runs inside.  ``ascending`` is set for the body
    of an ``iterate`` μ, whose variable only grows while its loop runs;
    ``ctxs``, set on a binder's body scope only, keeps the binder contexts
    around that binder, which placement restores when it leaves the
    binder; ``resumed`` lists the registers of the warm μ instructions
    placed in it and, handed up from their bodies, of every warm μ below
    them: the ones that the μ whose body it is resets when it starts, if
    it is cold, or hands up in turn, if it is warm.  ``body``, on an
    ``Exists``'s body scope, is the node whose result its loop reads: the
    ``Exists``'s body, or the body of a binder there that reads no
    variable of its own, which hands its own body on when it is entered;
    an equality that finds itself there when it is entered may fuse with
    the loop, and then sets ``body`` to None and ``equation`` to its two
    reads.  ``body`` is None on every other scope."""

    __slots__ = ("depth", "var", "loops", "ascending", "code", "resumed", "memo", "ctxs",
                 "body", "equation")

    def __init__(self, depth: int, var: int, loops: int = 0, ascending: bool = False):
        self.depth, self.var, self.loops, self.ascending = depth, var, loops, ascending
        self.code: list[Callable[[], None]] = []
        self.resumed: list[int] = []
        self.memo: dict[int, int] = {}  # id(node) -> result, for each node entered here
        self.body = None


class _Program:
    """Registers, the top scope's instructions and one scope per free
    variable.  The result is register ``result`` XORed with ``flip``: 0, or
    the full carrier of the root's sort when the root is a complement."""

    def __init__(self, regs: list[int], top: list[Callable[[], None]], levels: list[_Scope],
                 result: int, flip: int):
        self.regs, self.top, self.levels, self.result, self.flip = regs, top, levels, result, flip

    def search(self, choices: Sequence[Sequence[int]], want: int) -> tuple[list[int], int] | None:
        """The index of each level's value and the result's bits at the
        first combination of the levels' values, in
        ``itertools.product(*choices)`` order, whose result is not ``want``,
        else None.  The top runs once, then only the levels from the first
        one whose value changed.  The innermost level's plain loop runs once
        per valuation: a per-valuation hook (a counter, a work budget) goes
        there."""
        regs, levels, result, flip = self.regs, self.levels, self.result, self.flip
        hit = want ^ flip  # the result register's value when the result is want
        for op in self.top:
            op()
        if not levels:
            return None if regs[result] == hit else ([], regs[result] ^ flip)
        last = len(levels) - 1
        var, code, values = levels[last].var, levels[last].code, choices[last]
        index, start = [0] * len(levels), 0
        while True:
            for k in range(start, last):
                regs[levels[k].var] = choices[k][index[k]]
                for op in levels[k].code:
                    op()
            for value in values:
                regs[var] = value
                for op in code:
                    op()
                if regs[result] != hit:
                    index[last] = values.index(value)
                    return index, regs[result] ^ flip
            start = last - 1
            while start >= 0 and index[start] == len(choices[start]) - 1:
                index[start] = 0
                start -= 1
            if start < 0:
                return None
            index[start] += 1


# Python frames that one binder loop costs at run time (an instruction and
# the engine's loop), and frames kept back for the innermost instructions.
_FRAMES_PER_LOOP = 2
_SPARE_FRAMES = 30


def _loop_room() -> int:
    """How many binder loops may nest below the caller's frame before the
    interpreter's recursion limit is reached."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    return (sys.getrecursionlimit() - depth - _SPARE_FRAMES) // _FRAMES_PER_LOOP


def _compile(
    model: FiniteModel,
    p: Pattern,
    mode: str,
    cap: int,
    variables: Sequence[ElemVar | SetVar],
) -> _Program:
    """Place every node of ``p`` (see the module docstring); free variable
    ``variables[k]`` gets level and register ``k``, which ``_Program.search``
    sets.  Nothing runs here.

    Results are signed registers: ``r`` or its complement ``~r``, which is
    ``r ^ -1``.  The stack holds a node itself to enter it and the tuple
    ``(node, scope, inner, n, sign)`` to leave a node with ``n`` results
    of its operands; the node's result goes out XORed with ``sign``, 0 or
    -1.  ``inner`` is a binder's body scope, and for an equality that may
    read an operand from its table the triple ``(table of A, table of B,
    whether it is the node its ``Exists`` loop reads)``, with None for an
    operand that is placed as any node (see below).  The walk keeps
    ``ctxs``, the pair ``(exs, mus)`` of the scopes of the binders around
    the node entered, outermost first, indexed like a node's ``(ex, mu)``
    contexts by the context kind: a bound variable of kind ``k`` and de
    Bruijn index ``i`` is scope ``ctxs[k][-1 - i]``.  A binder of kind
    ``k`` saves ``ctxs`` on its body scope and enters its body with that
    scope appended to ``ctxs[k]``; its leave item, popped once the whole
    body is left, restores them for the siblings below it on the stack.
    Entering a chain of ``Not`` nodes flips ``sign``, 0 on entry, once per
    node and goes on to the first node below it that is not one, in the
    same step; a ``Not`` whose ``_operands`` fact is set, the root of an
    ``\\equals``, is not part of a chain.  A variable is its register at
    once and pushes no leave item.  Every other node is looked up in the
    memo of ``scope``, the scope in which it is entered, keyed by its
    identity, which keeps its result before ``sign`` is applied; a node
    whose ``scope`` is the top goes on leave to the innermost level its
    operands read, but stays in the top's memo.

    Each fact is settled before the node it concerns gets a register.  An
    application is a term when it is left, from its arguments: ``terms``
    holds the identity of each application placed that is one, which its
    parents read.  An equality decides when it is entered which operands
    it may read from their tables (:func:`_read_table` looks ahead over
    each operand's arguments, which are not placed yet), and enters only
    the arguments of those.  When it is left, with those arguments and
    the other operand placed, such an operand that is now in the memo
    (the other operand placed it) is read from its register; at the top,
    one that reads only levels outside the equality's is placed as an
    application at its own level, where it runs less often; any other is
    read by the comparison, and gets no register.  An ``Exists`` keeps its
    body on its body scope, and a binder that is that body, in case it
    reads no variable of its own, hands its own body on: so an equality
    knows when it is entered whether its result is what the loop reads.
    If so, and it reads both operands with two keys each, it places no
    instruction: it leaves its reads on that scope, and the loop compares
    them itself (:func:`_exists_equals_op`).
    """
    top = _Scope(0, -1)
    levels = [_Scope(k + 1, k) for k in range(len(variables))]
    regs = [0] * len(levels)
    # register -> the depth of the innermost level it reads; a level's own is its depth
    reads: dict[int, int] = {}  # register -> its innermost level's depth
    room = None  # how deep binder loops may nest, found at the first binder
    full = model._full_mask
    functions = model._functions
    terms: set[int] = set()  # id(node) of each application placed that is a term

    def decode(reg: int, sort: Sort) -> tuple[int, int]:
        """A signed register of ``sort`` as (register, value to XOR it with)."""
        return (~reg, full(sort)) if reg < 0 else (reg, 0)

    results: list[int] = []  # signed registers of the children met so far
    emit = results.append
    ctxs, stack = ((), ()), [p]  # the walk's binder contexts; nodes to enter, leave items
    pop, push = stack.pop, stack.append
    while stack:
        item = pop()
        if type(item) is not tuple:  # enter
            node, sign = item, 0
            kind = type(node)
            while kind is Not and node._operands is None:
                node = node.body
                kind = type(node)
                sign = ~sign
            if kind is BoundEVar or kind is BoundSVar:
                emit(ctxs[node._kind][-1 - node.index].var ^ sign)
                continue
            if kind is FreeEVar or kind is FreeSVar:
                reg = variables.index(node.var)
                reads[reg] = reg + 1
                emit(reg ^ sign)
                continue
            exs, mus = ctxs
            ex, even, odd, free, _ = node._facts
            scope = top
            if ex:
                scope = exs[len(exs) - (ex & -ex).bit_length()]
            mu = even | odd
            if mu:
                inner = mus[len(mus) - (mu & -mu).bit_length()]
                if inner.depth > scope.depth:
                    scope = inner
            reg = scope.memo.get(id(node))
            if reg is not None:
                emit(reg ^ sign)
            elif kind is App:
                args = node.args
                if args:
                    push((node, scope, None, len(args), sign))
                    stack += reversed(args)
                else:  # a constant
                    reg = scope.memo[id(node)] = len(regs)
                    regs.append(model.mask_table(node.symbol).get((), 0))
                    emit(reg ^ sign)
            elif kind is And:
                push((node, scope, None, 2, sign))
                push(node.right)
                push(node.left)
            elif kind is Not:  # an equality: only its two operands are placed
                a, b = node._operands
                if free or scope is not top:  # else it runs once, and reads no table
                    # the variable that puts the equality in ``scope``: none at the top
                    mu_bit = mu & -mu if mu and scope is inner else 0
                    ex_bit = 0 if mu_bit or scope is top else ex & -ex
                    ta = _read_table(model, a, scope.memo, ex_bit, mu_bit)
                    tb = _read_table(model, b, scope.memo, ex_bit, mu_bit)
                    if ta is not None or tb is not None:  # it places only their arguments
                        kids = ((a,) if ta is None else a.args) + ((b,) if tb is None else b.args)
                        push((node, scope, (ta, tb, item is scope.body), len(kids), sign))
                        stack += reversed(kids)
                        continue
                push((node, scope, None, 2, sign))
                push(b)
                push(a)
            elif kind is Defined:
                push((node, scope, None, 1, sign))
                push(node.body)
            else:  # Exists or Mu
                full(node.sort)
                if kind is Exists:
                    model._elem_masks(node.binder_sort)
                elif mode == LFP_PREFIX:
                    _check_prefix_cap(node.sort, full(node.sort).bit_length(), cap)
                loops = scope.loops + 1
                if room is None:
                    room = _loop_room()
                if loops > room:
                    raise NestingTooDeepError(
                        f"binder loops nest more than {max(room, 0)} deep at run "
                        f"time, the most that the recursion limit of "
                        f"{sys.getrecursionlimit()} leaves room for"
                    )
                ascending = kind is Mu and mode == LFP_ITERATE
                # the binder's variable is the next register; its loop sets it
                # before each run of the body
                inner = _Scope(len(levels) + len(exs) + len(mus) + 1, len(regs), loops, ascending)
                inner.ctxs = ctxs  # restored when the binder is left
                regs.append(0)
                push((node, scope, inner, 1, sign))
                if item is scope.body:  # a loop's body; if it reads no variable of its
                    scope.body = node.body  # own, it passes up its body's result
                if kind is Exists:
                    inner.body = node.body
                    ctxs = (exs + (inner,), mus)
                else:
                    ctxs = (exs, mus + (inner,))
                push(node.body)
            continue
        node, scope, inner, n, sign = item
        kind = type(node)
        args = results[-n:]
        del results[-n:]
        memo = scope.memo
        level = 0
        if node._facts[3]:
            for a in args:
                depth = reads.get(a if a >= 0 else ~a, 0)
                if depth > level:
                    level = depth
            if level and scope is top:
                scope = levels[level - 1]
        if inner is not None and kind is not Not:  # a binder: its body is left
            ctxs = inner.ctxs
            ex, even, odd, _, _ = node.body._facts
            if not (ex if kind is Exists else even | odd) & 1:
                # a body without the bound variable is its own union and fixpoint
                memo[id(node)] = args[0]
                emit(args[0] ^ sign)
                continue
        dst = out = len(regs)
        regs.append(0)
        if level:
            reads[dst] = level
        if kind is App:
            table = model.mask_table(node.symbol)
            for kid in node.args:  # does each argument hold at most one bit?
                kid_kind = type(kid)
                if not (kid_kind is BoundEVar or kid_kind is FreeEVar or kid_kind is App and (
                        id(kid) in terms if kid.args else kid.symbol in functions)):
                    single = False
                    break
            else:
                single = True
            flips = (0,) * n
            if single and node.symbol in functions:
                terms.add(id(node))
            elif min(args) < 0:  # most applications have none to decode; skip the list
                args, flips = zip(*[decode(a, kid.sort) for a, kid in zip(args, node.args)])
            op = _app_op(regs, dst, args, table, flips, single)
        elif kind is And:
            a, b = args
            op = _and_op(regs, dst, a, b)
            if a < 0 and b < 0:
                out = ~dst  # De Morgan: the complement of a union
        elif kind is Not:  # an equality
            # the operands' sort is that of the iff under the floor
            sort = node.body.body.sort
            placed, looked_up = args, ()  # signed registers; (table, keys) of reads
            if inner is not None:  # some operand may be read
                placed, looked_up, i = [], [], 0
                for operand, table in zip(node._operands, inner):  # inner ends in a flag
                    keys = args[i:i + (1 if table is None else len(operand.args))]
                    i += len(keys)  # keys: its result, or its arguments'
                    if table is None or id(operand) in memo:  # or the other operand placed it
                        placed.append(keys[0] if table is None else memo[id(operand)])
                        continue
                    # at the top, the innermost level it reads, at least 1 as it reads a
                    # free variable: one outside the equality's runs it less often
                    depth = max(map(reads.get, keys, [0] * len(keys))) if item[1] is top else level
                    if depth < level:
                        reg = memo[id(operand)] = len(regs)
                        regs.append(0)
                        reads[reg] = depth
                        if operand.symbol in functions:
                            terms.add(id(operand))
                        levels[depth - 1].code.append(
                            _app_op(regs, reg, keys, table, (0,) * len(keys), True))
                        placed.append(reg)
                    else:
                        looked_up.append((table, keys))
            if len(looked_up) == 2:
                (table, keys), (other, other_keys) = looked_up
                # the node its loop reads, of two binary reads: the loop compares them
                if inner[2] and len(keys) == len(other_keys) == 2:
                    scope.body, scope.equation = None, (table, keys, other, other_keys)
                    emit(out ^ sign)
                    continue
                op = _equals_reads_op(regs, dst, table, keys, other, other_keys, full(node.sort))
            elif looked_up:
                (table, keys), = looked_up
                b, flip = decode(placed[0], sort)
                op = _equals_read_op(regs, dst, table, keys, b, flip, full(node.sort))
            else:
                (a, fa), (b, fb) = decode(placed[0], sort), decode(placed[1], sort)
                op = _equals_op(regs, dst, a, b, fa ^ fb, full(node.sort))
        elif kind is Defined:
            # the complement of a is empty where a is full
            a, empty = decode(args[0], node.body.sort)
            op = _defined_op(regs, dst, a, full(node.sort), empty)
        elif kind is Exists:
            res, flip = decode(args[0], node.sort)
            elems = model._elem_masks(node.binder_sort)
            if inner.body is None:  # its body is an equality of two binary reads, fused
                op = _exists_equals_op(regs, dst, inner.var, inner.equation, inner.code, elems,
                                       full(node.sort), flip)
            else:
                op = _exists_op(regs, dst, inner.var, res, inner.code, elems, flip)
        else:  # Mu
            res, flip = decode(args[0], node.sort)
            width = full(node.sort).bit_length()
            if mode == LFP_ITERATE:
                # a warm start (module docstring); the enclosing binder's
                # variable is the lowest mu index the node reads
                _, even, odd, _, _ = node._facts
                mu = even | odd
                rel = (mu & -mu).bit_length() - 1
                resumed = inner.resumed
                if scope.ascending and svar_occurs_positively(node, rel):
                    # warm: it and the warm mus below it go up to the root of its chain
                    scope.resumed += (*resumed, dst)
                    resumed = None
                op = _iterate_op(regs, dst, inner.var, res, inner.code, node.sort,
                                 width, resumed, flip)
            else:
                op = _prefix_op(regs, dst, inner.var, res, inner.code, width, flip)
        scope.code.append(op)
        memo[id(node)] = out
        emit(out ^ sign)
    return _Program(regs, top.code, levels, *decode(results[0], p.sort))


def _read_table(model: FiniteModel, operand: Pattern, memo: dict[int, int], ex_bit: int,
                mu_bit: int) -> Mapping | None:
    """The table of an equality's operand that the comparison may read
    itself (see :func:`_compile`), else None: an application with
    arguments, each a term, of a symbol the model has a table for, not in
    ``memo``, the memo of the equality's scope, that reads the variable
    that puts the equality there, bit ``ex_bit`` of its ex mask or
    ``mu_bit`` of its mu mask, and so is placed there too; at the top
    (both 0), one that reads a free variable, whose level is then at most
    the equality's.  An unknown symbol is left to the application's own
    placement, which raises where a node-by-node evaluation would."""
    if type(operand) is not App or not operand.args or id(operand) in memo:
        return None
    ex, even, odd, free, _ = operand._facts
    if not (ex & ex_bit or (even | odd) & mu_bit if ex_bit | mu_bit else free):
        return None
    functions, kids, seen = model._functions, [*operand.args], set()
    for kid in kids:  # is each argument a term?  The list grows as the walk goes
        kind = type(kid)
        if kind is App and kid.symbol in functions:
            if kid.args and id(kid) not in seen:
                seen.add(id(kid))
                kids += kid.args
        elif kind is not BoundEVar and kind is not FreeEVar:
            return None
    return model._masks.get(operand.symbol)


# --- instructions -----------------------------------------------------------
#
# Each maker returns a closure that reads its operands from ``regs`` and
# writes register ``dst``.  Only ``_and_op`` takes signed registers; the
# others take a complement as a full carrier to XOR the operand with.


def _and_op(regs: list[int], dst: int, a: int, b: int) -> Callable[[], None]:
    """The meet of signed registers ``a`` and ``b``: ``a & b``, ``a & ~b``,
    or, when both are complements, ``a | b``, whose complement is the meet
    (De Morgan)."""
    if a < 0 and b < 0:
        a, b = ~a, ~b

        def op() -> None:
            regs[dst] = regs[a] | regs[b]

    elif a < 0 or b < 0:
        a, b = (b, ~a) if a < 0 else (a, ~b)

        def op() -> None:
            regs[dst] = regs[a] & ~regs[b]

    else:

        def op() -> None:
            regs[dst] = regs[a] & regs[b]

    return op


def _defined_op(
    regs: list[int], dst: int, a: int, full: int, empty: int
) -> Callable[[], None]:
    """``full`` unless register ``a`` holds ``empty``, the value at which
    the operand denotes the empty set: 0, or for a complement the full
    carrier of its sort."""

    def op() -> None:
        regs[dst] = full if regs[a] != empty else 0

    return op


def _equals_op(
    regs: list[int], dst: int, a: int, b: int, flip: int, full: int
) -> Callable[[], None]:
    """``full`` if register ``a`` XORed with ``flip`` equals register
    ``b``, else 0: the floor of an iff.  ``flip`` is the full carrier of
    the operands' sort when exactly one operand is a complement, else 0.
    An operand that is a term in a loop is read from its table by the
    comparison itself instead (:func:`_equals_read_op`,
    :func:`_equals_reads_op`)."""

    def op() -> None:
        regs[dst] = full if regs[a] ^ flip == regs[b] else 0

    return op


def _equals_read_op(
    regs: list[int], dst: int, table: Mapping, keys: Sequence[int], b: int, flip: int,
    full: int,
) -> Callable[[], None]:
    """``full`` if the entry of ``table`` at registers ``keys``, each of
    at most one bit, equals register ``b`` XORed with ``flip``, else 0: an
    equality that reads one operand, an application, from its table.
    ``flip`` is the full carrier of the operands' sort when ``b`` is a
    complement, else 0."""
    if len(keys) == 1:
        (x,) = keys

        def op() -> None:
            regs[dst] = full if table.get((regs[x],), 0) == regs[b] ^ flip else 0

    elif len(keys) == 2:
        x, y = keys

        def op() -> None:
            regs[dst] = full if table.get((regs[x], regs[y]), 0) == regs[b] ^ flip else 0

    else:

        def op() -> None:
            key = tuple([regs[k] for k in keys])
            regs[dst] = full if table.get(key, 0) == regs[b] ^ flip else 0

    return op


def _equals_reads_op(
    regs: list[int], dst: int, table: Mapping, keys: Sequence[int], other: Mapping,
    other_keys: Sequence[int], full: int,
) -> Callable[[], None]:
    """``full`` if the entry of ``table`` at registers ``keys`` equals that
    of ``other`` at ``other_keys``, each register of at most one bit, else
    0: an equality that reads both operands, applications, from their
    tables."""
    if len(keys) == len(other_keys) == 2:
        (x, y), (u, v) = keys, other_keys

        def op() -> None:
            regs[dst] = full if table.get((regs[x], regs[y]), 0) == other.get(
                (regs[u], regs[v]), 0) else 0

    else:

        def op() -> None:
            key, other_key = tuple([regs[k] for k in keys]), tuple([regs[k] for k in other_keys])
            regs[dst] = full if table.get(key, 0) == other.get(other_key, 0) else 0

    return op


def _app_op(
    regs: list[int], dst: int, args: Sequence[int], table: Mapping, flips: Sequence[int],
    single: bool,
) -> Callable[[], None]:
    """Pointwise application: the OR of the table entries of every
    combination of one-bit masks drawn from the arguments.  Argument ``k``
    is register ``args[k]`` XORed with ``flips[k]``: 0, or the full carrier
    of its sort for a complement.  ``single`` is set when every argument is
    a plain register that always holds at most one bit: an element
    variable, a constant of a partial function or a term (module
    docstring).  Its forms read the table entry straight, with no test:
    ``table.get(key, 0)`` is exact when each argument is empty or one
    element, since a key with an empty argument is absent.  The other
    unary and binary forms serve plain arguments; any complemented
    argument takes the n-ary form.  Each reads the table straight when
    every argument holds at most one bit, else lifts the arguments.

    The unary form of a plain argument keeps its last argument and image,
    and no form keeps more, since a ``prefix`` μ or a free set variable
    runs an application on every subset of a carrier.  When the last
    argument is a subset of this one, the image is the last image ORed with
    the image of the added bits alone, since pointwise application
    distributes over union (semi-naive evaluation: Bancilhon, 1986).  Any
    other argument is lifted whole."""
    plain = not any(flips)
    if single and len(args) == 1:
        (a,) = args

        def op() -> None:
            regs[dst] = table.get((regs[a],), 0)

    elif single and len(args) == 2:
        a, b = args

        def op() -> None:
            regs[dst] = table.get((regs[a], regs[b]), 0)

    elif single:

        def op() -> None:
            regs[dst] = table.get(tuple([regs[a] for a in args]), 0)

    elif plain and len(args) == 1:
        (a,) = args
        last = image = 0

        def op() -> None:
            nonlocal last, image
            key = regs[a]
            if not key & (key - 1):
                value = table.get((key,), 0)
            elif last & ~key:
                value = _lift(table, (key,))
            elif (added := key ^ last) & (added - 1):
                value = image | _lift(table, (added,))
            else:
                value = image | table.get((added,), 0)
            last, image = key, value
            regs[dst] = value

    elif plain and len(args) == 2:
        a, b = args

        def op() -> None:
            x, y = regs[a], regs[b]
            if x & (x - 1) or y & (y - 1):
                regs[dst] = _lift(table, (x, y))
            else:
                regs[dst] = table.get((x, y), 0)

    else:
        signed = list(zip(args, flips))

        def op() -> None:
            key = tuple([regs[a] ^ f for a, f in signed])
            if any([bits & (bits - 1) for bits in key]):
                regs[dst] = _lift(table, key)
            else:
                regs[dst] = table.get(key, 0)

    return op


def _exists_op(
    regs: list[int], dst: int, var: int, res: int, body: list, elems: list[int], flip: int
) -> Callable[[], None]:
    """The union of register ``res`` XORed with ``flip`` (0, or the full
    carrier for a complemented body) over ``body`` run once per element
    mask in ``elems``.  The loop does not stop once the union is full: its
    cost would then depend on where in carrier order the union fills (for
    a ``\\forall``, where its first counterexample lies).  ``body`` is
    complete when the ``Exists`` is placed, so a body of one instruction,
    the inner ``\\forall`` of a quantified equation, is called without a
    loop over the list.  A body that ends in an equality of two binary
    reads takes the third form, :func:`_exists_equals_op`, which keeps this
    rule: it too visits every element."""
    if len(body) == 1:
        (step,) = body

        def op() -> None:
            acc = 0
            for elem in elems:
                regs[var] = elem
                step()
                acc |= regs[res] ^ flip
            regs[dst] = acc

    else:

        def op() -> None:
            acc = 0
            for elem in elems:
                regs[var] = elem
                for step in body:
                    step()
                acc |= regs[res] ^ flip
            regs[dst] = acc

    return op


def _exists_equals_op(
    regs: list[int], dst: int, var: int, equation: tuple, body: list, elems: list[int],
    full: int, flip: int,
) -> Callable[[], None]:
    """:func:`_exists_op` over a body that ends in an equality of two
    binary reads, ``equation``, ``(table, (x, y), other, (u, v))``, whose
    result the union reads, run as one loop that runs the instructions
    ``body`` before the equality, compares the two table entries itself
    and ORs ``full`` if they are equal, else 0, XORed with ``flip``, into
    the union.  When ``body`` is empty, the keys that are not ``var`` are
    read once per run and each element mask goes straight into ``var``'s
    key positions; else every key is read after ``body`` runs, since it
    may write one.  Like :func:`_exists_op`, it visits every element."""
    table, (x, y), other, (u, v) = equation
    get, other_get = table.get, other.get
    hit, miss = full ^ flip, flip  # the union's term when the entries agree, and when not
    if not body:
        at = (x == var, y == var, u == var, v == var)  # the key positions of the element

        def op() -> None:
            ax, ay, au, av = at
            rx, ry, ru, rv = regs[x], regs[y], regs[u], regs[v]  # nothing writes them
            acc = 0
            for elem in elems:
                acc |= hit if get((elem if ax else rx, elem if ay else ry), 0) == other_get(
                    (elem if au else ru, elem if av else rv), 0) else miss
            regs[dst] = acc

        return op
    if len(body) == 1:
        (step,) = body
    else:

        def step() -> None:
            for each in body:
                each()

    def op() -> None:
        acc = 0
        for elem in elems:
            regs[var] = elem
            step()
            acc |= hit if get((regs[x], regs[y]), 0) == other_get((regs[u], regs[v]), 0) else miss
        regs[dst] = acc

    return op


def _iterate_op(
    regs: list[int], dst: int, var: int, res: int, body: list, sort: Sort, n: int,
    resumed: Sequence[int] | None, flip: int,
) -> Callable[[], None]:
    """A cold μ, the root of a chain of warm ones, starts each run by
    setting every warm μ instruction below it (registers ``resumed``) back
    to the empty set, then iterates from the empty set.  A warm μ
    (``resumed`` None) resets nothing and iterates from ``dst``'s last
    value, which the root of its chain keeps below the new fixpoint (module
    docstring)."""
    if resumed is None:

        def op() -> None:
            regs[dst] = _iterate(regs, var, res, body, sort, n, regs[dst], flip)

    else:

        def op() -> None:
            for reg in resumed:
                regs[reg] = 0
            regs[dst] = _iterate(regs, var, res, body, sort, n, 0, flip)

    return op


def _prefix_op(
    regs: list[int], dst: int, var: int, res: int, body: list, n: int, flip: int
) -> Callable[[], None]:
    def op() -> None:
        regs[dst] = _prefix(regs, var, res, body, n, flip)

    return op
