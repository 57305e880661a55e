"""Well-sorted, well-scoped pattern trees.

Every pattern node carries its sort and two sorting contexts: ``ex`` lists
the sorts of dangling existentially-bound variables, ``mu`` the sorts of
dangling fixpoint-bound variables (index 0 = innermost binder).  A pattern
is closed when both contexts are empty.

Node invariants are stated once, in ``__post_init__``, so an ill-sorted or
ill-scoped tree cannot be built, not even by constructing the dataclasses
directly.  The ``mk_*`` helpers below only compute the derived fields (sort
and contexts) and let the constructor check them.

Each node's facts are fixed at construction too: the last step of every
``__post_init__`` stores, from its children's, the ex and mu indices the
node reads, its free variables and whether every mu binder below it is
positive (see :func:`_fix_facts`, the one place these rules are stated).
So :func:`free_vars` and :func:`svar_occurs_positively` read the root and
take no walk, and the evaluator reads the facts off each node.  The facts
take no part in ``==``, ``hash`` or ``repr``.

Every node offers the same protocol: ``children`` (the subpatterns, in
order) and ``rebuild(ex, mu, children)``, which makes a node of the same
kind through the constructor.  A binder's body context is its own context
with one sort prepended (``Exists`` prepends ``binder_sort`` to ``ex``,
``Mu`` its own sort to ``mu``), which the constructors check.  On that
protocol sits the one traversal, :func:`walk`, which expands each distinct
node once, with :func:`fold_pattern` and :func:`map_pattern` on top of it.
Every operation here and in :mod:`mulogic.subst` and :mod:`mulogic.printer`
is a walk, fold or map; only the evaluator's placement pass, which expands
a node once per binder scope, keeps a stack of its own.  So pattern depth
is not limited by the interpreter's recursion limit.  Only the
dataclass-generated ``==`` and ``hash`` (and so :func:`structural_eq`)
still recurse.

Patterns are immutable values; every transformation builds a new tree and
may share subtrees freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import is_
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .errors import (
    ArgSortMismatchError,
    ArityMismatchError,
    BinderSortMismatchError,
    ContextMismatchError,
    IndexOutOfScopeError,
    MuLogicError,
    SortMismatchError,
)
from .signature import ElemVar, SetVar, Signature, Sort, SymbolDecl

Context = tuple[Sort, ...]
T = TypeVar("T")

# Context kinds, as positions in a node's ``(ex, mu)`` pair.
EX, MU = 0, 1


def _ctx(sorts: Iterable[Sort]) -> Context:
    return tuple(sorts)


@dataclass(frozen=True)
class Pattern:
    sort: Sort
    ex: Context
    mu: Context
    # (ex, even, odd, free, positive), stored by _fix_facts
    _facts: tuple = field(init=False, compare=False, repr=False)

    # Leaves have no subpatterns; inner node classes override this.
    children = ()

    @property
    def is_closed(self) -> bool:
        return not self.ex and not self.mu

    def rebuild(self, ex: Context, mu: Context, children: Sequence[Pattern]) -> Pattern:
        """A node of the same kind and fields, with new contexts and
        children, made (and so checked) by the constructor."""
        raise NotImplementedError

    def __str__(self) -> str:
        from .printer import print_pattern

        return print_pattern(self)


@dataclass(frozen=True)
class FreeEVar(Pattern):
    var: ElemVar

    def __post_init__(self) -> None:
        if self.var.sort != self.sort:
            raise SortMismatchError(
                f"free element variable {self.var} cannot have sort {self.sort}"
            )
        _fix_facts(self)

    def rebuild(self, ex, mu, children):
        return FreeEVar(self.sort, ex, mu, self.var)


@dataclass(frozen=True)
class FreeSVar(Pattern):
    var: SetVar

    def __post_init__(self) -> None:
        if self.var.sort != self.sort:
            raise SortMismatchError(
                f"free set variable {self.var} cannot have sort {self.sort}"
            )
        _fix_facts(self)

    def rebuild(self, ex, mu, children):
        return FreeSVar(self.sort, ex, mu, self.var)


@dataclass(frozen=True)
class BoundEVar(Pattern):
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < len(self.ex):
            raise IndexOutOfScopeError(
                f"bound element variable b{self.index} out of scope "
                f"(context has {len(self.ex)} entries)"
            )
        if self.ex[self.index] != self.sort:
            raise SortMismatchError(
                f"bound element variable b{self.index} has sort "
                f"{self.ex[self.index]}, not {self.sort}"
            )
        _fix_facts(self)

    def rebuild(self, ex, mu, children):
        return BoundEVar(self.sort, ex, mu, self.index)


@dataclass(frozen=True)
class BoundSVar(Pattern):
    index: int

    def __post_init__(self) -> None:
        if not 0 <= self.index < len(self.mu):
            raise IndexOutOfScopeError(
                f"bound set variable B{self.index} out of scope "
                f"(context has {len(self.mu)} entries)"
            )
        if self.mu[self.index] != self.sort:
            raise SortMismatchError(
                f"bound set variable B{self.index} has sort "
                f"{self.mu[self.index]}, not {self.sort}"
            )
        _fix_facts(self)

    def rebuild(self, ex, mu, children):
        return BoundSVar(self.sort, ex, mu, self.index)


@dataclass(frozen=True)
class App(Pattern):
    symbol: SymbolDecl
    args: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        symbol = self.symbol
        if len(self.args) != len(symbol.params):
            raise ArityMismatchError(
                f"{symbol.name} expects {len(symbol.params)} arguments, "
                f"got {len(self.args)}"
            )
        if self.sort != symbol.result:
            raise SortMismatchError(
                f"application of {symbol.name} has sort {symbol.result}, "
                f"not {self.sort}"
            )
        for k, (arg, param) in enumerate(zip(self.args, symbol.params)):
            if arg.sort != param:
                raise ArgSortMismatchError(
                    k,
                    f"argument {k} of {symbol.name} must have sort {param}, "
                    f"got {arg.sort}",
                )
            if arg.ex != self.ex or arg.mu != self.mu:
                raise ContextMismatchError(
                    f"argument {k} of {symbol.name} lives in a different context"
                )
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return self.args

    def rebuild(self, ex, mu, children):
        return App(self.sort, ex, mu, self.symbol, tuple(children))


@dataclass(frozen=True)
class Not(Pattern):
    body: Pattern

    def __post_init__(self) -> None:
        _require_same_shape("negation", self, self.body)
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.body,)

    def rebuild(self, ex, mu, children):
        return Not(self.sort, ex, mu, children[0])


@dataclass(frozen=True)
class And(Pattern):
    left: Pattern
    right: Pattern

    def __post_init__(self) -> None:
        _require_same_shape("conjunction", self, self.left)
        _require_same_shape("conjunction", self, self.right)
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.left, self.right)

    def rebuild(self, ex, mu, children):
        return And(self.sort, ex, mu, children[0], children[1])


@dataclass(frozen=True)
class Exists(Pattern):
    binder_sort: Sort
    body: Pattern

    def __post_init__(self) -> None:
        if self.body.ex != (self.binder_sort,) + self.ex:
            raise BinderSortMismatchError(
                f"exists binder over {self.binder_sort} does not match the "
                f"body context {[str(s) for s in self.body.ex]}"
            )
        if self.body.mu != self.mu:
            raise ContextMismatchError("exists body has a different mu context")
        if self.body.sort != self.sort:
            raise SortMismatchError("exists inherits the sort of its body")
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.body,)

    def rebuild(self, ex, mu, children):
        return Exists(self.sort, ex, mu, self.binder_sort, children[0])


@dataclass(frozen=True)
class Mu(Pattern):
    body: Pattern

    def __post_init__(self) -> None:
        if self.body.mu != (self.sort,) + self.mu:
            raise BinderSortMismatchError(
                f"mu binder of sort {self.sort} does not match the body "
                f"context {[str(s) for s in self.body.mu]}"
            )
        if self.body.ex != self.ex:
            raise ContextMismatchError("mu body has a different ex context")
        if self.body.sort != self.sort:
            raise SortMismatchError("mu inherits the sort of its body")
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.body,)

    def rebuild(self, ex, mu, children):
        return Mu(self.sort, ex, mu, children[0])


@dataclass(frozen=True)
class Defined(Pattern):
    """Definedness: full carrier of ``sort`` iff the body denotes a
    non-empty set.  The node sort is independent of the body sort."""

    body: Pattern

    def __post_init__(self) -> None:
        if self.body.ex != self.ex or self.body.mu != self.mu:
            raise ContextMismatchError("definedness body has a different context")
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.body,)

    def rebuild(self, ex, mu, children):
        return Defined(self.sort, ex, mu, children[0])


def _require_same_shape(what: str, node: Pattern, child: Pattern) -> None:
    if child.sort != node.sort:
        raise SortMismatchError(
            f"{what} requires sort {node.sort}, got {child.sort}"
        )
    if child.ex != node.ex or child.mu != node.mu:
        raise ContextMismatchError(f"{what} child lives in a different context")


_NO_VARS: frozenset = frozenset()


def _fix_facts(node: Pattern) -> None:
    """Store ``node._facts = (ex, even, odd, free, positive)``, from its
    children's in O(children) time.  ``ex`` has bit ``i`` set iff the node
    reads ex index ``i``; ``even``/``odd`` likewise for the mu indices read
    under an even/odd number of negations.  ``free`` is the frozenset of
    its free variables (a child's own set where that is the union).
    ``positive``: every mu binder below has bit 0 of its body's odd clear.
    """
    kind = type(node)
    kids = node.children
    if len(kids) == 1:
        ex, even, odd, free, positive = kids[0]._facts
    elif kids:
        ex = even = odd = 0
        free, positive = _NO_VARS, True
        for kid in kids:
            e, v, o, f, pos = kid._facts
            ex |= e
            even |= v
            odd |= o
            if f is not free and not f <= free:
                free = f if free <= f else free | f
            positive = positive and pos
    elif kind is BoundEVar:
        ex, even, odd, free, positive = 1 << node.index, 0, 0, _NO_VARS, True
    elif kind is BoundSVar:
        ex, even, odd, free, positive = 0, 1 << node.index, 0, _NO_VARS, True
    elif kind is FreeEVar or kind is FreeSVar:
        ex, even, odd, free, positive = 0, 0, 0, frozenset((node.var,)), True
    else:  # a 0-ary symbol
        ex, even, odd, free, positive = 0, 0, 0, _NO_VARS, True
    if kind is Not:
        even, odd = odd, even
    elif kind is Exists:
        ex >>= 1
    elif kind is Mu:
        positive = positive and not odd & 1
        even >>= 1
        odd >>= 1
    object.__setattr__(node, "_facts", (ex, even, odd, free, positive))


# --- the traversal ------------------------------------------------------


def walk(p: Pattern) -> Iterator[tuple[Pattern, Sequence[Pattern] | None]]:
    """Yield ``(node, node.children)`` for each distinct node of ``p``,
    after all of its children; each later meeting of a node already
    yielded yields ``(node, None)``.

    The one traversal of the kernel.  An explicit stack replaces recursion,
    so depth is bounded by memory, not by the interpreter's recursion
    limit; a subtree that derived connectives share is expanded once.
    """
    seen: set[int] = set()
    stack: list = [p]  # nodes to enter, and (node, children) to leave
    pop, push, mark = stack.pop, stack.append, seen.add
    while stack:
        node = pop()
        if type(node) is tuple:
            yield node
            continue
        key = id(node)
        if key in seen:
            yield node, None
        else:
            mark(key)
            kids = node.children
            if kids:
                push((node, kids))
                stack += reversed(kids)
            else:
                yield node, kids


def fold_pattern(p: Pattern, combine: Callable[[Pattern, Sequence[T]], T]) -> T:
    """Fold ``p`` bottom-up over :func:`walk`: ``combine(node, results)``
    runs once for each distinct node, with its children's results in
    order.  Results are memoised on node identity.  A node's offset below
    ``p`` (the binders between them) is fixed by the node itself, as the
    growth of its contexts over ``p``'s, so identity alone is a sound memo
    key."""
    done: dict[int, T] = {}
    results: list[T] = []  # results of the children met so far, in order
    emit = results.append
    for node, kids in walk(p):
        if kids is None:
            emit(done[id(node)])
            continue
        n = len(kids)
        if n:
            kids = results[-n:]
            del results[-n:]
        done[id(node)] = result = combine(node, kids)
        emit(result)
    return results[0]


def map_pattern(
    p: Pattern,
    leaf: Callable[[Pattern, Context, Context], Pattern],
    cuts: Sequence[tuple[int, int, int, Context]] = (),
) -> Pattern:
    """Rebuild ``p`` over :func:`fold_pattern`.

    Each cut ``(kind, tail, drop, insert)`` edits every node's context of
    ``kind`` (``EX`` or ``MU``): the ``drop`` sorts just before its last
    ``tail`` sorts are replaced by ``insert``.  Binders only ever prepend
    to a context, so the last ``tail`` sorts are the same ones at every
    node: counting from the end is the one shift rule under binders.

    ``leaf(node, ex, mu)`` gives the image of each node without children,
    given its new contexts; every other node is rebuilt through its
    constructor over its children's images.  Without cuts, a node whose
    children come out unchanged is kept, so the result shares what ``p``
    shares.
    """

    def combine(node: Pattern, kids: Sequence[Pattern]) -> Pattern:
        ex, mu = node.ex, node.mu
        for kind, tail, drop, insert in cuts:
            ctx = mu if kind == MU else ex
            at = len(ctx) - tail - drop
            ctx = ctx[:at] + insert + ctx[at + drop :]
            if kind == MU:
                mu = ctx
            else:
                ex = ctx
        if not kids:
            return leaf(node, ex, mu)
        if not cuts and all(map(is_, kids, node.children)):
            return node
        return node.rebuild(ex, mu, kids)

    return fold_pattern(p, combine)


# --- core constructors --------------------------------------------------


def mk_free_evar(var: ElemVar, ex: Iterable[Sort] = (), mu: Iterable[Sort] = ()) -> Pattern:
    return FreeEVar(var.sort, _ctx(ex), _ctx(mu), var)


def mk_free_svar(var: SetVar, ex: Iterable[Sort] = (), mu: Iterable[Sort] = ()) -> Pattern:
    return FreeSVar(var.sort, _ctx(ex), _ctx(mu), var)


def mk_bound_evar(ex: Iterable[Sort], mu: Iterable[Sort], index: int) -> Pattern:
    """Bound element variable ``index``; its sort is read off the context."""
    ex = _ctx(ex)
    if not 0 <= index < len(ex):
        raise IndexOutOfScopeError(
            f"bound element variable b{index} out of scope "
            f"(context has {len(ex)} entries)"
        )
    return BoundEVar(ex[index], ex, _ctx(mu), index)


def mk_bound_svar(ex: Iterable[Sort], mu: Iterable[Sort], index: int) -> Pattern:
    """Bound set variable ``index``; its sort is read off the mu context."""
    mu = _ctx(mu)
    if not 0 <= index < len(mu):
        raise IndexOutOfScopeError(
            f"bound set variable B{index} out of scope "
            f"(context has {len(mu)} entries)"
        )
    return BoundSVar(mu[index], _ctx(ex), mu, index)


def mk_app(
    sig: Signature,
    symbol: SymbolDecl,
    args: Sequence[Pattern],
    ex: Iterable[Sort] | None = None,
    mu: Iterable[Sort] | None = None,
) -> Pattern:
    """Application node.  Contexts are inherited from the arguments; for
    0-ary symbols the caller supplies the intended contexts (default
    closed).  Given contexts must match the arguments'."""
    sig._require_symbol(symbol)
    args = tuple(args)
    ex = _ctx(ex) if ex is not None else args[0].ex if args else ()
    mu = _ctx(mu) if mu is not None else args[0].mu if args else ()
    return App(symbol.result, ex, mu, symbol, args)


def mk_not(body: Pattern) -> Pattern:
    return Not(body.sort, body.ex, body.mu, body)


def mk_and(left: Pattern, right: Pattern) -> Pattern:
    return And(left.sort, left.ex, left.mu, left, right)


def mk_exists(binder_sort: Sort, body: Pattern) -> Pattern:
    """Existential binder; consumes the head of the body's ex context."""
    return Exists(body.sort, body.ex[1:], body.mu, binder_sort, body)


def mk_mu(body: Pattern) -> Pattern:
    """Least-fixpoint binder; the bound variable shares the body's sort."""
    return Mu(body.sort, body.ex, body.mu[1:], body)


def mk_defined(result_sort: Sort, body: Pattern) -> Pattern:
    """Definedness node; ``result_sort`` is free, unconstrained by the body."""
    return Defined(result_sort, body.ex, body.mu, body)


# --- derived connectives ------------------------------------------------
#
# These are notations: each returns the fully expanded core tree, so the
# results are indistinguishable from hand-built expansions.


def mk_top(sort: Sort, ex: Iterable[Sort] = (), mu: Iterable[Sort] = ()) -> Pattern:
    ex = _ctx(ex)
    return mk_exists(sort, mk_bound_evar((sort,) + ex, mu, 0))


def mk_bottom(sort: Sort, ex: Iterable[Sort] = (), mu: Iterable[Sort] = ()) -> Pattern:
    return mk_not(mk_top(sort, ex, mu))


def mk_or(left: Pattern, right: Pattern) -> Pattern:
    return mk_not(mk_and(mk_not(left), mk_not(right)))


def mk_implies(left: Pattern, right: Pattern) -> Pattern:
    return mk_or(mk_not(left), right)


def mk_iff(left: Pattern, right: Pattern) -> Pattern:
    return mk_and(mk_implies(left, right), mk_implies(right, left))


def mk_forall(binder_sort: Sort, body: Pattern) -> Pattern:
    return mk_not(mk_exists(binder_sort, mk_not(body)))


def mk_nu(body: Pattern) -> Pattern:
    """Greatest fixpoint as the negation dual of mu.

    Occurrences of the binder's own variable are negated in place (a
    context-preserving rewrite, not a substitution: the replacement
    ``not B0`` is not closed, so the substitution calculus must not see
    it).  ``mk_mu`` rejects a body whose mu context does not start with
    its sort."""
    return mk_not(mk_mu(mk_not(_negate_bound_svar(body, 0))))


def mk_floor(result_sort: Sort, body: Pattern) -> Pattern:
    return mk_not(mk_defined(result_sort, mk_not(body)))


def mk_equals(result_sort: Sort, left: Pattern, right: Pattern) -> Pattern:
    return mk_floor(result_sort, mk_iff(left, right))


def mk_subseteq(result_sort: Sort, left: Pattern, right: Pattern) -> Pattern:
    return mk_floor(result_sort, mk_implies(left, right))


def _negate_bound_svar(p: Pattern, target: int) -> Pattern:
    """Replace every occurrence of bound set variable ``target`` by its
    negation; under nested mu binders the target index grows with the
    mu context."""
    tail = len(p.mu) - target

    def negate(node: Pattern, ex: Context, mu: Context) -> Pattern:
        if type(node) is BoundSVar and node.index == len(mu) - tail:
            return mk_not(node)
        return node

    return map_pattern(p, negate)


# --- observations -------------------------------------------------------


def size(p: Pattern) -> int:
    """Node count of the syntax tree (variables count 1, an application
    counts 1 plus its arguments).

    Derived connectives duplicate operands when they expand, so the tree
    can be exponentially larger than the shared in-memory structure; the
    count is memoized over shared subtrees to stay linear.
    """
    return fold_pattern(p, lambda node, kids: 1 + sum(kids))


def free_vars(p: Pattern) -> tuple[frozenset[ElemVar], frozenset[SetVar]]:
    free = p._facts[3]
    evars = frozenset(v for v in free if isinstance(v, ElemVar))
    return evars, free - evars


def structural_eq(p: Pattern, q: Pattern) -> bool:
    """Structural equality; with de Bruijn indices this is alpha-equivalence."""
    return p == q


def validate(p: Pattern) -> bool:
    """Rebuild ``p`` through the node constructors, so every node's
    ``__post_init__`` checks it again and fixes its facts afresh; False if
    any check fails or any node's stored facts differ from the new ones.

    Construction already enforces the invariants, so this can only fail on
    a tree changed behind the constructors (for instance with
    ``object.__setattr__``).  Shared subtrees are checked once.
    """

    def rebuild(node: Pattern, kids: Sequence[Pattern]) -> Pattern:
        new = node.rebuild(node.ex, node.mu, kids)
        if new._facts != node._facts:
            raise MuLogicError(f"stale facts on {type(node).__name__} node")
        return new

    try:
        fold_pattern(p, rebuild)
    except MuLogicError:
        return False
    return True


# --- positivity ---------------------------------------------------------


@dataclass(frozen=True)
class MuCheck:
    """Verdict for one mu binder; ``path`` is the child-index route from
    the root to the binder."""

    path: tuple[int, ...]
    positive: bool


@dataclass(frozen=True)
class PositivityReport:
    checks: tuple[MuCheck, ...]

    @property
    def all_positive(self) -> bool:
        return all(c.positive for c in self.checks)

    def negative_paths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.path for c in self.checks if not c.positive)


def check_mu_positivity(p: Pattern) -> PositivityReport:
    """Report, for every mu binder in ``p``, whether its bound variable
    occurs only under an even number of negations.

    Binders are listed in preorder.  Binders inside shared (derived-form)
    subtrees are reported once, at the first path that reaches them.
    """

    def binders(node: Pattern, kids: Sequence[dict]) -> dict:
        # id(binder) -> (binder, path as nested (index, rest) pairs), in
        # preorder; nested pairs make prefixing a path O(1) per level
        found = {id(node): (node, ())} if type(node) is Mu else {}
        for k, below in enumerate(kids):
            for key, (mu, path) in below.items():
                if key not in found:
                    found[key] = (mu, (k, path))
        return found

    checks = []
    for mu, path in fold_pattern(p, binders).values():
        route: list[int] = []
        while path:
            k, path = path
            route.append(k)
        checks.append(MuCheck(tuple(route), svar_occurs_positively(mu.body, 0)))
    return PositivityReport(tuple(checks))


def svar_occurs_positively(p: Pattern, target: int, negations: int = 0) -> bool:
    """True iff every occurrence of bound set variable ``target`` sits
    under an even number of negations, ``negations`` of them above ``p``."""
    _, even, odd, _, _ = p._facts
    return not (odd if negations % 2 == 0 else even) >> target & 1
