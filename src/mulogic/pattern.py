"""Well-sorted, well-scoped pattern trees.

Every pattern node carries its sort and two sorting contexts: ``ex`` lists
the sorts of dangling existentially-bound variables, ``mu`` the sorts of
dangling fixpoint-bound variables (index 0 = innermost binder).  A pattern
is closed when both contexts are empty.

Node invariants are stated once, in ``__post_init__``, which every node's
``__init__`` runs, so an ill-sorted or ill-scoped tree cannot be built, not
even by constructing the node classes directly.  The ``mk_*`` helpers below
only compute the derived fields (sort and contexts) and let the constructor
check them.  The three rules that come in an ex and a mu form are each
stated once, in a private base class whose two node classes fix the context
kind ``_kind`` (``EX`` or ``MU``, the positions in a node's ``(ex, mu)``
pair): ``_FreeVar`` (the node has its variable's kind and sort),
``_BoundVar`` (the index lies in the context of its kind and names the
node's sort) and
``_Binder`` (the body's context of its kind is the binder's with the bound
sort prepended, ``binder_sort`` for ``Exists`` and the node's own sort for
``Mu``; the other context is the binder's; and the binder has its body's
sort).

Each node's facts are fixed at construction too, and are fixed-size: the
last step of every ``__post_init__`` stores, from its children's, the ex
and mu indices the node reads, whether it reads a free variable and
whether every mu binder below it is positive (see :func:`_fix_facts`, the
one place these rules are stated).  A ``Not`` also has ``_operands``:
the pair ``(A, B)`` when it is the root of the fourteen-node
``\\equals`` shape that :func:`mk_equals` builds, with the same ``A`` and
``B`` objects in both implications, else None (see :func:`_equality`);
a rebuild through the constructors keeps the pair, as :func:`map_pattern`
maps a shared operand to one image.  The evaluator and
:func:`svar_occurs_positively` read these facts off the nodes;
:func:`free_vars` walks only a pattern whose root reads a free variable.
The facts take no part in ``==``, ``hash`` or ``repr``.

Every node offers the same protocol: ``children`` (the subpatterns, in
order) and ``rebuild(ex, mu, children)``, which makes a node of the same
kind through the constructor from the node's ``_payload`` fields (those
between ``mu`` and the children).  On that protocol sits the one traversal,
:func:`walk`, which expands each distinct node once, with
:func:`fold_pattern` and :func:`map_pattern` on top of it.  Every operation
here and in :mod:`mulogic.subst` is a walk, fold or map, ``==``, ``hash``,
``repr`` and ``str`` included: ``Pattern`` states each once as a fold.  No
method of a node class is generated: the classes are frozen records built
by :func:`mulogic._record.record`, which compiles no code, and each
takes the ``__init__`` of its shape, written below; a bare ``Pattern``, of
no node kind, is refused.  A leaf or ``App`` stores its contexts and
arguments as tuples (a tuple as the same object), so no list the caller
holds ends up inside a node.  Two passes keep a stack of their own: the
evaluator's placement pass, which expands a node once per binder scope,
and :func:`check_mu_positivity`, a preorder that carries the path by which
it first reaches each node.  So pattern depth is not limited by the
interpreter's recursion limit.

:func:`print_pattern` (and so ``str``) writes the canonical concrete
syntax, core syntax only: derived connectives were expanded at
construction and print as their expansions.  Mu binders are printed with
their sort annotation, so that any constructible pattern, of any depth,
parses back without an expected sort: ``parse(print(p)) == p``.

Patterns are immutable values; every transformation builds a new tree and
may share subtrees freely.
"""

from __future__ import annotations

from operator import is_
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from ._record import HIDDEN, record, set_field
from .errors import (
    ArgSortMismatchError,
    ArityMismatchError,
    BinderSortMismatchError,
    ContextMismatchError,
    IndexOutOfScopeError,
    MuLogicError,
    SortMismatchError,
)
from .signature import EX, MU, ElemVar, SetVar, Signature, Sort, SymbolDecl

Context = tuple[Sort, ...]
T = TypeVar("T")

# How refusals name the context, variables and binder of each kind (EX or
# MU, the positions in a node's ``(ex, mu)`` pair).
_CONTEXT = ("ex", "mu")
_VARIABLE = ("element variable", "set variable")
_BINDER = ("exists", "mu")


# Nodes are records (see mulogic._record) that compare, hash and print
# through the folds on Pattern, so nothing recurses.  Each node class takes
# the __init__ of its shape, which stores the fields and runs __post_init__.
_node = record(repr=False, eq=False)


@_node
class Pattern:
    """A pattern node; the node classes below are its kinds."""

    sort: Sort
    ex: Context
    mu: Context
    # (ex, even, odd, free, positive), stored by _fix_facts
    _facts: tuple = HIDDEN

    def __init__(self, sort: Sort, ex: Context, mu: Context) -> None:
        raise MuLogicError("a bare Pattern has no node kind; build one of its node classes")

    # Leaves have no subpatterns; inner node classes override this.
    children = ()
    # The names of the fields between ``mu`` and the children.
    _payload = ()

    @property
    def is_closed(self) -> bool:
        return not self.ex and not self.mu

    def _head(self) -> tuple:
        """The node's kind and every field but its children."""
        return (type(self), self.sort, self.ex, self.mu, *[getattr(self, f) for f in self._payload])

    def rebuild(self, ex: Context, mu: Context, children: Sequence[Pattern]) -> Pattern:
        """A node of the same kind and fields, with new contexts and
        children, made (and so checked) by the constructor."""
        kind, sort, _, _, *payload = self._head()
        return kind(sort, ex, mu, *payload, *children)

    def __eq__(self, other: object) -> bool:
        """Structural equality in time linear in both DAGs: one table numbers each
        distinct node by its head and its children's numbers."""
        if type(other) is not type(self):
            return NotImplemented
        if self is other:
            return True
        numbers: dict[tuple, int] = {}

        def number(node: Pattern, kids: Sequence[int]) -> int:
            return numbers.setdefault((*node._head(), *kids), len(numbers))

        return fold_pattern(self, number) == fold_pattern(other, number)

    def __hash__(self) -> int:
        return fold_pattern(self, lambda node, kids: hash((*node._head(), *kids)))

    def __repr__(self) -> str:
        """The dataclass format, ``Kind(sort=..., ex=..., ...)``."""
        return _flatten(fold_pattern(self, _repr_rope))

    def __str__(self) -> str:
        return print_pattern(self)


class _FreeVar(Pattern):
    """A free variable of kind ``_kind``: the node's kind and sort are its
    variable's."""

    _payload = ("var",)

    def __init__(
        self, sort: Sort, ex: Context, mu: Context, var: ElemVar | SetVar
    ) -> None:
        set_field(self, "sort", sort)
        set_field(self, "ex", tuple(ex))
        set_field(self, "mu", tuple(mu))
        set_field(self, "var", var)
        self.__post_init__()

    def __post_init__(self) -> None:
        if self.var._kind != self._kind:
            raise SortMismatchError(
                f"free {_VARIABLE[self._kind]} node cannot hold the "
                f"{_VARIABLE[self.var._kind]} {self.var}"
            )
        if self.var.sort != self.sort:
            raise SortMismatchError(
                f"free {_VARIABLE[self._kind]} {self.var} cannot have sort {self.sort}"
            )
        _fix_facts(self)


@_node
class FreeEVar(_FreeVar):
    """A free element variable."""

    var: ElemVar
    _kind = EX


@_node
class FreeSVar(_FreeVar):
    """A free set variable."""

    var: SetVar
    _kind = MU


class _BoundVar(Pattern):
    """A bound variable of kind ``_kind``: its index lies in the node's
    context of that kind and names the node's sort there."""

    _payload = ("index",)

    def __init__(self, sort: Sort, ex: Context, mu: Context, index: int) -> None:
        set_field(self, "sort", sort)
        set_field(self, "ex", tuple(ex))
        set_field(self, "mu", tuple(mu))
        set_field(self, "index", index)
        self.__post_init__()

    def __post_init__(self) -> None:
        ctx = (self.ex, self.mu)[self._kind]
        if not 0 <= self.index < len(ctx):
            raise IndexOutOfScopeError(f"{self._what()} out of scope (context has {len(ctx)} entries)")
        if ctx[self.index] != self.sort:
            raise SortMismatchError(f"{self._what()} has sort {ctx[self.index]}, not {self.sort}")
        _fix_facts(self)

    def _what(self) -> str:
        return f"bound {_VARIABLE[self._kind]} {'bB'[self._kind]}{self.index}"


@_node
class BoundEVar(_BoundVar):
    """An element variable bound by the ``index``-th enclosing ``Exists``."""

    index: int
    _kind = EX


@_node
class BoundSVar(_BoundVar):
    """A set variable bound by the ``index``-th enclosing ``Mu``."""

    index: int
    _kind = MU


_FREE = (FreeEVar, FreeSVar)
_BOUND = (BoundEVar, BoundSVar)


@_node
class App(Pattern):
    """The application of ``symbol`` to ``args``."""

    _payload = ("symbol",)
    symbol: SymbolDecl
    args: tuple[Pattern, ...]

    def __init__(
        self, sort: Sort, ex: Context, mu: Context, symbol: SymbolDecl, args: tuple[Pattern, ...]
    ) -> None:
        set_field(self, "sort", sort)
        set_field(self, "ex", tuple(ex))
        set_field(self, "mu", tuple(mu))
        set_field(self, "symbol", symbol)
        set_field(self, "args", tuple(args))
        self.__post_init__()

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
        return App(self.sort, ex, mu, self.symbol, children)


def _init_body(self, sort: Sort, ex: Context, mu: Context, body: Pattern) -> None:
    """The ``__init__`` of the node classes whose one child is ``body``."""
    set_field(self, "sort", sort)
    set_field(self, "ex", ex)
    set_field(self, "mu", mu)
    set_field(self, "body", body)
    self.__post_init__()


@_node
class Not(Pattern):
    """Negation: the complement of ``body`` in the carrier of its sort."""

    body: Pattern

    __init__ = _init_body
    # (A, B) for an \equals, else None; set on the instance only at a floor
    _operands = None

    def __post_init__(self) -> None:
        _require_same_shape("negation", self, self.body)
        _fix_facts(self)
        if type(self.body) is Defined:
            object.__setattr__(self, "_operands", _equality(self))

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.body,)


@_node
class And(Pattern):
    """Conjunction: the intersection of ``left`` and ``right``."""

    left: Pattern
    right: Pattern

    def __init__(
        self, sort: Sort, ex: Context, mu: Context, left: Pattern, right: Pattern
    ) -> None:
        set_field(self, "sort", sort)
        set_field(self, "ex", ex)
        set_field(self, "mu", mu)
        set_field(self, "left", left)
        set_field(self, "right", right)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_same_shape("conjunction", self, self.left)
        _require_same_shape("conjunction", self, self.right)
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.left, self.right)


class _Binder(Pattern):
    """A binder of kind ``_kind``: its body's context of that kind is the
    binder's own with the bound sort (the field named by ``_bound``)
    prepended, its other context is the binder's, and the binder takes its
    body's sort."""

    def __post_init__(self) -> None:
        kind, body = self._kind, self.body
        inner, outer = (body.ex, body.mu), (self.ex, self.mu)
        bound = getattr(self, self._bound)
        # refuse a list context before the tuple "+" below meets it
        if type(outer[kind]) is not tuple or inner[kind] != (bound,) + outer[kind]:
            raise BinderSortMismatchError(
                f"{_BINDER[kind]} binder {('over', 'of sort')[kind]} {bound} does not "
                f"match the body context {[str(s) for s in inner[kind]]}"
            )
        if inner[1 - kind] != outer[1 - kind]:
            raise ContextMismatchError(
                f"{_BINDER[kind]} body has a different {_CONTEXT[1 - kind]} context"
            )
        if body.sort != self.sort:
            raise SortMismatchError(f"{_BINDER[kind]} inherits the sort of its body")
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.body,)


@_node
class Exists(_Binder):
    """The union of ``body`` over every element of ``binder_sort``."""

    _payload = ("binder_sort",)
    binder_sort: Sort
    body: Pattern
    _kind, _bound = EX, "binder_sort"

    def __init__(
        self, sort: Sort, ex: Context, mu: Context, binder_sort: Sort, body: Pattern
    ) -> None:
        set_field(self, "sort", sort)
        set_field(self, "ex", ex)
        set_field(self, "mu", mu)
        set_field(self, "binder_sort", binder_sort)
        set_field(self, "body", body)
        self.__post_init__()


@_node
class Mu(_Binder):
    """The least fixpoint of ``body`` in its bound set variable."""

    body: Pattern
    _kind, _bound = MU, "sort"

    __init__ = _init_body


@_node
class Defined(Pattern):
    """Definedness: full carrier of ``sort`` iff the body denotes a
    non-empty set.  The node sort is independent of the body sort."""

    body: Pattern

    __init__ = _init_body

    def __post_init__(self) -> None:
        if self.body.ex != self.ex or self.body.mu != self.mu:
            raise ContextMismatchError("definedness body has a different context")
        _fix_facts(self)

    @property
    def children(self) -> tuple[Pattern, ...]:
        return (self.body,)


def _require_same_shape(what: str, node: Pattern, child: Pattern) -> None:
    if child.sort != node.sort:
        raise SortMismatchError(
            f"{what} requires sort {node.sort}, got {child.sort}"
        )
    if child.ex != node.ex or child.mu != node.mu:
        raise ContextMismatchError(f"{what} child lives in a different context")


# --- printing -----------------------------------------------------------

# Per node kind: the text before the children, between them, and after.
_SYNTAX = {
    FreeEVar: lambda p: (f"{p.var.name}:{p.var.sort.name}", "", ""),
    FreeSVar: lambda p: (f"#{p.var.name}:{p.var.sort.name}", "", ""),
    BoundEVar: lambda p: (f"b{p.index}", "", ""),
    BoundSVar: lambda p: (f"B{p.index}", "", ""),
    App: lambda p: (f"{p.symbol.name}(", ", ", ")"),
    Not: lambda p: ("\\not(", "", ")"),
    And: lambda p: ("\\and(", ", ", ")"),
    Exists: lambda p: (f"\\exists{{{p.binder_sort.name}}} ", "", ""),
    Mu: lambda p: (f"\\mu{{{p.sort.name}}} ", "", ""),
    Defined: lambda p: (f"\\ceil{{{p.sort.name}}}(", "", ")"),
}


def print_pattern(p: Pattern) -> str:
    """The canonical concrete syntax of ``p``, which parses back to it."""
    return _flatten(fold_pattern(p, _layout))


def _layout(node: Pattern, kids: Sequence[list]) -> list:
    """``str(node)`` as a rope over its children's ropes."""
    before, between, after = _SYNTAX[type(node)](node)
    return [before, *_joined(kids, between), after]


def _repr_rope(node: Pattern, kids: Sequence[list]) -> list:
    """``repr(node)`` as a rope over its children's ropes."""
    names = node.__match_args__
    split = 3 + len(node._payload)
    if type(node) is App:
        kids = [["(", *_joined(kids, ", "), ",)" if len(kids) == 1 else ")"]]
    fields = [f"{name}={getattr(node, name)!r}" for name in names[:split]]
    fields += [[f"{name}=", kid] for name, kid in zip(names[split:], kids)]
    return [f"{type(node).__qualname__}(", *_joined(fields, ", "), ")"]


def _joined(parts: Sequence, sep: str) -> list:
    """``parts`` with ``sep`` between each two."""
    return [piece for part in parts for piece in (sep, part)][1:]


def _flatten(rope: list) -> str:
    """The text of a rope: strings and nested ropes, which may be shared,
    unrolled on an explicit stack."""
    out: list[str] = []
    todo = [rope]
    while todo:
        piece = todo.pop()
        if type(piece) is str:
            out.append(piece)
        else:
            todo += reversed(piece)
    return "".join(out)


def _fix_facts(node: Pattern) -> None:
    """Store ``node._facts = (ex, even, odd, free, positive)``, from its
    children's in O(children) time.  ``ex`` has bit ``i`` set iff the node
    reads ex index ``i``; ``even``/``odd`` likewise for the mu indices read
    under an even/odd number of negations.  ``free`` is True iff the node
    reads a free variable.  ``positive``: every mu binder below has bit 0
    of its body's odd clear.
    """
    kind = type(node)
    kids = node.children
    if len(kids) == 1:
        ex, even, odd, free, positive = kids[0]._facts
    elif kids:
        ex = even = odd = 0
        free, positive = False, True
        for kid in kids:
            e, v, o, f, pos = kid._facts
            ex |= e
            even |= v
            odd |= o
            free |= f
            positive = positive and pos
    else:
        ex = 1 << node.index if kind is BoundEVar else 0
        even = 1 << node.index if kind is BoundSVar else 0
        odd, free, positive = 0, kind is FreeEVar or kind is FreeSVar, True
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
    ``kind`` (``EX`` or ``MU``, its position in the node's ``(ex, mu)``
    pair): the ``drop`` sorts just before its last ``tail`` sorts are
    replaced by ``insert``.  Binders only ever prepend to a context, so the
    last ``tail`` sorts are the same ones at every node: counting from the
    end is the one shift rule under binders.

    ``leaf(node, ex, mu)`` gives the image of each node without children,
    given its new contexts; every other node is rebuilt through its
    constructor over its children's images.  Without cuts, a node whose
    children come out unchanged is kept, so the result shares what ``p``
    shares.
    """

    def combine(node: Pattern, kids: Sequence[Pattern]) -> Pattern:
        ctxs = [node.ex, node.mu]
        for kind, tail, drop, insert in cuts:
            ctx = ctxs[kind]
            at = len(ctx) - tail - drop
            ctxs[kind] = ctx[:at] + insert + ctx[at + drop :]
        if not kids:
            return leaf(node, *ctxs)
        if not cuts and all(map(is_, kids, node.children)):
            return node
        return node.rebuild(*ctxs, kids)

    return fold_pattern(p, combine)


# --- core constructors --------------------------------------------------


def mk_free_evar(var: ElemVar, ex: Iterable[Sort] = (), mu: Iterable[Sort] = ()) -> Pattern:
    return FreeEVar(var.sort, ex, mu, var)


def mk_free_svar(var: SetVar, ex: Iterable[Sort] = (), mu: Iterable[Sort] = ()) -> Pattern:
    return FreeSVar(var.sort, ex, mu, var)


def mk_bound_evar(ex: Iterable[Sort], mu: Iterable[Sort], index: int) -> Pattern:
    """Bound element variable ``index``; its sort is read off the ex context."""
    return _mk_bound(EX, ex, mu, index)


def mk_bound_svar(ex: Iterable[Sort], mu: Iterable[Sort], index: int) -> Pattern:
    """Bound set variable ``index``; its sort is read off the mu context."""
    return _mk_bound(MU, ex, mu, index)


def _mk_bound(kind: int, ex: Iterable[Sort], mu: Iterable[Sort], index: int) -> Pattern:
    """Bound variable ``index`` of ``kind``, its sort read off the context of
    that kind."""
    ctxs = (tuple(ex), tuple(mu))
    ctx = ctxs[kind]
    return _BOUND[kind](ctx[index] if 0 <= index < len(ctx) else None, *ctxs, index)


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
    ex = ex if ex is not None else args[0].ex if args else ()
    mu = mu if mu is not None else args[0].mu if args else ()
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
    return mk_exists(sort, mk_bound_evar((sort, *ex), mu, 0))


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


def _equality(node: Not) -> tuple[Pattern, Pattern] | None:
    """The operands ``(A, B)`` when ``node`` has the exact core shape that
    :func:`mk_equals` builds, the floor of an iff,
    ``Not(Defined(Not(And(Not(And(Not(Not(A)), Not(B))), Not(And(Not(Not(B)),
    Not(A)))))))``, with the same ``A`` and ``B`` objects in both
    implications; else None."""
    defined = node.body
    if type(defined) is not Defined:
        return None
    both = _operand(defined.body)
    if type(both) is not And:
        return None
    there, back = _operand(both.left), _operand(both.right)
    if type(there) is not And or type(back) is not And:
        return None
    a, b = _operand(_operand(there.left)), _operand(there.right)
    if a is None or b is None:
        return None
    if _operand(_operand(back.left)) is not b or _operand(back.right) is not a:
        return None
    return a, b


def _operand(p: Pattern | None) -> Pattern | None:
    """The body of a ``Not``, else None."""
    return p.body if type(p) is Not else None


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
    """The free element and set variables of ``p``, from one walk, which
    is skipped when ``p`` reads no free variable."""
    found = (set(), set())
    if p._facts[3]:
        for node, _ in walk(p):
            if type(node) in _FREE:
                found[node._kind].add(node.var)
    return frozenset(found[EX]), frozenset(found[MU])


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
        stale = type(node) is Not and node._operands != _equality(node)
        if stale or new._facts != node._facts:
            raise MuLogicError(f"stale facts on {type(node).__name__} node")
        return new

    try:
        fold_pattern(p, rebuild)
    except MuLogicError:
        return False
    return True


# --- positivity ---------------------------------------------------------


@record
class MuCheck:
    """Verdict for one mu binder; ``path`` is the child-index route from
    the root to the binder."""

    path: tuple[int, ...]
    positive: bool

    def __init__(self, path: tuple[int, ...], positive: bool) -> None:
        set_field(self, "path", path)
        set_field(self, "positive", positive)


@record
class PositivityReport:
    """The verdicts of :func:`check_mu_positivity`, one per mu binder."""

    checks: tuple[MuCheck, ...]

    def __init__(self, checks: tuple[MuCheck, ...]) -> None:
        set_field(self, "checks", checks)

    @property
    def all_positive(self) -> bool:
        return all(c.positive for c in self.checks)

    def negative_paths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(c.path for c in self.checks if not c.positive)


def check_mu_positivity(p: Pattern) -> PositivityReport:
    """Report, for every mu binder in ``p``, whether its bound variable
    occurs only under an even number of negations.

    Binders are listed in preorder.  Binders inside shared (derived-form)
    subtrees are reported once, at the first path that reaches them: one
    preorder pass on an explicit stack enters each distinct node once.
    """
    checks, seen = [], set()
    # paths as nested (index, rest) pairs, last index outermost, so that
    # extending one is O(1); a path is unrolled only at a binder
    stack: list[tuple[Pattern, tuple]] = [(p, ())]
    while stack:
        node, path = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if type(node) is Mu:
            route, rest = [], path
            while rest:
                k, rest = rest
                route.append(k)
            checks.append(MuCheck(tuple(route[::-1]), svar_occurs_positively(node.body, 0)))
        stack += [(kid, (k, path)) for k, kid in reversed(list(enumerate(node.children)))]
    return PositivityReport(tuple(checks))


def svar_occurs_positively(p: Pattern, target: int) -> bool:
    """True iff every occurrence of bound set variable ``target`` in ``p``
    sits under an even number of negations."""
    _, _, odd, _, _ = p._facts
    return not odd >> target & 1
