"""The substitution calculus: context extension (weakening), bound-variable
substitution via the index procedure, and free-variable substitution.

Each job has one implementation that takes the context kind, ``EX`` (the
existential context) or ``MU`` (the fixpoint context), as an argument; the
public names are one-line calls that fix the kind.  Extension and the
substitutions are maps (:func:`mulogic.pattern.map_pattern`) over the one
pattern traversal, and the index procedure runs at bound-variable leaves.
Context bookkeeping:

* ``extend_env`` inserts sorts into a context at a split point and shifts
  the indices at or past it.
* ``bevar_subst(psi, p)`` locates the substituted slot purely from the
  context lengths: the slot is ``len(p.ex) - len(psi.ex) - 1``, which makes
  the decomposition ``p.ex == pre + (psi.sort,) + psi.ex`` unique whenever
  it exists at all.  ``bsvar_subst`` does the same on the mu context.
* ``fevar_subst``/``fsvar_subst`` require the replacement's contexts to be
  suffixes of the target's and weaken the replacement to the contexts of
  each occurrence, so no binder can capture its dangling indices.

Binders only ever prepend to a context, so a position counted from the end
of a context names the same slot at every node below the root.  That is
the one shift rule under binders; every operation here states its split
or slot that way (see :func:`mulogic.pattern.map_pattern`).
"""

from __future__ import annotations

from .errors import (
    BadSplitError,
    IndexOutOfScopeError,
    SlotNotFoundError,
    SortMismatchError,
)
from .pattern import (
    _BOUND,
    _CONTEXT,
    _FREE,
    EX,
    MU,
    Context,
    Pattern,
    map_pattern,
)
from .signature import ElemVar, SetVar, Sort


def _show(ctx: Context) -> list[str]:
    return [str(s) for s in ctx]


def _extend(
    p: Pattern, splits: tuple[int, int], inserts: tuple[Context, Context]
) -> Pattern:
    """Insert ``inserts[kind]`` into each context at ``splits[kind]``."""
    cuts = []
    for kind, ctx in enumerate((p.ex, p.mu)):
        split, insert = splits[kind], inserts[kind]
        if not 0 <= split <= len(ctx):
            raise BadSplitError(
                f"{_CONTEXT[kind]} split {split} exceeds context length {len(ctx)}"
            )
        if insert:
            cuts.append((kind, len(ctx) - split, 0, insert))
    if not cuts:
        return p

    def shift(node: Pattern, ex: Context, mu: Context) -> Pattern:
        for kind, tail, _, insert in cuts:
            if type(node) is _BOUND[kind]:
                i = node.index
                if i >= len((node.ex, node.mu)[kind]) - tail:
                    i += len(insert)
                return _BOUND[kind](node.sort, ex, mu, i)
        return node.rebuild(ex, mu, ())

    return map_pattern(p, shift, cuts)


def _weaken(psi: Pattern, kind: int, prefix: Context) -> Pattern:
    """``psi`` with ``prefix`` put in front of its context of ``kind``."""
    inserts = (prefix, ()) if kind == EX else ((), prefix)
    return _extend(psi, (0, 0), inserts)


def _align(psi: Pattern, kind: int, target: Context) -> Pattern:
    """Weaken ``psi``'s context of ``kind`` to ``target``, of which it must
    be a suffix."""
    ctx = (psi.ex, psi.mu)[kind]
    d = len(target) - len(ctx)
    if d < 0 or target[d:] != ctx:
        raise SlotNotFoundError(
            f"replacement {_CONTEXT[kind]} context {_show(ctx)} is not a "
            f"suffix of the target's {_show(target)}"
        )
    return _weaken(psi, kind, target[:d]) if d else psi


def _index_subst(kind: int, index: int, prefix: Context, psi: Pattern) -> Pattern:
    """Substitute bound variable ``index`` of ``kind``, read against the
    context ``prefix + (psi.sort,) + ctx`` where ``ctx`` is ``psi``'s
    context of that kind.

    The four-case procedure recurses on the context tail and re-extends
    the result by each dropped head sort; unrolled, an index before the
    slot stays, the slot itself becomes ``psi`` weakened by ``prefix``,
    and an index past the slot decrements.
    """
    ctx = (psi.ex, psi.mu)[kind]
    if not 0 <= index <= len(prefix) + len(ctx):
        raise IndexOutOfScopeError(
            f"index {index} out of scope in a context of length "
            f"{len(prefix) + 1 + len(ctx)}"
        )
    if index == len(prefix):
        return _weaken(psi, kind, prefix) if prefix else psi
    j = index if index < len(prefix) else index - 1
    ctxs = [psi.ex, psi.mu]
    ctxs[kind] = full = prefix + ctx
    return _BOUND[kind](full[j], *ctxs, j)


def _bound_subst(kind: int, psi: Pattern, p: Pattern) -> Pattern:
    """Replace the dangling bound variable of ``kind`` whose slot is given
    by the decomposition ``ctx == pre + (psi.sort,) + psi_ctx`` of ``p``'s
    context of that kind.

    Indices past the slot decrement; free variables are untouched; the
    result's context of that kind is ``pre + psi_ctx``.
    """
    other = 1 - kind
    ctx, psi_ctx = (p.ex, p.mu)[kind], (psi.ex, psi.mu)[kind]
    tail = len(psi_ctx)
    k = len(ctx) - tail - 1
    if k < 0 or ctx[k] != psi.sort or ctx[k + 1 :] != psi_ctx:
        raise SlotNotFoundError(
            f"target {_CONTEXT[kind]} context {_show(ctx)} does not decompose "
            f"around a {psi.sort} slot followed by {_show(psi_ctx)}"
        )
    psi = _align(psi, other, (p.ex, p.mu)[other])
    bound = _BOUND[kind]

    def replace(node: Pattern, ex: Context, mu: Context) -> Pattern:
        if type(node) is not bound:
            return node.rebuild(ex, mu, ())
        ctxs = (ex, mu)
        pre = ctxs[kind][: len(ctxs[kind]) - tail]
        return _index_subst(kind, node.index, pre, _align(psi, other, ctxs[other]))

    return map_pattern(p, replace, [(kind, tail, 1, ())])


def _free_subst(psi: Pattern, x: ElemVar | SetVar, p: Pattern) -> Pattern:
    """Replace every free occurrence of ``x`` in ``p`` by ``psi``, weakened
    to the occurrence's contexts; bound variables are untouched."""
    if psi.sort != x.sort:
        raise SortMismatchError(
            f"replacement of sort {psi.sort} cannot substitute {x}"
        )
    psi = _align(_align(psi, EX, p.ex), MU, p.mu)
    occurrence = _FREE[x._kind]

    def replace(node: Pattern, ex: Context, mu: Context) -> Pattern:
        if type(node) is occurrence and node.var == x:
            return _align(_align(psi, EX, ex), MU, mu)
        return node

    return map_pattern(p, replace)


def extend_env(
    p: Pattern,
    ex_split: int,
    ex_insert: tuple[Sort, ...] = (),
    mu_split: int = 0,
    mu_insert: tuple[Sort, ...] = (),
) -> Pattern:
    """Weakening: insert sorts into either context at a split point.

    Bound indices at or past the split are shifted by the insert length;
    nothing else changes (in particular the size is preserved).
    """
    return _extend(p, (ex_split, mu_split), (tuple(ex_insert), tuple(mu_insert)))


def index_subst(index: int, prefix: Context, psi: Pattern) -> Pattern:
    """Substitute bound element variable ``index`` read against the context
    ``prefix + (psi.sort,) + psi.ex`` (see :func:`_index_subst`)."""
    return _index_subst(EX, index, prefix, psi)


def index_subst_set(index: int, prefix: Context, psi: Pattern) -> Pattern:
    """:func:`index_subst` for bound set variables: the slot lives in the
    context ``prefix + (psi.sort,) + psi.mu``."""
    return _index_subst(MU, index, prefix, psi)


def bevar_subst(psi: Pattern, p: Pattern) -> Pattern:
    """Replace the dangling bound element variable whose slot is determined
    by the context decomposition ``p.ex == pre + (psi.sort,) + psi.ex``.

    Indices past the slot decrement; free variables are untouched; the
    result's ex context is ``pre + psi.ex``.
    """
    return _bound_subst(EX, psi, p)


def bsvar_subst(psi: Pattern, p: Pattern) -> Pattern:
    """:func:`bevar_subst` on the mu context."""
    return _bound_subst(MU, psi, p)


def fevar_subst(psi: Pattern, x: ElemVar, p: Pattern) -> Pattern:
    """Replace every free occurrence of ``x`` in ``p`` by ``psi``.

    ``psi``'s contexts must be suffixes of ``p``'s; it is weakened on the
    way down, so no binder can capture its dangling indices.  Bound
    variables are untouched.
    """
    return _free_subst(psi, x, p)


def fsvar_subst(psi: Pattern, x: SetVar, p: Pattern) -> Pattern:
    """:func:`fevar_subst` for free set variables."""
    return _free_subst(psi, x, p)
