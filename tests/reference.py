"""The reference the compiled evaluator is checked against.

A plain recursive reading of the semantics over de Bruijn environments:
each node is denoted from its children's denotations, an ``Exists`` is the
union of its body over the carrier with the element pushed at index 0, and
a ``Mu`` hands its body, with the set pushed at index 0, to
``ref_lfp_iterate`` or ``ref_lfp_prefixpoints`` as a ``CarrierSet`` step
function.  Those are loops of their own over ``CarrierSet``s, and a symbol
is applied by ``ref_apply``, a lift of its own over the element-keyed
view ``FiniteModel.interp``, so the reference shares the model's stored
tables with the compiled evaluator, but neither its register loops nor
its lift.  ``ref_tables`` builds those element-keyed tables again from
the label data of ``build_model``, to check the stored ones.  Nothing is
shared, placed or hoisted, so it recurses once per node and suits only the
shallow patterns of the tests.  ``ref_check_axiom`` builds a
``Valuation`` per valuation in ``itertools.product`` order.

Positivity comes from ``ref_facts`` and free variables from
``ref_free_var_sets``, walks of their own that read no facts stored on
the nodes.  ``ref_equal`` and ``ref_repr`` are plain recursions over each
node kind's fields, the reading of ``==`` and ``repr`` that a dataclass
would generate.  Bindings are checked, and valuations enumerated, with the
element variables first and then the set variables, each sorted by name
and sort id.

``ref_tokenize`` is the text frontend's earlier tokenizer, kept as the
oracle for ``parser.tokenize``: a ``match`` loop from a running position
with its own copy of the token regex, counting columns as it goes.

``ref_well_sorted`` is the sorting judgement, one rule per node kind,
written out for each kind without the kernel's sharing of rules between
the ex and mu kinds.  It reads a node's children only for their sorts and
contexts.

``ref_extend_env``, ``ref_free_subst`` and ``ref_bound_subst`` are the
context extension and the free- and bound-variable substitutions of
``mulogic.subst``, each a plain recursion from the root that counts the
binders of each kind it has passed: a bound variable points into the
context the operation edits when its index is at least that count.  The
replacement is weakened by ``ref_weaken``, an extension at the front, with
the same count.  ``ref_index_subst`` is the index procedure as the
four-case recursion on the prefix that ``mulogic.subst`` unrolls.  A
refusal is raised as the ``MuLogicError`` subclass that names it, with
messages of their own.
"""

from __future__ import annotations

import itertools
import math
import re
import warnings

from mulogic import (
    And,
    App,
    AxiomResult,
    BoundEVar,
    BoundSVar,
    CarrierSet,
    Defined,
    ElemVar,
    Exists,
    FreeEVar,
    FreeSVar,
    Mu,
    Not,
    Pattern,
    Valuation,
    Verdict,
)
from mulogic.pattern import walk
from mulogic.errors import (
    BadSplitError,
    CarrierTooLargeError,
    IndexOutOfScopeError,
    NonPositiveMuError,
    NonPositiveMuWarning,
    NotClosedError,
    SlotNotFoundError,
    SortMismatchError,
    StateSpaceTooLargeError,
    UnboundFreeVariableError,
)


def ref_eval_pattern(model, rho, p, lfp_mode="iterate", prefix_cap=20):
    _check(p, lfp_mode)
    evs, svs = _ordered_free_vars(p)
    for var in (*evs, *svs):
        if not rho.binds(var):
            raise UnboundFreeVariableError(var, f"{var} is not bound")
    return _denote(model, rho, p, (), (), lfp_mode, prefix_cap)


def ref_check_axiom(model, axiom, lfp_mode="iterate", prefix_cap=20, state_cap=10**6):
    evar_list, svar_list = _ordered_free_vars(axiom.pattern)
    count = math.prod(model.carrier_size(v.sort) for v in evar_list) * math.prod(
        2 ** model.carrier_size(v.sort) for v in svar_list
    )
    if count > state_cap:
        raise StateSpaceTooLargeError(
            f"axiom {axiom.label!r} needs {count} valuation{'' if count == 1 else 's'}, "
            f"more than the cap of {state_cap}"
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


def _ordered_free_vars(p):
    evars, svars = ref_free_vars(p)
    def key(v):
        return v.name, v.sort.id
    return sorted(evars, key=key), sorted(svars, key=key)


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
    ``p``, from one walk, in the layout the nodes store: the ex indices the
    node reads and the mu indices it reads under an even and an odd number
    of negations, as bitmasks relative to the node; whether it reads a free
    variable; whether every mu binder below it is positive (bit 0 of its
    body's odd mask is clear)."""
    facts = {}
    for node, kids in walk(p):
        if kids is None:
            continue
        kind = type(node)
        if kind is BoundEVar:
            facts[id(node)] = (1 << node.index, 0, 0, False, True)
        elif kind is BoundSVar:
            facts[id(node)] = (0, 1 << node.index, 0, False, True)
        elif kind in (FreeEVar, FreeSVar):
            facts[id(node)] = (0, 0, 0, True, True)
        else:
            ex = even = odd = 0
            free, positive = False, True
            for kid in kids:
                e, v, o, f, pos = facts[id(kid)]
                ex, even, odd = ex | e, even | v, odd | o
                free = free or f
                positive = positive and pos
            if kind is Not:
                even, odd = odd, even
            elif kind is Exists:
                ex >>= 1
            elif kind is Mu:
                positive = positive and not odd & 1
                even, odd = even >> 1, odd >> 1
            facts[id(node)] = (ex, even, odd, free, positive)
    return facts


# the fields after (sort, ex, mu) of each node kind, in declaration order
_FIELDS = {
    FreeEVar: ("var",), FreeSVar: ("var",), BoundEVar: ("index",), BoundSVar: ("index",),
    App: ("symbol", "args"), Not: ("body",), And: ("left", "right"),
    Exists: ("binder_sort", "body"), Mu: ("body",), Defined: ("body",),
}


def _fields(p):
    return [(name, getattr(p, name)) for name in ("sort", "ex", "mu", *_FIELDS[type(p)])]


def ref_equal(p, q):
    """Same kind and equal fields, subpatterns compared recursively."""
    if type(p) is not type(q):
        return False
    for (name, a), (_, b) in zip(_fields(p), _fields(q)):
        if name == "args":
            if len(a) != len(b) or not all(map(ref_equal, a, b)):
                return False
        elif isinstance(a, Pattern):
            if not ref_equal(a, b):
                return False
        elif a != b:
            return False
    return True


def ref_repr(p):
    """``Kind(field=value, ...)``, subpatterns written recursively."""
    parts = []
    for name, value in _fields(p):
        if name == "args":
            text = "(" + ", ".join(map(ref_repr, value)) + ("," if len(value) == 1 else "") + ")"
        elif isinstance(value, Pattern):
            text = ref_repr(value)
        else:
            text = repr(value)
        parts.append(f"{name}={text}")
    return f"{type(p).__name__}({', '.join(parts)})"


def ref_free_var_sets(p):
    """``id(node) -> (evars, svars)``, the free element and set variables
    of every node of ``p``, from one walk."""
    sets = {}
    for node, kids in walk(p):
        if kids is None:
            continue
        evars, svars = set(), set()
        if type(node) is FreeEVar:
            evars.add(node.var)
        elif type(node) is FreeSVar:
            svars.add(node.var)
        for kid in kids:
            e, s = sets[id(kid)]
            evars |= e
            svars |= s
        sets[id(node)] = (frozenset(evars), frozenset(svars))
    return sets


def ref_free_vars(p):
    return ref_free_var_sets(p)[id(p)]


def _denote(model, rho, p, exs, mus, mode, cap):
    def sub(q, exs=exs, mus=mus):
        return _denote(model, rho, q, exs, mus, mode, cap)

    kind = type(p)
    if kind is App:
        return ref_apply(model, p.symbol, [sub(a) for a in p.args])
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
            return ref_lfp_iterate(step, model, p.sort)
        return ref_lfp_prefixpoints(step, model, p.sort, cap)
    raise TypeError(f"unexpected pattern node {p!r}")


def ref_apply(model, symbol, arg_sets):
    """The union of the symbol's table entries over every tuple of
    elements drawn from the argument sets, one element each."""
    table = model.interp(symbol).table
    out = model.empty_set(symbol.result)
    members = [[m for m in model.carrier(a.sort) if a.contains(m)] for a in arg_sets]
    for elems in itertools.product(*members):
        if elems in table:
            out = out | table[elems]
    return out


def ref_tables(model, carriers, interps):
    """Each symbol's element-keyed table, built from the label data that
    ``model`` was built from: a result's bits come from each label's
    position in its carrier list, and an argument element is found by
    label with ``model.elem``.  A tuple listed with an empty value is left
    out, as an unlisted one is."""
    out = {}
    for symbol in model.signature.symbols:
        result = carriers[symbol.result.name]
        table = {}
        for args, values in interps.get(symbol.name, {}).items():
            bits = sum({1 << result.index(label) for label in values})
            if bits:
                elems = tuple(model.elem(p, label) for p, label in zip(symbol.params, args))
                table[elems] = CarrierSet(symbol.result, len(result), bits)
        out[symbol] = table
    return out


def ref_lfp_iterate(step, model, sort):
    """Kleene iteration from the empty set, for at most one more step
    than the carrier has elements."""
    current = model.empty_set(sort)
    for _ in range(model.carrier_size(sort) + 1):
        following = step(current)
        if following == current:
            return current
        current = following
    raise NonPositiveMuError(
        f"fixpoint iteration over {sort} did not converge; "
        "the step function is not monotone"
    )


def ref_lfp_prefixpoints(step, model, sort, cap=20):
    """The intersection of every subset ``A`` of the carrier with
    ``step(A)`` a subset of ``A``."""
    carrier = model.carrier(sort)
    n = len(carrier)
    if n > cap:
        raise CarrierTooLargeError(
            f"carrier of {sort} has {n} elements; enumerating 2^{n} subsets "
            f"exceeds the cap of {cap}"
        )
    out = model.full_set(sort)
    for size in range(n + 1):
        for elems in itertools.combinations(carrier, size):
            a = model.set_of(sort, elems)
            if step(a).issubset(a):
                out = out & a
    return out


_REF_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<comment>//[^\n]*)
  | (?P<keyword>\\[A-Za-z]+)
  | (?P<arrow>->)
  | (?P<bevar>b\d+(?![A-Za-z0-9_']))
  | (?P<bsvar>B\d+(?![A-Za-z0-9_']))
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*(?:-(?!>)[A-Za-z0-9_']+)*)
  | (?P<number>\d[A-Za-z0-9_]*)
  | (?P<eq>=)
  | (?P<punct>[(){}\[\],:#])
    """,
    re.VERBOSE,
)


def ref_tokenize(text):
    """``(kind, text, line, col)`` per token, or the ``(code, span,
    message)`` of the first lex or reserved-name diagnostic."""
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if m is None:
            return ("lex", (line, col, 1), f"unexpected character {text[pos]!r}")
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind == "name" and re.search(r"'\d+$", value):
                return ("reserved-name", (line, col, len(value)),
                        f"identifier {value!r} is reserved: no name may "
                        "end in a quote followed by digits")
            if kind not in ("ws", "comment"):
                tokens.append((kind, value, line, col))
            col += len(value)
        pos = m.end()
    return tokens


def ref_well_sorted(kind, sort, ex, mu, *fields):
    """True iff a node of ``kind`` (its class name) with ``sort``, contexts
    ``ex`` and ``mu`` and the remaining constructor ``fields`` is well
    sorted and well scoped."""

    def fits(child, child_ex=ex, child_mu=mu):
        return child.ex == child_ex and child.mu == child_mu

    if kind == "FreeEVar":
        (var,) = fields
        return var.sort == sort
    if kind == "FreeSVar":
        (var,) = fields
        return var.sort == sort
    if kind == "BoundEVar":
        (index,) = fields
        return 0 <= index < len(ex) and ex[index] == sort
    if kind == "BoundSVar":
        (index,) = fields
        return 0 <= index < len(mu) and mu[index] == sort
    if kind == "App":
        symbol, args = fields
        return (len(args) == len(symbol.params) and sort == symbol.result
                and all(a.sort == s and fits(a) for a, s in zip(args, symbol.params)))
    if kind == "Not":
        (body,) = fields
        return body.sort == sort and fits(body)
    if kind == "And":
        left, right = fields
        return left.sort == right.sort == sort and fits(left) and fits(right)
    if kind == "Exists":
        binder_sort, body = fields
        return body.sort == sort and fits(body, (binder_sort,) + ex, mu)
    if kind == "Mu":
        (body,) = fields
        return body.sort == sort and fits(body, ex, (sort,) + mu)
    if kind == "Defined":
        (body,) = fields
        return fits(body)
    raise ValueError(f"unknown node kind {kind!r}")


def _ref_rebuild(p, ex, mu, leaf, dex=0, dmu=0):
    """``p`` rebuilt through the constructors with the contexts ``ex`` and
    ``mu`` at its root, each binder prepending its sort to its body's
    context of its kind, and each variable leaf replaced by ``leaf(node,
    ex, mu, dex, dmu)``: ``dex`` and ``dmu`` count the ``Exists`` and
    ``Mu`` binders above the leaf."""
    kind = type(p)
    if kind is Exists:
        body = _ref_rebuild(p.body, (p.binder_sort, *ex), mu, leaf, dex + 1, dmu)
        return Exists(p.sort, ex, mu, p.binder_sort, body)
    if kind is Mu:
        return Mu(p.sort, ex, mu, _ref_rebuild(p.body, ex, (p.sort, *mu), leaf, dex, dmu + 1))

    def sub(q):
        return _ref_rebuild(q, ex, mu, leaf, dex, dmu)

    if kind is App:
        return App(p.sort, ex, mu, p.symbol, tuple(map(sub, p.args)))
    if kind is Not:
        return Not(p.sort, ex, mu, sub(p.body))
    if kind is Defined:
        return Defined(p.sort, ex, mu, sub(p.body))
    if kind is And:
        return And(p.sort, ex, mu, sub(p.left), sub(p.right))
    return leaf(p, ex, mu, dex, dmu)


def _ref_moved(node, ex, mu, index=None):
    """The variable leaf ``node`` with the contexts ``ex`` and ``mu``, and
    for a bound variable ``index`` in place of its own when given."""
    kind = type(node)
    if kind in (FreeEVar, FreeSVar):
        return kind(node.sort, ex, mu, node.var)
    return kind(node.sort, ex, mu, node.index if index is None else index)


def _ref_head(ctx, tail):
    """``ctx`` without ``tail`` at its end; a ``SlotNotFoundError`` when
    ``ctx`` does not end in ``tail``."""
    cut = len(ctx) - len(tail)
    if cut < 0 or ctx[cut:] != tail:
        raise SlotNotFoundError(f"context {list(ctx)} does not end in {list(tail)}")
    return ctx[:cut]


def ref_extend_env(p, ex_split, ex_insert=(), mu_split=0, mu_insert=()):
    """``extend_env``: ``ex_insert`` goes into ``p.ex`` before position
    ``ex_split``, and ``mu_insert`` into ``p.mu`` before ``mu_split``, each
    split lying in ``0..len`` of its context.  A bound variable whose index
    reaches past the binders above it and the sorts before the split moves
    past the inserted sorts."""
    for ctx, split in ((p.ex, ex_split), (p.mu, mu_split)):
        if not 0 <= split <= len(ctx):
            raise BadSplitError(f"split {split} lies outside the context {list(ctx)}")

    def leaf(node, ex, mu, dex, dmu):
        if type(node) is BoundEVar and node.index >= dex + ex_split:
            return _ref_moved(node, ex, mu, node.index + len(ex_insert))
        if type(node) is BoundSVar and node.index >= dmu + mu_split:
            return _ref_moved(node, ex, mu, node.index + len(mu_insert))
        return _ref_moved(node, ex, mu)

    ex = (*p.ex[:ex_split], *ex_insert, *p.ex[ex_split:])
    mu = (*p.mu[:mu_split], *mu_insert, *p.mu[mu_split:])
    return _ref_rebuild(p, ex, mu, leaf)


def ref_weaken(psi, ex_head, mu_head):
    """``psi`` with ``ex_head`` and ``mu_head`` put in front of its
    contexts."""
    return ref_extend_env(psi, 0, ex_head, 0, mu_head)


def ref_index_subst(kind, index, prefix, psi):
    """``index_subst`` (``kind`` is ``BoundEVar``) or ``index_subst_set``
    (``BoundSVar``): bound variable ``index`` of the context ``prefix +
    (psi.sort,)`` followed by ``psi``'s context of that kind, with the slot
    replaced by ``psi``.  The four-case recursion on ``prefix``: with no
    prefix, index 0 is ``psi`` and a later index the variable before it;
    with a head sort, index 0 is the variable of that sort and a later
    index is the result for the tail, weakened by the head."""
    on_ex = kind is BoundEVar
    own = psi.ex if on_ex else psi.mu
    if not 0 <= index <= len(prefix) + len(own):
        raise IndexOutOfScopeError(f"index {index} lies outside {len(prefix) + 1 + len(own)} slots")

    def bound(ctx, i):
        return kind(ctx[i], *((ctx, psi.mu) if on_ex else (psi.ex, ctx)), i)

    if not prefix:
        return psi if index == 0 else bound(own, index - 1)
    if index == 0:
        return bound((*prefix, *own), 0)
    inner = ref_index_subst(kind, index - 1, prefix[1:], psi)
    return ref_weaken(inner, *(((prefix[0],), ()) if on_ex else ((), (prefix[0],))))


def ref_free_subst(psi, x, p):
    """``fevar_subst``/``fsvar_subst``: every free occurrence of ``x`` in
    ``p`` (a ``FreeEVar`` for an element variable, a ``FreeSVar`` for a
    set variable) becomes ``psi``, weakened to the occurrence's contexts.
    ``psi`` must have the sort of ``x`` and contexts that end ``p``'s."""
    if psi.sort != x.sort:
        raise SortMismatchError(f"{x} cannot be replaced by a pattern of sort {psi.sort}")
    _ref_head(p.ex, psi.ex)
    _ref_head(p.mu, psi.mu)
    occurrence = FreeEVar if isinstance(x, ElemVar) else FreeSVar

    def leaf(node, ex, mu, dex, dmu):
        if type(node) is occurrence and node.var == x:
            return ref_weaken(psi, _ref_head(ex, psi.ex), _ref_head(mu, psi.mu))
        return node

    return _ref_rebuild(p, p.ex, p.mu, leaf)


def ref_bound_subst(kind, psi, p):
    """``bevar_subst`` (``kind`` is ``BoundEVar``) or ``bsvar_subst``
    (``BoundSVar``): ``p``'s context of that kind must read ``head +
    (psi.sort,)`` followed by ``psi``'s, and ``psi``'s other context must
    end ``p``'s.  The slot leaves every context; a variable of ``kind``
    that points at it becomes ``psi``, weakened to its contexts, and one
    that points past it moves down by one."""
    on_ex = kind is BoundEVar
    own = psi.ex if on_ex else psi.mu
    head = _ref_head(p.ex if on_ex else p.mu, (psi.sort, *own))
    _ref_head(p.mu if on_ex else p.ex, psi.mu if on_ex else psi.ex)

    def leaf(node, ex, mu, dex, dmu):
        if type(node) is not kind:
            return _ref_moved(node, ex, mu)
        slot = (dex if on_ex else dmu) + len(head)
        if node.index == slot:
            return ref_weaken(psi, _ref_head(ex, psi.ex), _ref_head(mu, psi.mu))
        return _ref_moved(node, ex, mu, node.index - (node.index > slot))

    if on_ex:
        return _ref_rebuild(p, (*head, *own), p.mu, leaf)
    return _ref_rebuild(p, p.ex, (*head, *own), leaf)
