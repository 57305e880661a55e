"""Seeded random generators for the property tests.

``random_pattern`` keeps a strict size budget: the result's node count
never exceeds ``budget`` (the cheapest always-available leaf, a top
expansion, costs 2 nodes).  With ``positive_only`` every bound set
variable is emitted under an even number of negations relative to its own
binder, so every mu binder in the output is positive.
"""

import itertools
import random

from mulogic import (
    And,
    App,
    CarrierSet,
    Defined,
    ElemVar,
    Exists,
    Mu,
    Not,
    Pattern,
    SetVar,
    Signature,
    Valuation,
    build_model,
    free_vars,
    mk_and,
    mk_app,
    mk_bound_evar,
    mk_bound_svar,
    mk_defined,
    mk_equals,
    mk_exists,
    mk_floor,
    mk_forall,
    mk_free_evar,
    mk_free_svar,
    mk_iff,
    mk_implies,
    mk_mu,
    mk_not,
    mk_nu,
    mk_or,
    mk_subseteq,
    mk_top,
)

VAR_NAMES = ("x", "y", "z", "w")


def random_signature(rng: random.Random, max_sorts: int = 3, max_symbols: int = 6) -> Signature:
    sig = Signature()
    sorts = [sig.declare_sort(f"S{i}") for i in range(rng.randint(1, max_sorts))]
    for i in range(rng.randint(1, max_symbols)):
        params = [rng.choice(sorts) for _ in range(rng.randint(0, 3))]
        sig.declare_symbol(f"f{i}", params, rng.choice(sorts))
    return sig


def random_model(rng: random.Random, sig: Signature, max_carrier: int = 4, density: float = 0.85):
    return build_model(sig, *random_model_data(rng, sig, max_carrier, density))


def random_model_data(rng: random.Random, sig: Signature, max_carrier: int = 4,
                      density: float = 0.85):
    """The label data of a ``random_model``: carriers and interpretation
    tables, by name, as ``build_model`` takes them."""
    carriers = {
        s.name: [f"e{i}" for i in range(rng.randint(1, max_carrier))]
        for s in sig.sorts
    }
    interps = {}
    for sym in sig.symbols:
        table = {}
        domains = [carriers[p.name] for p in sym.params]
        for combo in itertools.product(*domains):
            if rng.random() < density:
                table[combo] = [
                    label for label in carriers[sym.result.name] if rng.random() < 0.5
                ]
        interps[sym.name] = table
    return carriers, interps


# How ``random_term_model_data`` interprets each symbol.
SYMBOL_SHAPES = ("total", "partial", "relation")


def random_term_model_data(rng: random.Random, sig: Signature, max_carrier: int = 4):
    """The label data of a model whose symbols are, each drawn from
    ``SYMBOL_SHAPES``: total functions (every entry one element), partial
    functions (one element or none, at least one entry empty) or relations
    (at least one entry of two elements; only over a result carrier of two
    or more).  A 0-ary symbol is a constant of one element, of none or of
    two."""
    carriers = {
        s.name: [f"e{i}" for i in range(rng.randint(1, max_carrier))]
        for s in sig.sorts
    }
    interps = {}
    for sym in sig.symbols:
        labels = carriers[sym.result.name]
        shape = rng.choice(SYMBOL_SHAPES)
        if shape == "relation" and len(labels) < 2:
            shape = "partial"
        combos = list(itertools.product(*[carriers[p.name] for p in sym.params]))
        table = {combo: [rng.choice(labels)] for combo in combos}
        if shape == "partial":
            for combo in combos:
                if rng.random() < 0.3:
                    table[combo] = []
            table[rng.choice(combos)] = []
        elif shape == "relation":
            for combo in combos:
                if rng.random() < 0.3:
                    table[combo] = rng.sample(labels, rng.randint(0, len(labels)))
            table[rng.choice(combos)] = rng.sample(labels, 2)
        interps[sym.name] = table
    return carriers, interps


def random_term(rng: random.Random, sig: Signature, sort, ex=(), mu=(), depth: int = 3,
                allow_free: bool = True) -> Pattern:
    """A term of ``sort``: applications, nested up to ``depth`` deep, over
    the element variables of ``ex``, free element variables (with
    ``allow_free``) and constants.  One argument in twenty is instead the
    complement of a term, and one in ten a variable of ``mu`` where one
    has its sort."""
    ex, mu = tuple(ex), tuple(mu)
    apps = [sym for sym in sig.symbols if sym.result == sort and sym.params]
    if depth > 0 and apps and rng.random() < 0.6:
        symbol = rng.choice(apps)
        args = []
        for param in symbol.params:
            sets = [i for i, s in enumerate(mu) if s == param]
            roll = rng.random()
            if roll < 0.05:
                args.append(mk_not(random_term(rng, sig, param, ex, mu, depth - 1, allow_free)))
            elif roll < 0.15 and sets:
                args.append(mk_bound_svar(ex, mu, rng.choice(sets)))
            else:
                args.append(random_term(rng, sig, param, ex, mu, depth - 1, allow_free))
        return mk_app(sig, symbol, args)
    leaves = [mk_bound_evar(ex, mu, i) for i, s in enumerate(ex) if s == sort]
    leaves += [mk_app(sig, sym, [], ex, mu)
               for sym in sig.symbols if sym.result == sort and not sym.params]
    if allow_free or not leaves:
        leaves.append(mk_free_evar(ElemVar(rng.choice(VAR_NAMES), sort), ex, mu))
    return rng.choice(leaves)


def random_term_equation(rng: random.Random, sig: Signature) -> Pattern:
    """``\\equals`` of two ``random_term`` outputs of one sort: under up
    to three ``\\forall`` or ``\\exists`` binders whose variables the
    terms read, over free element variables, or both; now and then in a
    ``\\mu`` body that the terms may read, outside the binders."""
    sort, operand_sort = rng.choice(sig.sorts), rng.choice(sig.sorts)
    binders = [rng.choice(sig.sorts) for _ in range(rng.choice((0, 1, 2, 2, 3)))]
    ex = tuple(reversed(binders))  # the innermost binder first
    mu = ()
    if rng.random() < 0.3:  # of a sort that some symbol takes
        sort = rng.choice([param for sym in sig.symbols for param in sym.params] or [sort])
        mu = (sort,)
    allow_free = not binders or rng.random() < 0.3
    depth = rng.randint(1, 3)
    a = random_term(rng, sig, operand_sort, ex, mu, depth, allow_free)
    b = a if rng.random() < 0.05 else random_term(rng, sig, operand_sort, ex, mu, depth,
                                                     allow_free)
    p = mk_equals(sort, a, b)
    for binder in reversed(binders):
        p = (mk_forall if rng.random() < 0.7 else mk_exists)(binder, p)
    if mu:
        p = mk_mu(mk_or(p, mk_bound_svar((), mu, 0)))
    return p


def checked_model(model):
    """``model`` with each mask table replaced by a ``CheckedTable``."""
    model._masks = {symbol: CheckedTable(table, [model._full_mask(s) for s in symbol.params])
                    for symbol, table in model._masks.items()}
    return model


class CheckedTable(dict):
    """A mask table whose ``get`` asserts that each key component is 0 or
    one bit of its parameter's carrier, whose full masks are ``fulls``.
    The evaluator reads a table only through ``get``, lifts and the reads
    of a comparison included, so a value outside its carrier that reaches
    a table, even one a lookup would ignore, fails the test."""

    def __init__(self, table, fulls):
        super().__init__(table)
        self.fulls = fulls

    def get(self, key, default=None):
        assert len(key) == len(self.fulls) and all(
            not bits & (bits - 1) and bits & full == bits for bits, full in zip(key, self.fulls)
        ), (key, self.fulls)
        return super().get(key, default)


def random_context(rng: random.Random, sig: Signature, max_len: int = 3, min_len: int = 0):
    return tuple(rng.choice(sig.sorts) for _ in range(rng.randint(min_len, max_len)))


def random_pattern(
    rng: random.Random,
    sig: Signature,
    sort,
    ex=(),
    mu=(),
    budget: int = 12,
    allow_free: bool = True,
    positive_only: bool = False,
    parities=None,
    mu_depth: int = 2,
) -> Pattern:
    ex, mu = tuple(ex), tuple(mu)
    if parities is None:
        parities = tuple(0 for _ in mu)
    assert budget >= 2

    leaves = ["top"]
    if allow_free:
        leaves += ["fevar", "fsvar"]
    e_hits = [i for i, s in enumerate(ex) if s == sort]
    if e_hits:
        leaves.append("bevar")
    s_hits = [
        i
        for i, s in enumerate(mu)
        if s == sort and (not positive_only or parities[i] % 2 == 0)
    ]
    if s_hits:
        leaves.append("bsvar")
    constants = [sym for sym in sig.symbols if sym.result == sort and not sym.params]
    if constants:
        leaves.append("const")

    choices = list(leaves)
    if budget >= 3:
        choices += ["not", "exists", "defined"] * 2
        if mu_depth > 0:
            choices.append("mu")
    if budget >= 5:
        choices += ["and"] * 2
    applicable = [
        sym
        for sym in sig.symbols
        if sym.result == sort and sym.params and budget >= 1 + 2 * len(sym.params)
    ]
    if applicable:
        choices += ["app"] * 2

    kind = rng.choice(choices)
    recur = dict(
        allow_free=allow_free,
        positive_only=positive_only,
        mu_depth=mu_depth,
    )
    if kind == "top":
        return mk_top(sort, ex, mu)
    if kind == "fevar":
        return mk_free_evar(ElemVar(rng.choice(VAR_NAMES), sort), ex, mu)
    if kind == "fsvar":
        return mk_free_svar(SetVar(rng.choice(VAR_NAMES).upper(), sort), ex, mu)
    if kind == "bevar":
        return mk_bound_evar(ex, mu, rng.choice(e_hits))
    if kind == "bsvar":
        return mk_bound_svar(ex, mu, rng.choice(s_hits))
    if kind == "const":
        return mk_app(sig, rng.choice(constants), [], ex, mu)
    if kind == "not":
        body = random_pattern(
            rng, sig, sort, ex, mu, budget - 1,
            parities=tuple(p + 1 for p in parities), **recur,
        )
        return mk_not(body)
    if kind == "exists":
        binder = rng.choice(sig.sorts)
        body = random_pattern(
            rng, sig, sort, (binder,) + ex, mu, budget - 1,
            parities=parities, **recur,
        )
        return mk_exists(binder, body)
    if kind == "defined":
        body = random_pattern(
            rng, sig, rng.choice(sig.sorts), ex, mu, budget - 1,
            parities=parities, **recur,
        )
        return mk_defined(sort, body)
    if kind == "mu":
        body = random_pattern(
            rng, sig, sort, ex, (sort,) + mu, budget - 1,
            allow_free=allow_free, positive_only=positive_only,
            parities=(0,) + parities, mu_depth=mu_depth - 1,
        )
        return mk_mu(body)
    if kind == "and":
        left_budget = rng.randint(2, budget - 3)
        left = random_pattern(
            rng, sig, sort, ex, mu, left_budget, parities=parities, **recur
        )
        right = random_pattern(
            rng, sig, sort, ex, mu, budget - 1 - left_budget,
            parities=parities, **recur,
        )
        return mk_and(left, right)
    if kind == "app":
        symbol = rng.choice(applicable)
        shares = _split_budget(rng, budget - 1, len(symbol.params))
        args = [
            random_pattern(rng, sig, param, ex, mu, share, parities=parities, **recur)
            for param, share in zip(symbol.params, shares)
        ]
        return mk_app(sig, symbol, args)
    raise AssertionError(kind)


def _split_budget(rng: random.Random, total: int, parts: int):
    shares = [2] * parts
    spare = total - 2 * parts
    for _ in range(spare):
        shares[rng.randrange(parts)] += 1
    return shares


def random_positive_mu(rng: random.Random, sig: Signature, budget: int = 10) -> Pattern:
    """A closed mu pattern in which every binder is positive."""
    sort = rng.choice(sig.sorts)
    body = random_pattern(
        rng, sig, sort, (), (sort,), budget,
        allow_free=False, positive_only=True, parities=(0,), mu_depth=1,
    )
    return mk_mu(body)


def random_nested_fixpoint(rng: random.Random, sig: Signature, depth: int = 3) -> Pattern:
    """A closed pattern of ``depth`` nested binders, each a ``mk_mu``, a
    ``mk_nu`` or a ``mk_exists``, in which every mu binder is positive.

    Each binder's body joins a small random pattern, a read of its own
    variable, a read of an enclosing binder's variable and the next
    binder, which may sit under a negation, a symbol or a definedness.  A
    set variable occurs under an even number of negations relative to its
    own binder, but at either parity relative to an inner fixpoint (a
    ``mk_nu`` adds one), so inner fixpoints come out monotone or antitone
    in the outer ones."""
    return _binder_chain(rng, sig, rng.choice(sig.sorts), (), (), (), depth)


def _binder_chain(rng, sig, sort, ex, mu, parities, depth) -> Pattern:
    kind = rng.choice(("mu", "nu", "mu", "nu", "exists"))
    if kind == "exists":
        ex = (rng.choice(sig.sorts),) + ex
        own = [mk_bound_evar(ex, mu, 0)]
    else:
        mu, parities = (sort,) + mu, (0,) + parities
        own = [mk_bound_svar(ex, mu, 0)]
    outer = [mk_bound_evar(ex, mu, i) for i in range(kind == "exists", len(ex))]
    outer += [mk_bound_svar(ex, mu, i) for i, p in enumerate(parities)
              if p % 2 == 0 and (i or kind == "exists")]
    body = random_pattern(
        rng, sig, sort, ex, mu, rng.randint(2, 3),
        allow_free=False, positive_only=True, parities=parities, mu_depth=0,
    )
    for leaves in (own, outer):
        if leaves:
            read = _read_as(rng, sig, sort, rng.choice(leaves))
            body = mk_or(body, read) if rng.random() < 0.6 else mk_and(body, read)
    if depth > 1:
        unary = [sym for sym in sig.symbols if sym.result == sort and len(sym.params) == 1]
        join = rng.choice(("and", "or", "app", "defined") if unary else ("and", "or", "defined"))
        inner_sort = sort
        if join == "app":
            symbol = rng.choice(unary)
            inner_sort = symbol.params[0]
        elif join == "defined":
            inner_sort = rng.choice(sig.sorts)
        negated = rng.random() < 0.5
        inner = _binder_chain(
            rng, sig, inner_sort, ex, mu,
            tuple(p + negated for p in parities), depth - 1,
        )
        if negated:
            inner = mk_not(inner)
        if join == "app":
            inner = mk_app(sig, symbol, [inner])
        elif join == "defined":
            inner = mk_defined(sort, inner)
        body = mk_or(body, inner) if join == "or" else mk_and(body, inner)
    if kind == "exists":
        return mk_exists(ex[0], body)
    return mk_mu(body) if kind == "mu" else mk_nu(body)


def _read_as(rng, sig, sort, leaf) -> Pattern:
    """``leaf`` as a pattern of ``sort``: through a symbol when one leads
    from its sort to ``sort``, else as itself or through a definedness."""
    unary = [sym for sym in sig.symbols if sym.params == (leaf.sort,) and sym.result == sort]
    if unary and rng.random() < 0.4:
        return mk_app(sig, rng.choice(unary), [leaf])
    if leaf.sort == sort:
        return leaf
    return mk_defined(sort, leaf)


# The cold roots ``random_warm_chain`` puts a chain under: each runs the
# chain's root more than once.
WARM_ROOTS = ("exists", "free", "nu")


def random_warm_chain(rng: random.Random, sig: Signature) -> tuple[str, Pattern]:
    """A chain of 3 to 5 nested binders, all ``mk_mu`` or all ``mk_nu``,
    whose bodies are positive in every variable of the chain, under a
    root drawn from ``WARM_ROOTS``; with the root's name.  Each binder
    below the chain's first reads its parent's variable, so under
    ``iterate`` it is a warm μ, except that one in seven sits in an
    ``\\exists`` whose variable it reads, and starts a chain of its own.

    The chain's first binder is a cold μ that runs more than once, and
    reads nothing that ascends while it does.  Under an ``\\exists``
    whose variable it reads, the pattern is the union of the chain's
    complement or, as a ``\\forall``, the intersection of the chain, so
    that a value left over from an earlier tick shows (a union of the
    chain would hide it).  Over a free variable that it reads, the
    pattern is an axiom of membership or non-membership of an element
    variable, or of inclusion of a set variable, so that a check passes
    some valuations before its first failure.  Under a ``\\nu`` whose
    variable it reads, a chain of ``mk_mu`` binders is reached under the
    ``\\nu``'s negation and runs once per round of the ``\\nu``; a
    chain of ``mk_nu`` binders extends the ``\\nu``'s own chain."""
    root, sort = rng.choice(WARM_ROOTS), rng.choice(sig.sorts)
    binder = rng.choice((mk_mu, mk_mu, mk_nu))
    depth = rng.randint(3, 5)
    if root == "exists":
        ex = (rng.choice(sig.sorts),)
        chain = _warm_link(rng, sig, sort, ex, (), depth, binder, _exists_read(rng, ex))
        if rng.random() < 0.5:
            return root, mk_forall(ex[0], chain)
        return root, mk_exists(ex[0], mk_not(chain))
    if root == "nu":
        def cold(ex, mu):
            return mk_bound_svar(ex, mu, len(mu) - 1)

        return root, mk_nu(_warm_link(rng, sig, sort, (), (sort,), depth, binder, cold))
    var = ElemVar("x", sort) if rng.random() < 0.7 else SetVar("X", sort)
    free = mk_free_evar if isinstance(var, ElemVar) else mk_free_svar

    def cold(ex, mu):
        leaf = free(var, ex, mu)
        return mk_not(leaf) if rng.random() < 0.3 else leaf

    chain = _warm_link(rng, sig, sort, (), (), depth, binder, cold)
    if isinstance(var, SetVar):
        return root, mk_subseteq(sort, free(var), chain)
    member = mk_defined(sort, mk_and(free(var), chain))
    return root, member if rng.random() < 0.5 else mk_not(member)


def _exists_read(rng, ex):
    """A read, from any context inside it, of the variable of the
    ``\\exists`` whose body's ex context is ``ex``, now and then negated."""
    def read(inner_ex, mu):
        leaf = mk_bound_evar(inner_ex, mu, len(inner_ex) - len(ex))
        return mk_not(leaf) if rng.random() < 0.3 else leaf

    return read


def _warm_link(rng, sig, sort, ex, mu, depth, binder, cold, first=True) -> Pattern:
    """A binder of ``random_warm_chain`` and the ``depth - 1`` below it.

    Its body reads its own variable, now and then an outer binder's, the
    root's variable ``cold(ex, mu)`` (always in the ``first`` binder of a
    chain, now and then below) and the next binder.  Mostly these are
    shared out between a seed and the arguments of a step, an application
    that reads at least its own variable: ``\\or(seed, f(...))``, a closure
    under ``f`` whose fixpoint depends on where the seed starts it.  Now
    and then a small positive pattern joins in."""
    mu = (sort,) + mu
    leaves = [mk_bound_svar(ex, mu, 0)]
    if not first:  # the parent's variable, so that this binder is placed in its body
        leaves.append(mk_bound_svar(ex, mu, 1))
    if len(mu) > 2 and rng.random() < 0.3:
        leaves.append(mk_bound_svar(ex, mu, rng.randrange(2, len(mu))))
    if first or rng.random() < 0.3:
        leaves.append(cold(ex, mu))
    if depth > 1:
        inner_sort = sort if rng.random() < 0.7 else rng.choice(sig.sorts)
        if rng.random() < 1 / 7:
            inner_ex = (rng.choice(sig.sorts),) + ex
            leaves.append(mk_exists(inner_ex[0], _warm_link(
                rng, sig, inner_sort, inner_ex, mu, depth - 1, binder, _exists_read(rng, inner_ex))))
        else:
            leaves.append(_warm_link(rng, sig, inner_sort, ex, mu, depth - 1, binder, cold, False))
    steps = [sym for sym in sig.symbols if sym.result == sort and sym.params]
    if steps and rng.random() < 0.8:
        symbol = rng.choice(steps)
        seed, groups = [], [[] for _ in symbol.params]
        groups[rng.randrange(len(groups))].append(leaves[0])
        for leaf in leaves[1:]:
            (seed if rng.random() < 0.4 else rng.choice(groups)).append(leaf)
        step = mk_app(sig, symbol, [
            _joined(rng, sig, param, ex, mu, group) for param, group in zip(symbol.params, groups)])
        body = mk_or(_joined(rng, sig, sort, ex, mu, seed), step) if seed else step
    else:
        body = _joined(rng, sig, sort, ex, mu, leaves)
    if rng.random() < 0.15:
        filler = random_pattern(rng, sig, sort, ex, mu, rng.randint(2, 3), allow_free=False,
                                positive_only=True, parities=(0,) * len(mu), mu_depth=0)
        body = mk_or(body, filler) if rng.random() < 0.5 else mk_and(body, filler)
    return binder(body)


def _joined(rng, sig, sort, ex, mu, leaves) -> Pattern:
    """The union of ``leaves``, each read as a pattern of ``sort``; a read
    of a set variable of ``mu`` when there are none."""
    if not leaves:
        leaves = [mk_bound_svar(ex, mu, rng.randrange(len(mu)))]
    joined = _read_as(rng, sig, sort, leaves[0])
    for leaf in leaves[1:]:
        joined = mk_or(joined, _read_as(rng, sig, sort, leaf))
    return joined


# What ``random_equality`` builds around its operands A and B: the derived
# equality, drawn three times as often as each near miss of its core shape.
EQUALITY_SHAPES = ("equals", "equals", "equals", "subseteq", "iff", "ceil-not-iff",
                   "floor-chain", "shared-iff")


def random_equality(rng: random.Random, sig: Signature, budget: int = 6) -> tuple[str, Pattern]:
    """A pattern with no dangling bound variable that holds one derived
    ``\\equals`` or one near miss of its core shape, with the shape's name.

    Operands are ``random_pattern`` outputs, their complements, free
    variables, or the same object on both sides; their sort may differ
    from the result sort.  The shape stands alone, under an ``\\exists``
    or ``\\forall`` whose variable its operands may read, or in a ``\\mu``
    body that also reads the binder's variable positively (operands that
    read it make the binder non-positive).  Near misses: ``\\subseteq``, a
    bare ``\\iff``, ``\\ceil(\\not(\\iff(A, B)))``, conjoined with ``\\top``
    so that no ``\\not`` a wrapper puts above it completes it into a
    floor, a floor over ``\\and(\\implies(A, B), \\implies(B, C))``, and a
    floor over an iff object that a ``\\ceil`` reads too."""
    shape = rng.choice(EQUALITY_SHAPES)
    sort, operand_sort = rng.choice(sig.sorts), rng.choice(sig.sorts)
    own_sort = operand_sort if shape == "iff" else sort
    wrapper = rng.choice(("none", "exists", "forall", "mu"))
    ex, mu = (), ()
    if wrapper in ("exists", "forall"):
        ex = (operand_sort if rng.random() < 0.7 else rng.choice(sig.sorts),)
    elif wrapper == "mu":
        mu = (own_sort,)

    def operand() -> Pattern:
        kind = rng.choice(("pattern", "pattern", "not", "free"))
        if kind == "free":
            name = rng.choice(VAR_NAMES)
            if rng.random() < 0.5:
                return mk_free_evar(ElemVar(name, operand_sort), ex, mu)
            return mk_free_svar(SetVar(name.upper(), operand_sort), ex, mu)
        p = random_pattern(rng, sig, operand_sort, ex, mu, rng.randint(2, budget), mu_depth=1)
        return mk_not(p) if kind == "not" else p

    a = operand()
    b = rng.choice((a, mk_not(a), operand(), operand(), operand()))
    if shape == "equals":
        core = mk_equals(sort, a, b)
    elif shape == "subseteq":
        core = mk_subseteq(sort, a, b)
    elif shape == "iff":
        core = mk_iff(a, b)
    elif shape == "ceil-not-iff":
        # a \not that a wrapper puts straight above it would make it a floor
        core = mk_and(mk_defined(sort, mk_not(mk_iff(a, b))), mk_top(sort, ex, mu))
    elif shape == "floor-chain":
        core = mk_floor(sort, mk_and(mk_implies(a, b), mk_implies(b, operand())))
    else:
        iff = mk_iff(a, b)
        core = mk_and(mk_floor(sort, iff), mk_defined(sort, iff))
    if wrapper == "exists":
        return shape, mk_exists(ex[0], core)
    if wrapper == "forall":
        return shape, mk_forall(ex[0], core)
    if wrapper == "mu":
        return shape, mk_mu(mk_or(core, mk_bound_svar(ex, mu, 0)))
    return shape, core


def random_valuation(rng: random.Random, model, pattern: Pattern) -> Valuation:
    """Bind every free variable of ``pattern`` to random model data."""
    evars, svars = free_vars(pattern)
    rho = Valuation.empty()
    for var in sorted(evars, key=lambda v: (v.name, v.sort.id)):
        rho = rho.update_evar(var, rng.choice(model.carrier(var.sort)))
    for var in sorted(svars, key=lambda v: (v.name, v.sort.id)):
        n = model.carrier_size(var.sort)
        rho = rho.update_svar(var, CarrierSet(var.sort, n, rng.randrange(1 << n)))
    return rho


def iter_nodes(p: Pattern):
    yield p
    if isinstance(p, App):
        for a in p.args:
            yield from iter_nodes(a)
    elif isinstance(p, And):
        yield from iter_nodes(p.left)
        yield from iter_nodes(p.right)
    elif isinstance(p, (Not, Exists, Mu, Defined)):
        yield from iter_nodes(p.body)
