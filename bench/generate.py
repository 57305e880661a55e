"""Seeded generator of benchmark inputs: natbool-n theories, models and
patterns as mulogic text, each paired with the answer mulogic must give.

Every expected answer is computed here from the generator's own integer
tables, never by mulogic: reachable sets by breadth-first search over the
successor table, ``plus`` identities by integer arithmetic, and planted
violations by enumerating valuations in carrier declaration order, which is
the order in which ``check_axiom`` reports its first witness.  This module
imports nothing from mulogic.

The seed changes what the inputs say (carrier order, which table entry is
perturbed, which elements a planted axiom singles out, the successor chain,
the leaves of nested ``\\equals``) but not how much work they are: sizes are
fixed by the caller, numerals and chain lengths do not depend on the seed,
and planted witnesses sit at fixed carrier positions, so runs with
different seeds do the same amount of evaluation.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from dataclasses import dataclass
from typing import Callable

BOOLS = ("t", "f")

SIGNATURE = """\
sort Bool
sort Nat

symbol true : -> Bool
symbol false : -> Bool
symbol notb : Bool -> Bool
symbol andb : Bool, Bool -> Bool
symbol O : -> Nat
symbol S : Nat -> Nat
symbol isZero : Nat -> Bool
symbol plus : Nat, Nat -> Nat
"""

# The axioms of the bundled corpus/natbool.mlt, in its order.
BASE_AXIOMS = (
    ("bool-domain", "Bool", r"\or(false(), true())"),
    ("nat-domain", "Nat", r"\mu{Nat} \or(O(), S(B0))"),
    ("isZero-O", "Bool", r"\equals{Bool}(isZero(O()), true())"),
    ("isZero-S", "Bool",
     r"\forall{Nat} \implies(\ceil{Bool}(S(b0)), \equals{Bool}(isZero(S(b0)), false()))"),
    ("notb-true", "Bool", r"\equals{Bool}(notb(true()), false())"),
    ("notb-false", "Bool", r"\equals{Bool}(notb(false()), true())"),
    ("andb-true", "Bool", r"\forall{Bool} \equals{Bool}(andb(true(), b0), b0)"),
    ("plus-O", "Nat", r"\forall{Nat} \equals{Nat}(plus(O(), b0), b0)"),
)

ASSOC3 = (r"\forall{Nat} \forall{Nat} \forall{Nat} "
          r"\equals{Bool}(plus(plus(b0, b1), b2), plus(b0, plus(b1, b2)))")
COMM = r"\forall{Nat} \forall{Nat} \equals{Bool}(plus(b0, b1), plus(b1, b0))"
MU_NEST = {
    2: r"\mu{Nat} \mu{Nat} \or(O(), S(\and(B0, B1)))",
    3: r"\mu{Nat} \mu{Nat} \mu{Nat} \or(O(), S(\and(B0, \and(B1, B2))))",
}
FORALL_MU = r"\forall{Nat} \ceil{Nat}(\and(b0, \mu{Nat} \or(O(), S(B0))))"

PLUS_COMM_FREE = r"\equals{Bool}(plus(x:Nat, y:Nat), plus(y:Nat, x:Nat))"
PLUS_SUCC_FREE = (r"\implies(\ceil{Bool}(plus(x:Nat, S(y:Nat))), "
                  r"\equals{Bool}(plus(x:Nat, S(y:Nat)), S(plus(x:Nat, y:Nat))))")
PLANTED_ZERO = r"\equals{Bool}(isZero(x:Nat), false())"

EQUALS_NEST_N = 4

Nat = int | None  # a natural, or None for the empty set a capped table yields


def numeral(k: int) -> str:
    """``S(...S(O())...)`` with ``k`` successors."""
    return "S(" * k + "O()" + ")" * k


@dataclass(frozen=True)
class NatModel:
    """A natbool model: Nat carrier ``0..n-1`` declared in ``order``, Bool
    carrier declared in ``bools``, and functional ``S``/``plus`` tables in
    which ``None`` stands for the empty set."""

    n: int
    order: tuple[int, ...]
    bools: tuple[str, ...]
    succ: tuple[Nat, ...]
    plus: dict[tuple[int, int], Nat]

    def text(self) -> str:
        lines = [
            f"model natbool-{self.n}",
            "carrier Bool = { " + ", ".join(self.bools) + " }",
            "carrier Nat = { " + ", ".join(map(str, self.order)) + " }",
            "interp true() = { t }",
            "interp false() = { f }",
            "interp notb(t) = { f }",
            "interp notb(f) = { t }",
        ]
        lines += [f"interp andb({a}, {b}) = {{ {'t' if a == b == 't' else 'f'} }}"
                  for a in self.bools for b in self.bools]
        lines.append("interp O() = { 0 }")
        lines += [f"interp S({i}) = {_set(self.succ[i])}" for i in self.order]
        lines += [f"interp isZero({i}) = {{ {'t' if i == 0 else 'f'} }}"
                  for i in self.order]
        lines += [f"interp plus({i}, {j}) = {_set(self.plus[i, j])}"
                  for i in self.order for j in self.order]
        return "\n".join(lines) + "\n"

    def nat_labels(self, values) -> frozenset[str]:
        return frozenset(str(v) for v in values)

    def full_bool(self) -> frozenset[str]:
        return frozenset(self.bools)

    def reachable(self) -> frozenset[int]:
        """Elements reachable from ``0`` through ``S``, by BFS."""
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for i in frontier:
                j = self.succ[i]
                if j is not None and j not in seen:
                    seen.add(j)
                    nxt.append(j)
            frontier = nxt
        return frozenset(seen)

    def add(self, a: Nat, b: Nat) -> Nat:
        return None if a is None or b is None else self.plus[a, b]

    def s(self, a: Nat) -> Nat:
        return None if a is None else self.succ[a]

    def iterate_succ(self, k: int) -> Nat:
        value: Nat = 0
        for _ in range(k):
            value = self.s(value)
        return value


def _set(value: Nat) -> str:
    return "{ }" if value is None else f"{{ {value} }}"


def _orders(n: int, rng: random.Random | None) -> tuple[tuple[int, ...], tuple[str, ...]]:
    order = list(range(n))
    bools = list(BOOLS)
    if rng is not None:
        rng.shuffle(order)
        rng.shuffle(bools)
    return tuple(order), tuple(bools)


def capped_model(n: int, rng: random.Random | None = None) -> NatModel:
    """Bounded naturals with ``S`` and ``plus`` capped at ``n - 1`` (the
    corpus model is ``capped_model(4)``); ``rng`` shuffles declaration order."""
    order, bools = _orders(n, rng)
    succ = tuple(i + 1 if i + 1 < n else None for i in range(n))
    plus = {(i, j): i + j if i + j < n else None for i in range(n) for j in range(n)}
    return NatModel(n, order, bools, succ, plus)


def perturbed_model(n: int, rng: random.Random) -> NatModel:
    """A capped model with one off-diagonal ``plus`` entry changed, which
    usually breaks commutativity and associativity."""
    base = capped_model(n, rng)
    a, b = rng.sample(range(n), 2)
    old = base.plus[a, b]
    plus = dict(base.plus)
    plus[a, b] = rng.choice([v for v in range(n) if v != old])
    return NatModel(n, base.order, base.bools, base.succ, plus)


def chain_model(n: int, rng: random.Random, reach_all: bool) -> NatModel:
    """A successor table that walks a seeded chain from ``0`` through all
    ``n`` elements, or through ``n - 1`` when not ``reach_all``; the element
    left out points back into the chain, so it stays unreachable.  The
    chain length, and so the number of Kleene steps, does not depend on
    the seed."""
    base = capped_model(n, rng)
    rest = list(range(1, n))
    rng.shuffle(rest)
    outside = [] if reach_all else [rest.pop()]
    chain = [0] + rest
    succ: list[Nat] = [None] * n
    for a, b in zip(chain, chain[1:]):
        succ[a] = b
    for u in outside:
        succ[u] = rng.choice(chain)
    return NatModel(n, base.order, base.bools, tuple(succ), base.plus)


# --- theories and their verdicts ---------------------------------------------


@dataclass(frozen=True)
class Expect:
    """Expected verdict of one axiom: the witness (variable -> label) of the
    first failing valuation, and how many valuations the checker visits."""

    verdict: str
    witness: tuple[tuple[str, str], ...] = ()
    valuations: int = 1


def _first_failure(
    names: tuple[str, ...], model: NatModel, holds: Callable[..., bool]
) -> Expect:
    """Enumerate Nat valuations of ``names`` (sorted, first name outermost)
    in carrier order, as ``check_axiom`` does."""
    count = 0
    for values in itertools.product(model.order, repeat=len(names)):
        count += 1
        if not holds(*values):
            witness = tuple((f"{name}:Nat", str(v)) for name, v in zip(names, values))
            return Expect("violated", witness, count)
    return Expect("satisfied", (), count)


def _closed(holds: bool) -> Expect:
    return Expect("satisfied" if holds else "violated")


def base_verdicts(m: NatModel) -> dict[str, Expect]:
    n = range(m.n)
    return {
        "bool-domain": _closed(True),
        "nat-domain": _closed(m.reachable() == frozenset(n)),
        "isZero-O": _closed(True),
        "isZero-S": _closed(all(m.succ[i] != 0 for i in n)),
        "notb-true": _closed(True),
        "notb-false": _closed(True),
        "andb-true": _closed(True),
        "plus-O": _closed(all(m.plus[0, i] == i for i in n)),
    }


def definedness_verdicts(m: NatModel) -> dict[str, Expect]:
    sizes = {"Bool": len(m.bools), "Nat": m.n}
    return {
        f"definedness/{arg}/{res}": Expect("satisfied", (), sizes[arg])
        for arg in sizes
        for res in sizes
    }


@dataclass(frozen=True)
class TheoryCase:
    """One ``satisfies`` input: theory and model text and every verdict."""

    theory: str
    model: str
    verdicts: dict[str, Expect]

    @property
    def valuations(self) -> int:
        return sum(e.valuations for e in self.verdicts.values())

    @property
    def satisfied(self) -> bool:
        return all(e.verdict == "satisfied" for e in self.verdicts.values())


def theory_text(extra: tuple[tuple[str, str, str], ...] = ()) -> str:
    lines = [SIGNATURE]
    lines += [f"axiom {label} [{sort}] {text}" for label, sort, text in BASE_AXIOMS + extra]
    lines.append("")
    lines.append("option instantiate-definedness")
    return "\n".join(lines) + "\n"


def theory_case(n: int, rng: random.Random) -> TheoryCase:
    """natbool-n (n >= 4) plus ``comm``, free-variable ``plus`` axioms with ``n^2``
    valuations each and two planted axioms that are false at one known
    valuation."""
    m = capped_model(n, rng)
    # planted-zero fails only at x = 0 and planted-pair only at x = a,
    # y = b.  The numerals of a and b always have n - 1 successors between
    # them, and 0, a and b go to fixed carrier positions, so the work to
    # find each witness does not depend on the seed.
    a = rng.choice([k for k in range(1, n - 1) if 2 * k != n - 1])
    b = n - 1 - a
    order = [v for v in m.order if v not in (0, a, b)]
    order.insert(n // 3, b)
    order.insert(n // 2, a)
    m = dataclasses.replace(m, order=(*order, 0))
    extra = [
        ("comm", "Bool", COMM),
        ("plus-comm-free", "Bool", PLUS_COMM_FREE),
        ("plus-succ-free", "Bool", PLUS_SUCC_FREE),
    ]
    verdicts = base_verdicts(m)
    verdicts["comm"] = _closed(all(m.plus[i, j] == m.plus[j, i]
                                   for i in range(n) for j in range(n)))
    verdicts["plus-comm-free"] = _first_failure(
        ("x", "y"), m, lambda x, y: m.plus[x, y] == m.plus[y, x])
    verdicts["plus-succ-free"] = _first_failure(
        ("x", "y"), m,
        lambda x, y: m.add(x, m.succ[y]) is None
        or m.add(x, m.succ[y]) == m.s(m.plus[x, y]))
    pair = (rf"\not(\and(\equals{{Bool}}(x:Nat, {numeral(a)}), "
            rf"\equals{{Bool}}(y:Nat, {numeral(b)})))")
    extra += [("planted-zero", "Bool", PLANTED_ZERO),
              ("planted-pair", "Bool", pair)]
    verdicts["planted-zero"] = _first_failure(("x",), m, lambda x: x != 0)
    verdicts["planted-pair"] = _first_failure(
        ("x", "y"), m,
        lambda x, y: not (x == m.iterate_succ(a) and y == m.iterate_succ(b)))
    verdicts.update(definedness_verdicts(m))
    return TheoryCase(theory_text(tuple(extra)), m.text(), verdicts)


# --- closed patterns and their denotations -----------------------------------


@dataclass(frozen=True)
class EvalCase:
    """One ``eval_pattern`` input and the labels of its expected denotation."""

    family: str
    theory: str
    model: str
    pattern: str
    lfp: str
    expected: frozenset[str]


def assoc3_case(n: int, rng: random.Random) -> EvalCase:
    m = perturbed_model(n, rng) if rng.random() < 0.5 else capped_model(n, rng)
    holds = all(m.add(m.plus[a, b], c) == m.add(a, m.plus[b, c])
                for a in range(n) for b in range(n) for c in range(n))
    return EvalCase("assoc3", theory_text(), m.text(), ASSOC3, "iterate",
                    m.full_bool() if holds else frozenset())


def comm_case(n: int, rng: random.Random) -> EvalCase:
    m = perturbed_model(n, rng) if rng.random() < 0.5 else capped_model(n, rng)
    holds = all(m.plus[a, b] == m.plus[b, a] for a in range(n) for b in range(n))
    return EvalCase("comm", theory_text(), m.text(), COMM, "iterate",
                    m.full_bool() if holds else frozenset())


def equals_nest_case(depth: int, rng: random.Random) -> EvalCase:
    """``E_0 = \\equals{Bool}(L, L')`` and ``E_d = \\equals{Bool}(E_{d-1}, E')``,
    where each ``L`` is ``andb(u(), v())`` with seeded ``u``, ``v`` and each
    ``E'`` compares two fresh leaves.

    ``\\equals`` expands through ``\\iff``, which uses each operand twice,
    so evaluating ``E_d`` evaluates ``E_{d-1}`` twice.  Every leaf has the
    same size, so the seed changes the answer but not the work.
    """
    m = capped_model(EQUALS_NEST_N, rng)

    def leaf() -> tuple[str, frozenset[str]]:
        u, v = rng.choice(("true", "false")), rng.choice(("true", "false"))
        return f"andb({u}(), {v}())", frozenset({"t" if u == v == "true" else "f"})

    def equals(left: tuple[str, frozenset[str]], right: tuple[str, frozenset[str]]):
        value = m.full_bool() if left[1] == right[1] else frozenset()
        return rf"\equals{{Bool}}({left[0]}, {right[0]})", value

    node = equals(leaf(), leaf())
    for _ in range(depth):
        node = equals(node, equals(leaf(), leaf()))
    return EvalCase("equals-nest", theory_text(), m.text(), node[0], "iterate", node[1])


def mu_nest_case(n: int, depth: int, rng: random.Random) -> EvalCase:
    m = chain_model(n, rng, reach_all=False)
    return EvalCase("mu-nest", theory_text(), m.text(), MU_NEST[depth], "iterate",
                    m.nat_labels(m.reachable()))


def forall_mu_case(n: int, lfp: str, rng: random.Random) -> EvalCase:
    # The two engines get different chain shapes, so one variant expects
    # the full carrier and the other the empty set.
    m = chain_model(n, rng, reach_all=lfp == "iterate")
    everything = m.reachable() == frozenset(range(n))
    return EvalCase(f"forall-mu-{lfp}", theory_text(), m.text(), FORALL_MU, lfp,
                    m.nat_labels(range(n)) if everything else frozenset())
