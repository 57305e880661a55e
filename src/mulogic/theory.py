"""Theories and the model-satisfaction judgment.

A theory is a labeled sequence of (sort, closed pattern) axioms over a
signature.  A model satisfies an axiom when every valuation of the axiom's
free variables maps it to the full carrier of its sort; element variables
range over their carrier, set variables over its powerset.  The checker
reports per-axiom verdicts in declaration order and never lets one axiom's
failure abort the rest.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import (
    DuplicateLabelError,
    NotClosedError,
    SortMismatchError,
    StateSpaceTooLargeError,
)
from .model import CarrierSet, FiniteModel
from .pattern import Pattern, free_vars, mk_defined, mk_free_evar
from .semantics import (
    DEFAULT_PREFIX_CAP,
    LFP_ITERATE,
    Valuation,
    _check_evaluable,
    _compile,
)

# Unused here; kept because the benchmark's tracer wraps this name.
from .semantics import eval_pattern  # noqa: F401
from .signature import ElemVar, Signature, Sort

DEFAULT_STATE_CAP = 10**6

DEFINEDNESS_OPTION = "instantiate-definedness"
DEFINEDNESS_VAR = "x"


@dataclass(frozen=True)
class Axiom:
    label: str
    sort: Sort
    pattern: Pattern

    def __post_init__(self) -> None:
        if not self.pattern.is_closed:
            raise NotClosedError(
                f"axiom {self.label!r} has dangling bound variables"
            )
        if self.pattern.sort != self.sort:
            raise SortMismatchError(
                f"axiom {self.label!r} declares sort {self.sort} but its "
                f"pattern has sort {self.pattern.sort}"
            )


@dataclass(frozen=True)
class Theory:
    signature: Signature
    axioms: tuple[Axiom, ...] = ()
    options: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not self.signature.sorts:
            raise ValueError("a theory requires at least one sort")
        seen: set[str] = set()
        for axiom in self.axioms:
            if axiom.label in seen:
                raise DuplicateLabelError(
                    f"axiom label {axiom.label!r} declared twice"
                )
            seen.add(axiom.label)

    def add_axiom(self, label: str, sort: Sort, pattern: Pattern) -> Theory:
        return Theory(self.signature, self.axioms + (Axiom(label, sort, pattern),), self.options)

    def axiom(self, label: str) -> Axiom:
        for axiom in self.axioms:
            if axiom.label == label:
                return axiom
        raise KeyError(label)


def instantiate_definedness(theory: Theory) -> Theory:
    """Append the definedness axiom for every ordered sort pair: the
    pattern asserting that any single element is defined, stated at every
    result sort."""
    out = theory
    for arg_sort in theory.signature.sorts:
        var = mk_free_evar(ElemVar(DEFINEDNESS_VAR, arg_sort))
        for result_sort in theory.signature.sorts:
            out = out.add_axiom(
                f"definedness/{arg_sort.name}/{result_sort.name}",
                result_sort,
                mk_defined(result_sort, var),
            )
    return out


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    ERROR = "error"


@dataclass(frozen=True)
class AxiomResult:
    axiom: Axiom
    verdict: Verdict
    witness: Valuation | None = None
    got: CarrierSet | None = None
    message: str | None = None


@dataclass(frozen=True)
class SatisfactionReport:
    results: tuple[AxiomResult, ...]

    @property
    def satisfied(self) -> bool:
        return all(r.verdict is Verdict.SATISFIED for r in self.results)


def check_axiom(
    model: FiniteModel,
    axiom: Axiom,
    lfp_mode: str = LFP_ITERATE,
    prefix_cap: int = DEFAULT_PREFIX_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> AxiomResult:
    """Check one axiom against every valuation of its free variables.

    Satisfied iff each evaluation yields the full carrier of the axiom's
    sort; the first failure, in ``itertools.product`` order over the
    sorted element variables and then the sorted set variables, is
    returned as a witness together with the set it produced.  The state
    cap, closedness, the lfp mode and mu positivity are checked once, in
    that order, before the first valuation.

    The axiom is compiled once, with its free variables as the outermost
    levels (the pattern holds for every valuation exactly when its
    universal closure denotes the full carrier): a subpattern is computed
    again only when a variable it reads has changed.
    """
    p = axiom.pattern
    evars, svars = free_vars(p)
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
    _check_evaluable(p, lfp_mode)

    width = model.carrier_size(axiom.sort)
    variables = (*evar_list, *svar_list)
    program = _compile(model, p, lfp_mode, prefix_cap, variables)
    split = len(evar_list)
    sizes = [model.carrier_size(v.sort) for v in variables]
    # register values: element k is the one-bit mask 1 << k, a set its bits
    choices = [[1 << k for k in range(n)] for n in sizes[:split]]
    choices += [range(1 << n) for n in sizes[split:]]
    for index, bits in program.sweep(choices):
        if bits != (1 << width) - 1:
            elems = {v: model.carrier(v.sort)[k] for v, k in zip(evar_list, index)}
            sets = {v: CarrierSet(v.sort, n, k)
                    for v, n, k in zip(svar_list, sizes[split:], index[split:])}
            got = CarrierSet(axiom.sort, width, bits)
            return AxiomResult(axiom, Verdict.VIOLATED, witness=Valuation(elems, sets), got=got)
    return AxiomResult(axiom, Verdict.SATISFIED)


def satisfies(
    model: FiniteModel,
    theory: Theory,
    labels: Iterable[str] | None = None,
    lfp_mode: str = LFP_ITERATE,
    prefix_cap: int = DEFAULT_PREFIX_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SatisfactionReport:
    """Check every axiom (or the ``labels`` subset) in declaration order.

    Per-axiom errors become ``error`` verdicts; the run always completes.
    """
    wanted = None if labels is None else set(labels)
    results = []
    for axiom in theory.axioms:
        if wanted is not None and axiom.label not in wanted:
            continue
        try:
            results.append(
                check_axiom(
                    model,
                    axiom,
                    lfp_mode=lfp_mode,
                    prefix_cap=prefix_cap,
                    state_cap=state_cap,
                )
            )
        except Exception as err:  # noqa: BLE001 - aggregated per axiom
            results.append(
                AxiomResult(axiom, Verdict.ERROR, message=f"{type(err).__name__}: {err}")
            )
    return SatisfactionReport(tuple(results))


# --- report rendering ----------------------------------------------------


def witness_bindings(model: FiniteModel, rho: Valuation) -> dict[str, object]:
    """Flatten a witness valuation to labels, deterministically ordered."""
    out: dict[str, object] = {}
    for var in sorted(rho.evars, key=lambda v: (v.name, v.sort.id)):
        out[str(var)] = rho.evars[var].label
    for var in sorted(rho.svars, key=lambda v: (v.name, v.sort.id)):
        out[str(var)] = [e.label for e in model.elems(rho.svars[var])]
    return out


def report_records(model: FiniteModel, report: SatisfactionReport) -> list[dict]:
    """One machine-readable record per axiom."""
    records = []
    for result in report.results:
        record: dict[str, object] = {
            "label": result.axiom.label,
            "sort": result.axiom.sort.name,
            "verdict": result.verdict.value,
            "expected": [e.label for e in model.carrier(result.axiom.sort)],
        }
        if result.got is not None:
            record["got"] = [e.label for e in model.elems(result.got)]
        if result.witness is not None:
            record["witness"] = witness_bindings(model, result.witness)
        if result.message is not None:
            record["message"] = result.message
        records.append(record)
    return records


def report_text(model: FiniteModel, report: SatisfactionReport) -> str:
    lines = []
    for result in report.results:
        if result.verdict is Verdict.SATISFIED:
            lines.append(f"{result.axiom.label}: satisfied")
        elif result.verdict is Verdict.VIOLATED:
            bindings = witness_bindings(model, result.witness) if result.witness else {}
            shown = ", ".join(
                f"{name} = {value}" for name, value in bindings.items()
            )
            got = model.format_set(result.got) if result.got is not None else "?"
            lines.append(
                f"{result.axiom.label}: violated (got {got}"
                + (f" with {shown}" if shown else "")
                + ")"
            )
        else:
            lines.append(f"{result.axiom.label}: error ({result.message})")
    status = "satisfied" if report.satisfied else "NOT satisfied"
    lines.append(f"theory {status}: {len(report.results)} axiom(s) checked")
    return "\n".join(lines)
