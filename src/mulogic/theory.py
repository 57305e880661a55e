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
from typing import Iterable

from ._record import HIDDEN, record, set_field
from .errors import (
    DuplicateLabelError,
    MuLogicError,
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
    _valuation_order,
)

# Unused here; kept because the benchmark's tracer wraps this name.
from .semantics import eval_pattern  # noqa: F401
from .signature import ElemVar, Signature, Sort

DEFAULT_STATE_CAP = 10**6

DEFINEDNESS_OPTION = "instantiate-definedness"
DEFINEDNESS_VAR = "x"


@record
class Axiom:
    """A labeled closed pattern of ``sort``.  Its free variables are fixed
    at construction, in valuation order, outside ``==``, ``hash`` and ``repr``."""

    label: str
    sort: Sort
    pattern: Pattern
    _variables: tuple = HIDDEN

    def __init__(self, label: str, sort: Sort, pattern: Pattern) -> None:
        set_field(self, "label", label)
        set_field(self, "sort", sort)
        set_field(self, "pattern", pattern)
        self.__post_init__()

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
        object.__setattr__(self, "_variables", _valuation_order(*free_vars(self.pattern)))


@record
class Theory:
    """A signature, labelled axioms over it, and the options that built it.
    The axioms are kept as a tuple and the options as a frozenset, so no
    container of the caller's ends up in a theory."""

    signature: Signature
    axioms: tuple[Axiom, ...] = ()
    options: frozenset[str] = frozenset()

    def __init__(
        self, signature: Signature, axioms: Iterable[Axiom] = (),
        options: Iterable[str] = frozenset(),
    ) -> None:
        set_field(self, "signature", signature)
        set_field(self, "axioms", tuple(axioms))
        set_field(self, "options", frozenset(options))
        self.__post_init__()

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

    def select(self, labels: Iterable[str] | None = None) -> tuple[Axiom, ...]:
        """The axioms that ``labels`` name, in declaration order, or every
        axiom when ``labels`` is None; raises :class:`MuLogicError` naming,
        in the order given, each label that names no axiom."""
        if labels is None:
            return self.axioms
        labels = list(labels)
        known = {axiom.label for axiom in self.axioms}
        missing = [label for label in labels if label not in known]
        if missing:
            raise MuLogicError(f"no such axiom(s): {', '.join(missing)}")
        wanted = set(labels)
        return tuple(axiom for axiom in self.axioms if axiom.label in wanted)


def instantiate_definedness(theory: Theory) -> Theory:
    """Append the definedness axiom for every ordered sort pair: the
    pattern asserting that any single element is defined, stated at every
    result sort.  The theory is built once, so adding n axioms costs
    O(n)."""
    sorts = theory.signature.sorts
    added = []
    for arg_sort in sorts:
        var = mk_free_evar(ElemVar(DEFINEDNESS_VAR, arg_sort))
        for result_sort in sorts:
            label = f"definedness/{arg_sort.name}/{result_sort.name}"
            added.append(Axiom(label, result_sort, mk_defined(result_sort, var)))
    return Theory(theory.signature, theory.axioms + tuple(added), theory.options)


class Verdict(enum.Enum):
    SATISFIED = "satisfied"
    VIOLATED = "violated"
    ERROR = "error"


@record
class AxiomResult:
    """The verdict on one axiom; a violation has the first failing
    valuation as ``witness`` and the set it produced as ``got``, an error
    its ``message``."""

    axiom: Axiom
    verdict: Verdict
    witness: Valuation | None = None
    got: CarrierSet | None = None
    message: str | None = None

    def __init__(
        self, axiom: Axiom, verdict: Verdict, witness: Valuation | None = None,
        got: CarrierSet | None = None, message: str | None = None,
    ) -> None:
        set_field(self, "axiom", axiom)
        set_field(self, "verdict", verdict)
        set_field(self, "witness", witness)
        set_field(self, "got", got)
        set_field(self, "message", message)


@record
class SatisfactionReport:
    """The results of :func:`satisfies`, one per axiom checked, in
    declaration order."""

    results: tuple[AxiomResult, ...]

    def __init__(self, results: tuple[AxiomResult, ...]) -> None:
        set_field(self, "results", results)

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
    axiom's variables (fixed at its construction in valuation order:
    element variables, then set variables, each sorted by name and sort
    id), is returned as a witness together with the set it produced.  The
    state cap, closedness, the lfp mode and mu positivity are checked
    once, in that order, before the first valuation.

    The axiom is compiled once, with its variables as the outermost levels
    in that order (the pattern holds for every valuation exactly when its
    universal closure denotes the full carrier): a subpattern is computed
    again only when a variable it reads has changed.
    """
    p, variables = axiom.pattern, axiom._variables
    # register values: element k is the one-bit mask 1 << k, a set its bits
    choices, count = [], 1
    for v in variables:
        if isinstance(v, ElemVar):
            values = model._elem_masks(v.sort)
            count *= len(values)
        else:  # len() refuses a range of 2**63 or more values
            values = range(model._full_mask(v.sort) + 1)
            count *= values.stop
        choices.append(values)
    if count > state_cap:
        raise StateSpaceTooLargeError(
            f"axiom {axiom.label!r} needs {count} valuation{'' if count == 1 else 's'}, "
            f"more than the cap of {state_cap}"
        )
    _check_evaluable(p, lfp_mode)

    full = model._full_mask(axiom.sort)
    found = _compile(model, p, lfp_mode, prefix_cap, variables).search(choices, full)
    if found is None:
        return AxiomResult(axiom, Verdict.SATISFIED)
    index, bits = found
    bound = list(zip(variables, index))
    elems = {v: model.carrier(v.sort)[k] for v, k in bound if isinstance(v, ElemVar)}
    sets = {v: CarrierSet(v.sort, model.carrier_size(v.sort), k)
            for v, k in bound if not isinstance(v, ElemVar)}
    got = CarrierSet(axiom.sort, full.bit_length(), bits)
    return AxiomResult(axiom, Verdict.VIOLATED, witness=Valuation(elems, sets), got=got)


def satisfies(
    model: FiniteModel,
    theory: Theory,
    labels: Iterable[str] | None = None,
    lfp_mode: str = LFP_ITERATE,
    prefix_cap: int = DEFAULT_PREFIX_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> SatisfactionReport:
    """Check every axiom (or those that ``labels`` name, see
    :meth:`Theory.select`) in declaration order.

    A label that names no axiom is refused before any check.  A
    :class:`MuLogicError` from an axiom becomes its ``error`` verdict and
    the run goes on; any other exception is a fault and propagates.
    """
    results = []
    for axiom in theory.select(labels):
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
        except MuLogicError as err:
            results.append(
                AxiomResult(axiom, Verdict.ERROR, message=f"{type(err).__name__}: {err}")
            )
    return SatisfactionReport(tuple(results))


# --- report rendering ----------------------------------------------------


def witness_bindings(model: FiniteModel, rho: Valuation) -> dict[str, object]:
    """Flatten a witness valuation to labels, in valuation order."""
    return {
        str(var): rho.evars[var].label if isinstance(var, ElemVar)
        else [e.label for e in model.elems(rho.svars[var])]
        for var in _valuation_order(rho.evars, rho.svars)
    }


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
            # set variables print as sets, in the form of ``got``
            rho = result.witness or Valuation.empty()
            shown = ", ".join(
                f"{var} = {rho.evars[var].label}" if isinstance(var, ElemVar)
                else f"{var} = {model.format_set(rho.svars[var])}"
                for var in _valuation_order(rho.evars, rho.svars)
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
