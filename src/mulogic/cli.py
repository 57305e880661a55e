"""Command-line driver: ``check``, ``eval``, and ``satisfies``.

Exit codes: 0 clean, 1 for diagnostics/violations/evaluation errors, 2 for
I/O failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import MuLogicError
from .model import FiniteModel
from .parser import ParseError, parse_binding, parse_model, parse_pattern, parse_theory
from .pattern import check_mu_positivity, validate
from .semantics import (
    DEFAULT_PREFIX_CAP,
    LFP_ITERATE,
    LFP_PREFIX,
    Valuation,
    eval_pattern,
)
from .signature import ElemVar, SetVar
from .theory import (
    DEFAULT_STATE_CAP,
    Theory,
    report_records,
    report_text,
    satisfies,
)

def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mulogic",
        description="Check, evaluate, and model-check matching mu-logic theories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and validate a theory file")
    check.add_argument("theory", help="path to a .mlt theory file")
    check.add_argument(
        "--strict-positivity",
        action="store_true",
        help="treat non-positive mu binders as errors instead of warnings",
    )

    evalp = sub.add_parser("eval", help="evaluate a pattern over a model")
    evalp.add_argument("theory", help="path to a .mlt theory file")
    evalp.add_argument("model", help="path to a .mlm model file")
    evalp.add_argument("pattern", help="pattern text (closed)")
    evalp.add_argument(
        "-v",
        dest="evar_bindings",
        action="append",
        default=[],
        metavar="x:Sort=elem",
        help="bind a free element variable",
    )
    evalp.add_argument(
        "-V",
        dest="svar_bindings",
        action="append",
        default=[],
        metavar="X:Sort={e1,e2}",
        help="bind a free set variable",
    )
    _add_lfp_flags(evalp)

    sat = sub.add_parser("satisfies", help="check a model against a theory")
    sat.add_argument("theory", help="path to a .mlt theory file")
    sat.add_argument("model", help="path to a .mlm model file")
    sat.add_argument(
        "--axiom",
        action="append",
        default=None,
        metavar="LABEL",
        help="check only the named axiom (repeatable)",
    )
    sat.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    sat.add_argument(
        "--cap",
        type=int,
        default=DEFAULT_STATE_CAP,
        metavar="N",
        help="state-space cap on the number of valuations per axiom",
    )
    _add_lfp_flags(sat)
    return parser


def _add_lfp_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lfp",
        choices=(LFP_ITERATE, LFP_PREFIX),
        default=LFP_ITERATE,
        help="least-fixpoint engine (prefix is the exhaustive oracle)",
    )
    parser.add_argument(
        "--prefix-cap",
        type=int,
        default=DEFAULT_PREFIX_CAP,
        metavar="N",
        help="largest carrier the prefix engine will enumerate subsets of",
    )


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "eval":
            return _cmd_eval(args)
        return _cmd_satisfies(args)
    except _Exit as stop:
        return stop.code


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
        raise _Exit(2) from None


def _load_theory(path: str) -> Theory:
    try:
        return parse_theory(_read(path))
    except ParseError as err:
        _print_diagnostics(path, err.diagnostics)
        raise _Exit(1) from None


def _load_model(path: str, theory: Theory) -> FiniteModel:
    try:
        model, _warnings = parse_model(_read(path), theory)
        return model
    except ParseError as err:
        _print_diagnostics(path, err.diagnostics)
        raise _Exit(1) from None


def _print_diagnostics(path: str, diagnostics) -> None:
    for diag in diagnostics:
        print(f"{path}:{diag}", file=sys.stderr)


def _cmd_check(args) -> int:
    path = args.theory
    text = _read(path)
    try:
        theory = parse_theory(text)
    except ParseError as err:
        _print_diagnostics(path, err.diagnostics)
        return 1
    warned = False
    for axiom in theory.axioms:
        if not validate(axiom.pattern):
            print(f"{path}: error[kernel]: axiom {axiom.label!r} failed "
                  "revalidation", file=sys.stderr)
            return 1
        report = check_mu_positivity(axiom.pattern)
        for mu_path in report.negative_paths():
            warned = True
            where = "/".join(str(i) for i in mu_path) or "root"
            print(
                f"{path}: warning[positivity]: axiom {axiom.label!r}: "
                f"non-positive mu binder at node {where}",
                file=sys.stderr,
            )
    sig = theory.signature
    print(
        f"{path}: ok ({len(sig.sorts)} sort(s), {len(sig.symbols)} symbol(s), "
        f"{len(theory.axioms)} axiom(s))"
    )
    if warned and args.strict_positivity:
        return 1
    return 0


def _parse_bindings(args, model: FiniteModel) -> Valuation:
    rho = Valuation.empty()
    for text in args.evar_bindings:
        name, sort, labels = _binding(model, text, "-v", "x:Sort=elem")
        rho = rho.update_evar(ElemVar(name, sort), model.elem(sort, labels[0]))
    for text in args.svar_bindings:
        name, sort, labels = _binding(model, text, "-V", "X:Sort={e1,e2}")
        elems = [model.elem(sort, label) for label in labels]
        rho = rho.update_svar(SetVar(name, sort), model.set_of(sort, elems))
    return rho


def _binding(model: FiniteModel, text: str, flag: str, want: str):
    try:
        name, sort_name, labels = parse_binding(text, braced=flag == "-V")
    except ParseError:
        print(f"error: malformed {flag} binding {text!r} (want {want})", file=sys.stderr)
        raise _Exit(1) from None
    return name, model.signature.sort(sort_name), labels


def _cmd_eval(args) -> int:
    theory = _load_theory(args.theory)
    model = _load_model(args.model, theory)
    try:
        pattern = parse_pattern(args.pattern, theory.signature)
    except ParseError as err:
        _print_diagnostics("<pattern>", err.diagnostics)
        return 1
    try:
        rho = _parse_bindings(args, model)
        result = eval_pattern(
            model, rho, pattern, lfp_mode=args.lfp, prefix_cap=args.prefix_cap
        )
    except MuLogicError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(model.format_set(result))
    return 0


def _cmd_satisfies(args) -> int:
    theory = _load_theory(args.theory)
    model = _load_model(args.model, theory)
    if args.axiom:
        known = {axiom.label for axiom in theory.axioms}
        missing = [label for label in args.axiom if label not in known]
        if missing:
            print(f"error: no such axiom(s): {', '.join(missing)}", file=sys.stderr)
            return 1
    report = satisfies(
        model,
        theory,
        labels=args.axiom,
        lfp_mode=args.lfp,
        prefix_cap=args.prefix_cap,
        state_cap=args.cap,
    )
    if args.report == "json":
        payload = {
            "satisfied": report.satisfied,
            "axioms": report_records(model, report),
        }
        print(json.dumps(payload, indent=2))
    else:
        print(report_text(model, report))
    return 0 if report.satisfied else 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
