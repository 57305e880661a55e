"""Command-line driver: ``check``, ``eval``, and ``satisfies``.

Exit codes: 0 clean, 1 for diagnostics/violations/evaluation errors, 2 for
I/O failures (a file, or for ``eval -`` the pattern on stdin, that cannot
be read or is not UTF-8; or a stdout whose reader has closed it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path

from .errors import MuLogicError, NonPositiveMuWarning
from .model import FiniteModel
from .parser import ParseError, parse_binding, parse_model, parse_pattern, parse_theory
from .pattern import check_mu_positivity
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
    evalp.add_argument("pattern", help="pattern text (closed), or - to read it from stdin")
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
        type=_count,
        default=DEFAULT_STATE_CAP,
        metavar="N",
        help="state-space cap on the number of valuations per axiom",
    )
    _add_lfp_flags(sat)
    return parser


def _count(text: str) -> int:
    """A non-negative int, for ``--cap`` and ``--prefix-cap``; argparse
    reports anything else as a usage error (exit 2)."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"invalid non-negative int value: {text!r}")
    return n


def _add_lfp_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--lfp",
        choices=(LFP_ITERATE, LFP_PREFIX),
        default=LFP_ITERATE,
        help="least-fixpoint engine (prefix is the exhaustive oracle)",
    )
    parser.add_argument(
        "--prefix-cap",
        type=_count,
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
    except MuLogicError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


class _Exit(Exception):
    def __init__(self, code: int):
        self.code = code


def _read(path: str | None) -> str:
    """The UTF-8 text of the file at ``path``, or of stdin when ``path`` is
    None; exit 2 if it cannot be read."""
    try:
        if path is None:
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {'stdin' if path is None else path}: {err}", file=sys.stderr)
        raise _Exit(2) from None


def _parsed(source: str, text: str, parse, *args):
    """``parse(text, *args)``; on a :class:`ParseError`, print each of its
    diagnostics after ``source`` and exit 1."""
    try:
        return parse(text, *args)
    except ParseError as err:
        for diag in err.diagnostics:
            print(f"{source}:{diag}", file=sys.stderr)
        raise _Exit(1) from None


def _report_positivity(source: str, named_patterns) -> bool:
    """Print a ``warning[positivity]`` diagnostic for each non-positive mu
    binder of each ``(what, pattern)``; return whether there was one."""
    warned = False
    for what, pattern in named_patterns:
        for mu_path in check_mu_positivity(pattern).negative_paths():
            warned = True
            where = "/".join(str(i) for i in mu_path) or "root"
            print(
                f"{source}: warning[positivity]: {what}"
                f"non-positive mu binder at node {where}",
                file=sys.stderr,
            )
    return warned


def _evaluate(args, source: str, named_patterns, call, *call_args, **kwargs):
    """``call`` (``eval_pattern`` or ``satisfies``) under the fixpoint
    engine of ``args``.  Under ``--lfp prefix`` a ``warning[positivity]``
    line is printed first for each non-positive binder of
    ``named_patterns``; the call's ``NonPositiveMuWarning`` would say the
    same, so it is ignored, whatever the warning filters."""
    if args.lfp == LFP_PREFIX:
        _report_positivity(source, named_patterns)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonPositiveMuWarning)
        return call(*call_args, lfp_mode=args.lfp, prefix_cap=args.prefix_cap, **kwargs)


def _axioms(theory, labels=None):
    """``(what, pattern)`` for each axiom that ``labels`` name; raises
    :class:`MuLogicError` for a label that names none."""
    return [(f"axiom {axiom.label!r}: ", axiom.pattern) for axiom in theory.select(labels)]


def _cmd_check(args) -> int:
    path = args.theory
    theory = _parsed(path, _read(path), parse_theory)
    warned = _report_positivity(path, _axioms(theory))
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
    for flag, texts in (("-v", args.evar_bindings), ("-V", args.svar_bindings)):
        for text in texts:
            var, value = _binding(model, text, flag)
            if rho.binds(var):
                raise MuLogicError(f"{var} is bound twice")
            rho = rho.update_evar(var, value) if flag == "-v" else rho.update_svar(var, value)
    return rho


def _binding(model: FiniteModel, text: str, flag: str):
    """The variable and the value of the ``-v`` or ``-V`` binding ``text``."""
    braced = flag == "-V"
    try:
        name, sort_name, labels = parse_binding(text, braced=braced)
    except ParseError:
        want = "X:Sort={e1,e2}" if braced else "x:Sort=elem"
        print(f"error: malformed {flag} binding {text!r} (want {want})", file=sys.stderr)
        raise _Exit(1) from None
    sort = model.signature.sort(sort_name)
    elems = [model.elem(sort, label) for label in labels]
    if braced:
        return SetVar(name, sort), model.set_of(sort, elems)
    return ElemVar(name, sort), elems[0]


def _load_inputs(args):
    """The theory and the model that ``args`` name."""
    theory = _parsed(args.theory, _read(args.theory), parse_theory)
    model, _warnings = _parsed(args.model, _read(args.model), parse_model, theory)
    return theory, model


def _cmd_eval(args) -> int:
    theory, model = _load_inputs(args)
    # "-" is not pattern syntax, so it can stand for stdin
    text = _read(None) if args.pattern == "-" else args.pattern
    pattern = _parsed("<pattern>", text, parse_pattern, theory.signature)
    rho = _parse_bindings(args, model)
    result = _evaluate(args, "<pattern>", [("", pattern)], eval_pattern, model, rho, pattern)
    print(model.format_set(result))
    return 0


def _cmd_satisfies(args) -> int:
    theory, model = _load_inputs(args)
    report = _evaluate(args, args.theory, _axioms(theory, args.axiom), satisfies,
                       model, theory, labels=args.axiom, state_cap=args.cap)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is left to devnull, so that the
        # interpreter's last flush cannot fail too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
