"""Text frontend: tokenizer, pattern grammar, and the theory (.mlt) and
model (.mlm) file formats, all with positioned diagnostics.

Theory files are line-oriented::

    // comment
    sort Bool
    symbol true : -> Bool
    symbol andb : Bool, Bool -> Bool
    axiom bool-domain [Bool] \\or(false(), true())
    option instantiate-definedness

Model files follow the theory that declares their signature::

    model std
    carrier Bool = { t, f }
    interp true() = { t }

Pattern syntax: free variables ``x:Sort`` and ``#X:Sort``; bound variables
``b0``/``B0``; applications ``sym(p, ...)``; core connectives ``\\not``,
``\\and``, ``\\exists{Sort}``, ``\\mu``, ``\\ceil{Sort}``; derived forms
``\\top``, ``\\bottom``, ``\\or``, ``\\implies``, ``\\iff``,
``\\forall{Sort}``, ``\\nu``, ``\\floor{Sort}``, ``\\equals{Sort}``,
``\\subseteq{Sort}`` (expanded at parse time; the tree stores core
constructors only).  Binders scope as far right as possible.  ``\\mu`` and
``\\nu`` accept an optional sort annotation (``\\mu{Sort} p``), which the
printer always emits; unannotated fixpoints are fine wherever the sort is
inferable.  Declarations must precede use.  Identifiers ending in a quote
followed by digits (``x'1``) are reserved and rejected.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import MuLogicError
from .model import FiniteModel, build_model
from .pattern import (
    Context,
    Pattern,
    mk_and,
    mk_app,
    mk_bottom,
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
from .signature import ElemVar, SetVar, Signature, Sort
from .theory import DEFINEDNESS_OPTION, Theory, instantiate_definedness

Span = tuple[int, int, int]  # (line, column, length), 1-based positions


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    span: Span
    code: str
    message: str

    def __str__(self) -> str:
        line, col, _ = self.span
        return f"{line}:{col}: {self.severity}[{self.code}]: {self.message}"


class ParseError(MuLogicError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class _Bail(Exception):
    """Internal: abort the current line/pattern with one diagnostic."""

    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


def _err(span: Span, code: str, message: str) -> _Bail:
    return _Bail(Diagnostic("error", span, code, message))


# --- tokens ---------------------------------------------------------------

_TOKEN_RE = re.compile(
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

_RESERVED_NAME_RE = re.compile(r"'\d+$")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int

    @property
    def span(self) -> Span:
        return (self.line, self.col, len(self.text))


def tokenize(text: str) -> list[Token]:
    """Produce the token stream; raises :class:`ParseError` on lex errors."""
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(
                [Diagnostic("error", (line, col, 1), "lex",
                            f"unexpected character {text[pos]!r}")]
            )
        kind = m.lastgroup or ""
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        else:
            if kind == "name" and _RESERVED_NAME_RE.search(value):
                raise ParseError(
                    [Diagnostic("error", (line, col, len(value)), "reserved-name",
                                f"identifier {value!r} is reserved: no name may "
                                "end in a quote followed by digits")]
                )
            if kind not in ("ws", "comment"):
                tokens.append(Token(kind, value, line, col))
            col += len(value)
        pos = m.end()
    return tokens


# Derived forms expand to several core levels each (\equals is the worst
# at ~8), and the recursive kernel operations get one stack frame per core
# level, so the surface cap keeps every downstream recursion well inside
# the interpreter's limit.
MAX_NESTING = 64


class _TokenStream:
    def __init__(self, tokens: Sequence[Token], end_span: Span):
        self._tokens = list(tokens)
        self._pos = 0
        self._end_span = end_span
        self.depth = 0

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._tokens)

    def peek(self) -> Token | None:
        return None if self.exhausted else self._tokens[self._pos]

    def here(self) -> Span:
        tok = self.peek()
        return tok.span if tok is not None else self._end_span

    def next(self, what: str) -> Token:
        tok = self.peek()
        if tok is None:
            raise _err(self._end_span, "syntax", f"expected {what}, found end of input")
        self._pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None, what: str | None = None) -> Token:
        label = what or (text if text is not None else kind)
        tok = self.next(label)
        if tok.kind != kind or (text is not None and tok.text != text):
            raise _err(tok.span, "syntax", f"expected {label}, found {tok.text!r}")
        return tok


# --- surface syntax -------------------------------------------------------

_BINARY = {"\\and": "and", "\\or": "or", "\\implies": "implies", "\\iff": "iff"}
_EX_BINDERS = {"\\exists": "exists", "\\forall": "forall"}
_FIXPOINTS = {"\\mu": "mu", "\\nu": "nu"}
_SORTED_WRAP = {"\\ceil": "ceil", "\\floor": "floor"}
_SORTED_PAIR = {"\\equals": "equals", "\\subseteq": "subseteq"}
_CONSTANTS = {"\\top": "top", "\\bottom": "bottom"}


@dataclass(frozen=True)
class _SNode:
    kind: str
    span: Span
    name: str = ""
    sort_name: str | None = None
    index: int = 0
    children: tuple["_SNode", ...] = ()


def _parse_node(ts: _TokenStream) -> _SNode:
    tok = ts.next("a pattern")
    ts.depth += 1
    try:
        return _parse_node_inner(ts, tok)
    finally:
        ts.depth -= 1


def _parse_node_inner(ts: _TokenStream, tok: Token) -> _SNode:
    if ts.depth > MAX_NESTING:
        raise _err(tok.span, "nesting",
                   f"pattern nesting exceeds {MAX_NESTING} levels")
    if tok.kind == "keyword":
        return _parse_keyword(ts, tok)
    if tok.kind == "bevar":
        return _SNode("bevar", tok.span, index=int(tok.text[1:]))
    if tok.kind == "bsvar":
        return _SNode("bsvar", tok.span, index=int(tok.text[1:]))
    if tok.kind == "punct" and tok.text == "#":
        name = ts.expect("name", what="a set variable name")
        ts.expect("punct", ":")
        sort = ts.expect("name", what="a sort name")
        return _SNode("svar", tok.span, name=name.text, sort_name=sort.text)
    if tok.kind == "name":
        nxt = ts.peek()
        if nxt is not None and nxt.kind == "punct" and nxt.text == "(":
            ts.next("(")
            args: list[_SNode] = []
            closer = ts.peek()
            if closer is not None and closer.kind == "punct" and closer.text == ")":
                ts.next(")")
            else:
                while True:
                    args.append(_parse_node(ts))
                    sep = ts.next("',' or ')'")
                    if sep.kind == "punct" and sep.text == ")":
                        break
                    if not (sep.kind == "punct" and sep.text == ","):
                        raise _err(sep.span, "syntax",
                                   f"expected ',' or ')', found {sep.text!r}")
            return _SNode("app", tok.span, name=tok.text, children=tuple(args))
        ts.expect("punct", ":", what="':' (free variables are written name:Sort)")
        sort = ts.expect("name", what="a sort name")
        return _SNode("evar", tok.span, name=tok.text, sort_name=sort.text)
    raise _err(tok.span, "syntax", f"expected a pattern, found {tok.text!r}")


def _parse_keyword(ts: _TokenStream, tok: Token) -> _SNode:
    word = tok.text
    if word == "\\not":
        ts.expect("punct", "(")
        body = _parse_node(ts)
        ts.expect("punct", ")")
        return _SNode("not", tok.span, children=(body,))
    if word in _BINARY:
        ts.expect("punct", "(")
        left = _parse_node(ts)
        ts.expect("punct", ",")
        right = _parse_node(ts)
        ts.expect("punct", ")")
        return _SNode(_BINARY[word], tok.span, children=(left, right))
    if word in _EX_BINDERS:
        sort = _parse_sort_annotation(ts)
        body = _parse_node(ts)
        return _SNode(_EX_BINDERS[word], tok.span, sort_name=sort, children=(body,))
    if word in _FIXPOINTS:
        sort = None
        nxt = ts.peek()
        if nxt is not None and nxt.kind == "punct" and nxt.text == "{":
            sort = _parse_sort_annotation(ts)
        body = _parse_node(ts)
        return _SNode(_FIXPOINTS[word], tok.span, sort_name=sort, children=(body,))
    if word in _SORTED_WRAP:
        sort = _parse_sort_annotation(ts)
        ts.expect("punct", "(")
        body = _parse_node(ts)
        ts.expect("punct", ")")
        return _SNode(_SORTED_WRAP[word], tok.span, sort_name=sort, children=(body,))
    if word in _SORTED_PAIR:
        sort = _parse_sort_annotation(ts)
        ts.expect("punct", "(")
        left = _parse_node(ts)
        ts.expect("punct", ",")
        right = _parse_node(ts)
        ts.expect("punct", ")")
        return _SNode(_SORTED_PAIR[word], tok.span, sort_name=sort,
                      children=(left, right))
    if word in _CONSTANTS:
        sort = _parse_sort_annotation(ts)
        return _SNode(_CONSTANTS[word], tok.span, sort_name=sort)
    raise _err(tok.span, "syntax", f"unknown connective {word!r}")


def _parse_sort_annotation(ts: _TokenStream) -> str:
    ts.expect("punct", "{")
    sort = ts.expect("name", what="a sort name")
    ts.expect("punct", "}")
    return sort.text


# --- elaboration ----------------------------------------------------------


class _Elaborator:
    """Turns surface nodes into kernel patterns, checking sorts top-down
    and inferring them bottom-up where the grammar leaves them open
    (definedness arguments and unannotated fixpoints)."""

    def __init__(self, sig: Signature):
        self.sig = sig

    def elab(self, node: _SNode, expect: Sort | None, ex: Context, mu: Context) -> Pattern:
        if expect is None:
            expect = self.infer(node, ex, mu)
            if expect is None:
                raise _err(node.span, "cannot-infer-sort",
                           "cannot infer the sort of this pattern; add a sort "
                           "annotation (e.g. \\mu{Sort})")
        try:
            return self._elab(node, expect, ex, mu)
        except _Bail:
            raise
        except MuLogicError as kernel_error:
            raise _err(node.span, "kernel", str(kernel_error)) from None

    def _sort(self, name: str | None, span: Span) -> Sort:
        if name is None or not self.sig.has_sort(name):
            raise _err(span, "unknown-sort", f"sort {name!r} is not declared")
        return self.sig.sort(name)

    def _check(self, got: Sort, expect: Sort, span: Span, what: str) -> None:
        if got != expect:
            raise _err(span, "sort-mismatch",
                       f"{what} has sort {got}, expected {expect}")

    def _elab(self, node: _SNode, expect: Sort, ex: Context, mu: Context) -> Pattern:
        kind = node.kind
        if kind == "evar":
            sort = self._sort(node.sort_name, node.span)
            self._check(sort, expect, node.span, f"variable {node.name}")
            return mk_free_evar(ElemVar(node.name, sort), ex, mu)
        if kind == "svar":
            sort = self._sort(node.sort_name, node.span)
            self._check(sort, expect, node.span, f"set variable {node.name}")
            return mk_free_svar(SetVar(node.name, sort), ex, mu)
        if kind == "bevar":
            if node.index >= len(ex):
                raise _err(node.span, "dangling-bound-variable",
                           f"dangling bound variable b{node.index}: the "
                           f"context has {len(ex)} entries")
            self._check(ex[node.index], expect, node.span, f"b{node.index}")
            return mk_bound_evar(ex, mu, node.index)
        if kind == "bsvar":
            if node.index >= len(mu):
                raise _err(node.span, "dangling-bound-variable",
                           f"dangling bound variable B{node.index}: the "
                           f"context has {len(mu)} entries")
            self._check(mu[node.index], expect, node.span, f"B{node.index}")
            return mk_bound_svar(ex, mu, node.index)
        if kind == "app":
            if not self.sig.has_symbol(node.name):
                raise _err(node.span, "unknown-symbol",
                           f"symbol {node.name!r} is not declared")
            symbol = self.sig.symbol(node.name)
            if len(node.children) != len(symbol.params):
                raise _err(node.span, "arity",
                           f"{symbol.name} expects {len(symbol.params)} "
                           f"argument(s), got {len(node.children)}")
            self._check(symbol.result, expect, node.span,
                        f"application of {symbol.name}")
            args = [
                self._elab(child, param, ex, mu)
                for child, param in zip(node.children, symbol.params)
            ]
            return mk_app(self.sig, symbol, args, ex, mu)
        if kind == "not":
            return mk_not(self._elab(node.children[0], expect, ex, mu))
        if kind in ("and", "or", "implies", "iff"):
            left = self._elab(node.children[0], expect, ex, mu)
            right = self._elab(node.children[1], expect, ex, mu)
            build = {"and": mk_and, "or": mk_or, "implies": mk_implies,
                     "iff": mk_iff}[kind]
            return build(left, right)
        if kind in ("exists", "forall"):
            binder = self._sort(node.sort_name, node.span)
            body = self._elab(node.children[0], expect, (binder,) + ex, mu)
            return (mk_exists if kind == "exists" else mk_forall)(binder, body)
        if kind in ("mu", "nu"):
            if node.sort_name is not None:
                annotated = self._sort(node.sort_name, node.span)
                self._check(annotated, expect, node.span, f"\\{kind} annotation")
            body = self._elab(node.children[0], expect, ex, (expect,) + mu)
            return (mk_mu if kind == "mu" else mk_nu)(body)
        if kind in ("ceil", "floor"):
            sort = self._sort(node.sort_name, node.span)
            self._check(sort, expect, node.span, f"\\{kind} pattern")
            body = self.elab(node.children[0], None, ex, mu)
            return (mk_defined if kind == "ceil" else mk_floor)(sort, body)
        if kind in ("equals", "subseteq"):
            sort = self._sort(node.sort_name, node.span)
            self._check(sort, expect, node.span, f"\\{kind} pattern")
            operand = self.infer(node.children[0], ex, mu)
            if operand is None:
                operand = self.infer(node.children[1], ex, mu)
            if operand is None:
                raise _err(node.children[0].span, "cannot-infer-sort",
                           "cannot infer the operand sort; add a sort annotation")
            left = self._elab(node.children[0], operand, ex, mu)
            right = self._elab(node.children[1], operand, ex, mu)
            return (mk_equals if kind == "equals" else mk_subseteq)(sort, left, right)
        if kind in ("top", "bottom"):
            sort = self._sort(node.sort_name, node.span)
            self._check(sort, expect, node.span, f"\\{kind} pattern")
            return (mk_top if kind == "top" else mk_bottom)(sort, ex, mu)
        raise AssertionError(f"unhandled surface node {kind}")

    def infer(self, node: _SNode, ex: Context,
              mu: tuple[Sort | None, ...]) -> Sort | None:
        kind = node.kind
        if kind in ("evar", "svar"):
            name = node.sort_name
            return self.sig.sort(name) if name and self.sig.has_sort(name) else None
        if kind == "bevar":
            if node.index >= len(ex):
                raise _err(node.span, "dangling-bound-variable",
                           f"dangling bound variable b{node.index}: the "
                           f"context has {len(ex)} entries")
            return ex[node.index]
        if kind == "bsvar":
            if node.index >= len(mu):
                raise _err(node.span, "dangling-bound-variable",
                           f"dangling bound variable B{node.index}: the "
                           f"context has {len(mu)} entries")
            return mu[node.index]
        if kind == "app":
            if not self.sig.has_symbol(node.name):
                return None
            return self.sig.symbol(node.name).result
        if kind == "not":
            return self.infer(node.children[0], ex, mu)
        if kind in ("and", "or", "implies", "iff"):
            left = self.infer(node.children[0], ex, mu)
            return left if left is not None else self.infer(node.children[1], ex, mu)
        if kind in ("exists", "forall"):
            name = node.sort_name
            if not (name and self.sig.has_sort(name)):
                return None
            return self.infer(node.children[0], (self.sig.sort(name),) + ex, mu)
        if kind in ("mu", "nu"):
            if node.sort_name is not None:
                name = node.sort_name
                return self.sig.sort(name) if self.sig.has_sort(name) else None
            return self.infer(node.children[0], ex, (None,) + mu)
        if kind in ("ceil", "floor", "equals", "subseteq", "top", "bottom"):
            name = node.sort_name
            return self.sig.sort(name) if name and self.sig.has_sort(name) else None
        raise AssertionError(f"unhandled surface node {kind}")


# --- public pattern API ----------------------------------------------------


def parse_pattern(
    text: str,
    sig: Signature,
    ex: Iterable[Sort] = (),
    mu: Iterable[Sort] = (),
    expect_sort: Sort | None = None,
) -> Pattern:
    """Parse and sort-check a pattern in the given contexts.

    Without ``expect_sort`` the sort is inferred; patterns whose sort is
    genuinely open (an unannotated ``\\mu B0`` under ``\\ceil``) need
    either the expected sort or an annotation.
    """
    tokens = tokenize(text)
    end = _end_span(text)
    ts = _TokenStream(tokens, end)
    try:
        node = _parse_node(ts)
        trailing = ts.peek()
        if trailing is not None:
            raise _err(trailing.span, "syntax",
                       f"unexpected trailing input {trailing.text!r}")
        return _Elaborator(sig).elab(node, expect_sort, tuple(ex), tuple(mu))
    except _Bail as bail:
        raise ParseError([bail.diagnostic]) from None


def _end_span(text: str) -> Span:
    lines = text.split("\n")
    return (len(lines), len(lines[-1]) + 1, 1)


# --- theory files -----------------------------------------------------------

_KNOWN_OPTIONS = frozenset({DEFINEDNESS_OPTION})


def parse_theory(text: str) -> Theory:
    """Parse a .mlt theory file; raises :class:`ParseError` carrying every
    diagnostic found."""
    diagnostics: list[Diagnostic] = []
    sig = Signature()
    axioms: list[tuple[str, Sort, Pattern]] = []
    labels: set[str] = set()
    options: set[str] = set()
    elab = _Elaborator(sig)

    for line_tokens, end in _lines(text):
        head = line_tokens[0]
        ts = _TokenStream(line_tokens[1:], end)
        try:
            if head.kind == "name" and head.text == "sort":
                name = ts.expect("name", what="a sort name")
                _expect_line_end(ts)
                if sig.has_sort(name.text):
                    raise _err(name.span, "duplicate-sort",
                               f"sort {name.text!r} already declared")
                sig.declare_sort(name.text)
            elif head.kind == "name" and head.text == "symbol":
                _parse_symbol_line(sig, ts)
            elif head.kind == "name" and head.text == "axiom":
                label, sort, pattern = _parse_axiom_line(elab, ts)
                if label in labels:
                    raise _err(head.span, "duplicate-label",
                               f"axiom label {label!r} already used")
                labels.add(label)
                axioms.append((label, sort, pattern))
            elif head.kind == "name" and head.text == "option":
                name = ts.expect("name", what="an option name")
                _expect_line_end(ts)
                if name.text not in _KNOWN_OPTIONS:
                    raise _err(name.span, "unknown-option",
                               f"unknown option {name.text!r}")
                options.add(name.text)
            else:
                raise _err(head.span, "syntax",
                           f"expected 'sort', 'symbol', 'axiom' or 'option', "
                           f"found {head.text!r}")
        except _Bail as bail:
            diagnostics.append(bail.diagnostic)

    if not sig.sorts:
        diagnostics.append(Diagnostic("error", (1, 1, 1), "no-sorts",
                                      "a theory must declare at least one sort"))
    if diagnostics:
        raise ParseError(diagnostics)

    theory = Theory(sig)
    for label, sort, pattern in axioms:
        theory = theory.add_axiom(label, sort, pattern)
    theory = Theory(theory.signature, theory.axioms, frozenset(options))
    if DEFINEDNESS_OPTION in options:
        theory = instantiate_definedness(theory)
    return theory


def _lines(text: str) -> list[tuple[list[Token], Span]]:
    tokens = tokenize(text)
    grouped: dict[int, list[Token]] = {}
    for tok in tokens:
        grouped.setdefault(tok.line, []).append(tok)
    out = []
    for line in sorted(grouped):
        toks = grouped[line]
        last = toks[-1]
        out.append((toks, (line, last.col + len(last.text), 1)))
    return out


def _expect_line_end(ts: _TokenStream) -> None:
    trailing = ts.peek()
    if trailing is not None:
        raise _err(trailing.span, "syntax",
                   f"unexpected trailing input {trailing.text!r}")


def _parse_symbol_line(sig: Signature, ts: _TokenStream) -> None:
    name = ts.expect("name", what="a symbol name")
    ts.expect("punct", ":")
    params: list[Sort] = []
    tok = ts.next("parameter sorts or '->'")
    while tok.kind != "arrow":
        if tok.kind != "name":
            raise _err(tok.span, "syntax",
                       f"expected a sort name or '->', found {tok.text!r}")
        if not sig.has_sort(tok.text):
            raise _err(tok.span, "unknown-sort",
                       f"sort {tok.text!r} is not declared")
        params.append(sig.sort(tok.text))
        tok = ts.next("',' or '->'")
        if tok.kind == "punct" and tok.text == ",":
            tok = ts.next("a sort name")
        elif tok.kind != "arrow":
            raise _err(tok.span, "syntax",
                       f"expected ',' or '->', found {tok.text!r}")
    result = ts.expect("name", what="a result sort")
    _expect_line_end(ts)
    if not sig.has_sort(result.text):
        raise _err(result.span, "unknown-sort",
                   f"sort {result.text!r} is not declared")
    if sig.has_symbol(name.text):
        raise _err(name.span, "duplicate-symbol",
                   f"symbol {name.text!r} already declared")
    sig.declare_symbol(name.text, params, sig.sort(result.text))


def _parse_axiom_line(
    elab: _Elaborator, ts: _TokenStream
) -> tuple[str, Sort, Pattern]:
    label = ts.expect("name", what="an axiom label")
    ts.expect("punct", "[")
    sort_tok = ts.expect("name", what="a sort name")
    ts.expect("punct", "]")
    if not elab.sig.has_sort(sort_tok.text):
        raise _err(sort_tok.span, "unknown-sort",
                   f"sort {sort_tok.text!r} is not declared")
    sort = elab.sig.sort(sort_tok.text)
    node = _parse_node(ts)
    _expect_line_end(ts)
    pattern = elab.elab(node, sort, (), ())
    return label.text, sort, pattern


# --- model files -------------------------------------------------------------


def parse_model(
    text: str, theory: Theory, lint_totality: bool = False
) -> tuple[FiniteModel, list[Diagnostic]]:
    """Parse a .mlm model file against the theory's signature.

    Returns the model and any warning diagnostics (the totality lint flags
    interpretation tuples left to the default empty set).
    """
    sig = theory.signature
    diagnostics: list[Diagnostic] = []
    warnings_out: list[Diagnostic] = []
    carriers: dict[str, list[str]] = {}
    carrier_lines: dict[str, Span] = {}
    interps: dict[str, dict[tuple[str, ...], list[str]]] = {}
    interp_lines: dict[str, Span] = {}
    saw_model_line = False

    for line_tokens, end in _lines(text):
        head = line_tokens[0]
        ts = _TokenStream(line_tokens[1:], end)
        try:
            if head.kind == "name" and head.text == "model":
                ts.expect("name", what="a model name")
                _expect_line_end(ts)
                if saw_model_line:
                    raise _err(head.span, "syntax", "duplicate 'model' line")
                saw_model_line = True
            elif head.kind == "name" and head.text == "carrier":
                _parse_carrier_line(sig, ts, carriers, carrier_lines)
            elif head.kind == "name" and head.text == "interp":
                _parse_interp_line(sig, ts, carriers, interps, interp_lines)
            else:
                raise _err(head.span, "syntax",
                           f"expected 'model', 'carrier' or 'interp', "
                           f"found {head.text!r}")
        except _Bail as bail:
            diagnostics.append(bail.diagnostic)

    for sort in sig.sorts:
        if not carriers.get(sort.name) and sort.name not in carrier_lines:
            diagnostics.append(Diagnostic(
                "error", (1, 1, 1), "empty-carrier",
                f"sort {sort.name} declares no carrier"))
    if diagnostics:
        raise ParseError(diagnostics)

    model = build_model(
        sig,
        carriers,
        {name: {tuple(k): v for k, v in table.items()}
         for name, table in interps.items()},
    )

    if lint_totality:
        for symbol in sig.symbols:
            table = interps.get(symbol.name, {})
            domains = [carriers[param.name] for param in symbol.params]
            for combo in itertools.product(*domains):
                if combo not in table:
                    warnings_out.append(Diagnostic(
                        "warning",
                        interp_lines.get(symbol.name, (1, 1, 1)),
                        "totality",
                        f"{symbol.name}({', '.join(combo)}) is not listed; "
                        "it defaults to the empty set"))
    return model, warnings_out


_LABEL_KINDS = ("name", "number", "bevar", "bsvar")


def _parse_label(ts: _TokenStream) -> Token:
    tok = ts.next("an element label")
    if tok.kind not in _LABEL_KINDS:
        raise _err(tok.span, "syntax",
                   f"expected an element label, found {tok.text!r}")
    return tok


def _parse_label_set(ts: _TokenStream) -> list[Token]:
    ts.expect("punct", "{")
    labels: list[Token] = []
    tok = ts.peek()
    if tok is not None and tok.kind == "punct" and tok.text == "}":
        ts.next("}")
        return labels
    while True:
        labels.append(_parse_label(ts))
        sep = ts.next("',' or '}'")
        if sep.kind == "punct" and sep.text == "}":
            return labels
        if not (sep.kind == "punct" and sep.text == ","):
            raise _err(sep.span, "syntax",
                       f"expected ',' or '}}', found {sep.text!r}")


def _parse_carrier_line(
    sig: Signature,
    ts: _TokenStream,
    carriers: dict[str, list[str]],
    carrier_lines: dict[str, Span],
) -> None:
    sort_tok = ts.expect("name", what="a sort name")
    if not sig.has_sort(sort_tok.text):
        raise _err(sort_tok.span, "unknown-sort",
                   f"sort {sort_tok.text!r} is not declared")
    if sort_tok.text in carrier_lines:
        raise _err(sort_tok.span, "duplicate-carrier",
                   f"carrier of {sort_tok.text} already declared")
    carrier_lines[sort_tok.text] = sort_tok.span
    ts.expect("eq", what="'='")
    labels = _parse_label_set(ts)
    _expect_line_end(ts)
    if not labels:
        raise _err(sort_tok.span, "empty-carrier",
                   f"sort {sort_tok.text} must have a non-empty carrier")
    seen: set[str] = set()
    for tok in labels:
        if tok.text in seen:
            raise _err(tok.span, "duplicate-label",
                       f"carrier element {tok.text!r} listed twice")
        seen.add(tok.text)
    carriers[sort_tok.text] = [tok.text for tok in labels]


def _parse_interp_line(
    sig: Signature,
    ts: _TokenStream,
    carriers: dict[str, list[str]],
    interps: dict[str, dict[tuple[str, ...], list[str]]],
    interp_lines: dict[str, Span],
) -> None:
    sym_tok = ts.expect("name", what="a symbol name")
    if not sig.has_symbol(sym_tok.text):
        raise _err(sym_tok.span, "unknown-symbol",
                   f"symbol {sym_tok.text!r} is not declared")
    symbol = sig.symbol(sym_tok.text)
    ts.expect("punct", "(")
    args: list[Token] = []
    tok = ts.peek()
    if tok is not None and tok.kind == "punct" and tok.text == ")":
        ts.next(")")
    else:
        while True:
            args.append(_parse_label(ts))
            sep = ts.next("',' or ')'")
            if sep.kind == "punct" and sep.text == ")":
                break
            if not (sep.kind == "punct" and sep.text == ","):
                raise _err(sep.span, "syntax",
                           f"expected ',' or ')', found {sep.text!r}")
    ts.expect("eq", what="'='")
    values = _parse_label_set(ts)
    _expect_line_end(ts)

    if len(args) != len(symbol.params):
        raise _err(sym_tok.span, "bad-tuple",
                   f"{symbol.name} expects {len(symbol.params)} argument(s), "
                   f"got {len(args)}")
    for tok, param in zip(args, symbol.params):
        domain = carriers.get(param.name)
        if domain is None:
            raise _err(tok.span, "bad-tuple",
                       f"no carrier declared (yet) for sort {param.name}")
        if tok.text not in domain:
            raise _err(tok.span, "bad-tuple",
                       f"{tok.text!r} is not an element of the {param.name} "
                       "carrier")
    result_domain = carriers.get(symbol.result.name)
    for tok in values:
        if result_domain is None:
            raise _err(tok.span, "bad-value",
                       f"no carrier declared (yet) for sort {symbol.result.name}")
        if tok.text not in result_domain:
            raise _err(tok.span, "bad-value",
                       f"{tok.text!r} is not an element of the "
                       f"{symbol.result.name} carrier")

    table = interps.setdefault(symbol.name, {})
    key = tuple(tok.text for tok in args)
    if key in table:
        raise _err(sym_tok.span, "duplicate-interp",
                   f"{symbol.name}({', '.join(key)}) already interpreted")
    table[key] = [tok.text for tok in values]
    interp_lines.setdefault(symbol.name, sym_tok.span)
