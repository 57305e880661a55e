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

Connectives are table-driven: one ``_CONNECTIVES`` row per keyword fixes
its sort annotation (required, optional or absent), operand count,
parentheses, scope and builder, and parsing, elaboration and sort
inference all read that row.  One delimited-list parser reads application
arguments, ``interp`` arguments and label sets, and one line driver runs
both file formats.  :func:`parse_binding` reads the CLI's ``-v``/``-V``
bindings with the same tokenizer and label grammar as model files.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

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
from .theory import DEFINEDNESS_OPTION, Axiom, Theory, instantiate_definedness

Span = tuple[int, int, int]  # (line, column, length), 1-based positions
T = TypeVar("T")


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
# at ~8).  What still recurses on a parsed tree is ``_parse_node`` and
# ``_Elaborator._elab``/``infer`` (once per surface level) and the
# dataclass-generated ``==``/``hash`` of pattern nodes, which
# ``structural_eq`` uses (once per core level), so the surface cap keeps
# them well inside the interpreter's limit.  Raising it waits for interned
# nodes, whose ``==`` and ``hash`` do not recurse.
MAX_NESTING = 64


class _TokenStream:
    def __init__(self, tokens: Sequence[Token], end_span: Span):
        self._tokens = list(tokens)
        self._pos = 0
        self._end_span = end_span
        self.depth = 0

    def peek(self) -> Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def at(self, punct: str) -> bool:
        """Whether the next token is the punctuation ``punct``."""
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.text == punct

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


def _delimited(ts: _TokenStream, open_: str, close: str,
               item: Callable[[_TokenStream], T]) -> list[T]:
    """Parse ``open_ item, ... close`` (possibly empty)."""
    ts.expect("punct", open_)
    items: list[T] = []
    if ts.at(close):
        ts.next(close)
        return items
    while True:
        items.append(item(ts))
        sep = ts.next(f"',' or '{close}'")
        if sep.kind == "punct" and sep.text == close:
            return items
        if not (sep.kind == "punct" and sep.text == ","):
            raise _err(sep.span, "syntax", f"expected ',' or '{close}', found {sep.text!r}")


def _expect_end(ts: _TokenStream) -> None:
    trailing = ts.peek()
    if trailing is not None:
        raise _err(trailing.span, "syntax",
                   f"unexpected trailing input {trailing.text!r}")


def _known_sort(sig: Signature, name: str) -> Sort | None:
    return sig.sort(name) if sig.has_sort(name) else None


def _declared_sort(sig: Signature, name: str, span: Span) -> Sort:
    sort = _known_sort(sig, name)
    if sort is None:
        raise _err(span, "unknown-sort", f"sort {name!r} is not declared")
    return sort


# --- surface syntax -------------------------------------------------------

_REQUIRED, _OPTIONAL, _ABSENT = "required", "optional", "absent"


@dataclass(frozen=True)
class _Connective:
    """How a connective ``\\kind`` is written, sort-checked and built.

    ``annotation`` says whether ``{Sort}`` follows the keyword.  On a
    binder (``binds == "ex"``) the annotation is the bound variable's sort;
    elsewhere it is the sort of the whole pattern.  ``binds`` names the
    context the operand's scope extends: ``"ex"`` by the annotation,
    ``"mu"`` by the pattern's own sort.  The builder takes the required
    annotation first, then the operands, or the contexts when there are
    none.
    """

    kind: str
    annotation: str
    arity: int
    parens: bool
    build: Callable[..., Pattern]
    binds: str = ""

    @property
    def infers_operands(self) -> bool:
        """A required annotation on a non-binder fixes the pattern's sort
        and not its operands': they share a sort inferred from them."""
        return self.annotation == _REQUIRED and not self.binds


_CONNECTIVES = {conn.kind: conn for conn in (
    _Connective("not", _ABSENT, 1, True, mk_not),
    _Connective("and", _ABSENT, 2, True, mk_and),
    _Connective("or", _ABSENT, 2, True, mk_or),
    _Connective("implies", _ABSENT, 2, True, mk_implies),
    _Connective("iff", _ABSENT, 2, True, mk_iff),
    _Connective("exists", _REQUIRED, 1, False, mk_exists, binds="ex"),
    _Connective("forall", _REQUIRED, 1, False, mk_forall, binds="ex"),
    _Connective("mu", _OPTIONAL, 1, False, mk_mu, binds="mu"),
    _Connective("nu", _OPTIONAL, 1, False, mk_nu, binds="mu"),
    _Connective("ceil", _REQUIRED, 1, True, mk_defined),
    _Connective("floor", _REQUIRED, 1, True, mk_floor),
    _Connective("equals", _REQUIRED, 2, True, mk_equals),
    _Connective("subseteq", _REQUIRED, 2, True, mk_subseteq),
    _Connective("top", _REQUIRED, 0, False, mk_top),
    _Connective("bottom", _REQUIRED, 0, False, mk_bottom),
)}


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
    if tok.kind in ("bevar", "bsvar"):
        index = int(tok.text[1:])
        return _SNode(tok.kind, tok.span, name=f"{tok.text[0]}{index}", index=index)
    if tok.kind == "punct" and tok.text == "#":
        name = ts.expect("name", what="a set variable name")
        ts.expect("punct", ":")
        sort = ts.expect("name", what="a sort name")
        return _SNode("svar", tok.span, name=name.text, sort_name=sort.text)
    if tok.kind == "name":
        if ts.at("("):
            args = _delimited(ts, "(", ")", _parse_node)
            return _SNode("app", tok.span, name=tok.text, children=tuple(args))
        ts.expect("punct", ":", what="':' (free variables are written name:Sort)")
        sort = ts.expect("name", what="a sort name")
        return _SNode("evar", tok.span, name=tok.text, sort_name=sort.text)
    raise _err(tok.span, "syntax", f"expected a pattern, found {tok.text!r}")


def _parse_keyword(ts: _TokenStream, tok: Token) -> _SNode:
    conn = _CONNECTIVES.get(tok.text[1:])
    if conn is None:
        raise _err(tok.span, "syntax", f"unknown connective {tok.text!r}")
    sort = None
    if conn.annotation == _REQUIRED or (conn.annotation == _OPTIONAL and ts.at("{")):
        ts.expect("punct", "{")
        sort = ts.expect("name", what="a sort name").text
        ts.expect("punct", "}")
    if conn.parens:
        ts.expect("punct", "(")
    operands = []
    for i in range(conn.arity):
        if conn.parens and i:
            ts.expect("punct", ",")
        operands.append(_parse_node(ts))
    if conn.parens:
        ts.expect("punct", ")")
    return _SNode(conn.kind, tok.span, sort_name=sort, children=tuple(operands))


# --- elaboration ----------------------------------------------------------

_CANNOT_INFER = ("cannot infer the sort of this pattern; add a sort "
                 "annotation (e.g. \\mu{Sort})")


def _bound_sort(node: _SNode, ex: Context, mu: tuple[Sort | None, ...]) -> Sort | None:
    context = ex if node.kind == "bevar" else mu
    if node.index >= len(context):
        raise _err(node.span, "dangling-bound-variable",
                   f"dangling bound variable {node.name}: the "
                   f"context has {len(context)} entries")
    return context[node.index]


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
                raise _err(node.span, "cannot-infer-sort", _CANNOT_INFER)
        try:
            return self._elab(node, expect, ex, mu)
        except _Bail:
            raise
        except MuLogicError as kernel_error:
            raise _err(node.span, "kernel", str(kernel_error)) from None

    def _check(self, got: Sort, expect: Sort, span: Span, what: str) -> None:
        if got != expect:
            raise _err(span, "sort-mismatch",
                       f"{what} has sort {got}, expected {expect}")

    def _elab(self, node: _SNode, expect: Sort, ex: Context, mu: Context) -> Pattern:
        conn = _CONNECTIVES.get(node.kind)
        if conn is not None:
            return self._elab_connective(conn, node, expect, ex, mu)
        if node.kind in ("bevar", "bsvar"):
            self._check(_bound_sort(node, ex, mu), expect, node.span, node.name)
            build = mk_bound_evar if node.kind == "bevar" else mk_bound_svar
            return build(ex, mu, node.index)
        if node.kind == "app":
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
        sort = _declared_sort(self.sig, node.sort_name, node.span)
        if node.kind == "evar":
            self._check(sort, expect, node.span, f"variable {node.name}")
            return mk_free_evar(ElemVar(node.name, sort), ex, mu)
        self._check(sort, expect, node.span, f"set variable {node.name}")
        return mk_free_svar(SetVar(node.name, sort), ex, mu)

    def _elab_connective(self, conn: _Connective, node: _SNode, expect: Sort,
                         ex: Context, mu: Context) -> Pattern:
        annotation = None
        if node.sort_name is not None:
            annotation = _declared_sort(self.sig, node.sort_name, node.span)
        if conn.binds == "ex":
            ex = (annotation,) + ex
        elif annotation is not None:
            what = "annotation" if conn.annotation == _OPTIONAL else "pattern"
            self._check(annotation, expect, node.span, f"\\{conn.kind} {what}")
        if conn.binds == "mu":
            mu = (expect,) + mu
        operand = expect
        if conn.infers_operands and node.children:
            operand = self._first_sort(node.children, ex, mu)
            if operand is None:
                raise _err(node.children[0].span, "cannot-infer-sort",
                           _CANNOT_INFER if len(node.children) == 1 else
                           "cannot infer the operand sort; add a sort annotation")
        operands = [self._elab(child, operand, ex, mu) for child in node.children]
        leading = [annotation] if conn.annotation == _REQUIRED else []
        return conn.build(*leading, *(operands or (ex, mu)))

    def infer(self, node: _SNode, ex: Context,
              mu: tuple[Sort | None, ...]) -> Sort | None:
        conn = _CONNECTIVES.get(node.kind)
        if conn is None:
            if node.kind in ("bevar", "bsvar"):
                return _bound_sort(node, ex, mu)
            if node.kind == "app":
                if not self.sig.has_symbol(node.name):
                    return None
                return self.sig.symbol(node.name).result
            return _known_sort(self.sig, node.sort_name)
        if conn.binds == "ex":
            binder = _known_sort(self.sig, node.sort_name)
            if binder is None:
                return None
            return self._first_sort(node.children, (binder,) + ex, mu)
        if node.sort_name is not None:
            return _known_sort(self.sig, node.sort_name)
        if conn.binds == "mu":
            mu = (None,) + mu
        return self._first_sort(node.children, ex, mu)

    def _first_sort(self, nodes: Sequence[_SNode], ex: Context,
                    mu: tuple[Sort | None, ...]) -> Sort | None:
        for node in nodes:
            sort = self.infer(node, ex, mu)
            if sort is not None:
                return sort
        return None


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
    ts = _TokenStream(tokenize(text), _end_span(text))
    try:
        node = _parse_node(ts)
        _expect_end(ts)
        return _Elaborator(sig).elab(node, expect_sort, tuple(ex), tuple(mu))
    except _Bail as bail:
        raise ParseError([bail.diagnostic]) from None


def _end_span(text: str) -> Span:
    lines = text.split("\n")
    return (len(lines), len(lines[-1]) + 1, 1)


# --- line-oriented files ------------------------------------------------------


def _parse_lines(
    text: str, handlers: dict[str, Callable[[Token, _TokenStream], None]]
) -> list[Diagnostic]:
    """Run ``handlers[head word](head, rest)`` on each non-empty line;
    return one diagnostic per failing line."""
    words = [f"'{word}'" for word in handlers]
    expected = f"{', '.join(words[:-1])} or {words[-1]}"
    diagnostics: list[Diagnostic] = []
    for line, group in itertools.groupby(tokenize(text), key=lambda tok: tok.line):
        head, *rest = group
        last = rest[-1] if rest else head
        ts = _TokenStream(rest, (line, last.col + len(last.text), 1))
        handler = handlers.get(head.text) if head.kind == "name" else None
        try:
            if handler is None:
                raise _err(head.span, "syntax",
                           f"expected {expected}, found {head.text!r}")
            handler(head, ts)
        except _Bail as bail:
            diagnostics.append(bail.diagnostic)
    return diagnostics


# --- theory files -----------------------------------------------------------

_KNOWN_OPTIONS = frozenset({DEFINEDNESS_OPTION})


def parse_theory(text: str) -> Theory:
    """Parse a .mlt theory file; raises :class:`ParseError` carrying every
    diagnostic found."""
    sig = Signature()
    elab = _Elaborator(sig)
    axioms: dict[str, Axiom] = {}
    options: set[str] = set()

    def sort_line(head: Token, ts: _TokenStream) -> None:
        name = ts.expect("name", what="a sort name")
        _expect_end(ts)
        if sig.has_sort(name.text):
            raise _err(name.span, "duplicate-sort",
                       f"sort {name.text!r} already declared")
        sig.declare_sort(name.text)

    def axiom_line(head: Token, ts: _TokenStream) -> None:
        axiom = _parse_axiom_line(elab, ts)
        if axiom.label in axioms:
            raise _err(head.span, "duplicate-label",
                       f"axiom label {axiom.label!r} already used")
        axioms[axiom.label] = axiom

    def option_line(head: Token, ts: _TokenStream) -> None:
        name = ts.expect("name", what="an option name")
        _expect_end(ts)
        if name.text not in _KNOWN_OPTIONS:
            raise _err(name.span, "unknown-option",
                       f"unknown option {name.text!r}")
        options.add(name.text)

    diagnostics = _parse_lines(text, {
        "sort": sort_line,
        "symbol": lambda head, ts: _parse_symbol_line(sig, ts),
        "axiom": axiom_line,
        "option": option_line,
    })
    if not sig.sorts:
        diagnostics.append(Diagnostic("error", (1, 1, 1), "no-sorts",
                                      "a theory must declare at least one sort"))
    if diagnostics:
        raise ParseError(diagnostics)

    theory = Theory(sig, tuple(axioms.values()), frozenset(options))
    if DEFINEDNESS_OPTION in options:
        theory = instantiate_definedness(theory)
    return theory


def _parse_symbol_line(sig: Signature, ts: _TokenStream) -> None:
    name = ts.expect("name", what="a symbol name")
    ts.expect("punct", ":")
    params: list[Sort] = []
    tok = ts.next("parameter sorts or '->'")
    while tok.kind != "arrow":
        if tok.kind != "name":
            raise _err(tok.span, "syntax",
                       f"expected a sort name or '->', found {tok.text!r}")
        params.append(_declared_sort(sig, tok.text, tok.span))
        tok = ts.next("',' or '->'")
        if tok.kind == "punct" and tok.text == ",":
            tok = ts.next("a sort name")
        elif tok.kind != "arrow":
            raise _err(tok.span, "syntax",
                       f"expected ',' or '->', found {tok.text!r}")
    result = ts.expect("name", what="a result sort")
    _expect_end(ts)
    result_sort = _declared_sort(sig, result.text, result.span)
    if sig.has_symbol(name.text):
        raise _err(name.span, "duplicate-symbol",
                   f"symbol {name.text!r} already declared")
    sig.declare_symbol(name.text, params, result_sort)


def _parse_axiom_line(elab: _Elaborator, ts: _TokenStream) -> Axiom:
    label = ts.expect("name", what="an axiom label")
    ts.expect("punct", "[")
    sort_tok = ts.expect("name", what="a sort name")
    ts.expect("punct", "]")
    sort = _declared_sort(elab.sig, sort_tok.text, sort_tok.span)
    node = _parse_node(ts)
    _expect_end(ts)
    return Axiom(label.text, sort, elab.elab(node, sort, (), ()))


# --- model files -------------------------------------------------------------


def parse_model(
    text: str, theory: Theory, lint_totality: bool = False
) -> tuple[FiniteModel, list[Diagnostic]]:
    """Parse a .mlm model file against the theory's signature.

    Returns the model and any warning diagnostics (the totality lint flags
    interpretation tuples left to the default empty set).
    """
    sig = theory.signature
    carriers: dict[str, list[str]] = {}
    carrier_lines: set[str] = set()
    interps: dict[str, dict[tuple[str, ...], list[str]]] = {}
    interp_lines: dict[str, Span] = {}
    model_lines: list[Token] = []

    def model_line(head: Token, ts: _TokenStream) -> None:
        ts.expect("name", what="a model name")
        _expect_end(ts)
        if model_lines:
            raise _err(head.span, "syntax", "duplicate 'model' line")
        model_lines.append(head)

    diagnostics = _parse_lines(text, {
        "model": model_line,
        "carrier": lambda head, ts: _parse_carrier_line(sig, ts, carriers, carrier_lines),
        "interp": lambda head, ts: _parse_interp_line(
            sig, ts, carriers, interps, interp_lines),
    })
    for sort in sig.sorts:
        if sort.name not in carrier_lines:
            diagnostics.append(Diagnostic(
                "error", (1, 1, 1), "empty-carrier",
                f"sort {sort.name} declares no carrier"))
    if diagnostics:
        raise ParseError(diagnostics)

    model = build_model(sig, carriers, interps)

    warnings_out: list[Diagnostic] = []
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


def _parse_carrier_line(
    sig: Signature,
    ts: _TokenStream,
    carriers: dict[str, list[str]],
    carrier_lines: set[str],
) -> None:
    sort_tok = ts.expect("name", what="a sort name")
    _declared_sort(sig, sort_tok.text, sort_tok.span)
    if sort_tok.text in carrier_lines:
        raise _err(sort_tok.span, "duplicate-carrier",
                   f"carrier of {sort_tok.text} already declared")
    carrier_lines.add(sort_tok.text)
    ts.expect("eq", what="'='")
    labels = _delimited(ts, "{", "}", _parse_label)
    _expect_end(ts)
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
    args = _delimited(ts, "(", ")", _parse_label)
    ts.expect("eq", what="'='")
    values = _delimited(ts, "{", "}", _parse_label)
    _expect_end(ts)

    if len(args) != len(symbol.params):
        raise _err(sym_tok.span, "bad-tuple",
                   f"{symbol.name} expects {len(symbol.params)} argument(s), "
                   f"got {len(args)}")
    _check_elements(carriers, args, symbol.params, "bad-tuple")
    _check_elements(carriers, values, itertools.repeat(symbol.result), "bad-value")

    table = interps.setdefault(symbol.name, {})
    key = tuple(tok.text for tok in args)
    if key in table:
        raise _err(sym_tok.span, "duplicate-interp",
                   f"{symbol.name}({', '.join(key)}) already interpreted")
    table[key] = [tok.text for tok in values]
    interp_lines.setdefault(symbol.name, sym_tok.span)


def _check_elements(carriers: dict[str, list[str]], labels: Iterable[Token],
                    sorts: Iterable[Sort], code: str) -> None:
    for tok, sort in zip(labels, sorts):
        domain = carriers.get(sort.name)
        if domain is None:
            raise _err(tok.span, code, f"no carrier declared (yet) for sort {sort.name}")
        if tok.text not in domain:
            raise _err(tok.span, code,
                       f"{tok.text!r} is not an element of the {sort.name} carrier")


# --- command-line bindings ----------------------------------------------------


def parse_binding(text: str, braced: bool) -> tuple[str, str, list[str]]:
    """Read a variable binding ``name:Sort=label``, or ``name:Sort={label,
    ...}`` when ``braced``, with the tokenizer and label grammar of model
    files.  Returns the names and labels; raises :class:`ParseError`."""
    ts = _TokenStream(tokenize(text), _end_span(text))
    try:
        name = ts.expect("name", what="a variable name")
        ts.expect("punct", ":")
        sort = ts.expect("name", what="a sort name")
        ts.expect("eq", what="'='")
        labels = _delimited(ts, "{", "}", _parse_label) if braced else [_parse_label(ts)]
        _expect_end(ts)
    except _Bail as bail:
        raise ParseError([bail.diagnostic]) from None
    return name.text, sort.text, [tok.text for tok in labels]
