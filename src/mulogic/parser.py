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

The tokenizer makes one pass of a single regex over the text, takes each
column as the offset from its line's start, and emits plain ``__slots__``
token records.  The frontend has no nesting limit: its pattern routines
are generators that one driver, ``_run``, runs on an explicit stack.

Elaboration hash-conses: within one ``parse_pattern`` or ``parse_theory``
call, each distinct subterm written in the same contexts is elaborated
into one node, found by its key before any constructor runs (see
``_Elaborator``).  Nothing is kept across calls.

Model files have a second reader: one ``_MODEL_LINE_RE`` match per line
reads a well-formed file without making tokens, and any file it cannot
read goes to the token path, which alone reports diagnostics.

Every refusal is a :class:`ParseError`: a pattern or a binding raises the
first one, and the line driver collects one per failing line.  Each
"expected X, found Y" is phrased by ``_unexpected``.  A refusal that the
signature or the model states (an unknown or duplicate sort or symbol, a
wrong argument count) is theirs: ``_checked`` makes the call and reports
the error's own message, so sort inference and elaboration look a symbol
up the same way.  A file's line handlers are closures over that file's
state, one set per file format.
"""

from __future__ import annotations

import itertools
import re
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable, Iterator, Sequence

from ._record import record, set_field
from .errors import MuLogicError
from .model import FiniteModel, _check_arity, build_model
from .pattern import (
    EX,
    MU,
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


@record
class Diagnostic:
    """One error or warning about a span of a parsed text."""

    severity: str  # "error" | "warning"
    span: Span
    code: str
    message: str

    def __init__(self, severity: str, span: Span, code: str, message: str) -> None:
        set_field(self, "severity", severity)
        set_field(self, "span", span)
        set_field(self, "code", code)
        set_field(self, "message", message)

    def __str__(self) -> str:
        line, col, _ = self.span
        return f"{line}:{col}: {self.severity}[{self.code}]: {self.message}"


class ParseError(MuLogicError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = tuple(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


def _err(span: Span, code: str, message: str) -> ParseError:
    return ParseError([Diagnostic("error", span, code, message)])


def _unexpected(tok: Token, what: str) -> ParseError:
    return _err(tok.span, "syntax", f"expected {what}, found {tok.text!r}")


# --- tokens ---------------------------------------------------------------

# The first four alternatives start with characters no other one starts
# with, so trying them first changes no match; the rest keep their order.
_TOKEN_RE = re.compile(
    r"""
    (?P<punct>[(){}\[\],:#])
  | (?P<ws>[ \t\r]+)
  | (?P<newline>\n)
  | (?P<eq>=)
  | (?P<comment>//[^\n]*)
  | (?P<keyword>\\[A-Za-z]+)
  | (?P<arrow>->)
  | (?P<bevar>b\d+(?![A-Za-z0-9_']))
  | (?P<bsvar>B\d+(?![A-Za-z0-9_']))
  | (?P<name>[A-Za-z_][A-Za-z0-9_']*(?:-(?!>)[A-Za-z0-9_']+)*)
  | (?P<number>\d[A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_RESERVED_NAME_RE = re.compile(r"'\d+$")


class Token:
    """One token: its ``_TOKEN_RE`` group, its text and its 1-based
    position.  Compares by identity."""

    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    @property
    def span(self) -> Span:
        return (self.line, self.col, len(self.text))


def tokenize(text: str) -> list[Token]:
    """Produce the token stream; raises :class:`ParseError` on lex errors.

    One pass of ``_TOKEN_RE.finditer``: a token's column is its offset
    from the start of its line, and the first gap between two matches is
    the unexpected character."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        start = m.start()
        if start != pos:
            break
        pos = m.end()
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = pos
        elif kind != "ws" and kind != "comment":
            value = m.group()
            if kind == "name" and _RESERVED_NAME_RE.search(value):
                raise _err((line, start - line_start + 1, len(value)), "reserved-name",
                           f"identifier {value!r} is reserved: no name may "
                           "end in a quote followed by digits")
            append(Token(kind, value, line, start - line_start + 1))
    if pos < len(text):
        raise _err((line, pos - line_start + 1, 1), "lex",
                   f"unexpected character {text[pos]!r}")
    return tokens


class _TokenStream:
    def __init__(self, tokens: list[Token], end_span: Span):
        self._tokens = tokens
        self._pos = 0
        self._end_span = end_span

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
        label = what or f"'{text}'"
        tok = self.next(label)
        if tok.kind != kind or (text is not None and tok.text != text):
            raise _unexpected(tok, label)
        return tok


def _run(routine: Generator) -> Any:
    """Run a parser routine to its result.  A routine yields the generator
    of each call it makes and is sent back that call's result; pending calls
    wait on a list, so nesting depth is bounded by memory, not recursion."""
    stack, value = [routine], None
    while stack:
        try:
            stack.append(stack[-1].send(value))
            value = None
        except StopIteration as done:
            stack.pop()
            value = done.value
    return value


def _delimited(ts: _TokenStream, open_: str, close: str) -> Iterator[None]:
    """Step through ``open_ item, ... close`` (possibly empty): each step
    leaves the stream at an item, which the caller parses."""
    ts.expect("punct", open_)
    if ts.at(close):
        ts.next(close)
        return
    what = f"',' or '{close}'"
    while True:
        yield
        sep = ts.next(what)
        if sep.kind == "punct" and sep.text == close:
            return
        if not (sep.kind == "punct" and sep.text == ","):
            raise _unexpected(sep, what)


def _expect_end(ts: _TokenStream) -> None:
    trailing = ts.peek()
    if trailing is not None:
        raise _err(trailing.span, "syntax",
                   f"unexpected trailing input {trailing.text!r}")


def _checked(span: Span, code: str, call: Callable[..., Any], *args: Any) -> Any:
    """``call(*args)``, a signature or model call that states its own
    refusals: the :class:`MuLogicError` it raises becomes a ``code``
    diagnostic at ``span`` with the error's message."""
    try:
        return call(*args)
    except MuLogicError as err:
        raise _err(span, code, str(err)) from None


# --- surface syntax -------------------------------------------------------

_REQUIRED, _OPTIONAL, _ABSENT = "required", "optional", "absent"


class _Connective:
    """How a connective ``\\kind`` is written, sort-checked and built.

    ``annotation`` says whether ``{Sort}`` follows the keyword.  On an
    ``EX`` binder the annotation is the bound variable's sort; elsewhere it
    is the sort of the whole pattern.  ``binds`` is the kind of the context
    the operand's scope extends, or None for a connective that binds
    nothing: ``EX`` by the annotation, ``MU`` by the pattern's own sort
    (the kinds of :mod:`mulogic.pattern`).  The builder takes the required
    annotation first, then the operands, or the contexts when there are
    none.  ``infers_operands``: a required annotation on a non-binder
    fixes the pattern's sort and not its operands'; they share a sort
    inferred from them.
    """

    __slots__ = ("kind", "annotation", "arity", "parens", "build", "binds",
                 "infers_operands")

    def __init__(self, kind: str, annotation: str, arity: int, parens: bool,
                 build: Callable[..., Pattern], binds: int | None = None):
        self.kind = kind
        self.annotation = annotation
        self.arity = arity
        self.parens = parens
        self.build = build
        self.binds = binds
        self.infers_operands = annotation == _REQUIRED and binds is None


_CONNECTIVES = {conn.kind: conn for conn in (
    _Connective("not", _ABSENT, 1, True, mk_not),
    _Connective("and", _ABSENT, 2, True, mk_and),
    _Connective("or", _ABSENT, 2, True, mk_or),
    _Connective("implies", _ABSENT, 2, True, mk_implies),
    _Connective("iff", _ABSENT, 2, True, mk_iff),
    _Connective("exists", _REQUIRED, 1, False, mk_exists, binds=EX),
    _Connective("forall", _REQUIRED, 1, False, mk_forall, binds=EX),
    _Connective("mu", _OPTIONAL, 1, False, mk_mu, binds=MU),
    _Connective("nu", _OPTIONAL, 1, False, mk_nu, binds=MU),
    _Connective("ceil", _REQUIRED, 1, True, mk_defined),
    _Connective("floor", _REQUIRED, 1, True, mk_floor),
    _Connective("equals", _REQUIRED, 2, True, mk_equals),
    _Connective("subseteq", _REQUIRED, 2, True, mk_subseteq),
    _Connective("top", _REQUIRED, 0, False, mk_top),
    _Connective("bottom", _REQUIRED, 0, False, mk_bottom),
)}


class _SNode:
    """A parsed surface pattern, before elaboration."""

    __slots__ = ("kind", "span", "name", "sort_name", "index", "children")

    def __init__(self, kind: str, span: Span, name: str = "",
                 sort_name: str | None = None, index: int = 0,
                 children: tuple[_SNode, ...] = ()):
        self.kind = kind
        self.span = span
        self.name = name
        self.sort_name = sort_name
        self.index = index
        self.children = children


def _parse_node(ts: _TokenStream) -> Generator:
    tok = ts.next("a pattern")
    if tok.kind == "keyword":
        return (yield _parse_keyword(ts, tok))
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
            args = []
            for _ in _delimited(ts, "(", ")"):
                args.append((yield _parse_node(ts)))
            return _SNode("app", tok.span, name=tok.text, children=tuple(args))
        ts.expect("punct", ":", what="':' (free variables are written name:Sort)")
        sort = ts.expect("name", what="a sort name")
        return _SNode("evar", tok.span, name=tok.text, sort_name=sort.text)
    raise _unexpected(tok, "a pattern")


def _parse_keyword(ts: _TokenStream, tok: Token) -> Generator:
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
        operands.append((yield _parse_node(ts)))
    if conn.parens:
        ts.expect("punct", ")")
    return _SNode(conn.kind, tok.span, sort_name=sort, children=tuple(operands))


# --- elaboration ----------------------------------------------------------

_CANNOT_INFER = ("cannot infer the sort of this pattern; add a sort "
                 "annotation (e.g. \\mu{Sort})")

# Per surface kind of a free variable: its record, its node builder and how
# a sort mismatch names it.
_FREE_VARIABLE = {
    "evar": (ElemVar, mk_free_evar, "variable"),
    "svar": (SetVar, mk_free_svar, "set variable"),
}


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
    (definedness arguments and unannotated fixpoints).

    One elaborator serves one ``parse_pattern`` or ``parse_theory`` call
    and makes one node per distinct subterm written in it (hash-consing:
    Filliâtre & Conchon, ML Workshop 2006).  Its table maps each node's
    key to the node made for it: the surface kind, the expected sort, the
    contexts, the payload (a symbol, a variable's name or an index) and
    the children's identities.  A hit returns that node and builds
    nothing, so a subterm written twice in the same contexts is one
    object, and placement, whose memo is keyed by identity, computes it
    once.  A derived connective's expansion is entered as a whole: the
    nodes inside it are its builder's.  Keys hold no pattern, whose ``==``
    and ``hash`` walk it; separate calls share nothing.
    """

    def __init__(self, sig: Signature):
        self.sig = sig
        self._table: dict[tuple, Pattern] = {}

    def _node(self, key: tuple, build: Callable[..., Pattern], *args: Any) -> Pattern:
        """The node for ``key``, made by ``build(*args)`` on a miss."""
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = build(*args)
        return node

    def elab(self, node: _SNode, expect: Sort | None, ex: Context, mu: Context) -> Pattern:
        if expect is None:
            expect = _run(self.infer((node,), ex, mu))
            if expect is None:
                raise _err(node.span, "cannot-infer-sort", _CANNOT_INFER)
        try:
            return _run(self._elab(node, expect, ex, mu))
        except ParseError:
            raise
        except MuLogicError as kernel_error:
            raise _err(node.span, "kernel", str(kernel_error)) from None

    def _check(self, got: Sort, expect: Sort, span: Span, what: str) -> None:
        if got != expect:
            raise _err(span, "sort-mismatch",
                       f"{what} has sort {got}, expected {expect}")

    def _elab(self, node: _SNode, expect: Sort, ex: Context, mu: Context) -> Generator:
        conn = _CONNECTIVES.get(node.kind)
        if conn is not None:
            return (yield self._elab_connective(conn, node, expect, ex, mu))
        if node.kind in ("bevar", "bsvar"):
            self._check(_bound_sort(node, ex, mu), expect, node.span, node.name)
            build = mk_bound_evar if node.kind == "bevar" else mk_bound_svar
            return self._node((node.kind, expect, ex, mu, node.index),
                              build, ex, mu, node.index)
        if node.kind == "app":
            symbol = _checked(node.span, "unknown-symbol", self.sig.symbol, node.name)
            _checked(node.span, "arity", _check_arity, symbol, len(node.children))
            self._check(symbol.result, expect, node.span,
                        f"application of {symbol.name}")
            args = []
            for child, param in zip(node.children, symbol.params):
                args.append((yield self._elab(child, param, ex, mu)))
            return self._node((node.kind, expect, ex, mu, symbol, *map(id, args)),
                              mk_app, self.sig, symbol, args, ex, mu)
        sort = _checked(node.span, "unknown-sort", self.sig.sort, node.sort_name)
        var, build, what = _FREE_VARIABLE[node.kind]
        self._check(sort, expect, node.span, f"{what} {node.name}")
        return self._node((node.kind, sort, ex, mu, node.name),
                          build, var(node.name, sort), ex, mu)

    def _elab_connective(self, conn: _Connective, node: _SNode, expect: Sort,
                         ex: Context, mu: Context) -> Generator:
        annotation = None
        if node.sort_name is not None:
            annotation = _checked(node.span, "unknown-sort", self.sig.sort, node.sort_name)
        # an \exists binder's sort is its body's first ex sort, and any
        # other annotation is the expected sort
        key = (node.kind, expect, ex, mu)
        if conn.binds == EX:
            ex = (annotation,) + ex
        elif annotation is not None:
            what = "annotation" if conn.annotation == _OPTIONAL else "pattern"
            self._check(annotation, expect, node.span, f"\\{conn.kind} {what}")
        if conn.binds == MU:
            mu = (expect,) + mu
        operand = expect
        if conn.infers_operands and node.children:
            operand = yield self.infer(node.children, ex, mu)
            if operand is None:
                raise _err(node.children[0].span, "cannot-infer-sort",
                           _CANNOT_INFER if len(node.children) == 1 else
                           "cannot infer the operand sort; add a sort annotation")
        operands = []
        for child in node.children:
            operands.append((yield self._elab(child, operand, ex, mu)))
        leading = [annotation] if conn.annotation == _REQUIRED else []
        return self._node((*key, *map(id, operands)), conn.build,
                          *leading, *(operands or (ex, mu)))

    def infer(self, nodes: Sequence[_SNode], ex: Context,
              mu: tuple[Sort | None, ...]) -> Generator:
        """The inferred sort of the first of ``nodes`` that has one, else None."""
        for node in nodes:
            conn = _CONNECTIVES.get(node.kind)
            if conn is None:
                if node.kind in ("bevar", "bsvar"):
                    sort = _bound_sort(node, ex, mu)
                elif node.kind == "app":
                    sort = _checked(node.span, "unknown-symbol", self.sig.symbol,
                                    node.name).result
                else:
                    sort = _checked(node.span, "unknown-sort", self.sig.sort, node.sort_name)
            elif conn.binds == EX:
                binder = _checked(node.span, "unknown-sort", self.sig.sort, node.sort_name)
                sort = yield self.infer(node.children, (binder,) + ex, mu)
            elif node.sort_name is not None:
                sort = _checked(node.span, "unknown-sort", self.sig.sort, node.sort_name)
            else:
                inner = (None,) + mu if conn.binds == MU else mu
                sort = yield self.infer(node.children, ex, inner)
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
    node = _run(_parse_node(ts))
    _expect_end(ts)
    return _Elaborator(sig).elab(node, expect_sort, tuple(ex), tuple(mu))


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
    for line, group in itertools.groupby(tokenize(text), key=attrgetter("line")):
        head, *rest = group
        last = rest[-1] if rest else head
        ts = _TokenStream(rest, (line, last.col + len(last.text), 1))
        handler = handlers.get(head.text) if head.kind == "name" else None
        try:
            if handler is None:
                raise _unexpected(head, expected)
            handler(head, ts)
        except ParseError as err:
            diagnostics.extend(err.diagnostics)
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
        _checked(name.span, "duplicate-sort", sig.declare_sort, name.text)

    def symbol_line(head: Token, ts: _TokenStream) -> None:
        name = ts.expect("name", what="a symbol name")
        ts.expect("punct", ":")
        params: list[Sort] = []
        tok = ts.next("parameter sorts or '->'")
        while tok.kind != "arrow":
            if tok.kind != "name":
                raise _unexpected(tok, "a sort name or '->'")
            params.append(_checked(tok.span, "unknown-sort", sig.sort, tok.text))
            tok = ts.next("',' or '->'")
            if tok.kind == "punct" and tok.text == ",":
                tok = ts.expect("name", what="a sort name")
            elif tok.kind != "arrow":
                raise _unexpected(tok, "',' or '->'")
        result = ts.expect("name", what="a result sort")
        _expect_end(ts)
        result_sort = _checked(result.span, "unknown-sort", sig.sort, result.text)
        _checked(name.span, "duplicate-symbol", sig.declare_symbol, name.text, params,
                 result_sort)

    def axiom_line(head: Token, ts: _TokenStream) -> None:
        label = ts.expect("name", what="an axiom label")
        ts.expect("punct", "[")
        sort_tok = ts.expect("name", what="a sort name")
        ts.expect("punct", "]")
        sort = _checked(sort_tok.span, "unknown-sort", sig.sort, sort_tok.text)
        node = _run(_parse_node(ts))
        _expect_end(ts)
        axiom = Axiom(label.text, sort, elab.elab(node, sort, (), ()))
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
        "symbol": symbol_line,
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


# --- model files -------------------------------------------------------------


def parse_model(
    text: str, theory: Theory, lint_totality: bool = False
) -> tuple[FiniteModel, list[Diagnostic]]:
    """Parse a .mlm model file against the theory's signature.

    Returns the model and any warning diagnostics (the totality lint flags
    interpretation tuples left to the default empty set).

    A well-formed file is read one regex match per line.  Any other file,
    including one ``build_model`` refuses, is read again by the tokenizer,
    which reports every diagnostic.
    """
    sig = theory.signature
    read = _read_model_lines(text, sig)
    model = None
    if read is not None:
        try:
            model = build_model(sig, read[0], read[1])
        except MuLogicError:
            pass  # the token path says why
    if model is None:
        read = _parse_model_tokens(text, sig)
        model = build_model(sig, read[0], read[1])
    carriers, interps, interp_lines = read

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


# A model file's data: its carriers' labels in order, its tables and each
# symbol's first ``interp`` span, all by name.
_ModelData = tuple[dict[str, Sequence[str]],
                   dict[str, dict[tuple[str, ...], list[str]]], dict[str, Span]]

# One line of a model file: a ``model``, ``carrier`` or ``interp`` line or
# none, then an optional comment.  Names and labels are ASCII words that the
# tokenizer reads as one token of the same text, so no name has the shape of
# a bound variable (``b1``) and no label holds a quote or a hyphen.
_NAME = r"(?![bB][0-9]+(?![A-Za-z0-9_]))[A-Za-z_][A-Za-z0-9_]*"
_LABELS = r"[ \t\r]*(?:[A-Za-z0-9_]+[ \t\r]*(?:,[ \t\r]*[A-Za-z0-9_]+[ \t\r]*)*)?"
_MODEL_LINE_RE = re.compile(
    rf"[ \t\r]*(?:model[ \t\r]+(?P<model>{_NAME}(?:-[A-Za-z0-9_]+)*)"
    rf"|carrier[ \t\r]+(?P<sort>{_NAME})[ \t\r]*=[ \t\r]*\{{(?P<carrier>{_LABELS})\}}"
    rf"|interp[ \t\r]+(?P<symbol>{_NAME})[ \t\r]*\((?P<args>{_LABELS})\)"
    rf"[ \t\r]*=[ \t\r]*\{{(?P<values>{_LABELS})\}})?[ \t\r]*(?://.*)?"
)


def _split_labels(group: str) -> list[str]:
    # the group matched _LABELS, so its only whitespace is [ \t\r]
    joined = "".join(group.split())
    return joined.split(",") if joined else []


def _read_model_lines(text: str, sig: Signature) -> _ModelData | None:
    """A model file's data read with one ``_MODEL_LINE_RE`` match per
    line, or None for the token path to read: a line that does not match,
    a second ``model`` or ``carrier`` line, a repeated ``interp`` key, an
    undeclared symbol, or a symbol's first ``interp`` line above a carrier
    of its sorts.  What ``build_model`` refuses is left to it."""
    carriers: dict[str, list[str]] = {}
    interps: dict[str, dict[tuple[str, ...], list[str]]] = {}
    interp_lines: dict[str, Span] = {}
    named = False
    for number, line in enumerate(text.split("\n"), 1):
        m = _MODEL_LINE_RE.fullmatch(line)
        if m is None:
            return None
        name = m["symbol"]
        if name is not None:
            table = interps.get(name)
            if table is None:
                if not sig.has_symbol(name):
                    return None
                symbol = sig.symbol(name)
                if any(s.name not in carriers for s in (*symbol.params, symbol.result)):
                    return None
                table = interps[name] = {}
                interp_lines[name] = (number, m.start("symbol") + 1, len(name))
            key = tuple(_split_labels(m["args"]))
            if key in table:
                return None
            table[key] = _split_labels(m["values"])
        elif m["sort"] is not None:
            if m["sort"] in carriers:
                return None
            carriers[m["sort"]] = _split_labels(m["carrier"])
        elif m["model"] is not None:
            if named:
                return None
            named = True
    return carriers, interps, interp_lines


_LABEL_KINDS = ("name", "number", "bevar", "bsvar")


def _parse_label(ts: _TokenStream) -> Token:
    tok = ts.next("an element label")
    if tok.kind not in _LABEL_KINDS:
        raise _unexpected(tok, "an element label")
    return tok


def _parse_model_tokens(text: str, sig: Signature) -> _ModelData:
    """A model file's data read from tokens; raises :class:`ParseError`
    carrying every diagnostic found."""
    carriers: dict[str, dict[str, None]] = {}  # labels in declaration order
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

    def carrier_line(head: Token, ts: _TokenStream) -> None:
        sort_tok = ts.expect("name", what="a sort name")
        _checked(sort_tok.span, "unknown-sort", sig.sort, sort_tok.text)
        if sort_tok.text in carrier_lines:
            raise _err(sort_tok.span, "duplicate-carrier",
                       f"carrier of {sort_tok.text} already declared")
        carrier_lines.add(sort_tok.text)
        ts.expect("eq", what="'='")
        labels = [_parse_label(ts) for _ in _delimited(ts, "{", "}")]
        _expect_end(ts)
        if not labels:
            raise _err(sort_tok.span, "empty-carrier",
                       f"sort {sort_tok.text} must have a non-empty carrier")
        domain: dict[str, None] = {}
        for tok in labels:
            if tok.text in domain:
                raise _err(tok.span, "duplicate-label",
                           f"carrier element {tok.text!r} listed twice")
            domain[tok.text] = None
        carriers[sort_tok.text] = domain

    def interp_line(head: Token, ts: _TokenStream) -> None:
        sym_tok = ts.expect("name", what="a symbol name")
        symbol = _checked(sym_tok.span, "unknown-symbol", sig.symbol, sym_tok.text)
        args = [_parse_label(ts) for _ in _delimited(ts, "(", ")")]
        ts.expect("eq", what="'='")
        values = [_parse_label(ts) for _ in _delimited(ts, "{", "}")]
        _expect_end(ts)

        _checked(sym_tok.span, "bad-tuple", _check_arity, symbol, len(args))
        check_elements(args, symbol.params, "bad-tuple")
        check_elements(values, itertools.repeat(symbol.result), "bad-value")

        table = interps.setdefault(symbol.name, {})
        key = tuple(tok.text for tok in args)
        if key in table:
            raise _err(sym_tok.span, "duplicate-interp",
                       f"{symbol.name}({', '.join(key)}) already interpreted")
        table[key] = [tok.text for tok in values]
        interp_lines.setdefault(symbol.name, sym_tok.span)

    def check_elements(labels: Iterable[Token], sorts: Iterable[Sort], code: str) -> None:
        for tok, sort in zip(labels, sorts):
            domain = carriers.get(sort.name)
            if domain is None:
                raise _err(tok.span, code, f"no carrier declared (yet) for sort {sort.name}")
            if tok.text not in domain:
                raise _err(tok.span, code,
                           f"{tok.text!r} is not an element of the {sort.name} carrier")

    diagnostics = _parse_lines(text, {
        "model": model_line,
        "carrier": carrier_line,
        "interp": interp_line,
    })
    for sort in sig.sorts:
        if sort.name not in carrier_lines:
            diagnostics.append(Diagnostic(
                "error", (1, 1, 1), "empty-carrier",
                f"sort {sort.name} declares no carrier"))
    if diagnostics:
        raise ParseError(diagnostics)
    return carriers, interps, interp_lines


# --- command-line bindings ----------------------------------------------------


def parse_binding(text: str, braced: bool) -> tuple[str, str, list[str]]:
    """Read a variable binding ``name:Sort=label``, or ``name:Sort={label,
    ...}`` when ``braced``, with the tokenizer and label grammar of model
    files.  Returns the names and labels; raises :class:`ParseError`."""
    ts = _TokenStream(tokenize(text), _end_span(text))
    name = ts.expect("name", what="a variable name")
    ts.expect("punct", ":")
    sort = ts.expect("name", what="a sort name")
    ts.expect("eq", what="'='")
    labels = ([_parse_label(ts) for _ in _delimited(ts, "{", "}")] if braced
              else [_parse_label(ts)])
    _expect_end(ts)
    return name.text, sort.text, [tok.text for tok in labels]
