"""Canonical concrete syntax for patterns.

Printing is core-syntax only: derived connectives were expanded at
construction time and print as their expansions.  Mu binders are printed
with their sort annotation so that any constructible pattern, of any depth,
parses back without an expected sort: ``parse(print(p)) == p``.
"""

from __future__ import annotations

from typing import Sequence

from .pattern import (
    And,
    App,
    BoundEVar,
    BoundSVar,
    Defined,
    Exists,
    FreeEVar,
    FreeSVar,
    Mu,
    Not,
    Pattern,
    _flatten,
    _joined,
    fold_pattern,
)

# Per node kind: the text before the children, between them, and after.
_SYNTAX = {
    FreeEVar: lambda p: (f"{p.var.name}:{p.var.sort.name}", "", ""),
    FreeSVar: lambda p: (f"#{p.var.name}:{p.var.sort.name}", "", ""),
    BoundEVar: lambda p: (f"b{p.index}", "", ""),
    BoundSVar: lambda p: (f"B{p.index}", "", ""),
    App: lambda p: (f"{p.symbol.name}(", ", ", ")"),
    Not: lambda p: ("\\not(", "", ")"),
    And: lambda p: ("\\and(", ", ", ")"),
    Exists: lambda p: (f"\\exists{{{p.binder_sort.name}}} ", "", ""),
    Mu: lambda p: (f"\\mu{{{p.sort.name}}} ", "", ""),
    Defined: lambda p: (f"\\ceil{{{p.sort.name}}}(", "", ")"),
}


def _layout(node: Pattern, kids: Sequence[list]) -> list:
    # A rope: strings and the children's ropes, shared, not copied.
    before, between, after = _SYNTAX[type(node)](node)
    return [before, *_joined(kids, between), after]


def print_pattern(p: Pattern) -> str:
    return _flatten(fold_pattern(p, _layout))
