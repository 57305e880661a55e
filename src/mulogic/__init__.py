"""Matching mu-logic: a validated pattern kernel, substitution calculus,
finite-model evaluator, and theory satisfaction checker."""

from . import errors
from .model import (
    CarrierElem,
    CarrierSet,
    FiniteModel,
    SymbolInterp,
    build_model,
    singleton_fastpath,
)
from .parser import Diagnostic, ParseError, parse_model, parse_pattern, parse_theory
from .pattern import (
    And,
    App,
    BoundEVar,
    BoundSVar,
    Context,
    Defined,
    Exists,
    FreeEVar,
    FreeSVar,
    Mu,
    MuCheck,
    Not,
    Pattern,
    PositivityReport,
    check_mu_positivity,
    free_vars,
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
    print_pattern,
    size,
    structural_eq,
    validate,
)
from .semantics import (
    Valuation,
    eval_pattern,
    lfp_iterate,
    lfp_prefixpoints,
)
from .signature import ElemVar, SetVar, Signature, Sort, SymbolDecl
from .subst import (
    bevar_subst,
    bsvar_subst,
    extend_env,
    fevar_subst,
    fsvar_subst,
    index_subst,
    index_subst_set,
)
from .theory import (
    Axiom,
    AxiomResult,
    SatisfactionReport,
    Theory,
    Verdict,
    check_axiom,
    instantiate_definedness,
    report_records,
    report_text,
    satisfies,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    # signature
    "Signature", "Sort", "SymbolDecl", "ElemVar", "SetVar",
    # kernel
    "Pattern", "Context", "FreeEVar", "FreeSVar", "BoundEVar", "BoundSVar",
    "App", "Not", "And", "Exists", "Mu", "Defined",
    "mk_free_evar", "mk_free_svar", "mk_bound_evar", "mk_bound_svar",
    "mk_app", "mk_not", "mk_and", "mk_exists", "mk_mu", "mk_defined",
    "mk_top", "mk_bottom", "mk_or", "mk_implies", "mk_iff", "mk_forall",
    "mk_nu", "mk_floor", "mk_equals", "mk_subseteq",
    "size", "free_vars", "structural_eq", "validate",
    "check_mu_positivity", "PositivityReport", "MuCheck",
    # substitution
    "extend_env", "index_subst", "index_subst_set",
    "bevar_subst", "bsvar_subst", "fevar_subst", "fsvar_subst",
    # models
    "FiniteModel", "CarrierElem", "CarrierSet", "SymbolInterp",
    "build_model", "singleton_fastpath",
    # semantics
    "Valuation", "eval_pattern",
    "lfp_iterate", "lfp_prefixpoints",
    # theories
    "Theory", "Axiom", "AxiomResult", "Verdict", "SatisfactionReport",
    "check_axiom", "satisfies", "instantiate_definedness",
    "report_text", "report_records",
    # frontend
    "parse_theory", "parse_pattern", "parse_model", "print_pattern",
    "Diagnostic", "ParseError",
]
