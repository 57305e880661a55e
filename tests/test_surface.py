"""The public surface: the exported names, and which fields of each node
class take part in ``==``, ``hash`` and ``repr``."""

import dataclasses

import pytest

import mulogic

PUBLIC_NAMES = [
    "And", "App", "Axiom", "AxiomResult", "BoundEVar", "BoundSVar",
    "CarrierElem", "CarrierSet", "Context", "Defined", "Diagnostic", "ElemVar",
    "Exists", "FiniteModel", "FreeEVar", "FreeSVar", "Mu", "MuCheck", "Not",
    "ParseError", "Pattern", "PositivityReport", "SatisfactionReport", "SetVar",
    "Signature", "Sort", "SymbolDecl", "SymbolInterp", "Theory", "Valuation",
    "Verdict", "bevar_subst", "bsvar_subst", "build_model", "check_axiom",
    "check_mu_positivity", "errors", "eval_pattern", "extend_env", "fevar_subst",
    "free_vars", "fsvar_subst", "index_subst", "index_subst_set",
    "instantiate_definedness", "lfp_iterate", "lfp_prefixpoints", "mk_and",
    "mk_app", "mk_bottom", "mk_bound_evar", "mk_bound_svar", "mk_defined",
    "mk_equals", "mk_exists", "mk_floor", "mk_forall", "mk_free_evar",
    "mk_free_svar", "mk_iff", "mk_implies", "mk_mu", "mk_not", "mk_nu", "mk_or",
    "mk_subseteq", "mk_top", "parse_model", "parse_pattern", "parse_theory",
    "print_pattern", "report_records", "report_text", "satisfies",
    "singleton_fastpath", "size", "structural_eq", "validate",
]

# the fields after (sort, ex, mu), which every node class has
NODE_FIELDS = {
    "FreeEVar": ("var",),
    "FreeSVar": ("var",),
    "BoundEVar": ("index",),
    "BoundSVar": ("index",),
    "App": ("symbol", "args"),
    "Not": ("body",),
    "And": ("left", "right"),
    "Exists": ("binder_sort", "body"),
    "Mu": ("body",),
    "Defined": ("body",),
}


def test_exported_names():
    assert sorted(mulogic.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("name", sorted(NODE_FIELDS))
def test_node_fields_in_eq_hash_and_repr(name):
    fields = dataclasses.fields(getattr(mulogic, name))
    expected = ("sort", "ex", "mu", *NODE_FIELDS[name])
    assert tuple(f.name for f in fields if f.compare) == expected
    assert tuple(f.name for f in fields if (f.compare if f.hash is None else f.hash)) == expected
    assert tuple(f.name for f in fields if f.repr) == expected
