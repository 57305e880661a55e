"""The public surface: the exported names, and which fields of each node
class take part in ``==``, ``hash`` and ``repr``."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

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


# --- the record classes --------------------------------------------------
#
# Every exported dataclass keeps its fields, constructor, ``==``, ``hash``,
# ``repr`` and refusal to be changed, however it is built.

PLAIN = (True, True, None, True)  # init, compare, hash, repr
HIDDEN = (False, False, None, False)  # a fact fixed by __post_init__


def plain(*names):
    return tuple((name, *PLAIN) for name in names)


NODE = plain("sort", "ex", "mu")
FACTS = (("_facts", *HIDDEN),)

# class -> its fields with their flags, and its constructor's parameters
RECORDS = {
    "And": (NODE + FACTS + plain("left", "right"), "(sort, ex, mu, left, right)"),
    "App": (NODE + FACTS + plain("symbol", "args"), "(sort, ex, mu, symbol, args)"),
    "Axiom": (plain("label", "sort", "pattern") + (("_variables", *HIDDEN),),
              "(label, sort, pattern)"),
    "AxiomResult": (plain("axiom", "verdict", "witness", "got", "message"),
                    "(axiom, verdict, witness=None, got=None, message=None)"),
    "BoundEVar": (NODE + FACTS + plain("index"), "(sort, ex, mu, index)"),
    "BoundSVar": (NODE + FACTS + plain("index"), "(sort, ex, mu, index)"),
    "CarrierElem": (plain("sort", "ordinal", "label"), "(sort, ordinal, label)"),
    "CarrierSet": (plain("sort", "width", "bits"), "(sort, width, bits)"),
    "Defined": (NODE + FACTS + plain("body"), "(sort, ex, mu, body)"),
    "Diagnostic": (plain("severity", "span", "code", "message"),
                   "(severity, span, code, message)"),
    "ElemVar": (plain("name", "sort"), "(name, sort)"),
    "Exists": (NODE + FACTS + plain("binder_sort", "body"), "(sort, ex, mu, binder_sort, body)"),
    "FreeEVar": (NODE + FACTS + plain("var"), "(sort, ex, mu, var)"),
    "FreeSVar": (NODE + FACTS + plain("var"), "(sort, ex, mu, var)"),
    "Mu": (NODE + FACTS + plain("body"), "(sort, ex, mu, body)"),
    "MuCheck": (plain("path", "positive"), "(path, positive)"),
    "Not": (NODE + FACTS + plain("body"), "(sort, ex, mu, body)"),
    "Pattern": (NODE + FACTS, "(sort, ex, mu)"),
    "PositivityReport": (plain("checks"), "(checks)"),
    "SatisfactionReport": (plain("results"), "(results)"),
    "SetVar": (plain("name", "sort"), "(name, sort)"),
    "Sort": (plain("name", "id"), "(name, id)"),
    "SymbolDecl": (plain("name", "params", "result", "id"), "(name, params, result, id)"),
    "SymbolInterp": (plain("symbol", "table"), "(symbol, table)"),
    "Theory": (plain("signature", "axioms", "options"),
               "(signature, axioms=(), options=frozenset())"),
    "Valuation": (plain("evars", "svars"), "(evars=<factory>, svars=<factory>)"),
}

# classes that compare and hash by identity
BY_IDENTITY = {"CarrierElem", "Sort", "SymbolDecl"}
# classes whose hash takes a dict field, so raises
UNHASHABLE = {"SymbolInterp", "Valuation"}
# node classes: ``==`` and ``hash`` are Pattern's structural folds
NODES = set(NODE_FIELDS) | {"Pattern"}
# classes with instances: a Pattern is built only as one of its node kinds
INSTANCES = sorted(set(RECORDS) - {"Pattern"})


def samples():
    """One instance of each record class, and its ``repr``."""
    sig = mulogic.Signature()
    nat = sig.declare_sort("Nat")
    succ = sig.declare_symbol("succ", [nat], nat)
    x, big_x = mulogic.ElemVar("x", nat), mulogic.SetVar("X", nat)
    zero = mulogic.CarrierElem(nat, 0, "0")
    low = mulogic.CarrierSet(nat, 2, 1)
    fx, fbig_x = mulogic.mk_free_evar(x), mulogic.mk_free_svar(big_x)
    b0 = mulogic.mk_bound_evar([nat], [], 0)
    bb0 = mulogic.mk_bound_svar([], [nat], 0)
    top = mulogic.mk_exists(nat, b0)
    axiom = mulogic.Axiom("a", nat, top)
    result = mulogic.AxiomResult(axiom, mulogic.Verdict.SATISFIED)
    check = mulogic.MuCheck((0,), True)
    N = "Sort(name='Nat', id=0)"
    X = f"ElemVar(name='x', sort={N})"
    FX = f"FreeEVar(sort={N}, ex=(), mu=(), var={X})"
    B0 = f"BoundEVar(sort={N}, ex=({N},), mu=(), index=0)"
    TOP = f"Exists(sort={N}, ex=(), mu=(), binder_sort={N}, body={B0})"
    AXIOM = f"Axiom(label='a', sort={N}, pattern={TOP})"
    RESULT = (f"AxiomResult(axiom={AXIOM}, verdict=<Verdict.SATISFIED: 'satisfied'>, "
              f"witness=None, got=None, message=None)")
    SUCC = f"SymbolDecl(name='succ', params=({N},), result={N}, id=0)"
    ZERO = f"CarrierElem(sort={N}, ordinal=0, label='0')"
    LOW = f"CarrierSet(sort={N}, width=2, bits=1)"
    return {
        "And": (mulogic.mk_and(fx, fx), f"And(sort={N}, ex=(), mu=(), left={FX}, right={FX})"),
        "App": (mulogic.mk_app(sig, succ, [fx]),
                f"App(sort={N}, ex=(), mu=(), symbol={SUCC}, args=({FX},))"),
        "Axiom": (axiom, AXIOM),
        "AxiomResult": (result, RESULT),
        "BoundEVar": (b0, B0),
        "BoundSVar": (bb0, f"BoundSVar(sort={N}, ex=(), mu=({N},), index=0)"),
        "CarrierElem": (zero, ZERO),
        "CarrierSet": (low, LOW),
        "Defined": (mulogic.mk_defined(nat, fx), f"Defined(sort={N}, ex=(), mu=(), body={FX})"),
        "Diagnostic": (mulogic.Diagnostic("error", (1, 2, 3), "syntax", "no"),
                       "Diagnostic(severity='error', span=(1, 2, 3), code='syntax', message='no')"),
        "ElemVar": (x, X),
        "Exists": (top, TOP),
        "FreeEVar": (fx, FX),
        "FreeSVar": (fbig_x, f"FreeSVar(sort={N}, ex=(), mu=(), var=SetVar(name='X', sort={N}))"),
        "Mu": (mulogic.mk_mu(bb0), f"Mu(sort={N}, ex=(), mu=(), body=BoundSVar(sort={N}, "
                                   f"ex=(), mu=({N},), index=0))"),
        "MuCheck": (check, "MuCheck(path=(0,), positive=True)"),
        "Not": (mulogic.mk_not(fx), f"Not(sort={N}, ex=(), mu=(), body={FX})"),
        "PositivityReport": (mulogic.PositivityReport((check,)),
                             "PositivityReport(checks=(MuCheck(path=(0,), positive=True),))"),
        "SatisfactionReport": (mulogic.SatisfactionReport((result,)),
                               f"SatisfactionReport(results=({RESULT},))"),
        "SetVar": (big_x, f"SetVar(name='X', sort={N})"),
        "Sort": (nat, N),
        "SymbolDecl": (succ, SUCC),
        "SymbolInterp": (mulogic.SymbolInterp(succ, {(zero,): low}),
                         f"SymbolInterp(symbol={SUCC}, table={{({ZERO},): {LOW}}})"),
        "Theory": (mulogic.Theory(sig, (axiom,)),
                   f"Theory(signature={sig!r}, axioms=({AXIOM},), options=frozenset())"),
        "Valuation": (mulogic.Valuation({x: zero}, {big_x: low}),
                      f"Valuation(evars={{{X}: {ZERO}}}, svars={{SetVar(name='X', sort={N}): {LOW}}})"),
    }


def test_records_are_the_exported_dataclasses():
    exported = {name for name in mulogic.__all__
                if dataclasses.is_dataclass(getattr(mulogic, name))}
    assert exported == set(RECORDS) == set(samples()) | {"Pattern"}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_fields_and_flags(name):
    fields = dataclasses.fields(getattr(mulogic, name))
    got = tuple((f.name, f.init, f.compare, f.hash, f.repr) for f in fields)
    assert got == RECORDS[name][0]
    assert getattr(mulogic, name).__match_args__ == tuple(f[0] for f in got if f[1])


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_constructor_signature(name):
    sig = inspect.signature(getattr(mulogic, name))
    bare = sig.replace(
        parameters=[p.replace(annotation=p.empty) for p in sig.parameters.values()],
        return_annotation=sig.empty,
    )
    assert str(bare) == RECORDS[name][1]
    assert {p.kind for p in sig.parameters.values()} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@pytest.mark.parametrize("name", INSTANCES)
def test_record_replace_round_trip(name):
    obj, _ = samples()[name]
    copy = dataclasses.replace(obj)
    assert copy is not obj and type(copy) is type(obj)
    assert all(getattr(copy, f.name) is getattr(obj, f.name)
               for f in dataclasses.fields(obj) if f.init)
    if name in BY_IDENTITY:
        assert copy != obj and obj == obj
    else:
        assert copy == obj


@pytest.mark.parametrize("name", INSTANCES)
def test_record_is_frozen(name):
    obj, _ = samples()[name]
    for f in dataclasses.fields(obj):
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{f.name}'"):
            setattr(obj, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{f.name}'"):
            delattr(obj, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.extra = 1


@pytest.mark.parametrize("name", INSTANCES)
def test_record_repr(name):
    obj, text = samples()[name]
    assert repr(obj) == text


@pytest.mark.parametrize("name", INSTANCES)
def test_record_eq_and_hash(name):
    obj, _ = samples()[name]
    assert obj.__eq__(object()) is NotImplemented
    if name in BY_IDENTITY:
        assert hash(obj) == object.__hash__(obj)
    elif name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(obj)
    elif name not in NODES:
        # the hash of the tuple of compared fields, so set order is kept
        key = tuple(getattr(obj, f.name) for f in dataclasses.fields(obj) if f.compare)
        assert hash(obj) == hash(key)


def test_import_generates_no_code():
    """No method of a mulogic class was compiled at import from generated
    source, as ``dataclass`` compiles ``__init__``, ``__eq__``, ``__hash__``,
    ``__repr__`` and a frozen ``__setattr__``, under the file name
    ``<string>``."""
    names = [info.name for info in pkgutil.walk_packages(mulogic.__path__, "mulogic.")]
    generated = {}
    for name in names:
        if name == "mulogic.__main__":  # runs the CLI
            continue
        module = importlib.import_module(name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != name:
                continue
            for attr, value in vars(cls).items():
                code = getattr(getattr(value, "__wrapped__", value), "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    generated.setdefault(f"{name}.{cls.__qualname__}", []).append(attr)
    assert generated == {}


def test_no_module_imports_inside_a_function():
    """Every import of the package runs when its module loads: none sits
    inside a function, where it would hide an import cycle."""
    nested = []
    for path in sorted(Path(mulogic.__file__).parent.rglob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []
