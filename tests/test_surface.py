"""The public surface: the exported names, and which fields of each node
class take part in ``==``, ``hash`` and ``repr``."""

import ast
import copy
import dataclasses
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
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


@pytest.mark.skipif(sys.version_info < (3, 13), reason="copy.replace is new in Python 3.13")
@pytest.mark.parametrize("name", INSTANCES)
def test_record_copy_replace(name):
    obj, _ = samples()[name]
    assert repr(copy.replace(obj)) == repr(obj)


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


# --- the dataclass view ----------------------------------------------------
#
# Records build their dataclass view when it is first read.  It holds what
# ``dataclass`` made of them when it ran at import.

MISSING = dataclasses.MISSING
# field -> its annotation, in every record that has the field
TYPES = {
    "_facts": "tuple", "_variables": "tuple", "args": "tuple[Pattern, ...]",
    "axiom": "Axiom", "axioms": "tuple[Axiom, ...]", "binder_sort": "Sort", "bits": "int",
    "body": "Pattern", "checks": "tuple[MuCheck, ...]", "code": "str",
    "evars": "Mapping[ElemVar, CarrierElem]", "ex": "Context", "got": "CarrierSet | None",
    "id": "int", "index": "int", "label": "str", "left": "Pattern", "mu": "Context",
    "name": "str", "options": "frozenset[str]", "ordinal": "int", "params": "tuple[Sort, ...]",
    "path": "tuple[int, ...]", "pattern": "Pattern", "positive": "bool", "result": "Sort",
    "results": "tuple[AxiomResult, ...]", "right": "Pattern", "severity": "str",
    "signature": "Signature", "sort": "Sort", "span": "Span",
    "svars": "Mapping[SetVar, CarrierSet]", "symbol": "SymbolDecl",
    "table": "Mapping[tuple[CarrierElem, ...], CarrierSet]", "verdict": "Verdict",
    "width": "int", "witness": "Valuation | None",
}
# (class, field) -> its annotation, where records differ
CLASS_TYPES = {
    ("AxiomResult", "message"): "str | None", ("Diagnostic", "message"): "str",
    ("FreeEVar", "var"): "ElemVar", ("FreeSVar", "var"): "SetVar",
}
# (class, field) -> (default, default_factory), where either is set
DEFAULTS = {
    ("AxiomResult", "witness"): (None, MISSING), ("AxiomResult", "got"): (None, MISSING),
    ("AxiomResult", "message"): (None, MISSING), ("Theory", "axioms"): ((), MISSING),
    ("Theory", "options"): (frozenset(), MISSING), ("Valuation", "evars"): (MISSING, dict),
    ("Valuation", "svars"): (MISSING, dict),
}
# every record's __dataclass_params__ (Python 3.12 added the last four)
PARAMS = {"init": False, "repr": False, "eq": False, "order": False, "unsafe_hash": False,
          "frozen": False, "match_args": True, "kw_only": False, "slots": False,
          "weakref_slot": False}


def view(cls):
    """Every attribute of every field of ``cls``, and then its dataclass
    parameters, which exist once the fields have been read."""
    fields = [(f.name, f.type, f.default, f.default_factory, f.init, f.repr, f.hash,
               f.compare, f.kw_only, dict(f.metadata)) for f in dataclasses.fields(cls)]
    params = cls.__dataclass_params__
    return fields, {key: getattr(params, key, value) for key, value in PARAMS.items()}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_dataclass_view(name):
    cls = getattr(mulogic, name)
    fields, params = view(cls)
    expected = [(field, CLASS_TYPES.get((name, field), TYPES.get(field)),
                 *DEFAULTS.get((name, field), (MISSING, MISSING)), init, repr, hash, compare,
                 False, {}) for field, init, compare, hash, repr in RECORDS[name][0]]
    assert fields == expected
    assert params == PARAMS and "__dataclass_params__" in vars(cls)
    # a field is a class attribute only when it has a default
    assert all(hasattr(cls, f.name) == (f.default is not MISSING)
               for f in dataclasses.fields(cls))


def sample_dicts(sig):
    """``dataclasses.asdict`` of each sample but the two that hold a dict
    keyed by records, whose keys it would turn into dicts."""
    N = {"name": "Nat", "id": 0}
    X = {"name": "x", "sort": N}

    def node(ex=(), mu=(), facts=(0, 0, 0, True, True), **rest):
        return {"sort": N, "ex": ex, "mu": mu, "_facts": facts, **rest}

    FX = node(var=X)
    B0 = node(ex=(N,), facts=(1, 0, 0, False, True), index=0)
    BB0 = node(mu=(N,), facts=(0, 1, 0, False, True), index=0)
    TOP = node(facts=(0, 0, 0, False, True), binder_sort=N, body=B0)
    AXIOM = {"label": "a", "sort": N, "pattern": TOP, "_variables": ()}
    RESULT = {"axiom": AXIOM, "verdict": mulogic.Verdict.SATISFIED, "witness": None,
              "got": None, "message": None}
    CHECK = {"path": (0,), "positive": True}
    SUCC = {"name": "succ", "params": (N,), "result": N, "id": 0}
    return {
        "And": node(left=FX, right=FX), "App": node(symbol=SUCC, args=(FX,)),
        "Axiom": AXIOM, "AxiomResult": RESULT, "BoundEVar": B0, "BoundSVar": BB0,
        "CarrierElem": {"sort": N, "ordinal": 0, "label": "0"},
        "CarrierSet": {"sort": N, "width": 2, "bits": 1}, "Defined": node(body=FX),
        "Diagnostic": {"severity": "error", "span": (1, 2, 3), "code": "syntax",
                       "message": "no"},
        "ElemVar": X, "Exists": TOP, "FreeEVar": FX, "FreeSVar": node(var={"name": "X", "sort": N}),
        "Mu": node(facts=(0, 0, 0, False, True), body=BB0), "MuCheck": CHECK,
        "Not": node(body=FX), "PositivityReport": {"checks": (CHECK,)},
        "SatisfactionReport": {"results": (RESULT,)}, "SetVar": {"name": "X", "sort": N},
        "Sort": N, "SymbolDecl": SUCC,
        # asdict copies the signature, which is no record
        "Theory": {"signature": sig, "axioms": (AXIOM,), "options": frozenset()},
    }


@pytest.mark.parametrize("name", INSTANCES)
def test_record_asdict(name):
    obj, _ = samples()[name]
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            dataclasses.asdict(obj)
    else:
        sig = samples()["Theory"][0].signature
        assert repr(dataclasses.asdict(obj)) == repr(sample_dicts(sig)[name])


FIRST_READ = """
import dataclasses, sys
sys.path.insert(0, sys.argv[1])
import mulogic, test_surface
objs, names = test_surface.samples(), sorted(test_surface.RECORDS)
before = [name for name in names if "__dataclass_params__" in vars(getattr(mulogic, name))]
for name in names:
    dataclasses.fields(objs[name][0] if sys.argv[2] == "instance" and name in objs
                       else getattr(mulogic, name))
views = [test_surface.view(getattr(mulogic, name)) for name in names]
print(repr((before, views)).replace(repr(dataclasses.MISSING), "MISSING"))
"""


def test_record_view_is_built_on_first_read_from_class_or_instance():
    """In a new interpreter no record has its view at import, and reading it
    first from an instance or from the class builds the same view as here."""
    here = repr(([], [view(getattr(mulogic, name)) for name in sorted(RECORDS)]))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(mulogic.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    for first in ("class", "instance"):
        proc = subprocess.run([sys.executable, "-c", FIRST_READ, str(Path(__file__).parent), first],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == here.replace(repr(MISSING), "MISSING")


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


# The one import allowed inside a function: records import ``dataclasses``
# only to build their dataclass view or to refuse a write, so that the CLI
# starts without it.  It is a standard module, so it hides no cycle.
DEFERRED = ("_record.py", "import dataclasses")


def test_no_module_imports_inside_a_function():
    """Every import of the package runs when its module loads: none sits
    inside a function, where it would hide an import cycle."""
    nested = []
    for path in sorted(Path(mulogic.__file__).parent.rglob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(scope)
                           if isinstance(node, (ast.Import, ast.ImportFrom))
                           and (path.name, ast.unparse(node)) != DEFERRED]
    assert nested == []


def test_bench_tracer_wraps_names_that_exist():
    """``bench/tracer.py`` wraps package names by attribute, such as
    ``semantics.singleton_fastpath``, ``semantics.bevar_subst`` and
    ``theory.eval_pattern``: renaming or deleting one breaks every traced
    benchmark run.  Load it by path, install it on the package and take it
    off again, which puts back every name it wrapped."""
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    importlib.import_module("mulogic.cli")  # the tracer wraps names of the CLI too
    tracer = module.Tracer()
    try:
        tracer.install(mulogic)
        patched = list(tracer._patches)
        assert patched and all(getattr(owner, attr) is not original
                               for owner, attr, original in patched)
    finally:
        tracer.restore()
    assert all(getattr(owner, attr) is original for owner, attr, original in patched)
