"""The line reader of model files against the token path.

``parse_model`` reads a well-formed .mlm file with one regex match per
line and sends any other file to the tokenizer.  The line reader must
accept no text the token path refuses, and build the same model, spans
and warnings from every text it accepts.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from mulogic import Theory, parse_model, parse_theory
from mulogic import parser
from mulogic.corpus import corpus_path
from mulogic.errors import MuLogicError
from gen import random_model_data, random_signature
from test_fuzz import mutants


@pytest.fixture(scope="module")
def bench_gen():
    """``bench/generate.py``, loaded by path when a test first needs it, so
    that in a copy without ``bench/`` only those tests fail, naming it."""
    spec = importlib.util.spec_from_file_location(
        "bench_generate", Path(__file__).resolve().parents[1] / "bench" / "generate.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def natbool():
    return parse_theory(corpus_path("natbool.mlt").read_text(encoding="utf-8"))


def outcome(text: str, theory: Theory):
    """Everything ``parse_model`` gives for ``text``: carriers in order,
    mask tables and linted warnings, or the error with its diagnostics."""
    try:
        model, warnings = parse_model(text, theory, lint_totality=True)
    except MuLogicError as err:
        return type(err).__name__, getattr(err, "diagnostics", str(err))
    sig = theory.signature
    return ({sort.name: [e.label for e in model.carrier(sort)] for sort in sig.sorts},
            {symbol.name: model.mask_table(symbol) for symbol in sig.symbols},
            [(str(w), w.span) for w in warnings])


def token_outcome(text: str, theory: Theory, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(parser, "_read_model_lines", lambda text, sig: None)
        return outcome(text, theory)


def line_outcome(text: str, theory: Theory, monkeypatch):
    """``outcome`` with the tokenizer disabled, so only the line reader runs."""
    def refuse(text):
        raise AssertionError("the model file went to the tokenizer")

    with monkeypatch.context() as patch:
        patch.setattr(parser, "tokenize", refuse)
        return outcome(text, theory)


def assert_agrees(text: str, theory: Theory, monkeypatch) -> bool:
    """Both readers give the same outcome; returns whether the line reader
    took the text."""
    assert outcome(text, theory) == token_outcome(text, theory, monkeypatch), text
    return parser._read_model_lines(text, theory.signature) is not None


def nat64_text() -> str:
    """The 64-element model of the CLI tests: capped natbool, 4,236 lines."""
    n = 64

    def value(k):
        return f"{{ {k} }}" if k < n else "{ }"

    lines = ["model nat64", "carrier Bool = { t, f }",
             f"carrier Nat = {{ {', '.join(map(str, range(n)))} }}",
             "interp true() = { t }", "interp false() = { f }",
             "interp notb(t) = { f }", "interp notb(f) = { t }"]
    lines += [f"interp andb({a}, {b}) = {{ {'t' if a == b == 't' else 'f'} }}"
              for a in "tf" for b in "tf"]
    lines.append("interp O() = { 0 }")
    lines += [f"interp S({k}) = {value(k + 1)}" for k in range(n)]
    lines += [f"interp isZero({k}) = {{ {'t' if k == 0 else 'f'} }}" for k in range(n)]
    lines += [f"interp plus({a}, {b}) = {value(a + b)}" for a in range(n) for b in range(n)]
    return "\n".join(lines) + "\n"


def render(rng: random.Random, carriers, interps) -> str:
    """Model text for label data, with seeded layout: blank lines, tabs,
    comments, CRLF endings, and now and then lines out of order or twice."""
    lines = [f"model m{rng.randint(0, 99)}"]
    lines += [f"carrier {sort} = {{ {', '.join(labels)} }}" for sort, labels in carriers.items()]
    lines += [f"interp {name}({', '.join(key)}) = {{ {', '.join(values)} }}"
              for name, table in interps.items() for key, values in table.items()]
    if rng.random() < 0.2:
        rng.shuffle(lines)
    if rng.random() < 0.2:
        lines.append(rng.choice(lines))
    out = []
    for line in lines:
        if rng.random() < 0.1:
            out.append(rng.choice(["", "  // note", "\t"]))
        sep = rng.choice([" ", "\t", "  "])
        line = line.replace(" ", sep) if rng.random() < 0.3 else line
        if rng.random() < 0.1:
            line += rng.choice([" // trailing", "// x'1 \x0c é", "\t"])
        out.append(line)
    end = "\r\n" if rng.random() < 0.2 else "\n"
    return end.join(out) + end


def test_fuzz_mutants_agree(natbool, monkeypatch):
    taken = 0
    for seed in range(1, 9):
        for kind, text in mutants(seed=seed, count=150):
            if kind == "model":
                taken += assert_agrees(text, natbool, monkeypatch)
    assert taken > 0


def test_random_models_agree(monkeypatch):
    rng = random.Random(26)
    taken = 0
    for _ in range(300):
        sig = random_signature(rng)
        carriers, interps = random_model_data(rng, sig, density=rng.choice([0.5, 1.0]))
        taken += assert_agrees(render(rng, carriers, interps), Theory(sig), monkeypatch)
    assert 100 < taken < 300


def test_bench_models_agree(bench_gen, monkeypatch):
    theory = parse_theory(bench_gen.theory_text())
    rng = random.Random(26)
    models = [bench_gen.capped_model(n, rng) for n in (4, 7, 12)]
    models += [bench_gen.perturbed_model(n, rng) for n in (5, 9)]
    models += [bench_gen.chain_model(n, rng, reach_all) for n in (6, 10)
               for reach_all in (True, False)]
    for model in models:
        assert assert_agrees(model.text(), theory, monkeypatch)


_TRAPS = {
    "bound-variable-model-name": "model b1-x\n",
    "bound-variable-sort": "carrier B2 = { t }\n",
    "form-feed-line": "\x0c\n",
    "non-ascii-label": "carrier Nat = { 0, é }\n",
    "reserved-label": "carrier Nat = { 0, x'1 }\n",
    "reserved-model-name": "model x'1\n",
    "hyphen-label": "carrier Nat = { 0, n-2 }\ninterp S(0) = { n-2 }\n",
    "trailing-hyphen": "model std-\n",
    "trailing-comma": "carrier Nat = { 0, }\n",
    "interp-above-carrier": "interp S(0) = { 0 }\ncarrier Nat = { 0 }\n",
    "repeated-interp-key": "carrier Nat = { 0 }\ninterp S(0) = { 0 }\ninterp S(0) = { }\n",
    "repeated-carrier": "carrier Nat = { 0 }\ncarrier Nat = { 0 }\n",
    "repeated-model": "model a\nmodel b\n",
    "arity": "carrier Nat = { 0 }\ninterp S(0, 0) = { 0 }\n",
    "not-in-carrier": "carrier Nat = { 0 }\ninterp S(1) = { 0 }\n",
    "unknown-symbol": "carrier Nat = { 0 }\ninterp T(0) = { 0 }\n",
    "keyword-glued": "carrierNat = { 0 }\n",
    "single-slash": "model std / no\n",
}


@pytest.mark.parametrize("extra", list(_TRAPS.values()), ids=list(_TRAPS))
@pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_traps_go_to_the_tokenizer(natbool, monkeypatch, extra, end):
    text = "carrier Bool = { t, f }\n" + extra
    if "carrier Nat" not in extra:
        text += "carrier Nat = { 0 }\n"
    text = text.replace("\n", end)
    assert_agrees(text, natbool, monkeypatch)
    with pytest.raises(AssertionError, match="tokenizer"):
        line_outcome(text, natbool, monkeypatch)


def test_well_formed_files_skip_the_tokenizer(natbool, bench_gen, monkeypatch):
    corpus = corpus_path("natbool.mlm").read_text(encoding="utf-8")
    bench = bench_gen.capped_model(9, random.Random(5)).text()
    for text in (corpus, corpus.replace("\n", "\r\n"), nat64_text(), bench):
        assert line_outcome(text, natbool, monkeypatch) == token_outcome(
            text, natbool, monkeypatch)


def test_partial_model_lints_the_same_spans(natbool, monkeypatch):
    lines = [line for line in corpus_path("natbool.mlm").read_text().split("\n")
             if not line.startswith(("interp plus(3", "interp S("))]
    lines.append("  interp S(0) = { 1 }  // only one")
    text = "\n".join(lines)
    with_lines = line_outcome(text, natbool, monkeypatch)
    assert with_lines == token_outcome(text, natbool, monkeypatch)
    first_plus = next(n for n, line in enumerate(lines, 1) if line.startswith("interp plus"))
    spans = [span for _, span in with_lines[2]]
    assert spans == [(len(lines), 10, 1)] * 3 + [(first_plus, 8, 4)] * 4
