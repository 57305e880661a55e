import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mulogic.cli import main
from mulogic.corpus import corpus_path

NATBOOL_MLT = str(corpus_path("natbool.mlt"))
NATBOOL_MLM = str(corpus_path("natbool.mlm"))

# two axioms that natbool's model violates, each at one valuation
PLANTED = (
    "axiom planted-pair [Bool] \\not(\\and(\\equals{Bool}(x:Nat, S(O())), "
    "\\equals{Bool}(y:Nat, S(S(O())))))\n"
    "axiom planted-set [Bool] \\not(\\and(\\equals{Bool}(x:Nat, S(O())), "
    "\\equals{Bool}(#X:Nat, \\or(O(), S(S(O()))))))\n"
)


@pytest.fixture
def tiny(tmp_path):
    theory = tmp_path / "tiny.mlt"
    theory.write_text(
        "sort Bool\n"
        "symbol true : -> Bool\nsymbol false : -> Bool\n"
        "axiom bool-domain [Bool] \\or(false(), true())\n"
    )
    model = tmp_path / "tiny.mlm"
    model.write_text(
        "model tiny\ncarrier Bool = { t, f }\n"
        "interp true() = { t }\ninterp false() = { f }\n"
    )
    return theory, model


@pytest.fixture
def primed(tmp_path):
    """A model whose element labels use quotes and hyphens."""
    theory = tmp_path / "primed.mlt"
    theory.write_text("sort Nat\nsymbol S : Nat -> Nat\n")
    model = tmp_path / "primed.mlm"
    model.write_text(
        "model primed\ncarrier Nat = { zero, one', n-2 }\n"
        "interp S(zero) = { one' }\ninterp S(one') = { n-2 }\n"
    )
    return str(theory), str(model)


class TestCheck:
    def test_valid_theory(self, capsys):
        assert main(["check", NATBOOL_MLT]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "12 axiom(s)" in out

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent/x.mlt"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_errors_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.mlt"
        bad.write_text("sort Bool\naxiom a [Bool] b0\n")
        assert main(["check", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "dangling-bound-variable" in err and "2:16" in err

    def test_positivity_warning_is_soft_by_default(self, tmp_path, capsys):
        theory = tmp_path / "neg.mlt"
        theory.write_text(
            "sort Bool\naxiom twisted [Bool] \\mu \\not(B0)\n"
        )
        assert main(["check", str(theory)]) == 0
        err = capsys.readouterr().err
        assert "non-positive mu" in err

    def test_strict_positivity_escalates(self, tmp_path, capsys):
        theory = tmp_path / "neg.mlt"
        theory.write_text(
            "sort Bool\naxiom twisted [Bool] \\mu \\not(B0)\n"
        )
        assert main(["check", str(theory), "--strict-positivity"]) == 1

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("axioms, counts, where", [
        ([], "2 sort(s), 8 symbol(s), 12 axiom(s)", None),
        (["axiom twisted [Bool] \\mu \\not(B0)"], "1 sort(s), 1 symbol(s), 1 axiom(s)", "root"),
        (["axiom fine [Bool] true()", "axiom twisted [Bool] \\not(\\mu \\not(B0))"],
         "1 sort(s), 1 symbol(s), 2 axiom(s)", "0"),
    ], ids=["natbool", "root", "below-not"])
    def test_output_byte_for_byte(self, tmp_path, capsys, strict, axioms, counts, where):
        path = NATBOOL_MLT
        if axioms:
            path = str(tmp_path / "twisted.mlt")
            Path(path).write_text("\n".join(["sort Bool", "symbol true : -> Bool", *axioms]) + "\n")
        code = main(["check", path, *(["--strict-positivity"] if strict else [])])
        out, err = capsys.readouterr()
        assert out == f"{path}: ok ({counts})\n"
        warning = (f"{path}: warning[positivity]: axiom 'twisted': "
                   f"non-positive mu binder at node {where}\n")
        assert err == ("" if where is None else warning)
        assert code == (1 if strict and where else 0)


class TestEval:
    def test_ground_application(self, capsys):
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "isZero(S(O()))"]) == 0
        assert capsys.readouterr().out.strip() == "{ f }"

    def test_top_bool(self, capsys):
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "\\top{Bool}"]) == 0
        assert capsys.readouterr().out.strip() == "{ t, f }"

    def test_unbound_variable(self, capsys):
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "x:Nat"]) == 1
        assert "not bound" in capsys.readouterr().err

    def test_element_binding(self, capsys):
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "x:Nat", "-v", "x:Nat=2"]) == 0
        assert capsys.readouterr().out.strip() == "{ 2 }"

    def test_set_binding(self, capsys):
        code = main(
            ["eval", NATBOOL_MLT, NATBOOL_MLM, "isZero(#X:Nat)", "-V", "X:Nat={0,1}"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == "{ t, f }"

    def test_both_lfp_modes(self, capsys):
        pattern = "\\mu{Nat} \\or(O(), S(B0))"
        for mode in ("iterate", "prefix"):
            assert main(
                ["eval", NATBOOL_MLT, NATBOOL_MLM, pattern, "--lfp", mode]
            ) == 0
            assert capsys.readouterr().out.strip() == "{ 0, 1, 2, 3 }"

    def test_prefix_cap_exceeded(self, capsys):
        pattern = "\\mu{Nat} \\or(O(), S(B0))"
        code = main(
            ["eval", NATBOOL_MLT, NATBOOL_MLM, pattern, "--lfp", "prefix",
             "--prefix-cap", "2"]
        )
        assert code == 1
        assert "cap" in capsys.readouterr().err

    def test_malformed_binding(self, capsys):
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "x:Nat", "-v", "nonsense"]) == 1

    def test_binding_labels_follow_model_grammar(self, primed, capsys):
        theory, model = primed
        for binding, out in (("x:Nat=one'", "{ one' }"), ("x:Nat=n-2", "{ n-2 }")):
            assert main(["eval", theory, model, "x:Nat", "-v", binding]) == 0
            assert capsys.readouterr().out.strip() == out
        code = main(["eval", theory, model, "S(#X:Nat)", "-V", "X:Nat={zero, one'}"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "{ one', n-2 }"

    @pytest.mark.parametrize("flag, binding", [
        ("-v", "x'1:Nat=zero"),
        ("-v", "x:Nat={zero}"),
        ("-V", "X:Nat=zero"),
        ("-V", "X:Nat={zero,}"),
        ("-V", "X:Nat={,}"),
    ])
    def test_binding_grammar_rejects(self, primed, capsys, flag, binding):
        theory, model = primed
        assert main(["eval", theory, model, "\\top{Nat}", flag, binding]) == 1
        want = "x:Sort=elem" if flag == "-v" else "X:Sort={e1,e2}"
        assert capsys.readouterr().err.strip() == (
            f"error: malformed {flag} binding {binding!r} (want {want})")

    def test_pattern_from_stdin(self, monkeypatch, capsys):
        for data, code, out in ((b"\\not(S(O()))\n", 0, "{ 0, 2, 3 }\n"), (b"S(\xe9)", 2, "")):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "-"]) == code
            captured = capsys.readouterr()
            assert captured.out == out
        assert captured.err.startswith("error: cannot read stdin: 'utf-8' codec")

    def test_pattern_diagnostics(self, capsys):
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "isZero(true())"]) == 1
        assert "sort-mismatch" in capsys.readouterr().err

    # (model text or None for natbool's, arguments after the pattern,
    # exit code, stdout, stderr); {model} in stderr is the model's path
    @pytest.mark.parametrize("model, args, code, out, err", [
        pytest.param(None, ["\\mu{Nat} \\not(B0)", "--lfp", "prefix"], 0, "{ 0, 1, 2, 3 }\n",
                     "<pattern>: warning[positivity]: non-positive mu binder at node root\n",
                     id="prefix-non-positive"),
        pytest.param(None, ["plus(x:Nat, #X:Nat)", "-v", "x:Nat=1", "-V", "X:Nat={0,2}"], 0,
                     "{ 1, 3 }\n", "", id="bindings"),
        pytest.param(None, ["x:Nat", "-v", "x:Nat=0", "-v", "x:Nat=1"], 1, "",
                     "error: x:Nat is bound twice\n", id="evar-bound-twice"),
        pytest.param(None, ["#X:Nat", "-V", "X:Nat={0}", "-V", "X:Nat={1,2}"], 1, "",
                     "error: #X:Nat is bound twice\n", id="svar-bound-twice"),
        pytest.param(None, ["\\and(O()"], 1, "",
                     "<pattern>:1:9: error[syntax]: expected ',', found end of input\n",
                     id="end-of-input"),
        pytest.param(None, ["\\exists{Nat b0"], 1, "",
                     "<pattern>:1:13: error[syntax]: expected '}}', found 'b0'\n",
                     id="annotation-close"),
        pytest.param(None, ["#X Nat"], 1, "",
                     "<pattern>:1:4: error[syntax]: expected ':', found 'Nat'\n",
                     id="set-variable-colon"),
        pytest.param(None, ["S(O() O())"], 1, "",
                     "<pattern>:1:7: error[syntax]: expected ',' or ')', found 'O'\n",
                     id="application-separator"),
        pytest.param("model bad\ncarrier Nat = { 0 1 }\ncarrier Bool = { t, f }\n", ["O()"], 1,
                     "", "{model}:2:19: error[syntax]: expected ',' or '}}', found '1'\n",
                     id="label-separator"),
    ])
    def test_output_byte_for_byte(self, tmp_path, capsys, model, args, code, out, err):
        path = NATBOOL_MLM
        if model is not None:
            path = str(tmp_path / "bad.mlm")
            Path(path).write_text(model)
        assert main(["eval", NATBOOL_MLT, path, *args]) == code
        assert capsys.readouterr() == (out, err.format(model=path))


# Closed patterns over the natbool corpus model and their denotations,
# the same under both fixpoint engines.
DENOTATIONS = [
    pytest.param(r"\mu{Nat} \or(O(), S(\not(\mu{Nat} \not(\and(B1, \not(B0))))))",
                 "{ 0, 1, 2, 3 }", id="nu-between-mu"),
    # complemented symbol arguments and fixpoint bodies
    pytest.param(r"plus(\not(O()), \not(S(O())))", "{ 1, 2, 3 }", id="complemented-args"),
    pytest.param(r"\nu{Nat} \or(\not(O()), S(B0))", "{ 1, 2, 3 }", id="complemented-body"),
    pytest.param(r"isZero(\not(O()))", "{ f }", id="complemented-arg"),
    # equalities of plain and complemented operands
    pytest.param(r"\equals{Nat}(O(), \not(O()))", "{ }", id="equals-complement"),
    pytest.param(r"\equals{Bool}(\not(\not(O())), O())", "{ t, f }", id="equals-double-not"),
    pytest.param(r"\exists{Nat} \and(b0, \equals{Nat}(S(b0), \not(\top{Nat})))", "{ 3 }",
                 id="equals-in-exists"),
    pytest.param(r"\forall{Nat} \equals{Bool}(plus(b0, O()), b0)", "{ t, f }",
                 id="equals-in-forall"),
    # unary applications whose arguments grow, shrink and recur
    pytest.param(r"\exists{Nat} \and(b0, \mu{Nat} \or(b0, S(B0)))", "{ 0, 1, 2, 3 }",
                 id="mu-in-exists"),
    pytest.param(r"\mu{Nat} \or(O(), S(S(B0)))", "{ 0, 2 }", id="mu-step-two"),
    pytest.param(r"\exists{Nat} S(\or(b0, \or(O(), S(O()))))", "{ 1, 2, 3 }",
                 id="app-of-union"),
    # applications in an inner loop, run again on each element of an outer one
    pytest.param(r"\forall{Nat} \or(\not(b0), \mu{Nat} \or(b0, S(B0)))", "{ 0, 1, 2, 3 }",
                 id="mu-in-forall"),
    pytest.param(r"\forall{Nat} \exists{Nat} \or(\not(b1), S(\or(b0, O())))", "{ 1, 2, 3 }",
                 id="exists-in-forall"),
    # forall as one union loop over a complemented body
    pytest.param(r"\forall{Nat} \not(S(b0))", "{ 0 }", id="forall-not"),
    pytest.param(r"\exists{Nat} \and(b0, \forall{Nat} \or(\not(S(b0)), \not(b1)))", "{ 0 }",
                 id="forall-in-exists"),
    pytest.param(r"\ceil{Bool}(\forall{Nat} \or(b0, S(O())))", "{ t, f }", id="ceil-forall"),
]


@pytest.mark.parametrize("lfp", ["iterate", "prefix"])
@pytest.mark.parametrize("pattern, expected", DENOTATIONS)
def test_denotation_under_both_engines(capsys, recwarn, pattern, expected, lfp):
    assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, pattern, "--lfp", lfp]) == 0
    assert capsys.readouterr() == (expected + "\n", "")
    assert not recwarn.list


class TestSatisfies:
    def test_bundled_theory_satisfied(self, capsys):
        assert main(["satisfies", NATBOOL_MLT, NATBOOL_MLM]) == 0
        out = capsys.readouterr().out
        assert "theory satisfied" in out

    def test_violated_theory(self, tiny, capsys):
        theory, model = tiny
        theory.write_text(theory.read_text() + "axiom never [Bool] \\bottom{Bool}\n")
        assert main(["satisfies", str(theory), str(model)]) == 1
        out = capsys.readouterr().out
        assert "never: violated" in out and "NOT satisfied" in out

    def test_axiom_filter(self, tiny, capsys):
        theory, model = tiny
        theory.write_text(theory.read_text() + "axiom never [Bool] \\bottom{Bool}\n")
        assert main(
            ["satisfies", str(theory), str(model), "--axiom", "bool-domain"]
        ) == 0
        out = capsys.readouterr().out
        assert "bool-domain: satisfied" in out and "never" not in out

    def test_unknown_axiom_filter(self, tiny, capsys):
        theory, model = tiny
        assert main(["satisfies", str(theory), str(model), "--axiom", "ghost"]) == 1
        assert "no such axiom" in capsys.readouterr().err

    def test_json_report_matches_text(self, tiny, capsys):
        theory, model = tiny
        theory.write_text(theory.read_text() + "axiom never [Bool] \\bottom{Bool}\n")
        main(["satisfies", str(theory), str(model), "--report", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfied"] is False
        verdicts = {a["label"]: a["verdict"] for a in payload["axioms"]}
        assert verdicts == {"bool-domain": "satisfied", "never": "violated"}
        never = next(a for a in payload["axioms"] if a["label"] == "never")
        assert never["got"] == [] and never["expected"] == ["t", "f"]

    def test_error_verdict(self, tmp_path, capsys):
        theory = tmp_path / "neg.mlt"
        theory.write_text(
            "sort Nat\nsymbol O : -> Nat\n"
            "axiom neg [Nat] \\mu{Nat} \\not(B0)\n"
            "axiom zero [Nat] \\or(O(), \\not(O()))\n"
        )
        model = tmp_path / "one.mlm"
        model.write_text("model one\ncarrier Nat = { 0 }\ninterp O() = { 0 }\n")
        args = ["satisfies", str(theory), str(model)]
        assert main(args) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith(
            "neg: error (NonPositiveMuError: mu binder body is not positive; "
        )
        assert lines[1:] == ["zero: satisfied", "theory NOT satisfied: 2 axiom(s) checked"]
        assert main([*args, "--report", "json"]) == 1
        neg, zero = json.loads(capsys.readouterr().out)["axioms"]
        assert neg["verdict"] == "error" and "got" not in neg and "witness" not in neg
        assert neg["message"].startswith("NonPositiveMuError: ")
        assert zero["verdict"] == "satisfied"
        # the CLI reports the binder itself, and no warning leaves main
        assert main([*args, "--lfp", "prefix"]) == 0
        out, err = capsys.readouterr()
        assert "neg: satisfied" in out
        assert err == (f"{theory}: warning[positivity]: axiom 'neg': "
                       "non-positive mu binder at node root\n")

    def test_io_failure(self, capsys):
        assert main(["satisfies", NATBOOL_MLT, "/nonexistent.mlm"]) == 2

    @pytest.mark.parametrize("command, flag", [("satisfies", "--cap"),
                                               ("satisfies", "--prefix-cap"),
                                               ("eval", "--prefix-cap")])
    def test_a_negative_cap_is_a_usage_error(self, capsys, command, flag):
        # a count below 0 ends in argparse's usage error, as one that is
        # not an int does; 0 is a cap that refuses what needs any work
        inputs = [NATBOOL_MLT, NATBOOL_MLM, *(["O()"] if command == "eval" else [])]
        for value, why in (("-1", "invalid non-negative int value: '-1'"),
                           ("abc", "invalid int value: 'abc'")):
            with pytest.raises(SystemExit) as stop:
                main([command, *inputs, flag, value])
            out, err = capsys.readouterr()
            assert (stop.value.code, out) == (2, "")
            assert err.startswith("usage: ")
            assert err.endswith(f" error: argument {flag}: {why}\n")
        assert main(["satisfies", NATBOOL_MLT, NATBOOL_MLM, "--cap", "0",
                     "--axiom", "bool-domain"]) == 1
        assert capsys.readouterr().out.startswith(
            "bool-domain: error (StateSpaceTooLargeError: axiom 'bool-domain' needs 1 "
            "valuation, more than the cap of 0)\n")
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "\\mu{Nat} \\or(O(), S(B0))",
                     "--lfp", "prefix", "--prefix-cap", "0"]) == 1
        assert capsys.readouterr().err == (
            "error: carrier of Nat has 4 elements; enumerating 2^4 subsets exceeds the cap of 0\n")

    @pytest.mark.parametrize("report", ["text", "json"])
    @pytest.mark.parametrize("lfp", ["iterate", "prefix"])
    @pytest.mark.parametrize("planted", [False, True], ids=["natbool", "planted"])
    def test_output_byte_for_byte(self, tmp_path, capsys, planted, lfp, report):
        carriers = {"Bool": ["t", "f"], "Nat": ["0", "1", "2", "3"]}
        axioms = [("bool-domain", "Bool"), ("nat-domain", "Nat"), ("isZero-O", "Bool"),
                  ("isZero-S", "Bool"), ("notb-true", "Bool"), ("notb-false", "Bool"),
                  ("andb-true", "Bool"), ("plus-O", "Nat")]
        # label: (the text report's valuation, the JSON report's witness)
        violated = {}
        theory = NATBOOL_MLT
        if planted:
            theory = str(tmp_path / "planted.mlt")
            Path(theory).write_text(Path(NATBOOL_MLT).read_text() + PLANTED)
            axioms += [("planted-pair", "Bool"), ("planted-set", "Bool")]
            violated = {
                "planted-pair": ("x:Nat = 1, y:Nat = 2", {"x:Nat": "1", "y:Nat": "2"}),
                "planted-set": ("x:Nat = 1, #X:Nat = { 0, 2 }",
                                {"x:Nat": "1", "#X:Nat": ["0", "2"]}),
            }
        axioms += [(f"definedness/{a}/{b}", b) for a in ("Bool", "Nat") for b in ("Bool", "Nat")]
        code = main(["satisfies", theory, NATBOOL_MLM, "--lfp", lfp, "--report", report])
        if report == "text":
            lines = [f"{label}: violated (got {{ }} with {violated[label][0]})"
                     if label in violated else f"{label}: satisfied" for label, _ in axioms]
            verdict = "theory NOT satisfied" if planted else "theory satisfied"
            out = "\n".join([*lines, f"{verdict}: {len(axioms)} axiom(s) checked"]) + "\n"
        else:
            records = []
            for label, sort in axioms:
                record = {"label": label, "sort": sort,
                          "verdict": "violated" if label in violated else "satisfied",
                          "expected": carriers[sort]}
                if label in violated:
                    record.update(got=[], witness=violated[label][1])
                records.append(record)
            payload = {"satisfied": not planted, "axioms": records}
            out = json.dumps(payload, indent=2) + "\n"
        assert (code, capsys.readouterr()) == (int(planted), (out, ""))

    @pytest.mark.parametrize("lfp", ["iterate", "prefix"])
    def test_planted_violations_at_their_valuations(self, tmp_path, capsys, lfp):
        planted = tmp_path / "planted.mlt"
        planted.write_text(Path(NATBOOL_MLT).read_text() + (
            "axiom planted-pair [Bool] \\not(\\and(\\equals{Bool}(x:Nat, S(O())), "
            "\\equals{Bool}(y:Nat, S(S(O())))))\n"
            "axiom planted-set [Bool] \\not(\\and(\\equals{Bool}(x:Nat, S(O())), "
            "\\equals{Bool}(#X:Nat, \\or(O(), S(S(O()))))))\n"
        ))
        code = main(["satisfies", str(planted), NATBOOL_MLM, "--report", "json", "--lfp", lfp])
        out, err = capsys.readouterr()
        assert code == 1 and not err
        records = json.loads(out)["axioms"]
        got = {r["label"]: r.get("witness") for r in records if r["verdict"] != "satisfied"}
        assert got == {"planted-pair": {"x:Nat": "1", "y:Nat": "2"},
                       "planted-set": {"x:Nat": "1", "#X:Nat": ["0", "2"]}}

    def test_64_element_model(self, tmp_path, capsys):
        # a capped natbool model with 4,096 plus lines, written without
        # mulogic: S and plus map results past 63 to the empty set
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
        model = tmp_path / "nat64.mlm"
        model.write_text("\n".join(lines) + "\n")

        assert main(["satisfies", NATBOOL_MLT, str(model)]) == 0
        out, err = capsys.readouterr()
        *axioms, total = out.splitlines()
        assert total == "theory satisfied: 12 axiom(s) checked" and len(axioms) == 12
        assert all(line.endswith(": satisfied") for line in axioms) and not err
        assert main(["eval", NATBOOL_MLT, str(model), "\\mu{Nat} \\or(O(), S(B0))"]) == 0
        out, err = capsys.readouterr()
        assert out == "{ " + ", ".join(map(str, range(n))) + " }\n" and not err


class TestSubprocess:
    def _run(self, *args, stdin=None, hashseed=None, stdout=subprocess.PIPE):
        return self._run_python("-m", "mulogic", *args, stdin=stdin, hashseed=hashseed,
                                stdout=stdout)

    def _run_python(self, *args, stdin=None, hashseed=None, stdout=subprocess.PIPE):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        if hashseed is not None:
            env["PYTHONHASHSEED"] = hashseed
        return subprocess.run(
            [sys.executable, *args],
            stdout=stdout,
            stderr=subprocess.PIPE,
            input=stdin,
            text=True,
            env=env,
            timeout=60,
        )

    def test_cli_starts_without_dataclasses(self):
        """A command imports none of ``dataclasses``, ``inspect`` and ``ast``
        beyond what the bare interpreter does: records build their dataclass
        view only when a program reads it.  It runs in a subprocess, since
        pytest itself imports them."""

        def imported(*args):
            proc = self._run_python("-X", "importtime", *args)
            assert proc.returncode == 0, proc.stderr
            return {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
                    if line.startswith("import time:")}

        added = imported("-m", "mulogic", "check", NATBOOL_MLT) - imported("-c", "pass")
        assert "mulogic.cli" in added
        assert added & {"dataclasses", "inspect", "ast"} == set()

    def test_eval_process(self):
        proc = self._run("eval", NATBOOL_MLT, NATBOOL_MLM, "isZero(S(O()))")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "{ f }"

    def test_pattern_from_stdin(self):
        # 150 KB, more than one argument may hold on Linux (128 KiB)
        deep = "\\not(" * 25_001 + "O()" + ")" * 25_001
        proc = self._run("eval", NATBOOL_MLT, NATBOOL_MLM, "-", stdin=deep + "\n")
        assert proc.returncode == 0
        assert not proc.stderr
        assert proc.stdout.strip() == "{ 1, 2, 3 }"

    def test_satisfies_process(self):
        proc = self._run("satisfies", NATBOOL_MLT, NATBOOL_MLM)
        assert proc.returncode == 0
        assert "theory satisfied" in proc.stdout

    @pytest.mark.parametrize("hashseed", ["0", "1", "2"])
    def test_unbound_variable_error_ignores_hash_seed(self, hashseed):
        pattern = "\\and(\\ceil{Bool}(x:Nat), \\ceil{Bool}(y:Nat))"
        proc = self._run("eval", NATBOOL_MLT, NATBOOL_MLM, pattern, hashseed=hashseed)
        assert proc.returncode == 1
        assert proc.stderr == "error: x:Nat is not bound\n"

    @pytest.mark.parametrize("case", ["prefix-mu-20", "set-variable-19"])
    def test_applications_on_every_subset_run_in_constant_memory(self, tmp_path, case):
        # a prefix mu over 20 elements and a free set variable over 19 each
        # run their applications on every subset of the carrier
        (tmp_path / "chain.mlt").write_text(
            "sort Nat\nsymbol O : -> Nat\nsymbol S : Nat -> Nat\n"
            "axiom excluded-middle [Nat] \\or(\\not(S(#X:Nat)), S(#X:Nat))\n")
        for n in (19, 20):
            lines = ["model chain", f"carrier Nat = {{ {', '.join(map(str, range(n)))} }}",
                     "interp O() = { 0 }"]
            lines += [f"interp S({k}) = {{ {k + 1} }}" for k in range(n - 1)]
            lines.append(f"interp S({n - 1}) = {{ }}")
            (tmp_path / f"chain{n}.mlm").write_text("\n".join(lines) + "\n")
        chain = str(tmp_path / "chain.mlt")
        args, want = {
            "prefix-mu-20": (
                ["eval", chain, str(tmp_path / "chain20.mlm"), "\\mu{Nat} \\or(O(), S(B0))",
                 "--lfp", "prefix"],
                "{ " + ", ".join(map(str, range(20))) + " }"),
            "set-variable-19": (
                ["satisfies", chain, str(tmp_path / "chain19.mlm")],
                "excluded-middle: satisfied\ntheory satisfied: 1 axiom(s) checked"),
        }[case]
        # a fresh wrapper process, so that its RUSAGE_CHILDREN peak is that
        # of its one mulogic child
        wrapper = (
            "import json, resource, subprocess, sys\n"
            "done = subprocess.run([sys.executable, '-m', 'mulogic', *sys.argv[1:]],"
            " capture_output=True, text=True)\n"
            "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
            "kib = peak // 1024 if sys.platform == 'darwin' else peak\n"
            "print(json.dumps([done.returncode, done.stdout + done.stderr, kib // 1024]))\n"
        )
        proc = self._run_python("-c", wrapper, *args)
        code, got, peak_mb = json.loads(proc.stdout)
        assert (code, got) == (0, want + "\n")
        assert peak_mb < 64, f"peak RSS {peak_mb} MB, not under 64 MB"

    @pytest.mark.parametrize("args", [
        pytest.param(["check", NATBOOL_MLT], id="check"),
        pytest.param(["satisfies", NATBOOL_MLT, NATBOOL_MLM, "--report", "json"],
                     id="satisfies"),
        pytest.param(["eval", NATBOOL_MLT, NATBOOL_MLM, "O()"], id="eval"),
    ])
    def test_closed_stdout_exits_2_quietly(self, args):
        read_end, write_end = os.pipe()
        os.close(read_end)  # every write to the pipe now fails
        try:
            proc = self._run(*args, stdout=write_end)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (2, "")

    def test_usage_error(self):
        proc = self._run()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    @pytest.mark.parametrize(
        "case", ["deep", "wide", "huge-carrier", "state-cap", "unknown-sort", "not-utf8"]
    )
    def test_hostile_input_exits_cleanly(self, tmp_path, case):
        big_mlt, big_mlm = tmp_path / "big.mlt", tmp_path / "big.mlm"
        big_mlt.write_text("sort S\nsymbol f : S -> S\n")
        elems = ", ".join(f"e{i}" for i in range(40))
        big_mlm.write_text(f"model big\ncarrier S = {{ {elems} }}\n")
        latin = tmp_path / "latin.mlt"
        latin.write_bytes(b"sort Bool\n# caf\xe9\n")
        natbool = [NATBOOL_MLT, NATBOOL_MLM]
        # (arguments, exit code, text the output must contain)
        args, code, expected = {
            "deep": (["eval", *natbool, "\\not(" * 20_000 + "O()" + ")" * 20_000], 0, "{ 0 }"),
            "wide": (["eval", *natbool, "S(" + ", ".join(["O()"] * 3000) + ")"], 1, "error[arity]"),
            "huge-carrier": (
                ["eval", str(big_mlt), str(big_mlm), "\\mu{S} f(B0)", "--lfp", "prefix"],
                1,
                "2^40 subsets exceeds the cap of 20",
            ),
            "state-cap": (["satisfies", *natbool, "--cap", "1"], 1, "StateSpaceTooLargeError"),
            "unknown-sort": (
                ["eval", *natbool, "isZero(O())", "-v", "x:Zed=9"], 1, "sort 'Zed' is not declared"
            ),
            "not-utf8": (["check", str(latin)], 2, f"error: cannot read {latin}: 'utf-8' codec"),
        }[case]
        proc = self._run(*args)
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        assert expected in proc.stdout + proc.stderr
        if code == 0:
            assert proc.stdout + proc.stderr == expected + "\n"

    @pytest.mark.parametrize("filters", ["error", "default"])
    def test_positivity_warnings_are_diagnostics(self, tmp_path, monkeypatch, filters):
        # each non-positive binder is reported by axiom label, in check's
        # form; Python neither raises nor prints the library's warning
        monkeypatch.setenv("PYTHONWARNINGS", filters)
        theory, model = tmp_path / "neg.mlt", tmp_path / "one.mlm"
        theory.write_text(
            "sort Nat\nsymbol O : -> Nat\n"
            "axiom neg [Nat] \\mu{Nat} \\not(B0)\n"
            "axiom zero [Nat] \\or(O(), \\not(O()))\n"
            "axiom neg-below [Nat] \\or(O(), \\mu{Nat} \\not(B0))\n"
        )
        model.write_text("model one\ncarrier Nat = { 0 }\ninterp O() = { 0 }\n")
        warning = f"{theory}: warning[positivity]: axiom {{!r}}: non-positive mu binder at node {{}}\n"
        both = warning.format("neg", "root") + warning.format("neg-below", "0/1/0")
        sat = ["satisfies", str(theory), str(model)]

        proc = self._run(*sat, "--lfp", "prefix")
        assert (proc.returncode, proc.stderr) == (0, both)
        assert proc.stdout.endswith("theory satisfied: 3 axiom(s) checked\n")
        proc = self._run(*sat, "--lfp", "prefix", "--axiom", "neg-below", "--report", "json")
        assert (proc.returncode, proc.stderr) == (0, warning.format("neg-below", "0/1/0"))
        assert [a["label"] for a in json.loads(proc.stdout)["axioms"]] == ["neg-below"]
        proc = self._run(*sat)  # iterate refuses the binder as an error verdict
        assert (proc.returncode, proc.stderr) == (1, "")
        proc = self._run("eval", NATBOOL_MLT, NATBOOL_MLM, "\\mu{Nat} \\not(B0)", "--lfp", "prefix")
        assert (proc.returncode, proc.stdout) == (0, "{ 0, 1, 2, 3 }\n")
        assert proc.stderr == "<pattern>: warning[positivity]: non-positive mu binder at node root\n"
