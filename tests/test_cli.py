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

    def test_pattern_diagnostics(self, capsys):
        assert main(["eval", NATBOOL_MLT, NATBOOL_MLM, "isZero(true())"]) == 1
        assert "sort-mismatch" in capsys.readouterr().err


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

    def test_io_failure(self, capsys):
        assert main(["satisfies", NATBOOL_MLT, "/nonexistent.mlm"]) == 2


class TestSubprocess:
    def _run(self, *args):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-m", "mulogic", *args],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )

    def test_eval_process(self):
        proc = self._run("eval", NATBOOL_MLT, NATBOOL_MLM, "isZero(S(O()))")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "{ f }"

    def test_satisfies_process(self):
        proc = self._run("satisfies", NATBOOL_MLT, NATBOOL_MLM)
        assert proc.returncode == 0
        assert "theory satisfied" in proc.stdout

    def test_usage_error(self):
        proc = self._run()
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
