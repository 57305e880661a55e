import random
import string

import pytest

from mulogic import (
    ParseError,
    mk_defined,
    mk_exists,
    mk_free_evar,
    mk_top,
    parse_model,
    parse_pattern,
    parse_theory,
    print_pattern,
    structural_eq,
    validate,
)
from mulogic.corpus import FILES, corpus_path
from mulogic.signature import ElemVar
from gen import random_context, random_pattern, random_signature


def diag_of(callable_):
    with pytest.raises(ParseError) as err:
        callable_()
    return err.value.diagnostics


class TestParseTheory:
    def test_small_theory(self):
        theory = parse_theory(
            "sort Bool\n"
            "symbol true : -> Bool\n"
            "axiom d [Bool] \\or(true(), \\not(true()))\n"
        )
        assert [s.name for s in theory.signature.sorts] == ["Bool"]
        assert [s.name for s in theory.signature.symbols] == ["true"]
        assert [a.label for a in theory.axioms] == ["d"]
        assert theory.axioms[0].pattern.is_closed

    def test_comments_and_blank_lines(self):
        theory = parse_theory("// header\n\nsort Bool // trailing\n")
        assert [s.name for s in theory.signature.sorts] == ["Bool"]

    def test_crlf_line_endings(self):
        theory = parse_theory("sort Bool\r\nsymbol true : -> Bool\r\n")
        assert [s.name for s in theory.signature.symbols] == ["true"]

    def test_symbol_arities(self):
        theory = parse_theory(
            "sort A\nsort B\n"
            "symbol c : -> A\n"
            "symbol f : A -> B\n"
            "symbol g : A, B, A -> B\n"
        )
        g = theory.signature.symbol("g")
        assert [s.name for s in g.params] == ["A", "B", "A"]
        assert g.result.name == "B"

    def test_dangling_bound_variable_diagnostic(self):
        (diag,) = diag_of(lambda: parse_theory("sort Bool\naxiom a [Bool] b0"))
        assert diag.code == "dangling-bound-variable"
        assert diag.span == (2, 16, 2)

    def test_cross_sort_argument_diagnostic(self):
        text = (
            "sort Bool\nsort Nat\n"
            "symbol true : -> Bool\nsymbol O : -> Nat\n"
            "axiom a [Bool] \\and(true(), O())\n"
        )
        (diag,) = diag_of(lambda: parse_theory(text))
        assert diag.code == "sort-mismatch"
        assert diag.span == (5, 29, 1)

    def test_diagnostics_accumulate_across_lines(self):
        diags = diag_of(lambda: parse_theory("sort Bool\nsort Bool\nbogus\n"))
        assert [d.code for d in diags] == ["duplicate-sort", "syntax"]

    def test_unknown_sort_in_symbol(self):
        (diag,) = diag_of(lambda: parse_theory("sort Bool\nsymbol f : Undeclared -> Bool"))
        assert diag.code == "unknown-sort" and diag.span[0] == 2

    def test_option_instantiates_definedness(self):
        theory = parse_theory("sort Bool\noption instantiate-definedness\n")
        assert [a.label for a in theory.axioms] == ["definedness/Bool/Bool"]

    def test_unknown_option(self):
        (diag,) = diag_of(lambda: parse_theory("sort Bool\noption frobnicate"))
        assert diag.code == "unknown-option"

    def test_duplicate_axiom_label(self):
        text = "sort Bool\naxiom a [Bool] \\top{Bool}\naxiom a [Bool] \\top{Bool}"
        (diag,) = diag_of(lambda: parse_theory(text))
        assert diag.code == "duplicate-label" and diag.span[0] == 3

    def test_no_sorts_rejected(self):
        diags = diag_of(lambda: parse_theory("// nothing here\n"))
        assert [d.code for d in diags] == ["no-sorts"]

    def test_reserved_identifier_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_theory("sort Bool\naxiom a [Bool] x'1:Bool")
        assert err.value.diagnostics[0].code == "reserved-name"


class TestParsePattern:
    def test_exists_application(self, std_sig):
        p = parse_pattern("\\exists{Nat} isZero(b0)", std_sig)
        assert p.is_closed and p.sort.name == "Bool"
        nat = std_sig.sort("Nat")
        body = parse_pattern("isZero(b0)", std_sig, ex=(nat,))
        assert structural_eq(p, mk_exists(nat, body))

    def test_top_expands(self, std_sig):
        nat = std_sig.sort("Nat")
        assert structural_eq(parse_pattern("\\top{Nat}", std_sig), mk_top(nat))

    def test_out_of_scope_index(self, std_sig):
        nat = std_sig.sort("Nat")
        with pytest.raises(ParseError) as err:
            parse_pattern("b2", std_sig, ex=(nat,))
        assert err.value.diagnostics[0].code == "dangling-bound-variable"

    def test_annotated_mu(self, std_sig):
        p = parse_pattern("\\mu{Nat} \\or(O(), S(B0))", std_sig)
        assert p.sort.name == "Nat" and p.is_closed

    def test_unannotated_mu_needs_context(self, std_sig):
        with pytest.raises(ParseError) as err:
            parse_pattern("\\ceil{Bool}(\\mu B0)", std_sig)
        assert err.value.diagnostics[0].code == "cannot-infer-sort"
        p = parse_pattern("\\ceil{Bool}(\\mu{Nat} B0)", std_sig)
        assert p.sort.name == "Bool"

    def test_expected_sort_resolves_inference(self, std_sig):
        nat = std_sig.sort("Nat")
        p = parse_pattern("\\mu B0", std_sig, expect_sort=nat)
        assert p.sort == nat

    def test_expected_sort_mismatch(self, std_sig):
        bool_ = std_sig.sort("Bool")
        with pytest.raises(ParseError) as err:
            parse_pattern("O()", std_sig, expect_sort=bool_)
        assert err.value.diagnostics[0].code == "sort-mismatch"

    def test_set_variable_syntax(self, std_sig):
        p = parse_pattern("#X:Nat", std_sig)
        assert p.var.name == "X" and p.sort.name == "Nat"

    def test_binders_scope_rightward(self, std_sig):
        p = parse_pattern("\\exists{Nat} \\and(isZero(b0), isZero(b0))", std_sig)
        assert p.is_closed
        with pytest.raises(ParseError):
            parse_pattern("\\and(\\exists{Nat} isZero(b0), isZero(b0))", std_sig)

    def test_trailing_input_rejected(self, std_sig):
        with pytest.raises(ParseError) as err:
            parse_pattern("O() O()", std_sig)
        assert err.value.diagnostics[0].code == "syntax"

    def test_never_hangs_on_junk(self, std_sig):
        rng = random.Random(61)
        alphabet = string.printable
        for _ in range(300):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30)))
            try:
                p = parse_pattern(text, std_sig)
                assert validate(p)
            except ParseError:
                pass

    def test_mutated_patterns_never_crash(self, std_sig):
        rng = random.Random(63)
        seeds = [
            "\\exists{Nat} \\and(isZero(b0), \\not(true()))",
            "\\mu{Nat} \\or(O(), S(B0))",
            "\\equals{Bool}(isZero(O()), \\top{Bool})",
            "\\forall{Nat} \\ceil{Bool}(plus(b0, x:Nat))",
        ]
        for _ in range(400):
            text = list(rng.choice(seeds))
            for _ in range(rng.randint(1, 4)):
                op = rng.randrange(3)
                pos = rng.randrange(len(text) + (op == 2))
                if op == 0 and text:
                    del text[min(pos, len(text) - 1)]
                elif op == 1 and text:
                    text[min(pos, len(text) - 1)] = rng.choice("(){},:#bB01 \\")
                else:
                    text.insert(pos, rng.choice("(){},:#bB01 \\"))
            try:
                p = parse_pattern("".join(text), std_sig)
                assert validate(p)
            except ParseError:
                pass

    @pytest.mark.parametrize("text, code, span", [
        ("\\exists isZero(b0)", "syntax", (1, 9, 6)),
        ("\\ceil(O())", "syntax", (1, 6, 1)),
        ("\\equals(O(), O())", "syntax", (1, 8, 1)),
        ("\\top", "syntax", (1, 5, 1)),
        ("\\nu{3} B0", "syntax", (1, 5, 1)),
        ("\\nu{Zed} O()", "cannot-infer-sort", (1, 1, 3)),
        ("\\and(true(), \\nu{Nat} B0)", "sort-mismatch", (1, 14, 3)),
        ("\\and(true())", "syntax", (1, 12, 1)),
        ("\\not(true()", "syntax", (1, 12, 1)),
        ("\\foo(O())", "syntax", (1, 1, 4)),
    ])
    def test_malformed_connective_diagnostics(self, std_sig, text, code, span):
        with pytest.raises(ParseError) as err:
            parse_pattern(text, std_sig)
        assert (err.value.diagnostics[0].code, err.value.diagnostics[0].span) == (code, span)

    def test_deep_nesting_is_a_diagnostic_not_a_crash(self, std_sig):
        text = "\\not(" * 300 + "\\top{Bool}" + ")" * 300
        with pytest.raises(ParseError) as err:
            parse_pattern(text, std_sig)
        assert err.value.diagnostics[0].code == "nesting"


class TestParseModel:
    @pytest.fixture
    def theory(self):
        return parse_theory(
            "sort Bool\nsort Nat\n"
            "symbol true : -> Bool\nsymbol isZero : Nat -> Bool\n"
        )

    def test_small_model(self, theory):
        model, warnings = parse_model(
            "model tiny\n"
            "carrier Bool = { t, f }\ncarrier Nat = { 0 }\n"
            "interp true() = { t }\ninterp isZero(0) = { t }\n",
            theory,
            lint_totality=True,
        )
        assert warnings == []
        assert model.carrier_size(theory.signature.sort("Bool")) == 2

    def test_empty_carrier_diagnostic(self, theory):
        (diag,) = diag_of(lambda: parse_model("carrier Bool = { }\ncarrier Nat = { 0 }", theory))
        assert diag.code == "empty-carrier" and diag.span == (1, 9, 4)

    def test_missing_carrier_diagnostic(self, theory):
        (diag,) = diag_of(lambda: parse_model("carrier Bool = { t }", theory))
        assert diag.code == "empty-carrier" and "Nat" in diag.message

    def test_bad_tuple_diagnostic(self, theory):
        text = "carrier Bool = { t }\ncarrier Nat = { 0 }\ninterp isZero(t) = { t }\n"
        (diag,) = diag_of(lambda: parse_model(text, theory))
        assert diag.code == "bad-tuple" and diag.span == (3, 15, 1)

    def test_bad_value_diagnostic(self, theory):
        text = "carrier Bool = { t }\ncarrier Nat = { 0 }\ninterp isZero(0) = { 0 }\n"
        (diag,) = diag_of(lambda: parse_model(text, theory))
        assert diag.code == "bad-value"

    def test_totality_lint(self, theory):
        _, warnings = parse_model(
            "carrier Bool = { t }\ncarrier Nat = { 0, 1 }\n"
            "interp true() = { t }\ninterp isZero(0) = { t }\n",
            theory,
            lint_totality=True,
        )
        assert [w.severity for w in warnings] == ["warning"]
        assert "isZero(1)" in warnings[0].message

    def test_lint_off_by_default(self, theory):
        _, warnings = parse_model(
            "carrier Bool = { t }\ncarrier Nat = { 0, 1 }\n", theory
        )
        assert warnings == []

    def test_interp_before_carrier(self, theory):
        text = "interp isZero(0) = { t }\ncarrier Bool = { t }\ncarrier Nat = { 0 }"
        diags = diag_of(lambda: parse_model(text, theory))
        assert diags[0].code == "bad-tuple" and "no carrier" in diags[0].message


class TestPrinter:
    def test_core_forms(self, std_sig):
        nat = std_sig.sort("Nat")
        bool_ = std_sig.sort("Bool")
        assert print_pattern(mk_top(nat)) == "\\exists{Nat} b0"
        x = mk_free_evar(ElemVar("x", nat))
        assert print_pattern(mk_defined(bool_, x)) == "\\ceil{Bool}(x:Nat)"
        p = parse_pattern("isZero(S(O()))", std_sig)
        assert print_pattern(p) == "isZero(S(O()))"

    def test_mu_prints_annotated(self, std_sig):
        p = parse_pattern("\\mu{Nat} \\or(O(), S(B0))", std_sig)
        printed = print_pattern(p)
        assert printed.startswith("\\mu{Nat}")
        assert structural_eq(parse_pattern(printed, std_sig), p)

    def test_round_trip_random(self):
        rng = random.Random(62)
        for _ in range(150):
            sig = random_signature(rng)
            sort = rng.choice(sig.sorts)
            ex = random_context(rng, sig)
            mu = random_context(rng, sig)
            p = random_pattern(rng, sig, sort, ex, mu, budget=rng.randint(2, 14))
            reparsed = parse_pattern(print_pattern(p), sig, ex, mu, expect_sort=sort)
            assert structural_eq(reparsed, p)


class TestCorpus:
    def test_bundled_files_parse_warning_free(self):
        assert set(FILES) == {"bool.mlt", "natbool.mlt", "natbool.mlm"}
        bool_theory = parse_theory(corpus_path("bool.mlt").read_text())
        assert bool_theory.axioms
        natbool = parse_theory(corpus_path("natbool.mlt").read_text())
        model, warnings = parse_model(
            corpus_path("natbool.mlm").read_text(), natbool, lint_totality=True
        )
        assert warnings == []
        assert model.carrier_size(natbool.signature.sort("Nat")) == 4
