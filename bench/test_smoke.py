"""Smoke tests for the benchmark: the generator agrees with the bundled
corpus, and every workload runs at tiny sizes, emits every metric that
BENCHMARK.json names and fails no op.  No timing is checked.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import generate as gen  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tables(model):
    """Carriers and interpretation tables of a parsed model, as labels."""
    sig = model.signature
    carriers = {s.name: [e.label for e in model.carrier(s)] for s in sig.sorts}
    tables = {
        sym.name: {
            tuple(e.label for e in args): sorted(e.label for e in model.elems(value))
            for args, value in model.interp(sym).table.items()
            if not value.is_empty
        }
        for sym in sig.symbols
    }
    return carriers, tables


def test_generator_matches_bundled_corpus():
    from mulogic import parse_model, parse_theory, satisfies
    from mulogic.corpus import corpus_path

    def load(theory_text, model_text):
        theory = parse_theory(theory_text)
        model = parse_model(model_text, theory)[0]
        report = satisfies(model, theory)
        return model, {r.axiom.label: r.verdict.value for r in report.results}

    corpus_model, corpus_verdicts = load(
        corpus_path("natbool.mlt").read_text(), corpus_path("natbool.mlm").read_text())
    base = gen.capped_model(4)
    gen_model, gen_verdicts = load(gen.theory_text(), base.text())

    assert _tables(gen_model) == _tables(corpus_model)
    assert gen_verdicts == corpus_verdicts
    expected = {**gen.base_verdicts(base), **gen.definedness_verdicts(base)}
    assert {label: e.verdict for label, e in expected.items()} == corpus_verdicts


def test_generator_imports_no_mulogic():
    code = ("import sys, random; sys.path.insert(0, sys.argv[1]); import generate as g; "
            "g.theory_case(5, random.Random(1)); g.forall_mu_case(5, 'prefix', random.Random(1)); "
            "assert not any(m.split('.')[0] == 'mulogic' for m in sys.modules)")
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, timeout=60)


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_of_every_workload(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        f"{w['name']}/{m['name']}": m["unit"] for w in SPEC["workloads"] for m in listed}
    failed_frac = [float(line.split()[1]) for line in lines if line.startswith("failed_frac ")]
    assert failed_frac == [0.0] * len(SPEC["workloads"])
    assert sum(line.startswith("# env: ") for line in lines) == len(SPEC["workloads"])
