"""The four benchmark workloads.

Each workload turns a seed into inputs with ``generate`` (before mulogic is
imported), parses them into ready-to-run ops in ``setup``, and checks every
op's output against the generator's expected answer.  An op is one closed-
loop request from a single caller: the next starts when the previous one
has returned.  Ops call mulogic through module attributes looked up at call
time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Any, Callable

import generate as gen


@dataclass
class Op:
    family: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


# Sizes per workload; ``tiny`` is for the smoke tests only.
LADDERS = {
    "full": {
        "theory-check": (5, 6, 7, 8, 9, 10),
        "assoc3": (4, 5, 6),
        "comm": (10, 14, 18),
        "equals-nest": (1, 2, 3, 4, 5, 6),
        "mu-nest-2": (16, 24),
        "mu-nest-3": (10, 12),
        "forall-mu-iterate": (16, 20, 24),
        "forall-mu-prefix": (6, 7),
        "cli": (6,),
    },
    "tiny": {
        "theory-check": (4, 5),
        "assoc3": (3,),
        "comm": (4,),
        "equals-nest": (1, 2),
        "mu-nest-2": (4,),
        "mu-nest-3": (4,),
        "forall-mu-iterate": (4,),
        "forall-mu-prefix": (3,),
        "cli": (4,),
    },
}


def _parse_cached(pkg: ModuleType):
    """Parse each distinct theory text once and each model once per theory."""
    theories: dict[str, Any] = {}
    models: dict[tuple[str, str], Any] = {}

    def theory(text: str):
        if text not in theories:
            theories[text] = pkg.parser.parse_theory(text)
        return theories[text]

    def model(theory_text: str, text: str):
        key = (theory_text, text)
        if key not in models:
            models[key] = pkg.parser.parse_model(text, theory(theory_text))[0]
        return models[key]

    return theory, model


class TheoryCheck:
    """One op is ``satisfies(model, theory)`` on a parsed natbool-n pair."""

    name = "theory-check"

    def __init__(self, seed: int, scale: str, workdir: Path):
        rng = random.Random(seed)
        self.cases = [gen.theory_case(n, rng) for n in LADDERS[scale]["theory-check"]]
        rng.shuffle(self.cases)

    @property
    def valuations_per_round(self) -> int:
        return sum(c.valuations for c in self.cases)

    def setup(self, pkg: ModuleType) -> list[Op]:
        theory, model = _parse_cached(pkg)
        ops = []
        for case in self.cases:
            th, m = theory(case.theory), model(case.theory, case.model)
            ops.append(Op(
                "natbool",
                lambda th=th, m=m: pkg.theory.satisfies(m, th),
                lambda report, case=case: _report_matches(report, case),
            ))
        return ops


def _report_matches(report, case: gen.TheoryCase) -> bool:
    seen = {}
    for r in report.results:
        witness = ()
        if r.witness is not None:
            witness = tuple(sorted((str(v), e.label) for v, e in r.witness.evars.items()))
        seen[r.axiom.label] = (r.verdict.value, witness)
    return seen == _wanted(case)


def _wanted(case: gen.TheoryCase) -> dict[str, tuple[str, tuple]]:
    return {label: (e.verdict, tuple(sorted(e.witness))) for label, e in case.verdicts.items()}


class _EvalWorkload:
    """One op is ``eval_pattern`` on a closed pattern over a parsed model."""

    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path):
        rng = random.Random(seed)
        self.cases = self.make_cases(LADDERS[scale], rng)
        rng.shuffle(self.cases)

    def make_cases(self, ladder, rng) -> list[gen.EvalCase]:
        raise NotImplementedError

    def setup(self, pkg: ModuleType) -> list[Op]:
        theory, model = _parse_cached(pkg)
        empty = pkg.semantics.Valuation.empty()
        ops = []
        for case in self.cases:
            th = theory(case.theory)
            m = model(case.theory, case.model)
            p = pkg.parser.parse_pattern(case.pattern, th.signature)
            ops.append(Op(
                case.family,
                lambda m=m, p=p, lfp=case.lfp: pkg.semantics.eval_pattern(
                    m, empty, p, lfp_mode=lfp),
                lambda got, m=m, want=case.expected: (
                    frozenset(e.label for e in m.elems(got)) == want),
            ))
        return ops


class EvalQuant(_EvalWorkload):
    name = "eval-quant"

    def make_cases(self, ladder, rng):
        return ([gen.assoc3_case(n, rng) for n in ladder["assoc3"]]
                + [gen.comm_case(n, rng) for n in ladder["comm"]]
                + [gen.equals_nest_case(d, rng) for d in ladder["equals-nest"]])


class EvalFixpoint(_EvalWorkload):
    name = "eval-fixpoint"

    def make_cases(self, ladder, rng):
        return ([gen.mu_nest_case(n, 2, rng) for n in ladder["mu-nest-2"]]
                + [gen.mu_nest_case(n, 3, rng) for n in ladder["mu-nest-3"]]
                + [gen.forall_mu_case(n, "iterate", rng) for n in ladder["forall-mu-iterate"]]
                + [gen.forall_mu_case(n, "prefix", rng) for n in ladder["forall-mu-prefix"]])


@dataclass(frozen=True)
class CliCase:
    family: str
    argv: tuple[str, ...]
    check: Callable[[int, str], bool]


_LABELS_RE = re.compile(r"^\{ ?(.*?) ?\}$")


def _eval_output(want: frozenset[str]) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        m = _LABELS_RE.match(out.strip())
        got = frozenset(x.strip() for x in m.group(1).split(",") if x.strip()) if m else None
        return code == 0 and got == want
    return check


def _satisfies_output(case: gen.TheoryCase) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        payload = json.loads(out)
        seen = {r["label"]: (r["verdict"], tuple(sorted(r.get("witness", {}).items())))
                for r in payload["axioms"]}
        return (code == (0 if case.satisfied else 1)
                and payload["satisfied"] == case.satisfied and seen == _wanted(case))
    return check


def _check_output(axioms: int) -> Callable[[int, str], bool]:
    def check(code: int, out: str) -> bool:
        return code == 0 and out.rstrip().endswith(
            f": ok (2 sort(s), 8 symbol(s), {axioms} axiom(s))")
    return check


class Cli:
    """One op is one ``python -m mulogic`` process: ``satisfies``, ``eval``
    or ``check`` on small generated files.  The traced run calls
    ``cli.main`` in process instead, since a tracer cannot see into a child."""

    name = "cli"
    in_process = False

    def __init__(self, seed: int, scale: str, workdir: Path):
        rng = random.Random(seed)
        self.files: dict[str, str] = {}
        self.patterns: list[tuple[str, str]] = []  # (theory path, pattern)
        self.cases: list[CliCase] = []
        for n in LADDERS[scale]["cli"]:
            planted = gen.theory_case(n, rng)
            mu = gen.mu_nest_case(n, 2, rng)
            th, mm = self._write(f"sat-planted-{n}", planted.theory, planted.model, workdir)
            self.cases.append(CliCase(
                "satisfies", ("satisfies", th, mm, "--report", "json"),
                _satisfies_output(planted)))
            th, mm = self._write(f"eval-mu-{n}", mu.theory, mu.model, workdir)
            self.patterns.append((th, mu.pattern))
            self.cases.append(CliCase(
                "eval", ("eval", th, mm, mu.pattern, "--lfp", mu.lfp),
                _eval_output(mu.expected)))
            self.cases.append(CliCase(
                "check", ("check", str(workdir / f"sat-planted-{n}.mlt")),
                _check_output(len(planted.verdicts))))
        rng.shuffle(self.cases)

    def _write(self, stem: str, theory: str, model: str, workdir: Path) -> tuple[str, str]:
        paths = workdir / f"{stem}.mlt", workdir / f"{stem}.mlm"
        for path, text in zip(paths, (theory, model)):
            path.write_text(text, encoding="utf-8")
            self.files[str(path)] = text
        return str(paths[0]), str(paths[1])

    def setup(self, pkg: ModuleType) -> list[Op]:
        # What the child processes will parse, parsed once here so setup
        # covers the same import-and-parse work as the other workloads.
        theory, model = _parse_cached(pkg)
        for path, text in self.files.items():
            if path.endswith(".mlm"):
                model(self.files[path[:-4] + ".mlt"], text)
        for path, pattern in self.patterns:
            pkg.parser.parse_pattern(pattern, theory(self.files[path]).signature)
        return [Op(c.family, self._call(c.argv, pkg), lambda r, c=c: c.check(*r))
                for c in self.cases]

    def _call(self, argv: tuple[str, ...], pkg: ModuleType) -> Callable[[], tuple[int, str]]:
        if self.in_process:
            def call():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = pkg.cli.main(list(argv))
                return code, out.getvalue()
            return call

        # The child imports the same package source as this process.
        env = dict(os.environ, PYTHONPATH=str(Path(pkg.__file__).parent.parent))

        def call():
            proc = subprocess.run([sys.executable, "-m", "mulogic", *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout
        return call


WORKLOADS = {w.name: w for w in (TheoryCheck, EvalQuant, EvalFixpoint, Cli)}
