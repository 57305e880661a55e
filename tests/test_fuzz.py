"""Seeded token-mutation fuzzing of the text frontend and the CLI.

Mutants of the corpus theory and model files and of the corpus axiom
patterns are made by deleting, inserting, replacing and duplicating
tokens.  Each must end in a result, a ``ParseError`` or another
``MuLogicError``; through ``cli.main`` it must end in exit code 0, 1 or 2
without a traceback.  The generator is deterministic, so the same seed
gives the same mutants in any checkout.
"""

import random
import re

import pytest

from mulogic import ParseError, parse_model, parse_pattern, parse_theory
from mulogic.cli import main
from mulogic.corpus import corpus_path
from mulogic.errors import MuLogicError

# One piece per token, whitespace and comments kept, so a mutant keeps
# the layout of its source everywhere it was not edited.
_PIECE_RE = re.compile(
    r"\s+|//[^\n]*|\\[A-Za-z]+|->|[A-Za-z0-9_']+(?:-[A-Za-z0-9_']+)*|.", re.S
)
_AXIOM_RE = re.compile(r"^axiom \S+ \[\w+\] (.*)$", re.M)
_OPS = ("delete", "insert", "replace", "duplicate")


def sources() -> list[tuple[str, str]]:
    """``(kind, text)`` for every corpus file and corpus axiom pattern."""
    out = []
    for name in ("bool.mlt", "natbool.mlt"):
        text = corpus_path(name).read_text(encoding="utf-8")
        out.append(("theory", text))
        out.extend(("pattern", m.group(1)) for m in _AXIOM_RE.finditer(text))
    out.append(("model", corpus_path("natbool.mlm").read_text(encoding="utf-8")))
    return out


def token_pool(texts) -> list[str]:
    pool = {piece for text in texts for piece in _PIECE_RE.findall(text)
            if not piece.isspace() and not piece.startswith("//")}
    return sorted(pool) + ["\n", "b7", "B3"]


def mutate(text: str, pool: list[str], rng: random.Random, edits: int) -> str:
    """Apply ``edits`` random token edits to ``text``."""
    pieces = _PIECE_RE.findall(text)
    for _ in range(edits):
        slots = [i for i, piece in enumerate(pieces) if not piece.isspace()]
        if not slots:
            pieces.append(rng.choice(pool))
            continue
        op, i = rng.choice(_OPS), rng.choice(slots)
        if op == "delete":
            del pieces[i]
        elif op == "insert":
            pieces[i:i] = [rng.choice(pool), " "]
        elif op == "replace":
            pieces[i] = rng.choice(pool)
        else:
            pieces[i:i] = [pieces[i], " "]
    return "".join(pieces)


def mutants(seed: int, count: int):
    """``count`` seeded ``(kind, mutant text)`` pairs over :func:`sources`."""
    rng = random.Random(seed)
    srcs = sources()
    pool = token_pool(text for _, text in srcs)
    for _ in range(count):
        kind, text = rng.choice(srcs)
        yield kind, mutate(text, pool, rng, rng.randint(1, 3))


def parse(kind: str, text: str, theory):
    """``text`` parsed as ``kind``: a theory, a model of ``theory`` with the
    totality lint, or a pattern over its signature."""
    if kind == "theory":
        return parse_theory(text)
    if kind == "model":
        return parse_model(text, theory, lint_totality=True)
    return parse_pattern(text, theory.signature)


def parse_outcome(kind: str, text: str, theory) -> str:
    """What parsing ``text`` as ``kind`` gives: a short result summary or
    the error's class and message.  Any other exception propagates."""
    try:
        result = parse(kind, text, theory)
    except MuLogicError as err:
        return f"{type(err).__name__}: {err}"
    if kind == "theory":
        return f"ok {[(a.label, a.pattern) for a in result.axioms]!r}"
    if kind == "model":
        return f"ok {[str(w) for w in result[1]]}"
    return f"ok {result!r}"


def cli_commands(kind: str, arg: str) -> list[list[str]]:
    """The CLI commands that read a mutant: written to the file ``arg``,
    or passed as the pattern ``arg``."""
    mlt, mlm = str(corpus_path("natbool.mlt")), str(corpus_path("natbool.mlm"))
    if kind == "theory":
        return [["check", arg], ["satisfies", arg, mlm]]
    if kind == "model":
        return [["satisfies", mlt, arg]]
    return [["eval", mlt, mlm, arg]]


def run_cli(argv: list[str]) -> int:
    try:
        return main(argv)
    except SystemExit as stop:  # argparse usage errors
        return stop.code


@pytest.fixture(scope="module")
def natbool():
    return parse_theory(corpus_path("natbool.mlt").read_text(encoding="utf-8"))


def test_sources_cover_every_kind():
    kinds = [kind for kind, _ in sources()]
    assert kinds.count("theory") == 2 and kinds.count("model") == 1
    assert kinds.count("pattern") >= 9


def test_parse_mutants_end_in_a_result_or_a_diagnostic(natbool):
    outcomes = []
    for kind, text in mutants(seed=11, count=400):
        try:
            outcomes.append(parse_outcome(kind, text, natbool))
        except Exception as err:  # noqa: BLE001 - report the mutant
            pytest.fail(f"{kind} mutant {text!r} raised {err!r}")
        if outcomes[-1].startswith(ParseError.__name__):
            with pytest.raises(ParseError) as caught:
                parse(kind, text, natbool)
            # every span lies in the text; a column may be one past its line's end
            lines = text.split("\n")
            for d in caught.value.diagnostics:
                line, col, length = d.span
                assert 1 <= line <= len(lines), (d, text)
                assert 1 <= col <= len(lines[line - 1]) + 1 and length >= 1, (d, text)
    diagnosed = sum(o.startswith(ParseError.__name__) for o in outcomes)
    assert 0 < diagnosed < len(outcomes)


def test_cli_mutants_exit_cleanly(tmp_path, capsys):
    for n, (kind, text) in enumerate(mutants(seed=12, count=300)):
        if kind == "pattern":
            arg = text
        else:
            path = tmp_path / f"mutant{n}.{'mlt' if kind == 'theory' else 'mlm'}"
            path.write_text(text, encoding="utf-8")
            arg = str(path)
        for argv in cli_commands(kind, arg):
            try:
                code = run_cli(argv)
            except Exception as err:  # noqa: BLE001 - report the mutant
                pytest.fail(f"{argv[0]} of {kind} mutant {text!r} raised {err!r}")
            err_text = capsys.readouterr().err
            assert code in (0, 1, 2), (argv[0], kind, text, code)
            assert "Traceback" not in err_text, (argv[0], kind, text)
