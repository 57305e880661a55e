"""Tracer for the benchmark's traced run.

It wraps mulogic's public functions at the names their callers bind (for
example ``semantics.bevar_subst``, which ``semantics`` imported by name, and
``parser.build_model``), so the package source is not touched.  Every
wrapped call adds to per-name totals: calls, time, and self time, which is
the call's time minus the time of the wrapped calls made inside it.  Calls
at coarse boundaries (each op, ``satisfies``, ``check_axiom``,
``eval_pattern``, each ``lfp_*`` call, each parse and ``build_model``) also
record a span; hot calls (table lookups, the singleton fast path, the
substitutions, ``free_vars``) keep only the totals.  Spans stay in memory,
up to a limit, and are written out when the run ends.
"""

from __future__ import annotations

import math
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

SPAN_LIMIT = 20000


class Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.spans_dropped = 0
        # One child-time accumulator per open wrapped call; the bottom one
        # belongs to the caller outside every wrapper.
        self._frames: list[list[float]] = [[0.0]]
        self._open_spans: list[int] = [0]
        self._next_span = 1
        self._patches: list[tuple[Any, str, Any]] = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def take_totals(self) -> tuple[dict[str, Stat], dict[str, int]]:
        """Return the totals so far and start again from zero; spans are kept."""
        taken = self.stats, self.counts
        self.stats, self.counts = {}, {}
        return taken

    def wrap(
        self,
        fn: Callable,
        name: str,
        span: bool,
        before: Callable[[tuple], tuple] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        frames = self._frames
        open_spans = self._open_spans
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            frame = [0.0]
            frames.append(frame)
            if span:
                span_id = tracer._next_span
                tracer._next_span += 1
                parent = open_spans[-1]
                open_spans.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                frames.pop()
                frames[-1][0] += elapsed
                st = tracer.stats.get(name)
                if st is None:
                    st = tracer.stats[name] = Stat()
                st.calls += 1
                st.total += elapsed
                st.self_time += elapsed - frame[0]
                if span:
                    open_spans.pop()
                    if len(tracer.spans) < SPAN_LIMIT:
                        tracer.spans.append((span_id, parent, name, start, start + elapsed))
                    else:
                        tracer.spans_dropped += 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, span: bool, **hooks) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, span, **hooks))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- the mulogic layers ---------------------------------------------

    def install(self, pkg: ModuleType) -> None:
        """Wrap every layer on the paper's path, at each name a caller binds."""
        parser, model, semantics = pkg.parser, pkg.model, pkg.semantics
        theory, cli = pkg.theory, pkg.cli

        def counted_tokens(args, result):
            self.count("parser.tokens", len(result))

        self.patch(parser, "tokenize", "parser.tokenize", span=False, after=counted_tokens)
        for fn in ("parse_theory", "parse_model", "parse_pattern"):
            for owner in (parser, cli):
                self.patch(owner, fn, f"parser.{fn}", span=True)
        self.patch(parser, "build_model", "model.build_model", span=True)

        def counted_hits(args, result):
            if result is not None:
                self.count("model.singleton_fastpath.hits")

        def counted_tuples(args, result):
            self.count("model.extended_app.tuples", math.prod(len(s) for s in args[2]))

        self.patch(model.FiniteModel, "interpret_symbol", "model.interpret_symbol", span=False)
        self.patch(model.FiniteModel, "extended_app", "model.extended_app", span=False,
                   after=counted_tuples)
        self.patch(semantics, "singleton_fastpath", "model.singleton_fastpath", span=False,
                   after=counted_hits)
        for fn in ("bevar_subst", "bsvar_subst"):
            self.patch(semantics, fn, f"subst.{fn}", span=False)
        self.patch(semantics, "svar_occurs_positively", "pattern.svar_occurs_positively",
                   span=False)
        for owner in (semantics, theory):
            self.patch(owner, "free_vars", "pattern.free_vars", span=False)

        def counting_step(counter: str):
            def before(args):
                step = args[0]

                def counted(a):
                    self.count(counter)
                    return step(a)

                return (counted, *args[1:])

            return before

        self.patch(semantics, "lfp_iterate", "semantics.lfp_iterate", span=True,
                   before=counting_step("semantics.lfp_iterate.steps"))
        self.patch(semantics, "lfp_prefixpoints", "semantics.lfp_prefixpoints", span=True,
                   before=counting_step("semantics.lfp_prefixpoints.subsets"))

        def counted_valuation(args, result):
            self.count("theory.valuations")

        self.patch(semantics, "eval_pattern", "semantics.eval_pattern", span=True)
        self.patch(cli, "eval_pattern", "semantics.eval_pattern", span=True)
        self.patch(theory, "eval_pattern", "semantics.eval_pattern", span=True,
                   after=counted_valuation)
        self.patch(theory, "check_axiom", "theory.check_axiom", span=True)
        for owner in (theory, cli):
            self.patch(owner, "satisfies", "theory.satisfies", span=True)
        self.patch(cli, "main", "cli.main", span=True)

    def op(self, call: Callable[[], Any]) -> Callable[[], Any]:
        """Wrap one benchmark operation in an ``op`` span."""
        return self.wrap(call, "op", span=True)

    def spans_json(self) -> dict:
        return {
            "fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": self.spans,
            "dropped": self.spans_dropped,
        }
