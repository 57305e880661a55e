"""mulogic benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the ``src/`` beside ``bench/``.  Workloads:
``theory-check``, ``eval-quant``, ``eval-fixpoint`` and ``cli``, or ``all``
to run them one after another (see ``bench/README.md`` for why each
exists).  With ``--trace 0`` the run reports the end-to-end metrics,
with timings scaled to a reference machine speed (see ``Speed``); with
``--trace 1`` it reports per-layer metrics from a traced phase, plus the
tracer's own overhead.  Every op's
output is checked against the generator's expected answer.  A readable
report goes to standard output, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
result, with an environment stamp, is also written to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable

from tracer import Stat, Tracer
from workloads import WORKLOADS, Op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_REPEATS = {"full": 20, "tiny": 2}
MIN_OPS = {"full": 100, "tiny": 1}
# Share of a traced run's seconds spent untraced, to measure trace.overhead.
UNTRACED_SHARE = 1 / 3
IMPORTTIME_RUNS = 3


def import_package() -> ModuleType:
    """Import mulogic afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "mulogic" or m.startswith("mulogic.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mulogic")
    if Path(pkg.__file__).resolve().parent != SRC / "mulogic":
        raise ImportError(f"mulogic was imported from {pkg.__file__}, not from {SRC}")
    return pkg


# --- measurement -------------------------------------------------------------


@dataclass
class Measurement:
    """Latencies of whole rounds: ``latencies[r][i]`` is input ``i`` in round ``r``."""

    families: list[str]
    latencies: list[list[float]] = field(default_factory=list)
    round_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    first_error: str | None = None

    @property
    def attempted(self) -> int:
        return len(self.families) * len(self.latencies)

    @property
    def elapsed(self) -> float:
        return sum(self.round_seconds)

    def best(self, family: str | None = None) -> list[float]:
        """One latency per input: its fastest over all rounds.

        Every op is deterministic, so what varies between its rounds is
        other load on the machine, which only adds time; the minimum
        estimates the op's own cost far more steadily than the median
        (see README.md)."""
        return [min(col) for col, f in zip(zip(*self.latencies), self.families)
                if family in (None, f)]

    def samples(self, family: str | None = None) -> str:
        return f"{len(self.best(family))} inputs x {len(self.latencies)} rounds"

    def quantile_ms(self, q: int, family: str | None = None) -> float:
        """The ``q``-th percentile of :meth:`best` over the inputs, in milliseconds."""
        values = self.best(family)
        if len(values) == 1:
            return values[0] * 1e3
        return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1e3

    def ops_per_s(self) -> float:
        """Ops per second at each input's best latency: inputs in a round
        over the sum of their :meth:`best` latencies."""
        return len(self.families) / sum(self.best())


def measure(
    ops: list[Op], seconds: float, min_ops: int,
    between_rounds: Callable[[Measurement], None] | None = None,
) -> Measurement:
    """Run whole rounds of ``ops``, one at a time, until another round would
    overrun ``seconds`` and at least ``min_ops`` ops are done.  Whole rounds
    keep every size of the ladder equally represented.  ``between_rounds``
    runs after each round, outside the op latencies but inside ``seconds``."""
    out = Measurement([op.family for op in ops])
    gc.collect()
    began = perf_counter()
    while True:
        row = []
        start = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                result = op.call()
                elapsed = perf_counter() - t0
                ok = op.check(result)
            except Exception as err:  # noqa: BLE001 - a failing op is counted, not fatal
                elapsed = perf_counter() - t0
                ok = False
                out.first_error = out.first_error or f"{op.family}: {type(err).__name__}: {err}"
            row.append(elapsed)
            if not ok:
                out.failed += 1
                out.first_error = out.first_error or f"{op.family}: wrong answer"
        out.round_seconds.append(perf_counter() - start)
        out.latencies.append(row)
        rounds = len(out.latencies)
        if out.attempted >= min_ops and (perf_counter() - began) * (rounds + 1) / rounds > seconds:
            return out
        if between_rounds is not None:
            between_rounds(out)


# --- machine speed -----------------------------------------------------------


@dataclass(frozen=True)
class _Atom:
    name: str
    idx: int


_ATOMS = [_Atom(f"a{i}", i) for i in range(16)]
_TABLE = {(a, b): _ATOMS[a.idx ^ b.idx] for a in _ATOMS for b in _ATOMS}


def _walk(depth: int, at: _Atom) -> int:
    if depth == 0:
        return at.idx
    total = 0
    for a in _ATOMS[:4]:
        total += _walk(depth - 1, _TABLE[a, at])
    return total


# Best time of one reference walk on a 2-vCPU Intel Xeon virtual machine
# under Python 3.11; it sets the speed that scaled timings refer to.
REFERENCE_S = 0.0025
REFERENCE_SAMPLES = 5


class Speed:
    """Best time of a fixed pure-Python reference walk (hashed dataclass
    keys, dict lookups and recursion, like the evaluator), sampled between
    rounds.  In a busy spell the machine runs everything slower, the walk
    included, so a best time divided by the walk's best time in the same
    run mostly cancels the spell; ``factor`` turns that ratio back into
    seconds at the speed where the walk takes ``REFERENCE_S``."""

    def __init__(self) -> None:
        self.best = float("inf")
        self.count = 0

    def sample(self) -> None:
        for _ in range(REFERENCE_SAMPLES):
            t0 = perf_counter()
            _walk(6, _ATOMS[3])
            self.best = min(self.best, perf_counter() - t0)
            self.count += 1

    @property
    def factor(self) -> float:
        return REFERENCE_S / self.best


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


# --- the two kinds of run ----------------------------------------------------


def run_untraced(
    workload, scale: str, seconds: float
) -> tuple[list[Measurement], dict, dict, Speed]:
    imports: list[float] = []
    parses: list[float] = []
    speed = Speed()
    repeats = SETUP_REPEATS[scale]

    def setup() -> list[Op]:
        gc.collect()
        t0 = perf_counter()
        pkg = import_package()
        t1 = perf_counter()
        ops = workload.setup(pkg)
        imports.append(t1 - t0)
        parses.append(perf_counter() - t1)
        return ops

    def between_rounds(m: Measurement) -> None:
        # Set-ups are spread evenly over the run, so that one slow spell of
        # the machine cannot hold them all; like op latencies, each part of
        # set-up is taken at its fastest.  Ops keep the modules they were
        # built with, so importing afresh does not disturb them.
        speed.sample()
        if len(imports) < repeats and perf_counter() - began >= len(imports) * seconds / repeats:
            setup()

    speed.sample()
    began = perf_counter()
    m = measure(setup(), seconds, MIN_OPS[scale], between_rounds=between_rounds)
    speed.sample()
    k = speed.factor
    metrics = {
        "setup_s": ((min(imports) + min(parses)) * k, "s", f"{len(imports)} set-ups"),
        "op_ms_p50": (m.quantile_ms(50) * k, "ms", m.samples()),
        "op_ms_p90": (m.quantile_ms(90) * k, "ms", m.samples()),
        "ops_per_s": (m.ops_per_s() / k, "1/s", m.samples()),
        "peak_rss_mb": (peak_rss_mb(children=workload.name == "cli"), "MB", "1 run"),
    }
    extra = {"failed_frac": (m.failed / m.attempted, "ratio", f"{m.attempted} ops")}
    if workload.name == "theory-check":
        extra["valuations_per_s"] = (
            workload.valuations_per_round * m.ops_per_s() / k / len(m.families), "1/s",
            m.samples())
    families = sorted(set(m.families))
    for family in families if len(families) > 1 else ():
        extra[f"op_ms_p50.{family}"] = (m.quantile_ms(50, family) * k, "ms",
                                        m.samples(family))
    return [m], metrics, extra, speed


PER_OP_LAYERS = (
    "model.interpret_symbol", "model.singleton_fastpath", "model.extended_app",
    "subst.bevar_subst", "subst.bsvar_subst",
    "pattern.free_vars", "pattern.svar_occurs_positively",
    "semantics.eval_pattern", "semantics.lfp_iterate", "semantics.lfp_prefixpoints",
    "theory.check_axiom",
)
PER_OP_COUNTS = (
    "model.extended_app.tuples", "semantics.lfp_iterate.steps",
    "semantics.lfp_prefixpoints.subsets", "theory.valuations",
)
PER_CALL_LAYERS = (
    "parser.parse_theory", "parser.parse_model", "parser.parse_pattern",
    "parser.tokenize", "model.build_model",
)


def layer_metrics(
    tracer: Tracer, setup: tuple[dict[str, Stat], dict[str, int]], ops: int
) -> dict:
    """Per-op work and self time for evaluation layers; mean self time per
    call for parsing, whose calls happen in set-up or in the op."""
    stats, counts = tracer.stats, tracer.counts
    metrics = {}
    for name in PER_OP_LAYERS:
        st = stats.get(name)
        metrics[f"{name}.calls"] = ((st.calls if st else 0) / ops, "count/op", ops)
        metrics[f"{name}.s"] = ((st.self_time if st else 0.0) / ops, "s/op", ops)
    for name in PER_OP_COUNTS:
        metrics[name] = (counts.get(name, 0) / ops, "count/op", ops)
    fast = stats.get("model.singleton_fastpath")
    hits = counts.get("model.singleton_fastpath.hits", 0)
    metrics["model.singleton_fastpath.hit_ratio"] = (
        hits / fast.calls if fast else 0.0, "ratio", fast.calls if fast else 0)
    main = stats.get("cli.main")
    metrics["cli.main.s"] = ((main.self_time if main else 0.0) / ops, "s/op", ops)
    setup_stats, setup_counts = setup
    both = (setup_stats, stats)
    for name in PER_CALL_LAYERS:
        calls = sum(s[name].calls for s in both if name in s)
        self_time = sum(s[name].self_time for s in both if name in s)
        metrics[f"{name}.s"] = (self_time / calls if calls else 0.0, "s/call", calls)
    tokens = counts.get("parser.tokens", 0) + setup_counts.get("parser.tokens", 0)
    tok_time = sum(s["parser.tokenize"].total for s in both if "parser.tokenize" in s)
    metrics["parser.tokens_per_s"] = (tokens / tok_time if tok_time else 0.0, "1/s", tokens)
    return metrics


def run_traced(
    workload, scale: str, seconds: float
) -> tuple[list[Measurement], dict, dict, Tracer]:
    pkg = import_package()
    importlib.import_module("mulogic.cli")
    if workload.name == "cli":
        workload.in_process = True
    untraced = measure(workload.setup(pkg), seconds * UNTRACED_SHARE, 1)

    tracer = Tracer()
    tracer.install(pkg)
    try:
        ops = workload.setup(pkg)
        setup = tracer.take_totals()
        traced_ops = [Op(op.family, tracer.op(op.call), op.check) for op in ops]
        traced = measure(traced_ops, seconds * (1 - UNTRACED_SHARE), 1)
    finally:
        tracer.restore()

    metrics = layer_metrics(tracer, setup, traced.attempted)
    import_s = cli_import_seconds() if workload.name == "cli" else []
    metrics["cli.import_s"] = (statistics.median(import_s) if import_s else 0.0, "s",
                               len(import_s))
    metrics["trace.overhead"] = (traced.quantile_ms(50) / untraced.quantile_ms(50), "ratio",
                                 traced.samples())
    attempted = untraced.attempted + traced.attempted
    extra = {"failed_frac": ((untraced.failed + traced.failed) / attempted, "ratio",
                             f"{attempted} ops")}
    return [untraced, traced], metrics, extra, tracer


_IMPORTTIME_RE = re.compile(r"^import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*mulogic\s*$")


def cli_import_seconds() -> list[float]:
    """Cumulative import time of ``mulogic`` as ``-X importtime`` reports it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(IMPORTTIME_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mulogic"],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        for line in proc.stderr.splitlines():
            m = _IMPORTTIME_RE.match(line)
            if m:
                out.append(int(m.group(1)) / 1e6)
    return out


# --- environment stamp and output --------------------------------------------


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": nproc,
        "git_revision": git_revision(),
        "seed": seed,
    }


def pin_to_one_cpu() -> int | None:
    """Keep this process, and the children it starts, on one CPU.  The
    reference walk then runs on the CPU where the ops run: on a shared
    machine one CPU can be slowed while the other is not."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except AttributeError:
        return None
    return cpu


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process, one after another, print
    their reports, then one JSON line with metrics keyed ``workload/metric``."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--scale", args.scale],
            capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *report, last = proc.stdout.splitlines()
        print("\n".join(report))
        result = json.loads(last)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke tests")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        import_package()
    except ImportError as err:
        print(f"error: cannot import mulogic from {SRC}: {err}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    env = environment(args.seed)
    env["pinned_cpu"] = pin_to_one_cpu()
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        workload = WORKLOADS[args.workload](args.seed, args.scale, Path(workdir))
        tracer = speed = None
        if args.trace:
            runs, metrics, extra, tracer = run_traced(workload, args.scale, args.seconds)
        else:
            runs, metrics, extra, speed = run_untraced(workload, args.scale, args.seconds)
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    rounds = sum(len(m.latencies) for m in runs)
    first_error = next((m.first_error for m in runs if m.first_error), None)

    print(f"# mulogic benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} scale={args.scale}")
    print("# env: " + json.dumps(env, sort_keys=True))
    print(f"# ops attempted={attempted} failed={failed} rounds={rounds} "
          f"measured_s={sum(m.elapsed for m in runs):.3f}")
    if first_error:
        print(f"# first failure: {first_error}")
    if speed is not None:
        print(f"# reference walk: best {speed.best * 1e3:.4f} ms of {speed.count}; timings "
              f"scaled by {speed.factor:.4f} to where it takes {REFERENCE_S * 1e3:g} ms")
    for name, (value, unit, samples) in {**metrics, **extra}.items():
        print(f"{name:40s} {value:14.6g} {unit:9s} n={samples}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }
    results_dir = BENCH / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    full = {"env": env, "workload": args.workload, "scale": args.scale,
            "seconds": args.seconds, "rounds": rounds,
            "timing_scale": speed.factor if speed else None, **result,
            "all_metrics": {name: {"value": v, "unit": u, "samples": n}
                            for name, (v, u, n) in {**metrics, **extra}.items()}}
    (results_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n")
    if tracer is not None:
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(tracer.spans_json()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
