#!/usr/bin/env python3
"""Benchmark for invwreath: time from cell to verdict, word-problem
queries, and per-layer spans.

Run from the repository root; the package is imported from ``./src``:

    python3 perfbench/run.py --workload closure-flat --seed 1 --seconds 25 --trace 0

One process, one thread, one caller: each operation (a verification cell,
or a word-problem query) starts when the previous one has returned.  Every
answer is checked outside the timed region; a wrong answer, a verdict
other than ``pass`` or an exception counts as a failed operation and the
run goes on.  ``--trace 0`` wraps nothing and reports the end-to-end
metrics; ``--trace 1`` wraps the package's public functions and reports
per-layer metrics from the recorded spans.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  WORKLOADS.md beside this file says why each
workload and cell was chosen.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import HostSpeed, spot_factor  # noqa: E402
from queries import make_queries  # noqa: E402
from tracing import Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


@dataclass(frozen=True)
class Cell:
    kind: str
    monoid: str
    n: int                       # level, or the object cap for omega-mi
    budget: int | None = None    # None: the program's default

    @property
    def key(self) -> str:
        return f"{self.kind}.{self.monoid}.{self.n}"


# At the default per-root budget of 20,000 both category cells end
# inconclusive after about 2 s, which would time a different program.
CATEGORY_BUDGET = 40_000

CELL_WORKLOADS = {
    "closure-flat": (Cell("r-in", "trivial", 6), Cell("r-in-popova", "trivial", 6),
                     Cell("r-min", "c3", 4)),
    "singular-semigroup": (Cell("r-sing-tuples", "s3", 4), Cell("r-sing-in", "trivial", 5),
                           Cell("r-m-sing-in", "c2", 4)),
    "category": (Cell("omega-mi", "c2", 4, CATEGORY_BUDGET),
                 Cell("omega-mi", "trivial", 5, CATEGORY_BUDGET)),
}
WORD_PROBLEM_CELL = Cell("r-min", "c3", 4)
WORKLOADS = (*CELL_WORKLOADS, "word-problem")
ALL_CELLS = tuple(dict.fromkeys(c for cells in CELL_WORKLOADS.values() for c in cells))

QUERIES_PER_PASS = 2000
SETUP_SAMPLES = 7            # the run's own set-up plus six in fresh processes

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
    "peak_rss_mb": "MB",
}
LAYER = {
    "presentations.build_s": "s",
    "presentations.relations": "count",
    "presentations.generators": "count",
    "verify.soundness_s": "s",
    "verify.generation_s": "s",
    "verify.closure_elements": "count",
    "verify.closure_hit_ratio": "ratio",
    "verify.target_s": "s",
    "verify.self_s": "s",
    "wreath.compose_calls": "count",
    "wreath.compose_s": "s",
    "congruence.enumerate_s": "s",
    "congruence.nodes_created": "count",
    "congruence.classes": "count",
    "congruence.classes_per_node": "ratio",
    "congruence.headroom_attempts": "count",
    "congruence.trace_s": "s",
    "words.parse_s": "s",
    "words.eval_word_s": "s",
    "words.normal_form_s": "s",
    "words.letters": "count",
    "trace.overhead_s": "s",
}
PER_CELL = ("verify.soundness_s", "verify.generation_s", "verify.target_s", "verify.self_s",
            "congruence.enumerate_s", "congruence.nodes_created", "congruence.classes",
            "wreath.compose_calls")
PER_LAYER = {**LAYER, **{f"{m}.{c.key}": LAYER[m] for m in PER_CELL for c in ALL_CELLS}}

# (module, attribute, span name, summary of the returned value)
WRAPPED = (
    ("invwreath.presentations", "build", "build", None),
    ("invwreath.verify", "check_soundness", "check_soundness", None),
    ("invwreath.verify", "check_generation", "check_generation", None),
    ("invwreath.verify", "enumerate_target", "enumerate_target", None),
    ("invwreath.verify", "target_size", "target_size", None),
    ("invwreath.congruence", "enumerate_congruence", "enumerate_congruence",
     lambda t: {"nodes": t.nodes_created,
                "classes": t.size if t.size is not None else sum((t.hom_sizes or {}).values())}),
    ("invwreath.wreath", "compose", "compose", None),
    ("invwreath.wreath", "enumerate_wreath", "enumerate_wreath", None),
    ("invwreath.words", "parse_monoid_word", "parse_monoid_word", lambda w: {"letters": len(w)}),
    ("invwreath.words", "eval_word", "eval_word", None),
    ("invwreath.words", "normal_form_wreath_word", "normal_form_wreath_word", None),
    ("invwreath.congruence", "CongruenceTable.trace", "trace", None),
)


# ---------------------------------------------------------------------------
# the program

class Program:
    """The invwreath modules, imported from this checkout's ``src``."""

    def __init__(self):
        if not (SRC / "invwreath" / "__init__.py").is_file():
            raise SystemExit(f"perfbench: no invwreath package under {SRC}")
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in ("base", "presentations", "verify", "congruence", "words", "wreath"):
            setattr(self, name, importlib.import_module(f"invwreath.{name}"))
        if not Path(self.base.__file__).resolve().is_relative_to(SRC):
            raise SystemExit(f"perfbench: invwreath imported from {self.base.__file__}, not {SRC}")


def _build(prog: Program, cell: Cell):
    level = {"cap": cell.n} if cell.kind == "omega-mi" else {"n": cell.n}
    return prog.presentations.build(cell.kind, prog.base.builtin(cell.monoid), **level)


def _warm(prog: Program, cell: Cell):
    """Fill the lazy witness tables the workload reads."""
    for name in (cell.monoid, "trivial"):
        b = prog.base.builtin(name)
        prog.base.adjoin_zero(b.require_evaluation())
        prog.words.word_for_monoid_element(b)
    if cell.kind == "omega-mi":
        # the sandwich witnesses factor words at the levels below 2
        for level in range(min(cell.n, 2)):
            prog.words.word_for_pperm(level)


@dataclass
class WordProblem:
    base: object
    n: int
    table: object
    queries: list
    equal_answers: int = 0     # queries decided equal, over all passes


def set_up(workload: str, tracer: Tracer | None = None):
    """Import, build and warm up; for ``word-problem`` also enumerate and
    certify the table.  Returns the program, the presentation of each cell
    and the table (None for cell workloads)."""
    prog = Program()
    cells = CELL_WORKLOADS.get(workload, (WORD_PROBLEM_CELL,))
    built = {}
    table = None
    for cell in cells:
        if tracer:
            tracer.set_owner(cell.key)
        built[cell] = _build(prog, cell)
        _warm(prog, cell)
    if workload == "word-problem":
        p = built[WORD_PROBLEM_CELL]
        prog.words.word_for_pperm(p.n)
        table = prog.congruence.enumerate_congruence(p)
        if table.status != "complete" or table.size != prog.verify.target_size(p):
            raise SystemExit(f"perfbench: table for {WORD_PROBLEM_CELL.key} not certified: "
                             f"{table.status}, {table.size} classes")
    return prog, built, table


# ---------------------------------------------------------------------------
# operations and their checks

def expected_counts(prog: Program, cell: Cell, p):
    """Closed-form target: one count, or one count per hom-set for omega-mi."""
    if cell.kind == "omega-mi":
        monoid = prog.base.builtin(cell.monoid).require_evaluation()
        return {(m, n): prog.wreath.hom_count(monoid, m, n)
                for m in range(cell.n + 1) for n in range(cell.n + 1)}
    return prog.verify.target_size(p)


def check_cell(report, expected) -> str | None:
    """Why a cell's report is wrong, or None."""
    if report.verdict != "pass":
        return f"verdict {report.verdict} {report.notes}"
    total = sum(expected.values()) if isinstance(expected, dict) else expected
    if report.generation != (total, total):
        return f"generation {report.generation}, expected {total} covered"
    if report.enumerated_size != expected:
        return f"enumerated {report.enumerated_size}, expected {expected}"
    return None


def run_query(prog: Program, wp: WordProblem, q):
    w = prog.words
    a = w.parse_monoid_word(q.left)
    b = w.parse_monoid_word(q.right)
    same_table = wp.table.trace(0, a) == wp.table.trace(0, b)
    ea = w.eval_word(a, wp.base, wp.n)
    same_eval = ea == w.eval_word(b, wp.base, wp.n)
    return same_table, same_eval, ea, w.normal_form_wreath_word(a, wp.base, wp.n)


def check_query(prog: Program, wp: WordProblem, q, outcome) -> str | None:
    """Why a query's answers are wrong, or None."""
    same_table, same_eval, ea, (parts, map_word) = outcome
    if same_table != same_eval:
        return f"trace says {same_table}, eval says {same_eval}: {q.left} / {q.right}"
    if q.equal_by_construction and not same_eval:
        return f"equal pair decided unequal: {q.left} / {q.right}"
    wp.equal_answers += same_eval
    rebuilt = prog.words.reassemble_wreath(parts, map_word)
    if prog.words.eval_word(rebuilt, wp.base, wp.n) != ea:
        return f"normal form of {q.left} evaluates elsewhere"
    return None


@dataclass
class Op:
    label: str      # the owner of the op's spans: a cell key or a query number
    span: str       # "cell" or "query"
    call: object
    check: object   # outcome -> problem or None
    summary: object = None


def cell_ops(prog: Program, workload: str, built, seed: int) -> list[Op]:
    ops = []
    for cell in CELL_WORKLOADS[workload]:
        b = prog.base.builtin(cell.monoid)
        if cell.kind == "omega-mi":
            call = (lambda cell=cell, b=b:
                    prog.verify.verify_category(cell.n, b, budget=cell.budget, seed=seed))
        else:
            call = (lambda cell=cell, b=b:
                    prog.verify.verify_presentation(cell.kind, b, cell.n, budget=cell.budget))
        expected = expected_counts(prog, cell, built[cell])
        ops.append(Op(cell.key, "cell", call,
                      lambda r, expected=expected: check_cell(r, expected),
                      lambda r: {"covered": r.generation[0] if r.generation else 0}))
    return ops


def word_problem(prog: Program, p, table, seed: int) -> WordProblem:
    token = prog.words.token
    queries = make_queries(seed, QUERIES_PER_PASS, [token(s) for s in p.alphabet],
                           [([token(s) for s in lhs], [token(s) for s in rhs])
                            for lhs, rhs in p.relations])
    return WordProblem(p.base, p.n, table, queries)


def query_ops(prog: Program, wp: WordProblem) -> list[Op]:
    return [Op(str(k), "query", lambda q=q: run_query(prog, wp, q),
               lambda out, q=q: check_query(prog, wp, q, out))
            for k, q in enumerate(wp.queries)]


# ---------------------------------------------------------------------------
# measurement

@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    latencies: list = field(default_factory=list)   # seconds per op
    passes: list = field(default_factory=list)      # seconds per pass: sum of its latencies
    corrected_latencies: list = field(default_factory=list)   # at nominal host speed
    corrected_passes: list = field(default_factory=list)
    ranges: list = field(default_factory=list)      # span index range of each traced pass


def measure(ops: list[Op], seconds: float, tally: Tally, tracer: Tracer | None = None,
            speed: HostSpeed | None = None):
    """Run passes over ``ops`` until the next one would end after
    ``seconds``; at least one pass.  With ``speed``, the time spent in its
    reference work is left out of each latency, and each latency is also
    corrected to nominal host speed by the reference samples taken during
    the operation, or else during its pass."""
    began = perf_counter()
    while True:
        first_span = len(tracer) if tracer else 0
        first_sample = len(speed.samples) if speed else 0
        pass_began = perf_counter()
        windows = []              # (latency, first sample, end sample) per op
        for op in ops:
            tally.attempted += 1
            outcome = problem = None
            stolen = speed.stolen if speed else 0.0
            lo = len(speed.samples) if speed else 0
            t0 = perf_counter()
            try:
                if tracer:
                    with tracer.span(op.span, op.label) as idx:
                        outcome = op.call()
                else:
                    outcome = op.call()
            except Exception as exc:   # a failed operation; the run goes on
                problem = f"{op.label}: {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - t0 - ((speed.stolen - stolen) if speed else 0.0)
            windows.append((elapsed, lo, len(speed.samples) if speed else 0))
            if problem is None:
                if tracer:
                    with tracer.paused():
                        problem = op.check(outcome)
                    if op.summary:
                        tracer.results[idx] = op.summary(outcome)
                else:
                    problem = op.check(outcome)
            if problem is not None:
                tally.failed += 1
                tally.problems.append(problem)
        tally.latencies += [t for t, _, _ in windows]
        tally.passes.append(sum(t for t, _, _ in windows))
        if speed:
            corrected = [t * speed.factor((lo, hi), (first_sample, None))
                         for t, lo, hi in windows]
            tally.corrected_latencies += corrected
            tally.corrected_passes.append(sum(corrected))
        if tracer:
            tally.ranges.append((first_span, len(tracer)))
        now = perf_counter()
        if now - began + (now - pass_began) > seconds:
            return


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def per_op_medians(latencies, ops_per_pass: int) -> list[float]:
    """Each operation's median latency over the passes.  Every pass runs
    the same operations in the same order, so a time that one pass alone
    shows (an interrupt, a collection, a preemption) does not reach the
    percentiles, while a slow operation does."""
    passes = [latencies[i:i + ops_per_pass] for i in range(0, len(latencies), ops_per_pass)]
    return [statistics.median(times) for times in zip(*passes)]


def setup_in_fresh_processes(workload: str, count: int) -> list[tuple[float, float]]:
    """(set-up seconds, host-speed factor) from ``count`` fresh processes."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed in a fresh process:\n{proc.stderr}")
        sample = json.loads(proc.stdout.splitlines()[-1])
        samples.append((sample["setup_s"], sample["factor"]))
    return samples


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_metrics(tracer: Tracer, ranges, built, overhead_s: float) -> dict:
    """Per-layer values over the given span ranges (one traced set-up and
    one traced pass).  ``_s`` values are inclusive span time, except
    ``verify.generation_s`` and ``verify.self_s``, which are self time."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    category_keys = {c.key for c in ALL_CELLS if c.kind == "omega-mi"}
    names, owners = tracer.names, tracer.owners
    closure_composes = 0
    classes_by_owner = {}

    def add(metric, owner, value):
        values[metric] += value
        if f"{metric}.{owner}" in values:
            values[f"{metric}.{owner}"] += value

    for lo, hi in ranges:
        self_ns = tracer.self_times(lo, hi)
        for i in range(lo, hi):
            name = names[tracer.name[i]]
            owner = owners[tracer.owner[i]] if tracer.owner[i] >= 0 else ""
            parent = names[tracer.name[tracer.parent[i]]] if tracer.parent[i] >= 0 else ""
            dur = (tracer.end[i] - tracer.start[i]) / 1e9
            result = tracer.results.get(i, {})
            if name == "build":
                add("presentations.build_s", owner, dur)
            elif name == "check_soundness":
                add("verify.soundness_s", owner, dur)
            elif name == "check_generation":
                add("verify.generation_s", owner, self_ns[i] / 1e9)
            elif name == "enumerate_target" or (name == "enumerate_wreath"
                                                and parent != "enumerate_target"):
                add("verify.target_s", owner, dur)
            elif name == "cell":
                add("verify.self_s", owner, self_ns[i] / 1e9)
                values["verify.closure_elements"] += result.get("covered", 0)
            elif name == "compose":
                add("wreath.compose_calls", owner, 1)
                add("wreath.compose_s", owner, dur)
                if parent == "check_generation" or (parent == "cell" and owner in category_keys):
                    closure_composes += 1
            elif name == "enumerate_congruence":
                add("congruence.enumerate_s", owner, dur)
                add("congruence.nodes_created", owner, result["nodes"])
                classes_by_owner[owner] = result["classes"]   # the last attempt counts
                if owner in category_keys:
                    values["congruence.headroom_attempts"] += 1
            elif name == "trace":
                add("congruence.trace_s", owner, dur)
            elif name == "parse_monoid_word":
                add("words.parse_s", owner, dur)
                values["words.letters"] += result["letters"]
            elif name == "eval_word" and parent != "normal_form_wreath_word":
                add("words.eval_word_s", owner, dur)
            elif name == "normal_form_wreath_word":
                add("words.normal_form_s", owner, dur)

    for owner, classes in classes_by_owner.items():
        add("congruence.classes", owner, classes)
    if values["congruence.nodes_created"]:
        values["congruence.classes_per_node"] = (
            values["congruence.classes"] / values["congruence.nodes_created"])
    if closure_composes:
        values["verify.closure_hit_ratio"] = values["verify.closure_elements"] / closure_composes
    values["presentations.relations"] = sum(len(p.relations) for p in built.values())
    values["presentations.generators"] = sum(len(p.alphabet) for p in built.values())
    values["trace.overhead_s"] = overhead_s
    return values


# ---------------------------------------------------------------------------

def _result(metrics: dict, units: dict, tally: Tally) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "end_to_end" if units is END_TO_END else "per_layer"
    if [m["name"] for m in declared[section]] != list(units):
        raise SystemExit(f"perfbench: emitted {section} names differ from BENCHMARK.json")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up in this process and print it (used for set-up samples)")
    args = ap.parse_args(argv)

    began = perf_counter()
    prog, built, table = set_up(args.workload)
    own_setup_s = perf_counter() - began
    # the host's speed right after the set-up corrects it
    own_setup = (own_setup_s, spot_factor())
    if args.setup_only:
        print(json.dumps({"setup_s": own_setup[0], "factor": own_setup[1]}))
        return

    if args.workload == "word-problem":
        wp = word_problem(prog, built[WORD_PROBLEM_CELL], table, args.seed)
        ops = query_ops(prog, wp)
    else:
        ops = cell_ops(prog, args.workload, built, args.seed)
    tally = Tally()
    summary = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops)}

    if args.trace:
        # one untraced pass, then traced set-up and passes
        measure(ops, 0, tally)
        untraced_s = tally.passes[0]
        tracer = Tracer()
        for module, attr, name, summarize in WRAPPED:
            tracer.wrap("invwreath", module, attr, name, summarize)
        try:
            _, built, _ = set_up(args.workload, tracer)
            setup_range = (0, len(tracer))
            measure(ops, args.seconds - untraced_s, tally, tracer)
        finally:
            tracer.unwrap_all()
        traced = sorted(range(len(tally.ranges)), key=lambda k: tally.passes[1 + k])
        chosen = traced[(len(traced) - 1) // 2]
        traced_s = tally.passes[1 + chosen]
        metrics = layer_metrics(tracer, [setup_range, tally.ranges[chosen]], built,
                                traced_s - untraced_s)
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_file)
        summary.update(untraced_pass_s=untraced_s, traced_pass_s=traced_s,
                       overhead_share=(traced_s - untraced_s) / untraced_s,
                       spans=len(tracer), spans_file=str(spans_file.relative_to(ROOT)))
        result = _result(metrics, PER_LAYER, tally)
    else:
        setup_samples = [own_setup] + setup_in_fresh_processes(args.workload,
                                                               SETUP_SAMPLES - 1)
        with HostSpeed() as speed:
            measure(ops, args.seconds, tally, speed=speed)
        # times on a host at nominal speed; the summary keeps the raw ones
        latencies = per_op_medians(tally.corrected_latencies, len(ops))
        metrics = {
            "setup_s": statistics.median(t * k for t, k in setup_samples),
            "pass_s": statistics.median(tally.corrected_passes),
            "latency_ms.p50": 1e3 * percentile(latencies, 0.50),
            "latency_ms.p99": 1e3 * percentile(latencies, 0.99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        summary.update(pass_factors=[c / r for c, r in zip(tally.corrected_passes, tally.passes)],
                       reference_samples=len(speed.samples),
                       raw_setup_samples=[t for t, _ in setup_samples],
                       setup_factors=[k for _, k in setup_samples], raw_passes=tally.passes,
                       latency_samples=len(tally.latencies),
                       raw_ops_per_s=len(tally.latencies) / sum(tally.latencies))
        result = _result(metrics, END_TO_END, tally)

    if args.workload == "word-problem":
        summary["equal_answer_share"] = wp.equal_answers / tally.attempted
    summary.update(attempted=tally.attempted, failed=tally.failed,
                   error_rate=tally.failed / tally.attempted, problems=tally.problems[:5])
    print("summary " + json.dumps(summary))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
