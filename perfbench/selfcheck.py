#!/usr/bin/env python3
"""Self-check for the benchmark, run from the repository root:

    python3 perfbench/selfcheck.py

1. BENCHMARK.json declares exactly the metrics run.py emits, with the
   same units, and keeps to the benchmark file's format limits.
2. The output checks are live: a wrong expected count, a wrong answer, a
   broken normal form or an exception each count as a failed operation.
3. Every workload runs briefly in both modes and its last output line has
   the declared keys and metric names.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from queries import Query  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")


def check_declaration():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, sorted(bench)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for section, units in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[section]}
        assert declared == units, f"{section} differs from run.py"
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.match(n) for n in names), [n for n in names if not NAME.match(n)]
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher"), m
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert len(bench["per_layer"]) <= 128 and 1 <= len(bench["end_to_end"]) <= 16
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    print("declaration: ok")


def failures(ops) -> int:
    tally = run.Tally()
    run.measure(ops, 0, tally)
    return tally.failed


def check_gates():
    prog = run.Program()
    trivial = prog.base.builtin("trivial")

    # cells: the right expectation passes, an off-by-one one fails
    cell = run.Cell("r-in", "trivial", 3)
    expected = run.expected_counts(prog, cell, run._build(prog, cell))
    report = prog.verify.verify_presentation("r-in", trivial, 3)
    assert run.check_cell(report, expected) is None
    assert run.check_cell(report, expected + 1) is not None
    cat = run.Cell("omega-mi", "trivial", 2)
    hom = run.expected_counts(prog, cat, run._build(prog, cat))
    cat_report = prog.verify.verify_category(2, trivial)
    assert run.check_cell(cat_report, hom) is None
    assert run.check_cell(cat_report, {**hom, (2, 2): hom[2, 2] + 1}) is not None

    def op(call, check):
        return run.Op("selfcheck", "cell", call, check)

    assert failures([op(lambda: report, lambda r: run.check_cell(r, expected))]) == 0
    assert failures([op(lambda: report, lambda r: run.check_cell(r, expected + 1))]) == 1
    assert failures([op(lambda: 1 // 0, lambda r: None)]) == 1

    # queries: right answers pass; a flipped answer, a mislabelled pair and
    # a broken normal form each fail
    c2 = prog.base.builtin("c2")
    p = prog.presentations.build("r-min", c2, n=2)
    wp = run.WordProblem(c2, 2, prog.congruence.enumerate_congruence(p), [])
    same = Query("s1 s1", "1", True)
    differ = Query("s1", "e1", False)
    for q in (same, differ):
        assert run.check_query(prog, wp, q, run.run_query(prog, wp, q)) is None
    flipped = (not run.run_query(prog, wp, differ)[0],) + run.run_query(prog, wp, differ)[1:]
    assert run.check_query(prog, wp, differ, flipped) is not None
    assert run.check_query(prog, wp, replace(differ, equal_by_construction=True),
                           run.run_query(prog, wp, differ)) is not None
    *answers, (parts, map_word) = run.run_query(prog, wp, Query("g@1", "1", False))
    broken = (*answers, (parts[::-1], map_word))
    assert run.check_query(prog, wp, Query("g@1", "1", False), broken) is not None

    ops = run.query_ops(prog, run.WordProblem(c2, 2, wp.table, [same, differ]))
    assert failures(ops) == 0
    wrong = run.WordProblem(c2, 2, wp.table, [replace(differ, equal_by_construction=True)])
    assert failures(run.query_ops(prog, wrong)) == 1
    print("gates: ok")


def check_runs():
    for workload in run.WORKLOADS:
        for trace, units in ((0, run.END_TO_END), (1, run.PER_LAYER)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["correct"] and result["failed"] == 0, proc.stdout[-2000:]
            assert list(result["metrics"]) == list(units), workload
            assert all(m["unit"] == units[name] for name, m in result["metrics"].items())
            print(f"{workload} --trace {trace}: ok")


if __name__ == "__main__":
    check_declaration()
    check_gates()
    check_runs()
