"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math
import pathlib
import random
import time

from invwreath import wreath
from invwreath.base import builtin
from invwreath.cli import main
from invwreath.congruence import enumerate_congruence
from invwreath.pperm import PartialBijection, enumerate_partial_bijections
from invwreath.presentations import KIND, KINDS, build
from invwreath.verify import (
    check_soundness,
    verify_category,
    verify_presentation,
    verify_tensor,
)
from invwreath.words import (
    bx,
    e_,
    eval_word,
    normal_form_singular_tuple,
    normal_form_wreath_word,
    pe,
    psi1_word,
    psi2_word,
    reassemble_singular,
    reassemble_wreath,
    relabel_tuple,
    s_,
    x_,
    xc,
)
from oracles import embed_tuple, min_separation_rules, separate

GOLDEN = pathlib.Path(__file__).parent / "golden"
SWEEP_BASES = ("trivial", "c2", "c3", "sl2", "s3")


def _verdict(num: int, ok: bool, detail: str):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_soundness_sweep():
    t0 = time.perf_counter()
    failures = []
    checked = 0
    for name in SWEEP_BASES:
        base = builtin(name)
        for kind in KINDS:
            flavor = KIND[kind].flavor
            if flavor in ("monoid", "semigroup"):
                instances = [build(kind, base, n=n) for n in (2, 3)]
            elif flavor == "category":
                instances = [build(kind, base, cap=3)]
            else:
                instances = [build(kind, base)]
            for p in instances:
                report = check_soundness(p)
                checked += len(p.relations)
                if not report.ok:
                    failures.append((kind, name, report.detail))
    elapsed = time.perf_counter() - t0
    _verdict(1, not failures and elapsed < 10,
             f"{checked} relations over {len(SWEEP_BASES)} bases sound in {elapsed:.1f}s"
             + (f"; failures: {failures[:1]}" if failures else ""))


def test_criterion_02_plain_kind_counts():
    t0 = time.perf_counter()
    triv = builtin("trivial")
    ok = True
    got = {}
    for n in (2, 3, 4):
        oracle = len(list(enumerate_partial_bijections(n, n)))
        a = enumerate_congruence(build("r-in", triv, n=n)).size
        b = enumerate_congruence(build("r-in-popova", triv, n=n)).size
        got[n] = (a, b, oracle)
        ok = ok and a == b == oracle
    elapsed = time.perf_counter() - t0
    expected = {2: 7, 3: 34, 4: 209}
    ok = ok and all(got[n][2] == expected[n] for n in expected) and elapsed < 30
    _verdict(2, ok, f"classes {got} in {elapsed:.1f}s")


def test_criterion_03_wreath_monoid_kinds():
    cells = []
    worst = 0.0
    ok = True
    for name in SWEEP_BASES:
        base = builtin(name)
        for n in (2, 3):
            t0 = time.perf_counter()
            full = verify_presentation("r-min", base, n)
            small = verify_presentation("r-min-small", base, n)
            dt = time.perf_counter() - t0
            worst = max(worst, dt)
            agree = (full.verdict == small.verdict == "pass"
                     and full.enumerated_size == small.enumerated_size)
            ok = ok and agree and dt < 120
            cells.append((name, n, full.enumerated_size, f"{dt:.1f}s"))
    c2_cell = next(c for c in cells if c[0] == "c2" and c[1] == 2)
    s3_cell = next(c for c in cells if c[0] == "s3" and c[1] == 3)
    ok = ok and c2_cell[2] == 17 and s3_cell[2] == 1999
    _verdict(3, ok, f"20 cells pass, kinds agree; c2/2 -> 17, s3/3 -> 1999, "
                    f"slowest cell {worst:.1f}s")


def test_criterion_04_singular_map_counts():
    triv = builtin("trivial")
    got = {}
    ok = True
    for n, want in ((2, 5), (3, 28), (4, 185)):
        oracle = len(list(enumerate_partial_bijections(n, n))) - math.factorial(n)
        size = enumerate_congruence(build("r-sing-in", triv, n=n)).size
        got[n] = size
        ok = ok and size == want == oracle
    _verdict(4, ok, f"singular map classes {got}")


def test_criterion_05_singular_tuple_counts():
    ok = True
    got = {}
    for name in SWEEP_BASES:
        base = builtin(name)
        for n in (2, 3):
            oracle = len(list(wreath.enumerate_wreath(
                base.monoid, n, n, "singular-tuples")))
            size = enumerate_congruence(build("r-sing-tuples", base, n=n)).size
            got[(name, n)] = size
            want = (base.monoid.size + 1) ** n - base.monoid.size ** n
            ok = ok and size == oracle == want
    ok = ok and got[("c2", 2)] == 5 and got[("c2", 3)] == 19
    _verdict(5, ok, f"singular tuple classes for c2: n=2 -> {got[('c2', 2)]}, "
                    f"n=3 -> {got[('c2', 3)]}; all bases exact")


def test_criterion_06_singular_wreath_counts():
    ok = True
    got = {}
    for name in SWEEP_BASES:
        base = builtin(name)
        for n in (2, 3):
            if name == "s3" and n == 3:
                continue  # covered by the full kind; singular target 1999-1296=703
            oracle = len(list(wreath.enumerate_wreath(
                base.monoid, n, n, "singular-monoid")))
            size = enumerate_congruence(build("r-m-sing-in", base, n=n)).size
            got[(name, n)] = size
            want = wreath.count_wreath(base.monoid, n, n) \
                - math.factorial(n) * base.monoid.size ** n
            ok = ok and size == oracle == want
    ok = ok and got[("c2", 2)] == 9
    _verdict(6, ok, f"singular wreath classes exact; c2 n=2 -> {got[('c2', 2)]}")


def test_criterion_06b_singular_wreath_largest():
    base = builtin("s3")
    size = enumerate_congruence(build("r-m-sing-in", base, n=3)).size
    want = 1999 - math.factorial(3) * 6 ** 3
    _verdict(6, size == want, f"s3 n=3 singular wreath -> {size} (target {want})")


def test_criterion_07_category_hom_sets():
    ok = True
    details = []
    for name in ("trivial", "c2"):
        base = builtin(name)
        report = verify_category(3, base)
        details.append((name, report.verdict))
        ok = ok and report.verdict == "pass" and report.notes == {}
        if report.verdict == "pass":
            for m in range(4):
                for n in range(4):
                    ok = ok and report.enumerated_size[(m, n)] == \
                        wreath.hom_count(base.monoid, m, n)
    _verdict(7, ok, f"hom-set counts exact at cap 3: {details}")


def test_criterion_08_tensor_properties():
    ok = True
    details = []
    for name in ("trivial", "c2"):
        base = builtin(name)
        report = verify_tensor(base)
        details.append((name, report.verdict, report.notes.get("shadow_relations")))
        # hat agrees with eval_path on every edge up to cap 3, so on every path there
        ok = ok and report.verdict == "pass" and \
            report.notes["hat_edges"] == len(build("omega-mi", base, cap=3).alphabet)
    _verdict(8, ok, f"tensor property checks: {details}")


def test_criterion_09_golden_emission(capsys):
    ok = True
    for kind, stem in (("r-min", "emit_r-min_bicyclic_n2.txt"),
                       ("r-min-small", "emit_r-min-small_bicyclic_n2.txt")):
        code = main(["emit", "--kind", kind, "--monoid", "bicyclic", "--n", "2"])
        out = capsys.readouterr().out
        ok = ok and code == 0 and out == (GOLDEN / stem).read_text()
    with capsys.disabled():
        _verdict(9, ok, "worked-example emissions byte-identical to golden files")


def test_criterion_10_figure_oracles():
    a = PartialBijection(6, 8, (0, 0, 4, 1, 0, 7))
    b = PartialBijection(8, 7, (2, 0, 1, 0, 5, 0, 4, 0))
    b2 = PartialBijection(7, 6, (2, 0, 1, 0, 5, 0, 4))
    checks = [
        a.compose(b) == PartialBijection(6, 7, (0, 0, 0, 2, 0, 4)),
        a.tensor(b2) == PartialBijection(
            13, 14, (0, 0, 4, 1, 0, 7, 10, 0, 9, 0, 13, 0, 12)),
    ]
    from invwreath.base import MTuple, act, adjoin_zero
    checks.append(act(a, MTuple(tuple(range(1, 9)))) == MTuple((0, 0, 4, 1, 0, 7)))
    from invwreath.base import FiniteMonoid
    c6 = FiniteMonoid(6, 0, tuple(tuple((x + y) % 6 for y in range(6)) for x in range(6)))
    m0 = adjoin_zero(c6)
    p = wreath.WreathElement(MTuple((0, 0, 2, 3, 0, 4)), a)
    q = wreath.WreathElement(MTuple((2, 0, 3, 0, 4, 0, 5, 0)), b)
    out = wreath.compose(m0, p, q)
    checks.append(out.pmap == PartialBijection(6, 7, (0, 0, 0, 2, 0, 4)))
    checks.append(out.tup == MTuple((0, 0, 0, m0.mul(3, 2), 0, m0.mul(4, 5))))
    _verdict(10, all(checks), "pictured composition, sum, action and labelled "
                              "composition all reproduced")


def test_criterion_11_translation_properties():
    base = builtin("c2")
    n = 3
    rng = random.Random(2024)
    small = [s_(i) for i in range(1, n)] + [pe()] + [bx(x) for x in base.alphabet]
    full = [s_(i) for i in range(1, n)] + [e_(i) for i in range(1, n + 1)]
    full += [x_(x, i) for i in range(1, n + 1) for x in base.alphabet]
    pinned_syms = [e_(i) for i in range(1, n + 1)]
    pinned_syms += [xc(x, i, j) for i in range(1, n + 1)
                    for j in range(1, n + 1) if i != j for x in base.alphabet]

    fixes = all(psi1_word(psi2_word((z,))) == (z,) for z in small)

    round_trip = True
    for _ in range(1000):
        word = tuple(rng.choice(full) for _ in range(rng.randrange(0, 8)))
        if eval_word(psi2_word(psi1_word(word)), base, n) != eval_word(word, base, n):
            round_trip = False
            break

    is_x, rules = min_separation_rules(base, n)
    separated = True
    for _ in range(1000):
        word = tuple(rng.choice(full) for _ in range(rng.randrange(0, 8)))
        out = separate(word, is_x, rules, "prefix")
        k = 0
        while k < len(out) and is_x(out[k]):
            k += 1
        shape = not any(is_x(s) for s in out[k:])
        if not shape or eval_word(out, base, n) != eval_word(word, base, n):
            separated = False
            break

    wreath_nf = True
    for _ in range(1000):
        word = tuple(rng.choice(full) for _ in range(rng.randrange(0, 8)))
        parts, tail = normal_form_wreath_word(word, base, n)
        dom = set(eval_word(tail, base, n).pmap.dom)
        shape = all(pw == () for i, pw in enumerate(parts, start=1) if i not in dom)
        if not shape or eval_word(reassemble_wreath(parts, tail), base, n) != \
                eval_word(word, base, n):
            wreath_nf = False
            break

    singular_nf = True
    for _ in range(1000):
        word = tuple(rng.choice(pinned_syms) for _ in range(rng.randrange(1, 7)))
        q, sigma, slots = normal_form_singular_tuple(word, base, n)
        relabelled = relabel_tuple(eval_word(word, base, n).tup, sigma)
        if set(relabelled.support) != set(range(1, q + 1)) or \
                eval_word(reassemble_singular(q, n, slots), base, n) != \
                embed_tuple(relabelled):
            singular_nf = False
            break

    ok = fixes and round_trip and separated and wreath_nf and singular_nf
    _verdict(11, ok, f"generator fixing {fixes}, alphabet round-trip {round_trip}, "
                     f"separation {separated}, slot-sorted form {wreath_nf}, "
                     f"initial-segment form {singular_nf} (1000 samples each)")
