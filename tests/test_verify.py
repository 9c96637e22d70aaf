"""Verification pipeline: soundness, generation, size comparison, reports."""

import dataclasses
import json
import time

import jsonschema
import pytest

from invwreath.base import InternalInconsistency, NoEvaluationError, builtin
from invwreath.congruence import enumerate_congruence
from invwreath.presentations import KIND, build
from invwreath.schemas import REPORT_SCHEMA
from invwreath.verify import (
    canonical_word,
    check_generation,
    check_soundness,
    enumerate_target,
    target_size,
    verify_category,
    verify_presentation,
    verify_tensor,
)
from invwreath.words import parse_monoid_word as w
from invwreath.words import parse_path
from invwreath.wreath import hom_count

C2 = builtin("c2")
TRIV = builtin("trivial")


def test_soundness_pass_and_fail():
    assert check_soundness(build("r-in", TRIV, n=2)).ok
    p = build("r-in", TRIV, n=2)
    corrupted = dataclasses.replace(
        p, relations=p.relations + ((w("s1 s1"), w("e1")),))
    report = check_soundness(corrupted)
    assert not report.ok
    assert "relation 6" in report.detail and "evaluates to" in report.detail


def test_soundness_needs_evaluation():
    with pytest.raises(NoEvaluationError):
        check_soundness(build("r-min", builtin("bicyclic"), n=2))


def _same_generation(a, b):
    return ((a.covered, a.target, a.missing_example, list(a.witness.items()))
            == (b.covered, b.target, b.missing_example, list(b.witness.items())))


def test_generation_witnesses():
    p = build("r-sing-in", TRIV, n=2)
    gen = check_generation(p)
    assert gen.ok and gen.covered == gen.target == 5
    # every witness word is over the presentation alphabet
    letters = set(p.alphabet)
    for elem, word in gen.witness.items():
        assert set(word) <= letters
    q = build("r-min", C2, n=2)
    gen = check_generation(q)
    assert gen.ok and gen.target == 17
    # the category kind: every hom-set (m, n) with m, n <= cap
    omega = build("omega-mi", C2, cap=2)
    gen = check_generation(omega)
    total = sum(hom_count(C2.monoid, m, n) for m in range(3) for n in range(3))
    assert gen.covered == gen.target == target_size(omega) == total == 35
    assert len(enumerate_target(omega)) == total
    # walking a complete table gives the closure's witnesses, in order
    for kind, base, n in [("r-in", TRIV, 4), ("r-min", builtin("c3"), 3),
                          ("r-sing-tuples", builtin("s3"), 3), ("r-m-sing-in", C2, 3)]:
        p = build(kind, base, n=n)
        table = enumerate_congruence(p)
        assert table.status == "complete"
        assert _same_generation(check_generation(p, table), check_generation(p))
    for wide in (2, 4):
        table = enumerate_congruence(build("omega-mi", C2, cap=wide), cap=2)
        assert table.status == "complete"
        assert _same_generation(check_generation(omega, table), check_generation(omega))


def test_canonical_words_are_the_generation_witnesses():
    # one witness source: each target element's canonical word is the word
    # generation keeps for it, the category kind's as the edges of a path
    for kind, row in KIND.items():
        if row.variant is None:
            continue
        for base in (TRIV, C2):
            p = build(kind, base, **{row.level: 2 if row.level == "cap" else 3})
            witness = check_generation(p).witness
            for elem in enumerate_target(p):
                word = canonical_word(elem, kind, base)
                if row.flavor == "category":
                    assert word.src == elem.dom_size
                    word = word.edges
                assert word == witness[elem.key], (kind, base.name, elem)


def test_generation_failure_reported(monkeypatch):
    p = build("r-min", C2, n=2)
    # drop the slot letters: the labelled elements become unreachable
    letters = tuple(s for s in p.alphabet if s.kind != "x")
    crippled = dataclasses.replace(p, alphabet=letters, relations=())
    gen = check_generation(crippled)
    assert not gen.ok
    missing = [e for e in enumerate_target(crippled) if e.key not in gen.witness]
    assert gen.missing_example == min(missing, key=lambda e: e.sort_key())
    # with no relations the table outgrows the budget: the closure decides
    table = enumerate_congruence(crippled, 1000)
    assert table.status == "budget-exceeded"
    assert _same_generation(check_generation(crippled, table), gen)
    # keeping the relations without slot letters, the table completes and
    # its walk misses the same elements
    kept = tuple((lhs, rhs) for lhs, rhs in p.relations
                 if all(s.kind != "x" for s in lhs + rhs))
    crippled = dataclasses.replace(p, alphabet=letters, relations=kept)
    table = enumerate_congruence(crippled)
    assert table.status == "complete"
    walked, closed = check_generation(crippled, table), check_generation(crippled)
    assert not walked.ok
    assert walked.covered == closed.covered and walked.missing_example == closed.missing_example
    # a cell reports its target and the first missing element, the
    # category kind hom-set by hom-set
    def without_slot_letters(kind, base, **level):
        p = build(kind, base, **level)
        return dataclasses.replace(
            p, alphabet=tuple(s for s in p.alphabet if s.kind != "x"),
            relations=tuple((lhs, rhs) for lhs, rhs in p.relations
                            if all(s.kind != "x" for s in lhs.edges + rhs.edges)))

    monkeypatch.setattr("invwreath.verify.build", without_slot_letters)
    report = verify_category(2, C2)
    assert report.verdict == "fail" and report.generation[1] == 35 > report.generation[0]
    assert report.target_size == {(m, n): hom_count(C2.monoid, m, n)
                                  for m in range(3) for n in range(3)}
    assert report.notes["generation"].startswith("missing ")
    assert report.enumerated_size is None
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_repeated_target_element_is_an_inconsistency(monkeypatch):
    # the brute-force target is streamed with no set: a repeated element
    # must still be caught, here with the count kept at the closed form
    import invwreath.wreath as wreath_mod

    real = wreath_mod.enumerate_codes

    def repeating(*args, **kwargs):
        rows = list(real(*args, **kwargs))
        yield from rows[:-1] + rows[:1]

    monkeypatch.setattr(wreath_mod, "enumerate_codes", repeating)
    p = build("r-min", C2, n=2)
    with pytest.raises(InternalInconsistency, match="repeats"):
        check_generation(p, enumerate_congruence(p))


def test_target_code_without_a_label_is_an_inconsistency(monkeypatch):
    # a streamed code with an image but label 0 names no element: the
    # stream is wrong, even where the count and the order still hold
    import invwreath.wreath as wreath_mod

    real = wreath_mod.enumerate_codes
    width = C2.monoid.size + 1

    def unlabelled(*args, **kwargs):
        for codes in real(*args, **kwargs):
            if codes == (2 * width + 1, 0):       # image 2, label 1 at position 1
                codes = (2 * width, 0)            # image 2, label 0
            yield codes

    monkeypatch.setattr(wreath_mod, "enumerate_codes", unlabelled)
    p = build("r-min", C2, n=2)
    with pytest.raises(InternalInconsistency, match="support off the domain"):
        check_generation(p, enumerate_congruence(p))


def test_target_sizes_match_enumeration():
    for kind, base, n in [
        ("r-in", TRIV, 3), ("r-in-popova", C2, 3),
        ("r-min", C2, 2), ("r-min-small", builtin("s3"), 2),
        ("r-sing-in", TRIV, 3), ("r-sing-tuples", C2, 3),
        ("r-m-sing-in", C2, 2),
    ]:
        p = build(kind, base, n=n)
        assert len(enumerate_target(p)) == target_size(p)


def test_verify_presentation_passes():
    report = verify_presentation("r-min", C2, 2)
    assert report.verdict == "pass"
    assert report.enumerated_size == report.target_size == 17
    assert report.generation == (17, 17)
    report = verify_presentation("r-m-sing-in", C2, 2)
    assert report.verdict == "pass" and report.enumerated_size == 9


def test_verify_inconclusive_on_budget():
    report = verify_presentation("r-min", C2, 3, budget=20)
    assert report.verdict == "inconclusive"


def test_target_above_budget_is_inconclusive_before_generation():
    start = time.perf_counter()
    report = verify_presentation("r-in", TRIV, 9, budget=100)
    assert time.perf_counter() - start < 5
    assert report.verdict == "inconclusive" and report.generation is None
    assert "before generation" in report.notes["enumeration"]
    assert "17572114" in report.notes["enumeration"] and "100" in report.notes["enumeration"]
    # no budget is the default budget, far below this target too
    assert verify_presentation("r-in", TRIV, 9).verdict == "inconclusive"
    # a semigroup run needs a node for the empty word as well
    assert target_size(build("r-sing-in", TRIV, n=3)) == 28
    report = verify_presentation("r-sing-in", TRIV, 3, budget=28)
    assert "before generation" in report.notes["enumeration"]
    report = verify_presentation("r-sing-in", TRIV, 3, budget=29)
    assert report.generation == (28, 28)
    assert report.notes["enumeration"] == "budget exhausted after 29 nodes"
    # the category kind needs sum over n <= cap of hom_count(m, n) nodes
    # under root m: 1 + 5 + 17 = 23 under root 2 for c2 at cap 2
    report = verify_category(2, C2, budget=22)
    assert report.verdict == "inconclusive" and report.generation is None
    assert "23 nodes" in report.notes["enumeration"]
    report = verify_category(2, C2, budget=23)
    assert report.verdict == "inconclusive" and report.generation == (35, 35)
    assert report.notes["enumeration"] == "budget exhausted at headroom 0"


def test_huge_levels_stop_at_the_budget_check():
    # nothing is built or evaluated: the closed form alone is too large
    start = time.perf_counter()
    reports = [verify_presentation("r-in", TRIV, 5000),
               verify_presentation("r-sing-tuples", builtin("s3"), 100000),
               verify_category(3000, C2),
               verify_category(10 ** 6, C2)]
    assert time.perf_counter() - start < 5
    for report in reports:
        assert report.verdict == "inconclusive" and report.soundness is None
        assert report.notes["enumeration"].startswith(
            "stopped before generation: the target needs more than 1000000000000 nodes")
        obj = report.to_json()
        jsonschema.validate(obj, REPORT_SCHEMA)
        assert obj["soundness"] is None
    # a level too small for its kind is still an error, not a budget verdict
    with pytest.raises(ValueError, match="needs n >= 2"):
        verify_presentation("r-sing-in", TRIV, 1, budget=1)


def test_verify_report_json():
    report = verify_presentation("r-in", TRIV, 2)
    obj = report.to_json()
    jsonschema.validate(obj, REPORT_SCHEMA)
    assert obj["verdict"] == "pass"
    assert obj["generation"] == {"covered": 7, "target": 7}
    text = json.dumps(obj)
    assert "enumerated_size" in text


def test_verify_reports_deterministic():
    a = verify_presentation("r-m-sing-in", C2, 2)
    b = verify_presentation("r-m-sing-in", C2, 2)
    assert a.to_json() == b.to_json()


def test_verify_category_small():
    report = verify_category(2, TRIV)
    assert report.verdict == "pass"
    assert report.notes["headroom"] <= 2
    report = verify_category(2, C2)
    assert report.verdict == "pass"
    obj = report.to_json()
    jsonschema.validate(obj, REPORT_SCHEMA)
    assert obj["enumerated_size"]["2,2"] == 17


def test_verify_category_certifies_at_headroom_zero():
    # every builtin with an evaluation table: the table at the cap itself
    # already has the target's hom-set counts
    cells = [(name, cap) for name in ("trivial", "c2", "c3", "sl2", "s3") for cap in (1, 2)]
    for name, cap in cells + [("trivial", 3), ("c2", 3)]:
        report = verify_category(cap, builtin(name))
        assert (report.verdict, report.notes["headroom"]) == ("pass", 0), (name, cap)


def test_verify_category_widens_on_overshoot(monkeypatch):
    # one class too many at headroom 0 must be retried one step wider
    def inflated(p, budget=None, cap=None):
        table = enumerate_congruence(p, budget, cap)
        if cap == p.cap:
            table.hom_sizes[(1, 1)] += 1
        return table

    monkeypatch.setattr("invwreath.verify.enumerate_congruence", inflated)
    report = verify_category(2, C2)
    assert report.verdict == "pass" and report.notes["headroom"] == 1
    report = verify_category(2, C2, max_headroom=0)
    assert report.verdict == "inconclusive" and report.notes["headroom"] == 0
    assert report.notes["enumeration"] == "counts above target at maximal headroom 0"
    assert report.enumerated_size[(1, 1)] == hom_count(C2.monoid, 1, 1) + 1


def test_an_unsound_wider_build_does_not_pass(monkeypatch):
    # the counts at a headroom come from the build at cap + headroom, so
    # its relations above the cap are checked too: at a starting headroom
    # and at a widening step
    bad = (parse_path("s1:3"), parse_path("i3"))

    def unsound(kind, base, **level):
        p = build(kind, base, **level)
        if level.get("cap") == 3:
            p = dataclasses.replace(p, relations=p.relations + (bad,))
        return p

    def inflated(p, budget=None, cap=None):
        table = enumerate_congruence(p, budget, cap)
        if cap == p.cap:
            table.hom_sizes[(1, 1)] += 1
        return table

    monkeypatch.setattr("invwreath.verify.build", unsound)
    index = len(build("omega-mi", C2, cap=3).relations)
    for headroom in (1, 0):
        if headroom == 0:
            monkeypatch.setattr("invwreath.verify.enumerate_congruence", inflated)
        report = verify_category(2, C2, headroom=headroom)
        assert report.verdict == "fail" and report.notes["headroom"] == 1, headroom
        assert report.soundness.detail.startswith(
            f"at headroom 1, cap 3: relation {index}: s1:3 evaluates to "), headroom


def test_negative_headroom_is_rejected():
    # it would enumerate below the cap and report its hom-sets as complete;
    # the engine, which takes the cap to root at, rejects a negative one
    with pytest.raises(ValueError, match="cap must lie in 0..2"):
        enumerate_congruence(build("omega-mi", C2, cap=2), cap=-1)
    with pytest.raises(ValueError, match="headroom"):
        verify_category(2, C2, headroom=-1)


def test_verify_tensor_small():
    report = verify_tensor(C2, levels=2, samples=50)
    assert report.verdict == "pass"
    assert report.notes["hat_paths"] == 50
    assert report.notes["decompositions"] == 60
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_verify_tensor_unlabelled_kind():
    report = verify_tensor(C2, levels=2, samples=50, kind="xi-i")
    assert report.kind == "xi-i" and report.verdict == "pass"
    assert report.notes["decompositions"] == 45  # three edges only
