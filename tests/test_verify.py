"""Verification pipeline: soundness, generation, size comparison, reports."""

import dataclasses
import json

import jsonschema
import pytest

from invwreath.base import NoEvaluationError, builtin
from invwreath.presentations import build
from invwreath.schemas import REPORT_SCHEMA
from invwreath.verify import (
    check_generation,
    check_soundness,
    enumerate_target,
    target_size,
    verify_category,
    verify_presentation,
    verify_tensor,
)
from invwreath.words import parse_monoid_word as w
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


def test_generation_failure_reported():
    p = build("r-min", C2, n=2)
    # drop the slot letters: the labelled elements become unreachable
    crippled = dataclasses.replace(
        p, alphabet=tuple(s for s in p.alphabet if s.kind != "x"), relations=())
    gen = check_generation(crippled)
    assert not gen.ok
    assert gen.missing_example is not None


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
