"""Verification pipeline: soundness, generation, size comparison, reports."""

import dataclasses
import gc
import json
import time
import tracemalloc
from array import array
from functools import lru_cache

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invwreath.base import InternalInconsistency, NoEvaluationError, _close, builtin
from invwreath.congruence import DEFAULT_BUDGET, enumerate_congruence
from invwreath.pperm import CompositionError, omit
from invwreath.presentations import FLAVOR_SYNTAX, KIND, build
from invwreath.schemas import REPORT_SCHEMA
from invwreath.verify import (
    _category_counts,
    _generators,
    canonical_word,
    check_generation,
    check_soundness,
    enumerate_target,
    target_size,
    verify_category,
    verify_presentation,
    verify_tensor,
)
from invwreath.words import Path, Sym, TIdent, e_, edge_dr, lam, parse_path, parse_term, rho, s_
from invwreath.words import parse_monoid_word as w
from invwreath.wreath import embed_map, encode_key, hom_count
from oracles import act_on, closure, rows, walk_keeping_words, walk_starts

C2 = builtin("c2")
TRIV = builtin("trivial")
SMALL_BASES = [builtin(name) for name in ("trivial", "c2", "c3", "sl2", "s3")]


def test_soundness_pass_and_fail():
    assert check_soundness(build("r-in", TRIV, n=2)).ok
    p = build("r-in", TRIV, n=2)
    corrupted = dataclasses.replace(
        p, relations=p.relations + ((w("s1 s1"), w("e1")),))
    report = check_soundness(corrupted)
    assert not report.ok
    assert "relation 6" in report.detail and "evaluates to" in report.detail


def test_soundness_needs_evaluation():
    for p in (build("r-min", builtin("bicyclic"), n=2),
              build("omega-mi", builtin("bicyclic"), cap=2)):
        with pytest.raises(NoEvaluationError):
            check_soundness(p)


def _soundness_by_evaluation(p):
    """The soundness check on elements: each side evaluated by its flavor's
    evaluator over the presentation's base, the first failure worded."""
    syntax = FLAVOR_SYNTAX[p.flavor]
    for idx, (lhs, rhs) in enumerate(p.relations):
        left, right = syntax.eval(lhs, p.base, p.n), syntax.eval(rhs, p.base, p.n)
        if left != right:
            return False, (f"relation {idx}: {syntax.text(lhs)} evaluates to {left.to_json()} "
                           f"but {syntax.text(rhs)} evaluates to {right.to_json()}")
    return True, f"{len(p.relations)} relations sound"


def _with_relation(p, idx, relation):
    return dataclasses.replace(p, relations=p.relations[:idx] + (relation,) + p.relations[idx:])


def test_soundness_on_codes_agrees_with_evaluation():
    for base in SMALL_BASES:
        for kind, row in KIND.items():
            p = build(kind, base, **{row.level: 2} if row.level else {})
            report = check_soundness(p)
            assert (report.ok, report.detail) == _soundness_by_evaluation(p), (kind, base.name)
            assert report.ok, (kind, base.name, report.detail)
            # and with a relation whose sides come from two relations
            (lhs, _), (_, rhs) = p.relations[0], p.relations[-1]
            p = _with_relation(p, 1, (lhs, rhs))
            report = check_soundness(p)
            assert (report.ok, report.detail) == _soundness_by_evaluation(p), (kind, base.name)
    assert check_soundness(build("r-in", C2, n=3)).ok


def test_an_unsound_relation_is_worded_as_elements():
    # one per flavor, with the words of the parent's element-based check
    cases = [
        (build("r-in", C2, n=3), (w("s1 e1"), w("e1 s1")),
         "relation 3: s1 e1 evaluates to {'tuple': [1, 0, 1], 'map': {'m': 3, 'n': 3, "
         "'images': [2, 0, 3]}} but e1 s1 evaluates to {'tuple': [0, 1, 1], 'map': "
         "{'m': 3, 'n': 3, 'images': [0, 1, 3]}}"),
        (build("r-sing-in", TRIV, n=3), (w("f1,2 f2,3"), w("f1,3")),
         "relation 3: f1,2 f2,3 evaluates to {'tuple': [0, 1, 1], 'map': {'m': 3, 'n': 3, "
         "'images': [0, 1, 2]}} but f1,3 evaluates to {'tuple': [0, 1, 1], 'map': "
         "{'m': 3, 'n': 3, 'images': [0, 2, 1]}}"),
        (build("omega-mi", C2, cap=2), (parse_path("g@1:2 s1:2"), parse_path("s1:2 g@1:2")),
         "relation 3: g@1:2 s1:2 evaluates to {'tuple': [2, 1], 'map': {'m': 2, 'n': 2, "
         "'images': [2, 1]}} but s1:2 g@1:2 evaluates to {'tuple': [1, 2], 'map': "
         "{'m': 2, 'n': 2, 'images': [2, 1]}}"),
    ]
    for p, relation, detail in cases:
        report = check_soundness(_with_relation(p, 3, relation))
        assert (report.ok, report.detail) == (False, detail), p.kind


def test_an_ill_typed_side_raises_as_evaluation_does():
    # a letter of another level, outside the alphabet
    p = _with_relation(build("r-in", TRIV, n=3), 2, ((s_(1, 2),), w("s1")))
    with pytest.raises(CompositionError, match="cannot compose 3->3 with 2->2"):
        check_soundness(p)
    # a letter of the alphabet that does not start where the path has got
    # to; ``Path`` refuses such a path, so it is made around its check
    path = object.__new__(Path)
    object.__setattr__(path, "src", 2)
    object.__setattr__(path, "edges", (s_(1, 2), lam(1)))
    p = _with_relation(build("omega-mi", C2, cap=2), 2, (path, parse_path("lam1")))
    with pytest.raises(CompositionError, match="cannot compose 2->2 with 1->2"):
        check_soundness(p)


def test_the_closure_tries_only_the_letters_that_leave_an_element():
    # against the closure that tries every letter and skips an undefined product
    def act_or_none(a, g):
        dom, act, cod = g
        return (act_on(act, a[0]), cod) if a[1] == dom else None

    for p in (build("omega-mi", C2, cap=3), build("r-min", C2, n=3),
              build("r-sing-in", TRIV, n=3)):
        seeds, gens = _generators(p)
        expected = closure(seeds, gens, act_or_none)
        tree = _close(seeds, gens)
        assert list(tree.words().items()) == list(expected.items())
        # one word read up the tree is the same word
        assert all(tree.word(*key) == word for key, word in expected.items())
        assert tree.word("", 9) is None


def _same_generation(a, b):
    return ((a.covered, a.target, a.missing_example, list(a.coded.items()),
             list(a.witness.items()))
            == (b.covered, b.target, b.missing_example, list(b.coded.items()),
                list(b.witness.items())))


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
    table = enumerate_congruence(omega)
    assert table.status == "complete"
    assert _same_generation(check_generation(omega, table), check_generation(omega))


def _walks_as_the_word_keeping_walk(p, table):
    """``check_generation`` over ``table`` against the walk that kept a word
    per element: the same ``coded`` items in the same order, and ``covered``
    and ``missing_example`` recounted from that walk's dict over the
    brute-force target."""
    gen = check_generation(p, table)
    seeds, gens = _generators(p)
    expected = walk_keeping_words(table, walk_starts(p, table), seeds, gens)
    assert list(gen.coded.items()) == list(expected.items())
    assert all(gen.reached.word(*key) == word for key, word in expected.items())
    target = enumerate_target(p)
    missing = [e for e in target if encode_key(gen.width, e.key) not in expected]
    assert gen.covered == len(target) - len(missing)
    # the least by plain form: by ``sort_key``, the smaller codomain on a tie
    assert gen.missing_example == (min(missing, key=lambda e: e.key) if missing else None)
    return gen


def test_the_walk_gives_the_word_keeping_walks_witnesses():
    for kind, base, level in [("r-sing-in", TRIV, 2), ("r-min", C2, 2), ("r-in", TRIV, 4),
                              ("r-min", builtin("c3"), 3), ("r-sing-tuples", builtin("s3"), 3),
                              ("r-m-sing-in", C2, 3)]:
        p = build(kind, base, n=level)
        assert _walks_as_the_word_keeping_walk(p, enumerate_congruence(p)).ok, (kind, base.name)
    omega = build("omega-mi", C2, cap=2)
    assert _walks_as_the_word_keeping_walk(omega, enumerate_congruence(omega)).ok


_REWIRED_CELLS = (("r-min", C2, 2), ("r-sing-in", TRIV, 3), ("r-in", TRIV, 3),
                  ("omega-mi", C2, 2))


@lru_cache(maxsize=None)
def _complete_table(cell):
    kind, base, level = _REWIRED_CELLS[cell]
    p = build(kind, base, **{KIND[kind].level: level})
    return p, enumerate_congruence(p)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_rewired_table_walks_as_the_word_keeping_walk(data):
    # a complete table with one transition sent to another class of the
    # same object: a table of the wrong structure, whose walk repeats
    # images and misses elements, still keeps the same holders
    p, table = _complete_table(data.draw(st.integers(0, len(_REWIRED_CELLS) - 1)))
    # a root's or a start's row often: in a semigroup the root's row holds
    # the walk's starts, and a category's walks start below its root
    starts = {0}.union(*walk_starts(p, table))
    c = data.draw(st.sampled_from(sorted(starts))
                  | st.integers(0, len(table.objects) - 1))
    row = rows(table)[c]
    col = data.draw(st.integers(0, len(row) - 1))
    obj = table.objects[row[col]]
    entries = array("i", table.entries)
    entries[table.starts[c] + col] = data.draw(
        st.sampled_from([d for d, o in enumerate(table.objects) if o == obj]))
    _walks_as_the_word_keeping_walk(p, dataclasses.replace(table, entries=entries))


def _words_held(root, letters) -> set:
    """The words over ``letters`` that can be reached from ``root``."""
    seen, stack, found = set(), [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, tuple) and obj and all(isinstance(x, Sym) for x in obj):
            assert set(obj) <= letters
            found.add(obj)
        if isinstance(obj, (dict, list, tuple, set)):
            stack.extend(gc.get_referents(obj))
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, Sym):
            stack.append(vars(obj))
    return found


def test_a_fresh_result_holds_no_words():
    # the walk and the closure keep a spanning tree; words are built when
    # ``coded`` is read.  A semigroup's seeds are one-letter words, which
    # are kept
    for p in (build("r-min", C2, n=3), build("r-sing-in", TRIV, n=3),
              build("omega-mi", C2, cap=2)):
        for table in (enumerate_congruence(p), None):
            gen = check_generation(p, table)
            letters = set(p.alphabet)
            seed_words = {word for _, word in _generators(p)[0] if word}
            assert _words_held(gen, letters) == seed_words, (p.kind, table)
            assert "coded" not in vars(gen) and "witness" not in vars(gen)
            assert gen.ok
            words = {word for word in gen.coded.values() if word}
            assert len(words) > len(seed_words) and words <= _words_held(gen, letters)


def test_generation_adds_little_memory_per_class():
    # above the complete table it walks, generation keeps a code string, a
    # dict entry and a few list slots per class, and no word.  The walk
    # that kept a word and a pair per element added about 308 B per class
    # here on Python 3.11, the spanning tree over code tuples 172-198 B and
    # over code strings about 151 B
    p = build("r-in", TRIV, n=6)
    table = enumerate_congruence(p)
    tracemalloc.start()
    try:
        gen = check_generation(p, table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert gen.ok and table.size == 13327
    assert peak / table.size < 200, peak / table.size


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


def test_canonical_word_is_held_to_the_default_budget():
    # the witnesses of r-m-sing-in over c2 at n=6 would close 245,713
    # elements; the call stops at the budget check before closing any
    elem = embed_map(C2.monoid, omit(1, 6))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="need 245714 nodes, above the default node budget "
                                         "of 50000"):
        canonical_word(elem, "r-m-sing-in", C2)
    assert time.perf_counter() - start < 1
    # at n=5 the target needs 15,252 nodes, and the word is read as before
    assert canonical_word(embed_map(C2.monoid, omit(1, 5)), "r-m-sing-in", C2) == (e_(1),)


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


def test_a_target_tuple_repeated_in_place_is_an_inconsistency(monkeypatch):
    # the first tuple twice and the last dropped: the count holds, and only
    # the strict order of the stream tells the repeat apart
    import invwreath.wreath as wreath_mod

    real = wreath_mod.enumerate_codes

    def stuttering(*args, **kwargs):
        rows = list(real(*args, **kwargs))
        yield from rows[:1] + rows[:-1]

    monkeypatch.setattr(wreath_mod, "enumerate_codes", stuttering)
    p = build("r-min", C2, n=2)
    with pytest.raises(InternalInconsistency, match="repeats or is out of order"):
        check_generation(p, enumerate_congruence(p))


def test_target_code_without_a_label_is_an_inconsistency(monkeypatch):
    # a streamed code with an image but label 0 names no element: the
    # stream is wrong, even where the count and the order still hold
    import invwreath.wreath as wreath_mod

    real = wreath_mod.enumerate_codes
    width = C2.monoid.size + 1

    def unlabelled(*args, **kwargs):
        for codes in real(*args, **kwargs):
            if tuple(map(ord, codes)) == (2 * width + 1, 0):   # image 2, label 1 at position 1
                codes = "".join(map(chr, (2 * width, 0)))      # image 2, label 0
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
    # the category kind needs sum over n <= cap of hom_count(cap, n) nodes
    # under its one root, the cap: 1 + 5 + 17 = 23 for c2 at cap 2
    report = verify_category(2, C2, budget=22)
    assert report.verdict == "inconclusive" and report.generation is None
    assert "23 nodes" in report.notes["enumeration"]
    report = verify_category(2, C2, budget=23)
    assert report.verdict == "inconclusive" and report.generation == (35, 35)
    assert report.notes["enumeration"] == "budget exhausted after 23 nodes"


def test_the_category_kind_runs_at_the_one_default_budget():
    # no budget given: a category run has the flat runs' default, 50000
    # nodes under its one root, the cap
    assert DEFAULT_BUDGET == 50_000
    for cap, name in ((6, "trivial"), (5, "c2"), (5, "sl2")):
        report = verify_category(cap, builtin(name))
        assert report.verdict == "pass", (cap, name, report.notes)
        assert report.enumerated_size == report.target_size
    for cap, name, need in ((5, "c3", 115611), (4, "s3", 61589)):
        report = verify_category(cap, builtin(name))
        assert report.verdict == "inconclusive" and report.generation is None
        assert report.notes["enumeration"] == (
            f"stopped before generation: the target needs {need} nodes under one root, "
            f"above the node budget of 50000")


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
    assert report.verdict == "pass" and report.notes == {}
    report = verify_category(2, C2)
    assert report.verdict == "pass"
    obj = report.to_json()
    jsonschema.validate(obj, REPORT_SCHEMA)
    assert obj["enumerated_size"]["2,2"] == 17


def test_verify_category_certifies_at_headroom_zero():
    # every builtin with an evaluation table: the table at the cap C itself,
    # rooted at C alone, has the target's hom-set counts, each (m, n) with
    # m < C counted from the class of rho_{C-1} ... rho_m, and generation
    # covers every element once
    cells = [(name, cap) for name in ("trivial", "c2", "c3", "sl2", "s3") for cap in range(4)]
    for name, cap in cells + [("c2", 4)]:
        monoid = builtin(name).monoid
        report = verify_category(cap, builtin(name))
        want = {(m, n): hom_count(monoid, m, n) for m in range(cap + 1) for n in range(cap + 1)}
        total = sum(want.values())
        assert (report.verdict, report.notes) == ("pass", {}), (name, cap)
        assert list(report.enumerated_size.items()) == list(want.items()), (name, cap)
        assert report.generation == (total, total), (name, cap)


def _replacing(relation, stand_ins):
    """A stand-in for ``build`` that puts ``stand_ins`` in place of
    ``relation``."""
    def built(kind, base, **level):
        p = build(kind, base, **level)
        rels = [stand_ins if r == relation else (r,) for r in p.relations]
        return dataclasses.replace(p, relations=sum(rels, ()))

    return built


def test_a_build_without_a_retraction_never_passes(monkeypatch):
    # the lower counts rest on lam_k rho_k = i_k for every k < C.  Without
    # one, the counts out of C run above their targets here and the cell
    # fails; with (lam_k rho_k)^2 = i_k in its place they are exact, and
    # the lower hom-sets are inconclusive.  Either way the note names the
    # missing relation
    for k in range(3):
        retraction = (Path(k, (lam(k), rho(k))), Path(k, ()))
        square = (Path(k, (lam(k), rho(k), lam(k), rho(k))), Path(k, ()))
        for stand_ins, verdict in (((), "fail"), ((square,), "inconclusive")):
            monkeypatch.setattr("invwreath.verify.build", _replacing(retraction, stand_ins))
            report = verify_category(3, C2)
            assert report.verdict == verdict and report.soundness.ok, (k, verdict)
            assert report.generation == (264, 264)
            assert report.notes == {"enumeration": (
                f"hom-sets out of the objects below 3 not counted: "
                f"lam{k} rho{k} = i{k} is not a relation")}
            assert list(report.enumerated_size) == [(3, n) for n in range(4)]
            jsonschema.validate(report.to_json(), REPORT_SCHEMA)
    # the relation turned round is the same relation
    retraction = (Path(1, (lam(1), rho(1))), Path(1, ()))
    monkeypatch.setattr("invwreath.verify.build", _replacing(retraction, (retraction[::-1],)))
    assert verify_category(3, C2).verdict == "pass"


def _level_relations(p, k):
    """The relations of the category build ``p`` that ``r-min`` has at
    level ``k``: loops at ``k`` whose letters are all loops at ``k``."""
    return {(lhs, rhs) for lhs, rhs in p.relations
            if lhs.src == k and all(edge_dr(sym) == (k, k) for sym in lhs.edges + rhs.edges)}


def test_the_cap_level_decides_the_category():
    # the argument in the verify docstring uses r-min only at level C:
    # without every r-min relation below C each hom-set count stays exact,
    # those out of C read from the table and the lower ones from
    # generation's walk from the class of rho_{C-1} ... rho_m, and without
    # the level-C ones instead no run completes in the default budget
    for base, cap, full, kept in ((C2, 3, 77, 57), (builtin("s3"), 2, 48, 40),
                                  (TRIV, 4, 76, 54)):
        p = build("omega-mi", base, cap=cap)
        below = set().union(*(_level_relations(p, k) for k in range(cap)))
        top = _level_relations(p, cap)
        lean = dataclasses.replace(p, relations=tuple(r for r in p.relations if r not in below))
        assert (len(p.relations), len(lean.relations)) == (full, kept), base.name
        table = enumerate_congruence(lean)
        assert table.status == "complete", base.name
        orbits = check_generation(lean, table).orbits
        assert _category_counts(lean, table, orbits) == (
            {(m, n): hom_count(base.monoid, m, n)
             for m in range(cap + 1) for n in range(cap + 1)}, None), base.name
        headless = dataclasses.replace(p, relations=tuple(r for r in p.relations
                                                          if r not in top))
        assert enumerate_congruence(headless).status == "budget-exceeded", base.name


def test_an_unsound_cell_fails_before_enumeration(monkeypatch):
    # the left side of relation 0 paired with the right side of relation 1
    # is unsound, and the cell stops at soundness
    def cross_paired(kind, base, **level):
        p = build(kind, base, **level)
        bad = (p.relations[0][0], p.relations[1][1])
        return dataclasses.replace(p, relations=p.relations + (bad,))

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated an unsound build")

    monkeypatch.setattr("invwreath.verify.build", cross_paired)
    monkeypatch.setattr("invwreath.verify.enumerate_congruence", refuse)
    report = verify_presentation("r-min", C2, 2)
    assert report.verdict == "fail" and not report.soundness.ok
    assert report.soundness.detail.startswith("relation 16: s1 s1 evaluates to ")
    assert report.generation is None and report.enumerated_size is None
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_a_flat_count_above_the_target_fails(monkeypatch):
    # r-min-small over c2 at n=3 without relation 12, its last, g e = e,
    # keeps 91 classes too many
    def without_relation_12(kind, base, **level):
        p = build(kind, base, **level)
        return dataclasses.replace(p, relations=p.relations[:12])

    monkeypatch.setattr("invwreath.verify.build", without_relation_12)
    report = verify_presentation("r-min-small", C2, 3)
    assert report.verdict == "fail" and report.soundness.ok
    assert (report.enumerated_size, report.target_size) == (230, 139)
    assert "enumeration" not in report.notes
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_a_category_count_above_the_target_fails(monkeypatch):
    # one class too many in a hom-set fails the cell at its cap, after one
    # enumeration, as a flat count above the target does: out of the cap,
    # as the table counts it
    runs = []

    def inflated(p, budget=None):
        runs.append(p.cap)
        table = enumerate_congruence(p, budget)
        table.hom_sizes[(2, 1)] += 1
        return table

    monkeypatch.setattr("invwreath.verify.enumerate_congruence", inflated)
    report = verify_category(2, C2)
    assert report.verdict == "fail" and report.soundness.ok and runs == [2]
    assert report.enumerated_size[(2, 1)] == hom_count(C2.monoid, 2, 1) + 1
    assert report.notes == {}
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)
    # and out of a lower object, as generation's walk from the class of
    # rho1 reports it
    import invwreath.verify as verify_mod

    real = verify_mod._walk

    def inflated_walk(*args):
        reached, orbits = real(*args)
        orbits[1][1] += 1
        return reached, orbits

    monkeypatch.undo()
    monkeypatch.setattr(verify_mod, "_walk", inflated_walk)
    report = verify_category(2, C2)
    assert report.verdict == "fail" and report.soundness.ok
    assert report.enumerated_size[(1, 1)] == hom_count(C2.monoid, 1, 1) + 1
    assert report.enumerated_size[(2, 1)] == hom_count(C2.monoid, 2, 1)
    assert report.notes == {}


def test_a_cell_builds_each_letter_action_once(monkeypatch):
    # soundness and generation share one build of the letters' tables per
    # presentation; a fresh build, as after a stand-in, gets fresh tables
    import invwreath.wreath as wreath_mod

    real = wreath_mod.right_action
    calls = []

    def counting(z, g):
        calls.append(g)
        return real(z, g)

    monkeypatch.setattr(wreath_mod, "right_action", counting)
    assert verify_presentation("r-min", C2, 2).verdict == "pass"
    assert verify_category(2, C2).verdict == "pass"
    letters = len(build("r-min", C2, n=2).alphabet) + len(build("omega-mi", C2, cap=2).alphabet)
    assert len(calls) == letters
    p = build("r-min", C2, n=2)
    assert _generators(p) is _generators(p)
    assert _generators(dataclasses.replace(p)) is not _generators(p)


def test_relations_equal_as_elements_but_not_on_codes_are_an_inconsistency(monkeypatch):
    # a coded value that tells every relation's two sides apart: the
    # evaluator finds the first relation sound, so the codes are wrong
    monkeypatch.setattr("invwreath.verify._coded_value", lambda p: lambda side: (side, p.n))
    with pytest.raises(InternalInconsistency, match="relation 0 holds as elements but not"):
        check_soundness(build("r-in", TRIV, n=2))


def test_a_count_below_the_target_is_an_inconsistency(monkeypatch):
    # soundness and generation make the target a lower bound: a table one
    # class short, flat or in one hom-set, contradicts them
    def deflated(p, budget=None):
        table = enumerate_congruence(p, budget)
        if p.flavor == "category":
            table.hom_sizes[(2, 1)] -= 1
        else:
            table.size -= 1
        return table

    monkeypatch.setattr("invwreath.verify.enumerate_congruence", deflated)
    with pytest.raises(InternalInconsistency, match="enumerated 16 classes below the sound target 17"):
        verify_presentation("r-min", C2, 2)
    with pytest.raises(InternalInconsistency, match="below the sound target"):
        verify_category(2, C2)


def test_verify_tensor_small():
    # hat is checked on every edge of omega-mi at cap 3, the decompositions
    # on every padded tensor edge, and the shadow is omega-mi's soundness
    for base, notes in zip(SMALL_BASES, ((15, 45, 36), (21, 60, 77), (21, 60, 77),
                                         (21, 60, 77), (27, 75, 132))):
        report = verify_tensor(base)
        assert report.verdict == "pass" and report.soundness.ok
        assert report.notes == dict(zip(("hat_edges", "decompositions", "shadow_relations"),
                                        notes))
        omega = build("omega-mi", base, cap=3)
        assert notes[0] == len(omega.alphabet) and notes[2] == len(omega.relations)
        jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_verify_tensor_unlabelled_kind():
    # the plain category: three tensor edges, omega-mi over the trivial base
    for base in SMALL_BASES:
        report = verify_tensor(base, kind="xi-i")
        assert report.kind == "xi-i" and report.verdict == "pass"
        assert report.notes == {"hat_edges": 15, "decompositions": 45, "shadow_relations": 36}


def test_an_unsound_tensor_relation_stops_the_tensor_check(monkeypatch):
    # xi-mi with X = i2: its own soundness fails, and nothing after it runs
    def with_unsound(kind, base, **level):
        p = build(kind, base, **level)
        if kind != "xi-mi":
            return p
        bad = (parse_term("X"), parse_term("i2"))
        return dataclasses.replace(p, relations=p.relations + (bad,))

    monkeypatch.setattr("invwreath.verify.build", with_unsound)
    report = verify_tensor(C2)
    assert report.verdict == "fail" and not report.soundness.ok
    bad = len(build("xi-mi", C2).relations)
    assert report.soundness.detail.startswith(f"relation {bad}: X evaluates to ")
    assert " but i2 evaluates to " in report.soundness.detail
    assert report.notes == {}
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_a_wrong_hat_edge_fails_the_tensor_check(monkeypatch):
    # an omission realized as the identity term: the first e edge is named
    import invwreath.verify as verify_mod

    real = verify_mod.hat_edge
    monkeypatch.setattr(verify_mod, "hat_edge",
                        lambda sym: TIdent(sym.n) if sym.kind == "e" else real(sym))
    report = verify_tensor(C2)
    assert report.verdict == "fail" and report.soundness.ok
    assert report.notes == {"hat": "edge e1:1 not realized"}
    jsonschema.validate(report.to_json(), REPORT_SCHEMA)


def test_a_wrong_decomposition_fails_the_tensor_check(monkeypatch):
    # the padded crossing decomposed as the identity path
    import invwreath.verify as verify_mod

    real = verify_mod.x_mn_decompose

    def uncrossed(sym, m, n):
        term, path = real(sym, m, n)
        return term, (Path(path.src, ()) if sym.kind == "TX" else path)

    monkeypatch.setattr(verify_mod, "x_mn_decompose", uncrossed)
    report = verify_tensor(C2)
    assert report.verdict == "fail" and report.notes["hat_edges"] == 21
    assert report.notes["decompose"] == "X != i2"
    assert "shadow_relations" not in report.notes


def test_an_unsound_category_relation_fails_the_tensor_check(monkeypatch):
    # omega-mi with e1 = 1 at object 1: its soundness detail is the shadow note
    def with_unsound(kind, base, **level):
        p = build(kind, base, **level)
        if kind != "omega-mi":
            return p
        bad = (Path(1, (e_(1, 1),)), Path(1, ()))
        return dataclasses.replace(p, relations=p.relations + (bad,))

    monkeypatch.setattr("invwreath.verify.build", with_unsound)
    report = verify_tensor(C2)
    assert report.verdict == "fail"
    assert report.notes["hat_edges"] == 21 and report.notes["decompositions"] == 60
    assert report.notes["shadow"].startswith("relation 77: e1:1 evaluates to ")
    assert "shadow_relations" not in report.notes
