"""Command-line surface: golden emission, exit codes, JSON validity."""

import contextlib
import io
import json
import pathlib
import tempfile

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from invwreath.base import BUILTIN_NAMES, builtin
from invwreath.cli import main
from invwreath.schemas import ELEMENT_SCHEMA, MATRIX_SCHEMA, PRESENTATION_SCHEMA, REPORT_SCHEMA
from invwreath.wreath import count_wreath

from golden.regenerate import enumerate_corpus, normal_form_corpus

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_emit_golden_full(capsys):
    code, out, _ = run(capsys, "emit", "--kind", "r-min", "--monoid", "bicyclic", "--n", "2")
    assert code == 0
    assert out == (GOLDEN / "emit_r-min_bicyclic_n2.txt").read_text()


def test_emit_golden_small(capsys):
    code, out, _ = run(capsys, "emit", "--kind", "r-min-small", "--monoid", "bicyclic", "--n", "2")
    assert code == 0
    assert out == (GOLDEN / "emit_r-min-small_bicyclic_n2.txt").read_text()


def test_golden_matrix(capsys, monkeypatch):
    """Every kind over every builtin at levels 2 and 3 (the tensor kinds once
    per base), and two cells that run out of their budget: the JSON report
    must match ``tests/golden/matrix.json`` byte for byte.  A change to it is
    made on purpose and logged; ``tests/golden/regenerate.py`` rewrites it.
    """
    monkeypatch.delenv("INVWREATH_BUDGET", raising=False)
    code, out, _ = run(capsys, "matrix", str(GOLDEN / "matrix_cells.json"), "--format", "json")
    assert code == 2                    # its 18 error cells outrank the 2 inconclusive ones
    assert out == (GOLDEN / "matrix.json").read_text()


def test_golden_normal_forms(monkeypatch):
    """Both normal forms on a seeded sample of words, over every builtin
    with a table at n <= 5: the slot and map words they print must match
    ``tests/golden/normal_form.json``.  They are read from the breadth-first
    witness trees, so a change to the order in which the closure tries its
    letters shows here.  A change to it is made on purpose and logged;
    ``tests/golden/regenerate.py`` rewrites it.
    """
    monkeypatch.delenv("INVWREATH_BUDGET", raising=False)
    assert normal_form_corpus() == (GOLDEN / "normal_form.json").read_text()


def test_golden_enumerations():
    """``enumerate`` in every variant over every builtin with a table, at
    m, n <= 3 and at the edge of each default cap, as a count, a JSON
    document and a listing: the exit codes, error messages, counts and
    output digests must match ``tests/golden/enumerate.json``, so a changed
    default cap, refusal or row order shows here.  A change to it is made
    on purpose and logged; ``tests/golden/regenerate.py`` rewrites it.
    """
    assert enumerate_corpus() == (GOLDEN / "enumerate.json").read_text()


def test_emit_golden_json(capsys):
    code, out, _ = run(capsys, "emit", "--kind", "r-min", "--monoid", "bicyclic",
                       "--n", "2", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "emit_r-min_bicyclic_n2.json").read_text()
    jsonschema.validate(json.loads(out), PRESENTATION_SCHEMA)


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "r-in", "--monoid", "trivial", "--n", "3")
    assert code == 0
    assert "pass" in out and "34" in out


def test_verify_text_names_the_level_by_its_keyword(capsys):
    # the category kind's level is its cap; the JSON report keeps "n"
    code, out, _ = run(capsys, "verify", "--kind", "omega-mi", "--monoid", "c2", "--cap", "3")
    assert code == 0 and out.splitlines()[0] == "omega-mi monoid=c2 cap=3: pass"
    code, out, _ = run(capsys, "verify", "--kind", "omega-mi", "--monoid", "c2", "--cap", "3",
                       "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 3
    code, out, _ = run(capsys, "verify", "--kind", "r-in", "--monoid", "trivial", "--n", "3")
    assert out.splitlines()[0] == "r-in monoid=trivial n=3: pass"
    code, out, _ = run(capsys, "verify", "--kind", "xi-i", "--monoid", "c2")
    assert out.splitlines()[0] == "xi-i monoid=c2: pass"


def test_verify_takes_the_category_kinds_least_cap(capsys):
    # cap 0 holds one element, the identity of the empty object
    code, out, _ = run(capsys, "verify", "--kind", "omega-mi", "--monoid", "c2", "--cap", "0",
                       "--format", "json")
    report = json.loads(out)
    assert (code, report["verdict"], report["target_size"]) == (0, "pass", {"0,0": 1})
    code, out, err = run(capsys, "verify", "--kind", "omega-mi", "--monoid", "c2",
                         "--cap", "-1")
    assert (code, out) == (1, "") and "needs an object cap >= 0" in err


def test_verify_json_schema(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "r-min", "--monoid", "c2",
                       "--n", "2", "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), REPORT_SCHEMA)


def test_verify_inconclusive_exit_three(capsys):
    code, out, _ = run(capsys, "verify", "--kind", "r-min", "--monoid", "c2",
                       "--n", "3", "--budget", "20")
    assert code == 3
    code, out, _ = run(capsys, "verify", "--kind", "r-in", "--monoid", "trivial",
                       "--n", "9", "--budget", "100")
    assert code == 3 and "before generation" in out


def test_nonpositive_budget_exits_one(capsys, monkeypatch):
    for budget in ("0", "-5"):
        code, _, err = run(capsys, "verify", "--kind", "r-in", "--n", "2", "--budget", budget)
        assert code == 1 and "budget" in err
    for env in ("0", "many"):
        monkeypatch.setenv("INVWREATH_BUDGET", env)
        code, _, err = run(capsys, "verify", "--kind", "r-in", "--n", "2")
        assert code == 1 and ("budget" in err or "INVWREATH_BUDGET" in err)


def test_matrix_zero_budget_cell_is_an_error(tmp_path, capsys):
    config = {"cells": [
        {"kind": "r-in", "monoid": "trivial", "n": 2, "budget": 0},
        {"kind": "r-in", "monoid": "trivial", "n": 2},
    ]}
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 2
    obj = json.loads(out)
    jsonschema.validate(obj, MATRIX_SCHEMA)
    assert obj["cells"][0]["verdict"] == "error" and "budget" in obj["cells"][0]["error"]
    assert obj["cells"][1]["verdict"] == "pass"


def test_budget_on_a_tensor_kind_exits_one(capsys, monkeypatch):
    code, _, err = run(capsys, "verify", "--kind", "xi-i", "--monoid", "c2", "--budget", "5")
    assert code == 1 and "enumeration" in err
    # the run-wide default applies only to kinds that enumerate
    monkeypatch.setenv("INVWREATH_BUDGET", "5")
    assert run(capsys, "verify", "--kind", "xi-i", "--monoid", "c2")[0] == 0


def test_matrix_tensor_cell_with_budget_is_an_error(tmp_path, capsys):
    config = {"cells": [
        {"kind": "xi-i", "monoid": "c2", "budget": 5},
        {"kind": "xi-i", "monoid": "c2"},
        {"kind": "r-in", "monoid": "trivial", "n": 2},
    ]}
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "matrix", str(path), "--budget", "1000", "--format", "json")
    assert code == 2
    obj = json.loads(out)
    jsonschema.validate(obj, MATRIX_SCHEMA)
    assert obj["cells"][0]["verdict"] == "error" and "enumeration" in obj["cells"][0]["error"]
    assert [c["verdict"] for c in obj["cells"][1:]] == ["pass", "pass"]


def test_a_failing_cell_exits_two(capsys, monkeypatch):
    # r-min-small over c2 at n=3 without relation 12, its last, g e = e,
    # keeps 91 classes too many
    import dataclasses

    from invwreath.presentations import build

    def without_relation_12(kind, base, **level):
        p = build(kind, base, **level)
        return dataclasses.replace(p, relations=p.relations[:12])

    monkeypatch.setattr("invwreath.verify.build", without_relation_12)
    code, out, _ = run(capsys, "verify", "--kind", "r-min-small", "--monoid", "c2", "--n", "3")
    assert code == 2
    assert out.splitlines()[0] == "r-min-small monoid=c2 n=3: fail"
    assert "  enumerated: 230 target: 139" in out.splitlines()


def test_a_matrix_with_a_failing_and_an_inconclusive_cell_exits_two(tmp_path, capsys,
                                                                   monkeypatch):
    # a fail outranks an inconclusive cell, though its exit code is smaller
    import dataclasses

    from invwreath.presentations import build

    def without_relation_12(kind, base, **level):
        p = build(kind, base, **level)
        return dataclasses.replace(p, relations=p.relations[:12])

    monkeypatch.setattr("invwreath.verify.build", without_relation_12)
    config = {"cells": [
        {"kind": "r-min-small", "monoid": "c2", "n": 3},
        {"kind": "r-in", "monoid": "trivial", "n": 3, "budget": 10},
    ]}
    path = tmp_path / "cells.json"
    for order in (1, -1):
        path.write_text(json.dumps({"cells": config["cells"][::order]}))
        code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
        assert code == 2
        verdicts = [cell["verdict"] for cell in json.loads(out)["cells"]]
        assert verdicts == ["fail", "inconclusive"][::order]


def test_internal_inconsistency_exits_two(tmp_path, capsys, monkeypatch):
    import invwreath.verify as verify_mod

    real = verify_mod.target_size
    monkeypatch.setattr(verify_mod, "target_size",
                        lambda p: real(p) + (p.kind == "r-min"))
    code, _, err = run(capsys, "verify", "--kind", "r-min", "--monoid", "c2", "--n", "2")
    assert code == 2 and "internal inconsistency" in err and "closed form" in err
    config = {"cells": [
        {"kind": "r-min", "monoid": "c2", "n": 2},
        {"kind": "r-in", "monoid": "trivial", "n": 2},
    ]}
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 2
    obj = json.loads(out)
    jsonschema.validate(obj, MATRIX_SCHEMA)
    assert obj["cells"][0]["verdict"] == "error" and "closed form" in obj["cells"][0]["error"]
    assert obj["cells"][1]["verdict"] == "pass"


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "emit", "--kind", "nope", "--monoid", "c2", "--n", "2")[0] == 1
    assert run(capsys, "emit", "--kind", "r-min", "--monoid", "c2")[0] == 1
    assert run(capsys, "emit", "--kind", "r-min", "--monoid", "missing-monoid", "--n", "2")[0] == 1
    assert run(capsys, "eval", "--kind", "r-min", "--monoid", "c2", "--n", "2",
               "--word", "??")[0] == 1


def test_word_problem(capsys):
    code, out, _ = run(capsys, "word-problem", "--kind", "r-min", "--monoid", "c2",
                       "--n", "2", "--lhs", "s1 g@1", "--rhs", "g@2 s1")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "word-problem", "--kind", "r-min", "--monoid", "c2",
                       "--n", "2", "--lhs", "s1", "--rhs", "e1")
    assert code == 2 and out.strip() == "not equal"
    for lhs, equal in (("g@2 s1", True), ("e1", False)):
        code, out, _ = run(capsys, "word-problem", "--kind", "r-min", "--monoid", "c2",
                           "--n", "2", "--lhs", "s1 g@1", "--rhs", lhs, "--format", "json")
        assert (code, json.loads(out)) == (0 if equal else 2, {"equal": equal})


def test_semigroup_kinds_reject_the_empty_word(capsys):
    # no semigroup kind presents an identity; a monoid kind still reads 1
    # a letter of each kind, so that the word problem reaches the empty side
    letters = {"r-sing-in": "f1,2", "r-m-sing-in": "f1,2", "r-sing-tuples": "e1"}
    for kind, letter in letters.items():
        for argv in (["word-problem", "--lhs", "1", "--rhs", "1"],
                     ["word-problem", "--lhs", letter, "--rhs", "1"],
                     ["eval", "--word", "1"], ["eval", "--word", ""]):
            code, out, err = run(capsys, *argv, "--kind", kind, "--n", "3")
            assert (code, out) == (1, ""), (argv, kind)
            assert "is the empty word, which is no element of a semigroup" in err
    code, out, _ = run(capsys, "word-problem", "--kind", "r-sing-in", "--n", "3",
                       "--lhs", "f1,2 1", "--rhs", "1 f1,2")
    assert code == 0 and out.strip() == "equal"
    code, out, _ = run(capsys, "word-problem", "--kind", "r-min", "--n", "3",
                       "--lhs", "1", "--rhs", "s1 s1")
    assert code == 0 and out.strip() == "equal"


def test_words_read_only_the_kinds_generators(capsys):
    # a letter outside the kind's alphabet at --n is a usage error naming it
    for argv, tok in [
        (["word-problem", "--kind", "r-sing-in", "--n", "3", "--lhs", "s1", "--rhs", "s1"], "s1"),
        (["eval", "--kind", "r-in", "--monoid", "c2", "--n", "2", "--word", "g@1"], "g@1"),
        (["eval", "--kind", "xi-i", "--monoid", "c2", "--word", "g"], "g"),
        (["eval", "--kind", "r-min", "--monoid", "c2", "--n", "2", "--word", "s1 s2"], "s2"),
        (["eval", "--kind", "xi-mi", "--monoid", "c2", "--word", "(o X (p h i1))"], "h"),
        (["normal-form", "--kind", "r-sing-tuples", "--monoid", "c2", "--n", "2",
          "--word", "e1 f1,2"], "f1,2"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert f"{tok!r} is not a generator of kind" in err, argv
    # and so is a level below the kind's least
    code, out, err = run(capsys, "eval", "--kind", "r-sing-tuples", "--n", "1", "--word", "e1")
    assert (code, out) == (1, "") and "needs n >= 2" in err
    # the kind's own letters still evaluate; a path carries its own levels
    for argv in (["eval", "--kind", "xi-mi", "--monoid", "c2", "--word", "(o X (p g i1))"],
                 ["eval", "--kind", "r-sing-in", "--n", "3", "--word", "f1,2 f2,3"],
                 ["eval", "--kind", "omega-mi", "--monoid", "c2", "--word", "lam2 g@3:3"]):
        assert run(capsys, *argv)[0] == 0, argv


def test_eval_reads_a_category_path_at_the_given_cap(capsys):
    # with --cap an edge above the cap is no generator; without it a path
    # carries its own levels
    code, out, err = run(capsys, "eval", "--kind", "omega-mi", "--cap", "2", "--word", "s1:5")
    assert (code, out) == (1, "")
    assert "'s1:5' is not a generator of kind omega-mi at cap=2" in err
    code, out, err = run(capsys, "eval", "--kind", "omega-mi", "--cap", "2", "--word", "lam2")
    assert (code, out) == (1, "") and "'lam2' is not a generator" in err
    assert run(capsys, "eval", "--kind", "omega-mi", "--cap", "-1", "--word", "s1:2")[0] == 1
    # an empty path has no edge to check, but its object is above the cap
    code, out, err = run(capsys, "eval", "--kind", "omega-mi", "--monoid", "c2", "--cap", "2",
                         "--word", "i3")
    assert (code, out) == (1, "") and "source object 3 is above --cap 2" in err
    for argv in (["eval", "--cap", "2", "--word", "lam1 g@2:2"],
                 ["eval", "--cap", "2", "--word", "i2"],
                 ["eval", "--word", "s1:5"],
                 ["word-problem", "--lhs", "s1:5", "--rhs", "s1:5"]):
        assert run(capsys, *argv, "--kind", "omega-mi", "--monoid", "c2")[0] == 0, argv


def test_reading_words_builds_no_relation(capsys, monkeypatch):
    # eval, word-problem and normal-form read only the alphabet, so they
    # answer at a level whose relations would be costly to build
    from invwreath.base import builtin
    from invwreath.presentations import KIND
    from invwreath.words import eval_word, normal_form_singular_tuple, parse_monoid_word

    def refuse(*args):
        raise AssertionError("relations built")

    for kind in ("r-m-sing-in", "r-sing-tuples"):
        monkeypatch.setitem(KIND, kind, KIND[kind]._replace(relations=refuse))
    level = ("--kind", "r-m-sing-in", "--monoid", "c2", "--n", "14")
    code, out, _ = run(capsys, "eval", *level, "--word", "f1,2 g@1;3", "--format", "json")
    want = eval_word(parse_monoid_word("f1,2 g@1;3"), builtin("c2"), 14)
    assert code == 0 and json.loads(out) == want.to_json()
    code, out, _ = run(capsys, "word-problem", *level, "--lhs", "f1,2 f2,1", "--rhs", "e1")
    assert (code, out.strip()) == (0, "equal")
    code, out, _ = run(capsys, "word-problem", *level, "--lhs", "f1,2", "--rhs", "f2,1")
    assert (code, out.strip()) == (2, "not equal")
    code, out, err = run(capsys, "eval", *level, "--word", "f1,2 s1")
    assert (code, out) == (1, "") and "'s1' is not a generator of kind r-m-sing-in at n=14" in err
    code, out, _ = run(capsys, "normal-form", "--kind", "r-sing-tuples", "--monoid", "c2",
                       "--n", "14", "--word", "g@1;2 e3", "--format", "json")
    q, sigma, _ = normal_form_singular_tuple(parse_monoid_word("g@1;2 e3"), builtin("c2"), 14)
    assert code == 0 and json.loads(out)["q"] == q and json.loads(out)["relabel"] == list(sigma)


def test_normal_form_holds_its_map_words_to_the_budget(capsys, monkeypatch):
    # the map word is looked up among witnesses for all 1,441,729 partial
    # bijections at n=8, so the word is refused before any is built
    code, out, err = run(capsys, "normal-form", "--kind", "r-min", "--monoid", "c2",
                         "--n", "8", "--word", "s1 g@2")
    assert (code, out) == (3, "")
    assert "1441729 partial bijections at n=8, above the node budget of 50000" in err
    # there are 209 at n=4
    argv = ("normal-form", "--kind", "r-min", "--monoid", "c2", "--n", "4",
            "--word", "s1 g@2", "--format", "json")
    monkeypatch.setenv("INVWREATH_BUDGET", "208")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "") and "above the node budget of 208" in err
    monkeypatch.setenv("INVWREATH_BUDGET", "209")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and json.loads(out)["map_word"] == "s1"
    # a huge level names its count as a bound, not a number too long to print
    code, _, err = run(capsys, "normal-form", "--kind", "r-min", "--n", "5000", "--word", "s1")
    assert code == 3 and "more than 1000000000000 partial bijections at n=5000" in err


def _recording_category_letters(monkeypatch):
    """The objects a category path's edges are read at, with the kind's
    whole alphabet never built."""
    from invwreath import cli
    from invwreath.presentations import KIND, category_letters

    tops = []

    def recording(base, k):
        tops.append(k)
        return category_letters(base, k)

    def refuse(base, n, cap):
        raise AssertionError(f"the alphabet at cap {cap} was built")

    monkeypatch.setattr(cli, "category_letters", recording)
    monkeypatch.setitem(KIND, "omega-mi", KIND["omega-mi"]._replace(alphabet=refuse))
    return tops


def test_eval_at_a_high_cap_builds_letters_only_as_far_as_the_path(capsys, monkeypatch):
    tops = _recording_category_letters(monkeypatch)
    argv = ("eval", "--kind", "omega-mi", "--monoid", "c2", "--word", "lam1 rho1")
    high = run(capsys, *argv, "--cap", "1000")
    assert high[0] == 0 and high == run(capsys, *argv, "--cap", "2") and tops == [2, 2]
    # an edge above the cap is refused with no letter built
    tops.clear()
    code, out, err = run(capsys, "eval", "--kind", "omega-mi", "--cap", "1000",
                         "--word", "lam1000")
    assert (code, out) == (1, "") and tops == []
    assert "'lam1000' is not a generator of kind omega-mi at cap=1000" in err


def test_a_path_is_read_at_the_objects_its_edges_touch(capsys, monkeypatch):
    # a path high up builds the letters of the objects it touches, not of
    # every object below them
    from invwreath.base import builtin
    from invwreath.presentations import build
    from invwreath.words import eval_path, parse_path, s_, token, x_

    tops = _recording_category_letters(monkeypatch)
    path = "g@1:999 lam999 s3:1000 rho999"
    code, out, _ = run(capsys, "eval", "--kind", "omega-mi", "--monoid", "c2", "--cap", "1000",
                       "--word", path, "--format", "json")
    assert code == 0 and sorted(set(tops)) == [999, 1000]
    assert json.loads(out) == eval_path(parse_path(path), builtin("c2")).to_json()
    monkeypatch.undo()
    # each edge is accepted at a cap iff it is a letter of the kind there
    edges = {sym for k in range(5) for sym in build("omega-mi", builtin("s3"), cap=k).alphabet}
    edges |= {x_("h", 1, 2), s_(3, 4)}
    for cap in range(4):
        letters = set(build("omega-mi", builtin("s3"), cap=cap).alphabet)
        for sym in edges:
            code, _, err = run(capsys, "eval", "--kind", "omega-mi", "--monoid", "s3",
                               "--cap", str(cap), "--word", token(sym))
            assert code == (0 if sym in letters else 1), (cap, token(sym), err)


def test_enumerate_negative_size_is_a_usage_error(capsys):
    for variant in ("maps", "full"):
        code, out, err = run(capsys, "enumerate", "--variant", variant, "--m", "-1", "--n", "2")
        assert (code, out) == (1, ""), variant
        assert err.startswith("error: negative chain size"), variant


def test_enumerate_a_long_chain_into_the_empty_one(capsys):
    # the one map from 1,200 points to none: rows are built in a loop, not
    # by a recursion as deep as the chain
    code, out, _ = run(capsys, "enumerate", "--m", "1200", "--n", "0", "--cap", "2000")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "count: 1" and len(lines) == 2
    assert json.loads(lines[1]) == {"tuple": [0] * 1200,
                                    "map": {"m": 1200, "n": 0, "images": [0] * 1200}}
    code, out, _ = run(capsys, "enumerate", "--m", "1200", "--n", "0", "--cap", "2000",
                       "--count-only")
    assert (code, out) == (0, "count: 1\n")


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", "--kind", "r-min", "--monoid", "c2",
                       "--n", "2", "--word", "s1 g@1", "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), ELEMENT_SCHEMA)


def test_normal_form(capsys):
    code, out, _ = run(capsys, "normal-form", "--kind", "r-min", "--monoid", "c2",
                       "--n", "2", "--word", "s1 g@2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["slots"] == ["g", "1"] and obj["map_word"] == "s1"
    code, out, _ = run(capsys, "normal-form", "--kind", "r-sing-tuples", "--monoid", "c2",
                       "--n", "2", "--word", "g@1;2", "--format", "json")
    assert json.loads(out)["q"] == 1
    # the text output is one line per field, in the JSON's order
    code, out, _ = run(capsys, "normal-form", "--kind", "r-min", "--monoid", "c2",
                       "--n", "2", "--word", "s1 g@2")
    assert code == 0
    assert out.splitlines() == ["slots: ['g', '1']", "map_word: s1", "word: g@1 s1"]
    code, out, _ = run(capsys, "normal-form", "--kind", "r-sing-tuples", "--monoid", "c2",
                       "--n", "2", "--word", "g@1;2")
    assert out.splitlines() == ["q: 1", "relabel: [1, 2]", "slots: ['g']", "word: e2 g@1;2"]


def test_translate(capsys):
    code, out, _ = run(capsys, "translate", "--which", "psi2", "--word", "e g")
    assert code == 0 and out.strip() == "e1 g@1"
    code, out, _ = run(capsys, "translate", "--which", "hat", "--word", "lam2")
    assert code == 0 and out.strip() == "(p i2 Ubar)"
    code, out, _ = run(capsys, "translate", "--which", "psi1", "--word", "e2 g@2")
    assert code == 0 and out.strip() == "s1 e s1 s1 g s1"
    code, out, _ = run(capsys, "translate", "--which", "plus", "--word", "s1:2 e2:2")
    assert code == 0 and out.strip() == "s1:3 e2:3"
    code, out, _ = run(capsys, "translate", "--which", "reverse", "--word", "s1 s2")
    assert code == 0 and out.strip() == "s2 s1"


def test_enumerate(capsys):
    code, out, _ = run(capsys, "enumerate", "--variant", "maps", "--m", "3", "--n", "3",
                       "--count-only")
    assert code == 0 and out.strip() == "count: 34"
    # exceeding the cap is an explicit error unless raised explicitly
    code, _, err = run(capsys, "enumerate", "--variant", "full", "--monoid", "s3",
                       "--m", "3", "--n", "3", "--count-only")
    assert code == 1 and "cap" in err
    # the default limits for maps and for a base of two elements, and a
    # lowered one
    for argv, refused in ((("--variant", "maps", "--m", "7", "--n", "2"), "(7,2) exceeds cap 6"),
                          (("--monoid", "c2", "--m", "4", "--n", "4"), "(4,4) exceeds cap 3"),
                          (("--monoid", "c2", "--m", "5", "--n", "5", "--cap", "4"),
                           "(5,5) exceeds cap 4")):
        assert run(capsys, "enumerate", *argv) == (1, "", f"error: enumeration of {refused}\n")
    code, out, _ = run(capsys, "enumerate", "--variant", "full", "--monoid", "s3",
                       "--m", "3", "--n", "3", "--cap", "3", "--count-only")
    assert code == 0 and out.splitlines()[0] == "count: 1999"
    code, out, _ = run(capsys, "enumerate", "--variant", "full", "--monoid", "c2",
                       "--m", "2", "--n", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["count"] == 17
    for elem in obj["elements"]:
        jsonschema.validate(elem, ELEMENT_SCHEMA)


def test_enumerate_count_only_streams_the_closed_form(capsys, monkeypatch):
    # every variant over every base with a table, m, n <= 3, counted as the
    # codes stream in either format, with no hom-set decoded or sorted and
    # no partial bijection built; the maps are the unlabelled partial
    # bijections, the full variant over the trivial base
    def refuse(*args, **kwargs):
        raise AssertionError("decoded the hom-set to count it")

    monkeypatch.setattr("invwreath.wreath.enumerate_wreath", refuse)
    monkeypatch.setattr("invwreath.pperm.PartialBijection.__post_init__", refuse)
    trivial = builtin("trivial").monoid
    for name in BUILTIN_NAMES:
        monoid = builtin(name).monoid
        if monoid is None:
            continue
        for variant in ("maps", "full", "singular-monoid", "singular-tuples"):
            for m in range(4):
                for n in range(4):
                    for fmt in ("text", "json"):
                        code, out, err = run(capsys, "enumerate", "--variant", variant,
                                             "--monoid", name, "--m", str(m), "--n", str(n),
                                             "--cap", "3", "--count-only", "--format", fmt)
                        cell = (name, variant, m, n, fmt)
                        if variant.startswith("singular") and m != n:
                            assert (code, out) == (1, ""), cell
                            assert err == "error: singular variants need m == n\n", cell
                            continue
                        want = (count_wreath(trivial, m, n) if variant == "maps" else
                                count_wreath(monoid, m, n, variant))
                        printed = f"count: {want}" if fmt == "text" else f'{{"count": {want}}}'
                        assert (code, out) == (0, printed + "\n"), cell


def test_custom_monoid_file(tmp_path, capsys):
    spec = {
        "name": "c4",
        "presentation": {
            "alphabet": ["g"],
            "relations": [[["g", "g", "g", "g"], []]],
            "monoid": {"size": 4, "identity": 0,
                       "table": [[(a + b) % 4 for b in range(4)] for a in range(4)]},
            "images": {"g": 1},
        },
    }
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(spec))
    code, out, _ = run(capsys, "verify", "--kind", "r-min", "--monoid", str(path), "--n", "2")
    assert code == 0 and "pass" in out


def test_monoid_file_that_is_not_an_object_is_a_usage_error(tmp_path, capsys):
    # a file whose JSON, or whose presentation, is not an object: a message
    # naming the file, never a traceback; in a matrix only its cell fails
    cells = []
    for stem, spec in (("list", [1]), ("scalar", {"presentation": 5}),
                       ("partial", {"presentation": {"alphabet": ["g"]}})):
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(spec))
        code, _, err = run(capsys, "verify", "--kind", "r-in", "--monoid", str(path), "--n", "2")
        assert code == 1 and err.startswith(f"error: {path}: "), stem
        cells.append({"kind": "r-in", "monoid": str(path), "n": 2})
    config = tmp_path / "cells.json"
    config.write_text(json.dumps({"cells": cells + [{"kind": "r-in", "monoid": "trivial", "n": 2}]}))
    code, out, _ = run(capsys, "matrix", str(config), "--format", "json")
    assert code == 2
    verdicts = [(c["verdict"], c.get("error", "")) for c in json.loads(out)["cells"]]
    assert [v for v, _ in verdicts] == ["error"] * 3 + ["pass"]
    assert all(str(tmp_path) in error for _, error in verdicts[:3])


def test_matrix(tmp_path, capsys):
    config = {"cells": [
        {"kind": "r-in", "monoid": "trivial", "n": 2},
        {"kind": "r-min", "monoid": "c2", "n": 2},
    ]}
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, MATRIX_SCHEMA)
    assert [c["verdict"] for c in obj["cells"]] == ["pass", "pass"]


def test_matrix_cell_errors_do_not_kill_siblings(tmp_path, capsys):
    config = {"cells": [
        {"kind": "bogus", "monoid": "c2", "n": 2},
        {"kind": "r-in", "monoid": "trivial", "n": 2},
    ]}
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(config))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert obj["cells"][0]["verdict"] == "error"
    assert obj["cells"][1]["verdict"] == "pass"


def test_a_level_is_required_by_every_subcommand(tmp_path, capsys):
    # a missing level is a usage error, never a default level
    for command in ("emit", "verify"):
        code, _, err = run(capsys, command, "--kind", "omega-mi", "--monoid", "c2")
        assert (code, err.strip()) == (1, "error: kind omega-mi needs --cap"), command
        code, _, err = run(capsys, command, "--kind", "r-min", "--monoid", "c2")
        assert (code, err.strip()) == (1, "error: kind r-min needs --n"), command
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"cells": [
        {"kind": "omega-mi", "monoid": "c2"}, {"kind": "omega-mi", "monoid": "c2", "cap": 2},
    ]}))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 2
    obj = json.loads(out)
    assert [c["verdict"] for c in obj["cells"]] == ["error", "pass"]
    assert obj["cells"][0]["error"] == "kind omega-mi needs --cap"
    code, out, _ = run(capsys, "matrix", str(path))
    assert out.splitlines() == ["[0] omega-mi c2: error (kind omega-mi needs --cap)",
                                "[1] omega-mi c2 cap=2: pass"]


def test_matrix_malformed_configs(tmp_path, capsys):
    path = tmp_path / "cells.json"
    # a missing key or a cell that is no object is recorded; the others run
    path.write_text(json.dumps({"cells": [
        {"kind": "r-in", "n": 2}, {"monoid": "trivial", "n": 2}, 3,
        {"kind": "r-in", "monoid": "trivial", "n": 2},
    ]}))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 2
    obj = json.loads(out)
    jsonschema.validate(obj, MATRIX_SCHEMA)
    assert [c["verdict"] for c in obj["cells"]] == ["error", "error", "error", "pass"]
    assert obj["cells"][0]["error"] == "cell is missing 'monoid'"
    assert obj["cells"][1]["error"] == "cell is missing 'kind'"
    assert obj["cells"][2]["error"] == "cell is not an object: 3"
    # a config that is not an object with a cells list is a usage error
    for config in ([1], {"cells": 3}):
        path.write_text(json.dumps(config))
        code, out, err = run(capsys, "matrix", str(path))
        assert code == 1 and out == "" and "'cells' list" in err


# each cell's fields of the wrong JSON type, and one good cell
_MALFORMED_CELLS = [
    {"kind": "r-min", "monoid": "c2", "n": "3"},
    {"kind": "r-min", "monoid": "c2", "n": 3.0},
    {"kind": ["r-min"], "monoid": "c2", "n": 3},
    {"kind": "r-min", "monoid": 0, "n": 2},
    {"kind": "r-min", "monoid": 1, "n": 2},
    {"kind": "r-min", "monoid": "c2", "n": True},
    {"kind": "r-min", "monoid": "c2", "n": 2, "budget": True},
    {"kind": "omega-mi", "monoid": "c2", "cap": [2]},
    {"kind": "r-min", "monoid": "c2", "n": 2},
]


def test_matrix_cells_of_the_wrong_type_are_errors(tmp_path, capsys):
    # a number is no monoid name: no file descriptor is read or closed
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"cells": _MALFORMED_CELLS}))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 2
    obj = json.loads(out)
    jsonschema.validate(obj, MATRIX_SCHEMA)
    assert [c["verdict"] for c in obj["cells"]] == ["error"] * 8 + ["pass"]
    errors = [c["error"] for c in obj["cells"][:8]]
    assert errors == ["--n must be an integer, got '3'", "--n must be an integer, got 3.0",
                      "unknown kind ['r-min']",
                      "monoid must be a builtin name or a JSON path, got 0",
                      "monoid must be a builtin name or a JSON path, got 1",
                      "--n must be an integer, got True",
                      "node budget must be a positive integer, got True",
                      "--cap must be an integer, got [2]"]


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 4) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=3),
    max_leaves=6)
_ABSENT = object()


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(("r-in", "r-sing-in", "omega-mi", "xi-i", _ABSENT)) | _JSON,
       monoid=st.sampled_from(("trivial", "c2", _ABSENT)) | _JSON,
       n=st.sampled_from((_ABSENT,)) | _JSON, cap=st.sampled_from((_ABSENT,)) | _JSON,
       budget=st.sampled_from((_ABSENT,)) | _JSON)
def test_random_cells_never_raise(kind, monoid, n, cap, budget):
    # whatever the JSON values of a cell, it gets a verdict and its
    # neighbour still runs
    cell = {key: value for key, value in (("kind", kind), ("monoid", monoid), ("n", n),
                                          ("cap", cap), ("budget", budget))
            if value is not _ABSENT}
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "cells.json"
        path.write_text(json.dumps({"cells": [cell, {"kind": "r-in", "monoid": "trivial",
                                                     "n": 2}]}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["matrix", str(path), "--format", "json"])
    assert code in (0, 2, 3)
    obj = json.loads(out.getvalue())
    jsonschema.validate(obj, MATRIX_SCHEMA)
    first, second = obj["cells"]
    assert (first["verdict"] == "error") == ("error" in first)
    assert second["verdict"] == "pass"


def test_matrix_empty(tmp_path, capsys):
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"cells": []}))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 0 and json.loads(out) == {"cells": []}


def test_round_trip_of_emitted_relations(capsys):
    from invwreath.presentations import KIND
    from invwreath.words import (
        parse_monoid_word,
        parse_path,
        parse_term,
        path_text,
        term_text,
        word_text,
    )

    parsers = {
        "monoid": (parse_monoid_word, word_text),
        "semigroup": (parse_monoid_word, word_text),
        "category": (parse_path, path_text),
        "tensor": (parse_term, term_text),
    }
    for kind, row in KIND.items():
        flavor = row.flavor
        argv = ["emit", "--kind", kind, "--monoid", "c2"]
        if flavor in ("monoid", "semigroup"):
            argv += ["--n", "3"]
        elif flavor == "category":
            argv += ["--cap", "2"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        parse, render = parsers[flavor]
        for line in out.splitlines():
            if line.startswith("#"):
                continue
            lhs, rhs = line.split(" = ")
            assert render(parse(lhs)) == lhs
            assert render(parse(rhs)) == rhs


# tokens of every word syntax, near misses of them and stray characters
_FUZZ_TOKENS = (
    "1", "s1", "s2", "s3", "s0", "s9", "e", "e1", "e2", "e0", "e7", "g@1", "g@2", "g@0",
    "g@1;2", "g@2;2", "g@3;1", "a@1", "b@2", "x@1", "g", "s1:2", "s1:1", "e2:3", "e1:0",
    "g@1:2", "g@2:1", "g@1;2:3", "f1,2", "f2,1", "f1,1", "f0,3", "lam0", "lam1", "lam9",
    "rho0", "rho1", "rho5", "i0", "i1", "i2", "i", "X", "U", "Ubar", "(o", "(p", "(", ")",
    "@", ";", ",", ":", "s", "f", "lam", "zz", "s99999", "-1", "é", "s1s2",
)
_FUZZ_WORDS = st.one_of(
    st.lists(st.sampled_from(_FUZZ_TOKENS), max_size=8).map(" ".join),
    # mostly well-formed flat words over c2, to reach past the parser
    st.lists(st.sampled_from(("s1", "e1", "e2", "e", "g@1", "g@2", "g@1;2", "f1,2")),
             max_size=8).map(" ".join),
    st.text(max_size=12),
)
_FUZZ_KINDS = ("r-min", "r-min-small", "r-in", "r-in-popova", "r-sing-in", "r-sing-tuples",
               "r-m-sing-in", "omega-mi", "xi-i", "xi-mi", "nope")


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(("eval", "word-problem", "normal-form", "translate")),
       kind=st.sampled_from(_FUZZ_KINDS), n=st.sampled_from((None, "0", "1", "2", "3")),
       which=st.sampled_from(("psi1", "psi2", "hat", "plus", "reverse")),
       lhs=_FUZZ_WORDS, rhs=_FUZZ_WORDS)
def test_random_words_never_raise(command, kind, n, which, lhs, rhs):
    # whatever the text, the CLI answers with an exit code, never a traceback
    if command == "translate":
        argv = ["translate", "--which", which, "--word", lhs]
    else:
        argv = [command, "--kind", kind, "--monoid", "c2"]
        if n is not None:
            argv += ["--n", n]
        if command == "word-problem":
            argv += ["--lhs", lhs, "--rhs", rhs]
        else:
            argv += ["--word", lhs]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
