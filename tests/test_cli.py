"""Command-line surface: golden emission, exit codes, JSON validity."""

import json
import pathlib

import jsonschema

from invwreath.cli import main
from invwreath.schemas import ELEMENT_SCHEMA, MATRIX_SCHEMA, PRESENTATION_SCHEMA, REPORT_SCHEMA

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
    code, out, _ = run(capsys, "enumerate", "--variant", "full", "--monoid", "s3",
                       "--m", "3", "--n", "3", "--cap", "3", "--count-only")
    assert code == 0 and out.splitlines()[0] == "count: 1999"
    code, out, _ = run(capsys, "enumerate", "--variant", "full", "--monoid", "c2",
                       "--m", "2", "--n", "2", "--format", "json")
    obj = json.loads(out)
    assert obj["count"] == 17
    for elem in obj["elements"]:
        jsonschema.validate(elem, ELEMENT_SCHEMA)


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


def test_matrix_empty(tmp_path, capsys):
    path = tmp_path / "cells.json"
    path.write_text(json.dumps({"cells": []}))
    code, out, _ = run(capsys, "matrix", str(path), "--format", "json")
    assert code == 0 and json.loads(out) == {"cells": []}


def test_round_trip_of_emitted_relations(capsys):
    from invwreath.presentations import KIND_FLAVOR
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
    for kind, flavor in KIND_FLAVOR.items():
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
