"""Command-line front end.

Subcommands: emit, verify, eval, normal-form, word-problem, enumerate,
translate, matrix.  Exit codes: 0 success, 1 usage error, 2 verification
failure or an internal inconsistency, 3 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from . import wreath
from .base import BUILTIN_NAMES, BasePresentation, InternalInconsistency, builtin
from .presentations import (FLAVOR_SYNTAX, KIND, build, category_letters, check_level, emit_json,
                            emit_text)
from .words import (
    edge_dr,
    hat_path,
    normal_form_singular_tuple,
    normal_form_wreath_word,
    parse_monoid_word,
    parse_path,
    plus_word,
    psi1_word,
    psi2_word,
    reassemble_singular,
    reassemble_wreath,
    reverse_word,
    term_edges,
    term_text,
    token,
    word_text,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
# a matrix exits with its worst cell's code: a fail or an error outranks an
# inconclusive cell, whose code is the larger
_SEVERITY = {EXIT_OK: 0, EXIT_INCONCLUSIVE: 1, EXIT_FAIL: 2}

BUDGET_ENV = "INVWREATH_BUDGET"


class UsageError(ValueError):
    pass


def _load_monoid(spec: str) -> BasePresentation:
    if not isinstance(spec, str):
        raise UsageError(f"monoid must be a builtin name or a JSON path, got {spec!r}")
    if spec in BUILTIN_NAMES:
        return builtin(spec)
    if os.path.exists(spec):
        with open(spec) as fh:
            obj = json.load(fh)
        presentation = obj.get("presentation", obj) if isinstance(obj, dict) else None
        if not isinstance(presentation, dict):
            raise UsageError(f"{spec}: a monoid file is a JSON object holding a presentation object")
        name = obj.get("name", os.path.splitext(os.path.basename(spec))[0])
        try:
            return BasePresentation.from_json(presentation, name=name)
        except (KeyError, TypeError) as exc:
            raise UsageError(f"{spec}: malformed presentation ({type(exc).__name__}: {exc})") from None
    raise UsageError(
        f"unknown monoid {spec!r}: expected one of {', '.join(BUILTIN_NAMES)} or a JSON path")


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, as JSON's ``true`` is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_budget(budget):
    if budget is not None and (not _is_int(budget) or budget <= 0):
        raise UsageError(f"node budget must be a positive integer, got {budget!r}")
    return budget


def _budget(budget=None) -> int | None:
    """``budget`` if given, else the node budget from the environment;
    ``None`` leaves the choice of default to the enumeration."""
    if budget is None:
        env = os.environ.get(BUDGET_ENV)
        if not env:
            return None
        try:
            budget = int(env)
        except ValueError:
            raise UsageError(f"{BUDGET_ENV}={env!r} is not an integer") from None
    return _positive_budget(budget)


def _kind(kind: str):
    """The kind table's row for ``kind``."""
    if not isinstance(kind, str) or kind not in KIND:
        raise UsageError(f"unknown kind {kind!r}")
    return KIND[kind]


def _level(kind: str, n, cap) -> dict:
    """The level ``build`` takes for ``kind``, by its keyword: ``n``,
    ``cap`` or, for a tensor kind, none."""
    key = _kind(kind).level
    if key is None:
        return {}
    value = n if key == "n" else cap
    if value is None:
        raise UsageError(f"kind {kind} needs --{key}")
    if not _is_int(value):
        raise UsageError(f"--{key} must be an integer, got {value!r}")
    return {key: value}


def _build_from_args(args):
    level = _level(args.kind, args.n, args.cap)
    return build(args.kind, _load_monoid(args.monoid), **level)


def _cmd_emit(args) -> int:
    p = _build_from_args(args)
    sys.stdout.write(emit_json(p) if args.format == "json" else emit_text(p))
    return EXIT_OK


def _report_exit(report) -> int:
    if report.verdict == "pass":
        return EXIT_OK
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    return EXIT_FAIL


def _run_verify_cell(kind, base, n, cap, budget, default_budget):
    """``budget`` is the cell's own node budget, ``default_budget`` the
    run-wide one.  Tensor kinds enumerate nothing, so they take neither."""
    level = _level(kind, n, cap)
    if not level:
        if budget is not None:
            raise UsageError(f"kind {kind} is a tensor kind and runs no enumeration; "
                             "a node budget does not apply")
        return verify_mod.verify_tensor(base, kind=kind)
    if budget is None:
        budget = default_budget
    if "cap" in level:
        return verify_mod.verify_category(level["cap"], base, budget)
    return verify_mod.verify_presentation(kind, base, level["n"], budget)


def _cmd_verify(args) -> int:
    budget = _positive_budget(args.budget)
    default_budget = _budget() if budget is None else None
    base = _load_monoid(args.monoid)
    report = _run_verify_cell(args.kind, base, args.n, args.cap, budget, default_budget)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        _print_report(report)
    return _report_exit(report)


def _print_report(report):
    head = f"{report.kind} monoid={report.monoid}"
    if report.n is not None:
        # the report's ``n`` is the level, by the kind's own keyword
        head += f" {KIND[report.kind].level}={report.n}"
    print(f"{head}: {report.verdict}")
    if report.soundness is not None:
        print(f"  soundness: {'pass' if report.soundness.ok else report.soundness.detail}")
    if report.generation is not None:
        print(f"  generation: {report.generation[0]}/{report.generation[1]}")
    if report.enumerated_size is not None:
        print(f"  enumerated: {report.enumerated_size} target: {report.target_size}")
    for key, val in report.notes.items():
        print(f"  {key}: {val}")


def _reader(args):
    """The base of ``args`` and a parser of ``args.kind``'s text that reads
    only the kind's own generators at its level, which is checked; no
    relation is built.  Each edge of a category path is read against the
    generators whose higher end is that edge's (``category_letters``),
    built once per object: an edge among objects up to ``t`` is a
    generator at a cap above ``t`` iff it is one at ``t``, so a high cap or
    a high object builds no letters of the levels the path does not touch.
    The path must also start within the cap, which an empty path is not
    held to by its edges; without a cap it is read as it is."""
    row = _kind(args.kind)
    base = _load_monoid(args.monoid)
    parse = FLAVOR_SYNTAX[row.flavor].parse
    cap = getattr(args, "cap", None)
    if row.level == "cap" and cap is None:
        return base, parse
    level = _level(args.kind, args.n, cap)
    check_level(args.kind, **level)
    # per object within the cap, the generators whose higher end it is;
    # under ``None`` those of a kind without objects
    letters = {} if row.level == "cap" else {None: frozenset(row.alphabet(base, args.n, cap))}
    at = "".join(f" at {key}={value}" for key, value in level.items())

    def read(text):
        obj = parse(text)
        syms = obj if row.level == "n" else obj.edges if row.level else term_edges(obj)
        for sym in syms:
            top = max(edge_dr(sym)) if row.level == "cap" else None
            if top not in letters and top <= cap:
                letters[top] = frozenset(category_letters(base, top))
            if sym not in letters.get(top, ()):
                raise UsageError(f"{token(sym)!r} is not a generator of kind {args.kind}{at}")
        if row.level == "cap" and obj.src > cap:
            raise UsageError(f"source object {obj.src} is above --cap {cap}")
        return obj
    return base, read


def _evaluator(args):
    """Read-then-evaluate for the flavor of ``args.kind``."""
    base, read = _reader(args)
    evaluate = FLAVOR_SYNTAX[KIND[args.kind].flavor].eval
    return lambda text: evaluate(read(text), base, args.n)


def _cmd_eval(args) -> int:
    elem = _evaluator(args)(args.word)
    if args.format == "json":
        print(json.dumps(elem.to_json()))
    else:
        print(f"tuple:  {list(elem.tup.entries)}")
        print(elem.pmap.render())
    return EXIT_OK


def _cmd_word_problem(args) -> int:
    evaluate = _evaluator(args)
    equal = evaluate(args.lhs) == evaluate(args.rhs)
    if args.format == "json":
        print(json.dumps({"equal": equal}))
    else:
        print("equal" if equal else "not equal")
    return EXIT_OK if equal else EXIT_FAIL


def _cmd_normal_form(args) -> int:
    # the paper's two normal forms differ in shape, so each has its branch
    if args.kind not in ("r-min", "r-sing-tuples"):
        raise UsageError("normal-form supports kinds r-min and r-sing-tuples")
    base, read = _reader(args)
    word = read(args.word)
    if args.kind == "r-min":
        # the map word is read from a closure of every partial bijection
        # at n, which is the target of r-in at n, so it is held to the budget
        over = verify_mod.over_budget("r-in", builtin("trivial"), args.n, _budget())
        if over:
            needs, nodes = over
            print(f"normal-form: the map word needs witnesses for {needs} partial "
                  f"bijections at n={args.n}, above the node budget of {nodes}",
                  file=sys.stderr)
            return EXIT_INCONCLUSIVE
        parts, tail = normal_form_wreath_word(word, base, args.n)
        result = {
            "slots": [" ".join(w) if w else "1" for w in parts],
            "map_word": word_text(tail),
            "word": word_text(reassemble_wreath(parts, tail)),
        }
    else:
        q, sigma, slot_words = normal_form_singular_tuple(word, base, args.n)
        result = {
            "q": q,
            "relabel": list(sigma),
            "slots": [" ".join(w) if w else "1" for w in slot_words],
            "word": word_text(reassemble_singular(q, args.n, slot_words)),
        }
    if args.format == "json":
        print(json.dumps(result))
    else:
        for key, val in result.items():
            print(f"{key}: {val}")
    return EXIT_OK


# --which -> (parser, translation map, printer)
_TRANSLATIONS = {
    "psi1": (parse_monoid_word, psi1_word, word_text),
    "psi2": (parse_monoid_word, psi2_word, word_text),
    "hat": (parse_path, hat_path, term_text),
    "plus": (lambda text: parse_path(text).edges, plus_word, word_text),
    "reverse": (parse_monoid_word, reverse_word, word_text),
}


def _cmd_translate(args) -> int:
    parse, translate, show = _TRANSLATIONS[args.which]
    print(show(translate(parse(args.word))))
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    base = _load_monoid(args.monoid)
    # the maps are the full hom-set over the trivial base, printed as maps
    maps = args.variant == "maps"
    monoid = builtin("trivial").monoid if maps else base.require_evaluation()
    cap = args.cap
    if cap is None:                     # a larger base lists more per hom-set
        cap = 6 if maps else 4 if monoid.size == 1 else 3 if monoid.size <= 3 else 2
    if args.m > cap or args.n > cap:
        raise UsageError(f"enumeration of ({args.m},{args.n}) exceeds cap {cap}")
    variant = "full" if maps else args.variant
    if args.count_only:
        # streamed: nothing is decoded, sorted or kept
        count = sum(1 for _ in wreath.enumerate_codes(monoid, args.m, args.n, variant))
        print(json.dumps({"count": count}) if args.format == "json" else f"count: {count}")
        return EXIT_OK
    rows = [(e.pmap if maps else e).to_json()
            for e in wreath.enumerate_wreath(monoid, args.m, args.n, variant)]
    if args.format == "json":
        print(json.dumps({"count": len(rows), "elements": rows}))
    else:
        print(f"count: {len(rows)}")
        for row in rows:
            print(json.dumps(row))
    return EXIT_OK


def _cmd_matrix(args) -> int:
    with open(args.config) as fh:
        config = json.load(fh)
    cells = config.get("cells", []) if isinstance(config, dict) else None
    if not isinstance(cells, list):
        raise UsageError(f"{args.config}: a matrix config is an object with a 'cells' list")
    default_budget = _budget(args.budget)
    results = []
    worst = EXIT_OK
    for idx, cell in enumerate(cells):
        entry = {"cell": idx}
        try:
            if not isinstance(cell, dict):
                raise UsageError(f"cell is not an object: {json.dumps(cell)}")
            entry.update(cell)
            for key in ("kind", "monoid"):
                if key not in cell:
                    raise UsageError(f"cell is missing {key!r}")
            base = _load_monoid(cell["monoid"])
            report = _run_verify_cell(cell["kind"], base, cell.get("n"), cell.get("cap"),
                                      _positive_budget(cell.get("budget")), default_budget)
            entry["verdict"] = report.verdict
            entry["report"] = report.to_json()
            worst = max(worst, _report_exit(report), key=_SEVERITY.__getitem__)
        except (ValueError, KeyError, OSError, InternalInconsistency) as exc:
            entry["verdict"] = "error"
            entry["error"] = str(exc)
            worst = EXIT_FAIL
        results.append(entry)
    if args.format == "json":
        print(json.dumps({"cells": results}, indent=2))
    else:
        for entry in results:
            label = f"[{entry['cell']}] {entry.get('kind', '?')} {entry.get('monoid', '?')}"
            for key in ("n", "cap"):
                if entry.get(key) is not None:
                    label += f" {key}={entry[key]}"
            print(f"{label}: {entry['verdict']}" +
                  (f" ({entry['error']})" if "error" in entry else ""))
    return worst


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invwreath",
        description="Presentations and verification for wreath products of a "
                    "finite monoid with the partial-bijection monoids and category.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, monoid=True, n=True, cap=False, kind=True):
        if kind:
            sp.add_argument("--kind", required=True, help="presentation kind, e.g. r-min")
        if monoid:
            sp.add_argument("--monoid", default="trivial",
                            help="builtin name or JSON file path")
        if n:
            sp.add_argument("--n", type=int, default=None, help="level")
        if cap:
            sp.add_argument("--cap", type=int, default=None, help="object cap")
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("emit", help="print a presentation")
    common(sp, cap=True)
    sp.set_defaults(func=_cmd_emit)

    sp = sub.add_parser("verify", help="verify a presentation against brute force")
    common(sp, cap=True)
    sp.add_argument("--budget", type=int, default=None,
                    help=f"node budget (or set {BUDGET_ENV})")
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("eval", help="evaluate a word/path/term")
    common(sp, cap=True)
    sp.add_argument("--word", required=True)
    sp.set_defaults(func=_cmd_eval)

    sp = sub.add_parser("word-problem", help="compare two words semantically")
    common(sp)
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.set_defaults(func=_cmd_word_problem)

    sp = sub.add_parser("normal-form", help="canonical factorization of a word")
    common(sp)
    sp.add_argument("--word", required=True)
    sp.set_defaults(func=_cmd_normal_form)

    sp = sub.add_parser("translate", help="apply a named translation map")
    sp.add_argument("--which", required=True, choices=tuple(_TRANSLATIONS))
    sp.add_argument("--word", required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_translate)

    sp = sub.add_parser("enumerate", help="brute-force enumeration")
    sp.add_argument("--variant", default="full",
                    choices=("maps", "full", "singular-monoid", "singular-tuples"))
    sp.add_argument("--monoid", default="trivial")
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--cap", type=int, default=None,
                    help="size limit on m and n (default 6 for maps; 4, 3 or 2 for a base "
                         "of 1, at most 3, or more elements)")
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_enumerate)

    sp = sub.add_parser("matrix", help="run a verification matrix from a config file")
    sp.add_argument("config", help="JSON file with a 'cells' list")
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=_cmd_matrix)

    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInconsistency as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
