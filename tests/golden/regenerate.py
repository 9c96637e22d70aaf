"""Rewrite the golden files of ``tests/golden/`` from the current code.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It writes ``matrix.json`` (the ``matrix --format json`` report of
``matrix_cells.json``), ``normal_form.json`` (``normal_form_corpus``) and
``enumerate.json`` (``enumerate_corpus``), with ``INVWREATH_BUDGET`` unset.
On an unchanged tree it gives no diff.  A golden file moves only on
purpose, and the reason is logged; ``tests/test_cli.py`` compares each of
them with what the code prints.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
from random import Random

from invwreath import cli
from invwreath.base import BUILTIN_NAMES, builtin
from invwreath.presentations import KIND
from invwreath.words import word_text

GOLDEN = pathlib.Path(__file__).parent


def run(argv):
    """The exit code, stdout and stderr of the command line ``argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def matrix_report() -> str:
    """The JSON report of every cell of ``matrix_cells.json``."""
    return run(["matrix", str(GOLDEN / "matrix_cells.json"), "--format", "json"])[1]


def normal_form_corpus() -> str:
    """A seeded sample of both normal-form kinds over every builtin with a
    table at each level up to 5, as one JSON document: per invocation its
    arguments and the command's JSON output.  The words are random over the
    kind's own alphabet, with one letter in ten an omission ``e_i`` where
    there are others, so that they reach elements of every rank."""
    rng = Random(29)
    corpus = []
    for kind, longest in (("r-min", 12), ("r-sing-tuples", 5)):
        row = KIND[kind]
        for name in BUILTIN_NAMES:
            base = builtin(name)
            if base.monoid is None:
                continue
            for n in range(row.least, 6):
                letters = row.alphabet(base, n, None)
                omissions = [x for x in letters if x.kind == "e"]
                others = [x for x in letters if x.kind != "e"] or omissions
                for _ in range(8 if letters else 1):
                    size = rng.randrange(row.flavor == "semigroup", longest) if letters else 0
                    text = word_text([rng.choice(omissions if rng.random() < 0.1 else others)
                                      for _ in range(size)])
                    argv = ["normal-form", "--kind", kind, "--monoid", name, "--n", str(n),
                            "--word", text, "--format", "json"]
                    code, out, _ = run(argv)
                    assert code == 0, argv
                    corpus.append({"argv": argv[1:-2], "result": json.loads(out)})
    return json.dumps(corpus, indent=1) + "\n"


_VARIANTS = ("maps", "full", "singular-monoid", "singular-tuples")
# the ways of printing a hom-set: a streamed count, a JSON document, and a
# count followed by one JSON line per element
_MODES = (["--count-only"], ["--format", "json"], [])


def _enumeration(argv) -> dict:
    """One ``enumerate`` invocation: its arguments, exit code and stderr,
    and the count and SHA-256 of what it printed."""
    code, out, err = run(["enumerate", *argv])
    count = None
    if code == 0:
        count = json.loads(out)["count"] if out.startswith("{") else int(out.split()[1])
    return {"argv": argv, "exit": code, "stderr": err, "count": count,
            "sha256": hashlib.sha256(out.encode()).hexdigest()}


def enumerate_corpus() -> str:
    """``enumerate`` over every variant and every builtin with a table, as
    one JSON document.

    - Every hom-set ``(m, n)`` with ``m, n <= 3`` in each of ``_MODES``,
      under the default cap; a hom-set that the default cap refuses is run
      again with ``--cap 3``.
    - Each default cap at its edge: ``(c, c)`` is counted, and ``(c + 1,
      0)``, ``(0, c + 1)`` and ``(c + 1, c + 1)`` are refused under the
      default and counted with ``--cap`` one higher.
    - A ``--cap`` below the default, and the bicyclic monoid, which has
      maps but no table."""
    corpus = []
    for name in BUILTIN_NAMES:
        monoid = builtin(name).monoid
        if monoid is None:
            continue
        for variant in _VARIANTS:
            head = ["--variant", variant, "--monoid", name]
            for m in range(4):
                for n in range(4):
                    for mode in _MODES:
                        argv = [*head, "--m", str(m), "--n", str(n), *mode]
                        corpus.append(_enumeration(argv))
                        if "exceeds cap" in corpus[-1]["stderr"]:
                            corpus.append(_enumeration([*argv, "--cap", "3"]))
            if variant == "maps" and name != "trivial":
                continue                # the maps are the same over every base
            cap = 6 if variant == "maps" else 4 if monoid.size == 1 else 3 if monoid.size <= 3 else 2
            corpus.append(_enumeration([*head, "--m", str(cap), "--n", str(cap), "--count-only"]))
            for m, n in ((cap + 1, 0), (0, cap + 1), (cap + 1, cap + 1)):
                argv = [*head, "--m", str(m), "--n", str(n), "--count-only"]
                corpus.append(_enumeration(argv))
                corpus.append(_enumeration([*argv, "--cap", str(cap + 1)]))
    for variant in ("maps", "full"):
        corpus.append(_enumeration(["--variant", variant, "--m", "2", "--n", "1", "--cap", "1",
                                    "--count-only"]))
        corpus.append(_enumeration(["--variant", variant, "--monoid", "bicyclic",
                                    "--m", "2", "--n", "2", "--format", "json"]))
    return json.dumps(corpus, indent=1) + "\n"


def main():
    os.environ.pop("INVWREATH_BUDGET", None)
    for name, text in (("matrix.json", matrix_report()),
                       ("normal_form.json", normal_form_corpus()),
                       ("enumerate.json", enumerate_corpus())):
        (GOLDEN / name).write_text(text)


if __name__ == "__main__":
    main()
