"""Coset-style enumeration against brute-force cardinalities."""

import dataclasses
import hashlib
import json

import pytest

from invwreath import wreath
from invwreath.base import InternalInconsistency, builtin
from invwreath.congruence import UnsupportedFlavorError, enumerate_congruence
from invwreath.pperm import count_partial_bijections
from invwreath.presentations import build
from invwreath.words import parse_monoid_word as w

TRIV = builtin("trivial")
C2 = builtin("c2")


def test_plain_kind_counts():
    for n, want in ((2, 7), (3, 34), (4, 209)):
        assert enumerate_congruence(build("r-in", TRIV, n=n)).size == want
        assert enumerate_congruence(build("r-in-popova", TRIV, n=n)).size == want


def test_degenerate_levels():
    assert enumerate_congruence(build("r-in", TRIV, n=0)).size == 1
    assert enumerate_congruence(build("r-in", TRIV, n=1)).size == 2
    assert enumerate_congruence(build("r-in-popova", TRIV, n=1)).size == 2


def test_wreath_kind_counts():
    for base, n in ((C2, 2), (C2, 3), (builtin("sl2"), 2), (builtin("c3"), 2)):
        want = wreath.count_wreath(base.monoid, n, n)
        assert enumerate_congruence(build("r-min", base, n=n)).size == want
        assert enumerate_congruence(build("r-min-small", base, n=n)).size == want


def test_singular_counts():
    import math
    for n in (2, 3, 4):
        got = enumerate_congruence(build("r-sing-in", TRIV, n=n))
        assert got.size == count_partial_bijections(n, n) - math.factorial(n)
        assert got.empty_class_untouched
    assert enumerate_congruence(build("r-sing-tuples", C2, n=2)).size == 5
    assert enumerate_congruence(build("r-sing-tuples", C2, n=3)).size == 19
    assert enumerate_congruence(build("r-m-sing-in", C2, n=2)).size == 9
    assert enumerate_congruence(build("r-m-sing-in", C2, n=3)).size == \
        wreath.count_wreath(C2.monoid, 3, 3, "singular-monoid")


def test_category_counts():
    p = build("omega-mi", C2, cap=2)
    table = enumerate_congruence(p, headroom=2)
    assert table.status == "complete"
    for m in range(3):
        for n in range(3):
            assert table.hom_sizes[(m, n)] == wreath.hom_count(C2.monoid, m, n)


def test_tensor_unsupported():
    with pytest.raises(UnsupportedFlavorError):
        enumerate_congruence(build("xi-i", C2))


def test_nonpositive_budget_is_rejected():
    for p in (build("r-in", TRIV, n=2), build("omega-mi", C2, cap=1)):
        for budget in (0, -1):
            with pytest.raises(ValueError):
                enumerate_congruence(p, budget=budget)


def test_engine_counts_are_pinned():
    # status, class count, nodes defined at the default budget and a digest
    # of the compressed table: a change of enumeration strategy shows here,
    # and must be deliberate
    cells = (
        ("r-m-sing-in", C2, 3, 91, 538,
         "266363f4514741b5788dcb8bd310bf30e222e86cf67d8fde4091756390adeb9f"),
        ("r-sing-tuples", builtin("s3"), 3, 127, 2324,
         "387d7b70b970e4d9e87795897572ef48827783f0316605fb8d7a45a4154576aa"),
        ("r-in", TRIV, 4, 209, 436,
         "129d5d5b3f8ac38542c80656580e11defba226a2dccb87dde158da7980189453"),
        ("omega-mi", C2, 3, 264, 731,
         "f4b8c83674531a7cb790b760ce73aacce7a9eda32fe166410577e653540eb07d"),
        ("omega-mi", TRIV, 3, 90, 218,
         "75f0d5eb9429934ecc2bbc2e16ca853b9791bdbb34a167dc589f5fd8b98e844c"),
    )
    for kind, base, n, classes, nodes, digest in cells:
        if kind == "omega-mi":
            table = enumerate_congruence(build(kind, base, cap=n))
            size = sum(table.hom_sizes.values())
        else:
            table = enumerate_congruence(build(kind, base, n=n))
            size = table.size
        assert (table.status, size, table.nodes_created) == ("complete", classes, nodes), kind
        transitions = json.dumps(table.transitions).encode()
        assert hashlib.sha256(transitions).hexdigest() == digest, kind
    # these runs still outgrow their budget, and stop at it
    for kind, base, n, budget in (("r-in", TRIV, 5, 1000),
                                  ("r-sing-tuples", builtin("s3"), 4, 5000)):
        table = enumerate_congruence(build(kind, base, n=n), budget=budget)
        assert (table.status, table.nodes_created) == ("budget-exceeded", budget), kind


def test_ill_typed_relation_side_is_an_inconsistency(monkeypatch):
    # a category relation side whose edges do not compose would let the
    # engine define transitions between the wrong objects
    import types

    import invwreath.congruence as congruence_mod

    p = build("omega-mi", C2, cap=1)
    real_build = congruence_mod.build

    def tampered(kind, base, cap):
        run = real_build(kind, base, cap=cap)
        lhs, rhs = run.relations[0]
        bad = types.SimpleNamespace(src=lhs.src + 1, edges=lhs.edges)
        return dataclasses.replace(run, relations=run.relations + ((bad, rhs),))

    monkeypatch.setattr(congruence_mod, "build", tampered)
    with pytest.raises(InternalInconsistency):
        enumerate_congruence(p)


def test_budget_exhaustion_is_inconclusive_not_wrong():
    table = enumerate_congruence(build("r-in", TRIV, n=3), budget=10)
    assert table.status == "budget-exceeded"
    assert table.size is None


def test_unsound_extra_relation_collapses():
    # adding a wrong identification merges classes: strictly fewer than 7
    p = build("r-in", TRIV, n=2)
    bad = dataclasses.replace(
        p, relations=p.relations + ((w("s1 s1"), w("e1")),))
    table = enumerate_congruence(bad)
    assert table.status == "complete" and table.size < 7


def test_monotonicity_against_sound_target():
    # dropping relations can only coarsen upward (or diverge); with the
    # absorbing relation removed the count stays above the true size
    p = build("r-in", TRIV, n=2)
    kept = tuple(rel for rel in p.relations if rel != (w("e1 e2 s1"), w("e1 e2")))
    weak = dataclasses.replace(p, relations=kept)
    table = enumerate_congruence(weak, budget=2000)
    if table.status == "complete":
        assert table.size > 7
    else:
        assert table.size is None


def test_determinism():
    a = enumerate_congruence(build("r-m-sing-in", C2, n=3))
    b = enumerate_congruence(build("r-m-sing-in", C2, n=3))
    assert (a.size, a.nodes_created) == (b.size, b.nodes_created)


def test_table_solves_the_word_problem():
    import random

    from invwreath.words import eval_word

    rng = random.Random(17)
    p = build("r-min", C2, n=2)
    table = enumerate_congruence(p)
    for _ in range(500):
        u = tuple(rng.choice(p.alphabet) for _ in range(rng.randrange(0, 7)))
        v = tuple(rng.choice(p.alphabet) for _ in range(rng.randrange(0, 7)))
        semantic = eval_word(u, C2, 2) == eval_word(v, C2, 2)
        assert (table.trace(0, u) == table.trace(0, v)) == semantic


def test_trace_rejects_words_off_the_table():
    from invwreath.words import rho

    table = enumerate_congruence(build("r-min", C2, n=2))
    with pytest.raises(ValueError, match="i=5.* is not in the alphabet"):
        table.trace(0, w("s1 s5"))
    omega = enumerate_congruence(build("omega-mi", C2, cap=2))
    with pytest.raises(ValueError, match="not a path"):
        omega.trace(0, (rho(0),))


def test_category_table_traces_paths():
    from invwreath.words import eval_path

    import random

    rng = random.Random(18)
    from invwreath.words import edge_dr
    p = build("omega-mi", C2, cap=2)
    table = enumerate_congruence(p)
    by_src = {}
    for sym in p.alphabet:
        by_src.setdefault(edge_dr(sym)[0], []).append(sym)
    from invwreath.words import Path
    seen = {}
    for _ in range(300):
        src = rng.randrange(0, 3)
        cur, edges = src, []
        for _ in range(rng.randrange(0, 6)):
            sym = rng.choice(by_src[cur])
            edges.append(sym)
            cur = edge_dr(sym)[1]
        path = Path(src, tuple(edges))
        cls = table.trace(src, path.edges)
        elem = eval_path(path, C2)
        if cls in seen:
            assert seen[cls] == elem
        else:
            seen[cls] = elem
    # distinct classes name distinct elements
    assert len(set(map(lambda e: (e.tup, e.pmap), seen.values()))) == len(seen)
