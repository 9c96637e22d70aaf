"""Coset-style enumeration against brute-force cardinalities."""

import dataclasses
import gc
import hashlib
import json
import os
import shutil
import subprocess
import sys
import weakref
from functools import partial
from itertools import takewhile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import invwreath
from invwreath import congruence, wreath
from invwreath.base import BUILTIN_NAMES, InternalInconsistency, builtin
from invwreath.congruence import UnsupportedFlavorError, enumerate_congruence, walk_visits
from invwreath.presentations import build
from invwreath.verify import check_generation, target_size, verify_category, verify_presentation
from invwreath.words import Path as TypedPath
from invwreath.words import e_, edge_dr, lam, rho
from invwreath.words import parse_monoid_word as w
from oracles import rows, walk_starts

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
        assert got.size == wreath.count_wreath(TRIV.monoid, n, n) - math.factorial(n)
    assert enumerate_congruence(build("r-sing-tuples", C2, n=2)).size == 5
    assert enumerate_congruence(build("r-sing-tuples", C2, n=3)).size == 19
    assert enumerate_congruence(build("r-m-sing-in", C2, n=2)).size == 9
    assert enumerate_congruence(build("r-m-sing-in", C2, n=3)).size == \
        wreath.count_wreath(C2.monoid, 3, 3, "singular-monoid")


def test_semigroup_run_keeps_the_empty_word_apart():
    # a relation that equates a letter with the empty word reaches into the
    # empty word's class, which a semigroup run must never do
    p = build("r-sing-in", TRIV, n=2)
    bad = dataclasses.replace(p, relations=p.relations + ((w("f1,2"), w("1")),))
    with pytest.raises(InternalInconsistency, match="empty-word class was touched"):
        enumerate_congruence(bad)


def _python_engine(monkeypatch):
    """Run the enumerations of the calling test on the Python engine."""
    monkeypatch.setattr(congruence, "_native", lambda: None)


def test_a_transition_into_the_empty_words_class_is_an_inconsistency(monkeypatch):
    _python_engine(monkeypatch)
    # the empty word's node is the least node, which no merge moves, so
    # its class is class 0 and a transition into it is the one sign that a
    # semigroup run touched it.  A stand-in engine sends one entry of a
    # sound run's compressed table there; a monoid run, whose class 0 is
    # its identity, takes the same table as it is
    class Rewired(congruence._Engine):
        def compressed(self):
            entries, starts, objects = super().compressed()
            entries[starts[-1]] = 0
            return entries, starts, objects

    sound = build("r-sing-in", TRIV, n=3)
    assert enumerate_congruence(sound).size == 28
    monkeypatch.setattr(congruence, "_Engine", Rewired)
    with pytest.raises(InternalInconsistency, match="empty-word class was touched"):
        enumerate_congruence(sound)
    assert enumerate_congruence(build("r-in", TRIV, n=3)).size == 34


def _descent(cap, m):
    """The path ``rho_{cap-1} ... rho_m`` from the root ``cap`` down to ``m``."""
    return tuple(rho(k) for k in range(cap - 1, m - 1, -1))


def _reached(table, start):
    """The classes that the class ``start`` reaches, breadth-first."""
    queue, seen = [start], {start}
    transitions = rows(table)
    for c in queue:
        for t in transitions[c]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return queue


def test_category_counts():
    # the run is rooted at the cap and counts the hom-sets out of it;
    # object m's are the classes that the class of rho_{C-1} ... rho_m
    # reaches, which verify reads off generation's walk from that class:
    # every base with a table, at caps 0-4 (s3 at 0-3)
    for name in BUILTIN_NAMES:
        base = builtin(name)
        if base.monoid is None:
            continue
        for cap in range(4 if name == "s3" else 5):
            p = build("omega-mi", base, cap=cap)
            table = enumerate_congruence(p, 200_000)
            assert table.status == "complete" and table.root == cap, (name, cap)
            assert table.hom_sizes == {(cap, n): wreath.hom_count(base.monoid, cap, n)
                                       for n in range(cap + 1)}, (name, cap)
            orbits = check_generation(p, table).orbits
            assert len(orbits) == cap + 1, (name, cap)
            for m, orbit in enumerate(orbits):
                objects = [table.objects[c]
                           for c in _reached(table, table.trace(cap, _descent(cap, m)))]
                assert sum(orbit.values()) == len(objects), (name, cap, m)
                for n in range(cap + 1):
                    want = wreath.hom_count(base.monoid, m, n)
                    assert orbit[n] == objects.count(n) == want, (name, cap, m, n)


def test_tensor_unsupported():
    with pytest.raises(UnsupportedFlavorError):
        enumerate_congruence(build("xi-i", C2))


def test_nonpositive_budget_is_rejected():
    for p in (build("r-in", TRIV, n=2), build("omega-mi", C2, cap=1)):
        for budget in (0, -1):
            with pytest.raises(ValueError):
                enumerate_congruence(p, budget=budget)


def _digest(table):
    # the rows widened through the column map to one entry per generator,
    # -1 where it does not leave the class's object: the digests pinned
    # below were taken on that layout, so they pin the table node for node
    wide = [[row[table.columns[m][sym]] if sym in table.columns[m] else -1
             for sym in table.gen_index] for row, m in zip(rows(table), table.objects)]
    return table.nodes_created, hashlib.sha256(json.dumps(wide).encode()).hexdigest()


# status, class count, nodes defined at the default budget and a digest
# of the compressed table: a change of enumeration strategy shows here,
# and must be deliberate
_PINNED = (
    ("r-m-sing-in", C2, 3, 91, 291,
     "5848d3cac45136d6e179b3a4a77d993a30b7782f686f5c6527c8f6940697fe52"),
    ("r-sing-tuples", builtin("s3"), 3, 127, 148,
     "373b0fe0b5a3152f734ea4b9f678489ff8e97ab4f4500ef3766ce32e832e27a3"),
    ("r-sing-tuples", builtin("s3"), 4, 1105, 1744,
     "bb28c47b9cf93fc2f5b3873aaf3944b933003929d86551ed9925533bb5087d10"),
    ("r-in", TRIV, 4, 209, 451,
     "7856cd382a055704737542c54a69c94443d19e8abc92294bd6426424695637b4"),
    # a category run is rooted at its cap: the classes out of object 3
    ("omega-mi", C2, 3, 184, 518,
     "7bbb73c39215990f772c04bd0376796c1222a06e9599f7050242578000adcb05"),
    ("omega-mi", TRIV, 3, 52, 115,
     "65ee77535084428bfa259fad8fe0554987c1350240ad56ca23dbe883363c82af"),
    # the singular kind over the trivial base: 138 relations from one source
    ("r-sing-in", TRIV, 4, 185, 628,
     "977c83b585a6051cfd2464a935d5b172b29f47dd9a04f0f6597de083b099106b"),
)


def _check_pins(cells):
    for kind, base, n, classes, nodes, digest in cells:
        if kind == "omega-mi":
            table = enumerate_congruence(build(kind, base, cap=n))
            size = sum(table.hom_sizes.values())
        else:
            table = enumerate_congruence(build(kind, base, n=n))
            size = table.size
        assert (table.status, size) == ("complete", classes), kind
        assert _digest(table) == (nodes, digest), kind


def test_engine_counts_are_pinned(monkeypatch):
    # on the native engine, where it builds, then on the Python one
    for engine in ("native", "python"):
        if engine == "python":
            _python_engine(monkeypatch)
        _check_pins(_PINNED)
        # these runs still outgrow their budget, and stop at it
        for kind, base, n, budget in (("r-in", TRIV, 5, 1000),
                                      ("r-sing-tuples", builtin("s3"), 4, 1000)):
            table = enumerate_congruence(build(kind, base, n=n), budget=budget)
            assert (table.status, table.nodes_created) == ("budget-exceeded", budget), \
                (engine, kind)
        # and a run completes at a budget of its node count, and not one less
        p = build("r-in", TRIV, n=4)
        assert enumerate_congruence(p, budget=451).status == "complete", engine
        table = enumerate_congruence(p, budget=450)
        assert (table.status, table.nodes_created) == ("budget-exceeded", 450), engine


def test_a_run_keeps_nothing_alive(monkeypatch):
    _python_engine(monkeypatch)
    # runs in one process share nothing: a first run, a second one and one
    # after another presentation's run give one table, node for node
    between = build("omega-mi", C2, cap=4)
    for p, pinned in (
            (build("r-sing-in", TRIV, n=4),
             (628, "977c83b585a6051cfd2464a935d5b172b29f47dd9a04f0f6597de083b099106b")),
            (build("omega-mi", C2, cap=3),
             (518, "7bbb73c39215990f772c04bd0376796c1222a06e9599f7050242578000adcb05"))):
        assert _digest(enumerate_congruence(p)) == pinned
        assert _digest(enumerate_congruence(p)) == pinned
        enumerate_congruence(between)
        assert _digest(enumerate_congruence(p)) == pinned

    # and with the collector off, each run's engine is freed as soon as
    # the run returns, complete or not
    engines = []

    class Spy(congruence._Engine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(weakref.ref(self))

    monkeypatch.setattr(congruence, "_Engine", Spy)
    gc.disable()
    try:
        assert enumerate_congruence(p).status == "complete"
        assert enumerate_congruence(p, budget=100).status == "budget-exceeded"
    finally:
        gc.enable()
    assert len(engines) == 2 and all(ref() is None for ref in engines)


def test_a_merged_node_keeps_no_row(monkeypatch):
    _python_engine(monkeypatch)
    # a merge drops the merged node's row: every node merged away in a run
    # holds None, not a list of its own.  The rows are read when the run
    # ends, before compression rewrites them
    merged = []

    class Keep(congruence._Engine):
        def compressed(self):
            merged.extend(self.rows[i] for i, a in enumerate(self.parent) if a != i)
            return super().compressed()

    monkeypatch.setattr(congruence, "_Engine", Keep)
    assert enumerate_congruence(build("r-sing-in", TRIV, n=4)).status == "complete"
    assert len(merged) > 100
    assert all(row is None for row in merged)


def test_cells_in_one_process_report_what_fresh_processes_do(monkeypatch):
    _python_engine(monkeypatch)
    # cells whose presentations share relations (r-sing-in's do not depend
    # on the base), run one after another in this process, report what
    # each reports in a fresh process
    cells = [("r-sing-in", b, "--n", 4) for b in ("trivial", "c2", "s3")]
    cells += [("omega-mi", "c2", "--cap", cap) for cap in (2, 3, 4)]
    env = {k: v for k, v in os.environ.items() if k != "INVWREATH_BUDGET"}
    env["PYTHONPATH"] = str(Path(invwreath.__file__).parents[1])
    cold = [json.loads(subprocess.run(
        [sys.executable, "-m", "invwreath", "verify", "--kind", kind, "--monoid", base,
         option, str(level), "--format", "json"],
        env=env, capture_output=True, text=True, check=True, timeout=60).stdout)
        for kind, base, option, level in cells]
    warm = [(verify_category(level, builtin(base)) if kind == "omega-mi"
             else verify_presentation(kind, builtin(base), level)).to_json()
            for kind, base, _, level in cells]
    assert warm == cold
    assert all(report["verdict"] == "pass" for report in warm)
    # and the pinned omega-mi tables after the runs above
    _check_pins([cell for cell in _PINNED if cell[0] == "omega-mi"])


def _require_native():
    """The native library, or a skip where it does not build."""
    lib = congruence._native()
    if lib is None:
        pytest.skip("the native engine does not build on this host")
    return lib


def _outcome(p, budget):
    """The table of a run, or the message of the inconsistency it raises."""
    try:
        return enumerate_congruence(p, budget)
    except InternalInconsistency as exc:
        return str(exc)


def _on_both_engines(p, budget=None):
    """The outcomes of one run on the native engine and on the Python one."""
    native = _outcome(p, budget)
    with pytest.MonkeyPatch.context() as mp:
        _python_engine(mp)
        return native, _outcome(p, budget)


# the cells of the benchmark's workloads, the category ones at its budget
_BENCHMARK_CELLS = (
    ("r-in", TRIV, 6, None), ("r-in-popova", TRIV, 6, None), ("r-min", builtin("c3"), 4, None),
    ("r-sing-tuples", builtin("s3"), 4, None), ("r-sing-in", TRIV, 5, None),
    ("r-m-sing-in", C2, 4, None), ("omega-mi", C2, 4, 40_000), ("omega-mi", TRIV, 5, 40_000),
)


def test_both_engines_give_one_table():
    # every field of the table, node for node, on the pinned cells and the
    # benchmark's
    _require_native()
    cells = [(kind, base, n, None) for kind, base, n, *_ in _PINNED] + list(_BENCHMARK_CELLS)
    for kind, base, n, budget in cells:
        p = build(kind, base, cap=n) if kind == "omega-mi" else build(kind, base, n=n)
        native, python = _on_both_engines(p, budget)
        assert native.status == "complete" and native == python, (kind, n)
    # a budget beyond C's int is clamped, which no run can reach
    native, python = _on_both_engines(build("r-in", TRIV, n=3), 2**40)
    assert native.size == 34 and native == python


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_both_engines_agree_on_weakened_presentations(data):
    # relations dropped and, on a flat kind, a relation between two random
    # words added, at a budget that may run out: the two engines give one
    # table, or refuse the run with one message
    _require_native()
    kind, base, n = data.draw(st.sampled_from((
        ("r-in", TRIV, 3), ("r-sing-in", TRIV, 3), ("r-min", C2, 2), ("r-sing-tuples", C2, 3),
        ("r-m-sing-in", C2, 3), ("omega-mi", C2, 2), ("omega-mi", TRIV, 3))))
    p = build(kind, base, cap=n) if kind == "omega-mi" else build(kind, base, n=n)
    drop = set(data.draw(st.lists(st.integers(0, len(p.relations) - 1), max_size=6)))
    rels = tuple(r for k, r in enumerate(p.relations) if k not in drop)
    if kind != "omega-mi" and data.draw(st.booleans()):
        word = st.lists(st.sampled_from(p.alphabet), max_size=4).map(tuple)
        rels += ((data.draw(word), data.draw(word)),)
    weak = dataclasses.replace(p, relations=rels)
    native, python = _on_both_engines(weak, data.draw(st.integers(1, 3000)))
    event(native if isinstance(native, str) else native.status)
    assert native == python
    # and the two walks of generation give one order on a complete table,
    # whose images may repeat
    if not isinstance(native, str) and native.status == "complete":
        _check_walks(weak, native)


def _check_walks(p, table):
    """The native walk and the Python one give one order over ``table``,
    from the start classes of generation's walks, and each visit follows
    its parent visit's column, or is a start of its walk."""
    walks = walk_starts(p, table)
    native = walk_visits(table, walks)
    with pytest.MonkeyPatch.context() as mp:
        _python_engine(mp)
        python = walk_visits(table, walks)
    assert native == python, p.kind
    classes, walk = native[0], native[3]
    flat = [(w, c) for w, begin in enumerate(walks) for c in begin]
    for c, v, col, w in zip(*native):
        if v < 0:
            assert (col, flat[~v]) == (-1, (w, c))
        else:
            assert v < len(classes) and walk[v] == w
            assert table.entries[table.starts[classes[v]] + col] == c
    return native


def test_both_walks_give_one_order():
    # generation's visit order, native and in Python, on the pinned cells
    # and the benchmark's, among them the category walks, one per object
    _require_native()
    cells = [(kind, base, n, None) for kind, base, n, *_ in _PINNED] + list(_BENCHMARK_CELLS)
    for kind, base, n, budget in cells:
        p = build(kind, base, cap=n) if kind == "omega-mi" else build(kind, base, n=n)
        table = enumerate_congruence(p, budget)
        walk = _check_walks(p, table)[3]
        # the last walk, from the root's class or the letters' classes,
        # visits every element's class once
        size = sum(table.hom_sizes.values()) if kind == "omega-mi" else table.size
        assert walk.count(len(walk_starts(p, table)) - 1) == size, (kind, n)
    # a semigroup walk whose start class repeats: with f1,2 = f2,1 added,
    # r-sing-in over the trivial base at n=3 starts twice at one class,
    # and visits it once, as the first of the two starts
    p = build("r-sing-in", TRIV, n=3)
    weak = dataclasses.replace(p, relations=p.relations + ((w("f1,2"), w("f2,1")),))
    table = enumerate_congruence(weak)
    starts = walk_starts(weak, table)[0]
    assert table.status == "complete" and len(set(starts)) < len(starts)
    parents = _check_walks(weak, table)[1]
    firsts = [~k for k, c in enumerate(starts) if c not in starts[:k]]
    assert list(takewhile((0).__gt__, parents)) == firsts


def test_a_node_merged_before_its_row_is_full_is_processed_no_further(monkeypatch):
    # in omega-mi/c2 at cap 2, nodes 28 and 39 are merged away by their
    # own relations while their rows still have empty entries.  An engine
    # that went on with a merged node's relations, or filled its row,
    # would define more than the 45 nodes that both engines define
    _require_native()
    p = build("omega-mi", C2, cap=2)
    native, python = _on_both_engines(p)
    assert native == python and native.nodes_created == 45
    early = []

    class Spy(congruence._Engine):
        def relation(self, idx, *args):
            self.idx = idx
            return super().relation(idx, *args)

        def merge(self, a, b):
            row = self.rows[self.idx]       # a merged node's row becomes None
            super().merge(a, b)
            if self.parent[self.idx] != self.idx and 0 in row:
                early.append(self.idx)

    _python_engine(monkeypatch)
    monkeypatch.setattr(congruence, "_Engine", Spy)
    assert enumerate_congruence(p) == python
    assert early == [28, 39]


def test_the_native_engine_refuses_a_merge_of_two_objects():
    # object 1's one generator goes to object 0.  Passed straight to a run,
    # past the shape check, the first relation defines it at the root and
    # the second equates its end, at object 0, with the root, at object 1
    targets, rels = [[], [0]], {1: (((0,), (0,)), ((0,), ()))}
    for run in (partial(congruence._native_run, _require_native()), congruence._python_run):
        with pytest.raises(InternalInconsistency,
                           match="attempt to merge nodes of different types"):
            run(targets, rels, 1, 100)


def _compiler_on_path():
    if not any(map(shutil.which, congruence._COMPILERS)):
        pytest.skip("no C compiler on PATH")


def test_the_native_engine_loads_wherever_a_compiler_is_found():
    # so that no host with a C compiler, CI's included, falls back to the
    # Python engine unnoticed
    _compiler_on_path()
    assert congruence._native() is not None


def test_the_native_library_is_built_once_into_the_cache(tmp_path):
    # a process builds the library at its first enumeration, not at
    # import, into $XDG_CACHE_HOME/invwreath under its final name, leaving
    # nothing else there; the next process loads it as it is; and where the
    # cache cannot be written, a process builds it for itself alone
    _compiler_on_path()
    probe = ("import sys; from invwreath import cli, congruence; "
             "lazy = 'ctypes' not in sys.modules; "
             "print(lazy, congruence._native() is not None)")

    def loads(cache):
        env = dict(os.environ, XDG_CACHE_HOME=str(cache),
                   PYTHONPATH=str(Path(invwreath.__file__).parents[1]))
        return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=120).stdout == "True True\n"

    assert loads(tmp_path)
    built = list((tmp_path / "invwreath").iterdir())
    assert len(built) == 1 and built[0].name.startswith("_hlt-") and built[0].suffix == ".so"
    stamp = built[0].stat().st_mtime_ns
    assert loads(tmp_path)
    assert list((tmp_path / "invwreath").iterdir()) == built
    assert built[0].stat().st_mtime_ns == stamp
    blocked = tmp_path / "a-file"
    blocked.write_text("")
    assert loads(blocked) and blocked.read_text() == ""


def test_a_compiler_that_fails_leaves_the_python_engine(tmp_path):
    # a cc on PATH that exits 1: no library loads, the Python engine
    # verifies, and nothing is left in the cache
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    cc = bin_dir / "cc"
    cc.write_text("#!/bin/sh\nexit 1\n")
    cc.chmod(0o755)
    cache = tmp_path / "cache"
    cache.mkdir()
    env = dict(os.environ, PATH=str(bin_dir), XDG_CACHE_HOME=str(cache),
               PYTHONPATH=str(Path(invwreath.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, *argv], env=env, capture_output=True,
                              text=True, timeout=120)

    probe = run("-c", "from invwreath import congruence; print(congruence._native() is None)")
    assert (probe.returncode, probe.stdout) == (0, "True\n"), probe.stderr
    verified = run("-m", "invwreath", "verify", "--kind", "r-sing-in", "--monoid", "trivial",
                   "--n", "4")
    assert verified.returncode == 0 and "pass" in verified.stdout, verified.stderr
    assert not [f for f in cache.rglob("*") if f.is_file()]


def test_table_does_not_depend_on_the_listing_of_relations():
    # the engine traces each relation once, in an order and orientation of
    # its own: a shuffled list with every other relation turned round and
    # one relation repeated the other way round gives the same table, node
    # for node
    import random

    for p in (build("r-m-sing-in", C2, n=3), build("omega-mi", C2, cap=3)):
        want = _digest(enumerate_congruence(p))
        rels = [(v, u) if k % 2 else (u, v) for k, (u, v) in enumerate(p.relations)]
        random.Random(11).shuffle(rels)
        u, v = rels[0]
        listed = dataclasses.replace(p, relations=tuple(rels) + ((v, u),))
        assert _digest(enumerate_congruence(listed)) == want, p.kind


def _class_at(table, c, word):
    for sym in word:
        k = table.columns[table.objects[c]].get(sym)
        if k is None:
            return None
        c = table.entries[table.starts[c] + k]
    return c


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tables_with_relations_dropped_keep_the_invariants(data):
    # what any correct enumeration gives on a complete table: from every
    # class both sides of every relation end in one class, every class is
    # reachable from the root, a row has one defined entry per generator
    # leaving the class's target object, read through the column map, and
    # dropping relations never gives fewer classes than the structure
    # presented by all of them has out of the root
    kind, base, n = data.draw(st.sampled_from((
        ("r-in", TRIV, 3), ("r-sing-tuples", C2, 3), ("r-m-sing-in", C2, 3), ("omega-mi", C2, 2))))
    p = build(kind, base, cap=n) if kind == "omega-mi" else build(kind, base, n=n)
    drop = set(data.draw(st.lists(st.integers(0, len(p.relations) - 1), max_size=4)))
    weak = dataclasses.replace(
        p, relations=tuple(r for k, r in enumerate(p.relations) if k not in drop))
    table = enumerate_congruence(weak, budget=2000)
    if table.status != "complete":
        assert table.status == "budget-exceeded"
        return
    if kind == "omega-mi":
        dr = [edge_dr(sym) for sym in weak.alphabet]
        sides = [(lhs.src, lhs.edges, rhs.edges) for lhs, rhs in weak.relations]
        size = sum(table.hom_sizes.values())
        want = sum(wreath.hom_count(base.monoid, n, k) for k in range(n + 1))
    else:
        dr = [(0, 0)] * len(weak.alphabet)
        sides = [(0, lhs, rhs) for lhs, rhs in weak.relations]
        size, want = table.size, target_size(p)
    # each class's target object, breadth-first from the root's class 0
    transitions = rows(table)
    target = {0: table.root}
    queue = list(target)
    for c in queue:
        assert table.objects[c] == target[c]
        cols = table.columns[target[c]]
        leaving = [g for g in range(len(dr)) if dr[g][0] == target[c]]
        assert list(cols) == [weak.alphabet[g] for g in leaving]
        assert list(cols.values()) == list(range(len(leaving)))
        row = transitions[c]
        assert len(row) == len(leaving)
        for g in leaving:
            t = row[cols[weak.alphabet[g]]]
            assert 0 <= t < len(transitions)
            if t not in target:
                target[t] = dr[g][1]
                queue.append(t)
            assert target[t] == dr[g][1]
    assert len(target) == len(transitions)
    for c, obj in target.items():
        for src, lhs, rhs in sides:
            if src == obj:
                end = _class_at(table, c, lhs)
                assert end is not None and end == _class_at(table, c, rhs)
    assert size >= want


def test_ill_typed_relation_side_is_an_inconsistency():
    # a category relation side whose edges do not compose would let the
    # engine define transitions between the wrong objects
    import types

    p = build("omega-mi", C2, cap=1)
    lhs, rhs = p.relations[0]
    bad = types.SimpleNamespace(src=lhs.src + 1, edges=lhs.edges)
    with pytest.raises(InternalInconsistency):
        enumerate_congruence(dataclasses.replace(p, relations=p.relations + ((bad, rhs),)))


def test_a_relation_between_two_objects_is_a_mistyped_merge(monkeypatch):
    _python_engine(monkeypatch)
    # each side is a well-typed path from object 1, but rho0 ends at 0 and
    # e1:1 at 1: the run refuses the relation before it could merge their
    # nodes
    p = build("omega-mi", C2, cap=1)
    bad = (TypedPath(1, (rho(0),)), TypedPath(1, (e_(1, 1),)))
    with pytest.raises(InternalInconsistency,
                       match="relation rho0 = e1:1 does not have one source and one target"):
        enumerate_congruence(dataclasses.replace(p, relations=p.relations + (bad,)))


def test_a_merge_of_two_objects_is_an_inconsistency(monkeypatch):
    _python_engine(monkeypatch)
    # the shape check above refuses every relation that could ask for it,
    # so a stand-in engine asks directly: after a sound run of omega-mi/c2
    # at cap 1 it merges the root, at object 1, with a node at object 0
    class Mistyped(congruence._Engine):
        def run(self, rels_by_src, root):
            super().run(rels_by_src, root)
            self.merge(1, self.robj.index(0))

    p = build("omega-mi", C2, cap=1)
    assert enumerate_congruence(p).status == "complete"
    monkeypatch.setattr(congruence, "_Engine", Mistyped)
    with pytest.raises(InternalInconsistency, match="attempt to merge nodes of different types"):
        enumerate_congruence(p)


def test_a_side_that_leaves_the_other_sides_target_is_refused(monkeypatch):
    _python_engine(monkeypatch)
    # lam0 = i0: both sides are well-typed paths from object 0, one to 1
    # and one to 0.  A trace of the empty side stops at once, so only the
    # comparison of the two sides' ends can refuse it
    p = build("omega-mi", C2, cap=1)
    bad = (TypedPath(0, (lam(0),)), TypedPath(0, ()))
    with pytest.raises(InternalInconsistency,
                       match="relation lam0 = i0 does not have one source and one target"):
        enumerate_congruence(dataclasses.replace(p, relations=p.relations + (bad,)))


def test_category_run_enumerates_the_presentation_it_is_given():
    # half the relations of omega-mi/c2 at cap 2 no longer present the 23
    # labelled partial bijections out of object 2: the run outgrows the
    # budget that the full presentation completes in with 45 nodes
    p = build("omega-mi", C2, cap=2)
    assert enumerate_congruence(p, budget=5000).nodes_created == 45
    half = dataclasses.replace(p, relations=p.relations[::2])
    assert enumerate_congruence(half, budget=5000).status == "budget-exceeded"


def test_budget_exhaustion_is_inconclusive_not_wrong():
    table = enumerate_congruence(build("r-in", TRIV, n=3), budget=10)
    assert table.status == "budget-exceeded"
    assert table.size is None
    # an incomplete table has no classes to trace to, or to walk
    with pytest.raises(ValueError, match="budget-exceeded"):
        table.trace(0, ())
    with pytest.raises(ValueError, match="cannot walk a budget-exceeded table"):
        walk_visits(table, [[0]])
    # nor has a complete one a class past its last
    table = enumerate_congruence(build("r-in", TRIV, n=3))
    for start in (-1, 34):
        with pytest.raises(ValueError, match="not a class of the table"):
            walk_visits(table, [[0], [start]])


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
    table = enumerate_congruence(build("r-min", C2, n=2))
    with pytest.raises(ValueError, match="i=5.* is not in the alphabet"):
        table.trace(0, w("s1 s5"))
    # the category run's one root is its cap; object 0 is read after the
    # path rho1 rho0 down to it
    omega = enumerate_congruence(build("omega-mi", C2, cap=2))
    down = _descent(2, 0)
    with pytest.raises(ValueError, match="not a path"):
        omega.trace(2, down + (rho(0),))
    # a path across objects reaches the class of its element, and a
    # letter that does not leave the object reached is off the table
    up = (lam(0), lam(1), rho(1))
    assert omega.objects[omega.trace(2, down + up)] == 1
    assert omega.trace(2, down + up) == omega.trace(2, down + (lam(0),))
    with pytest.raises(ValueError, match="not a path"):
        omega.trace(2, down + (lam(0), rho(1)))
    with pytest.raises(ValueError, match="no root at object 5"):
        omega.trace(5, ())
    with pytest.raises(ValueError, match="no root at object 0"):
        omega.trace(0, ())
    with pytest.raises(ValueError, match="no root at object 1"):
        table.trace(1, ())


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
    # a path from object m is read from the root 2 after rho1 ... rhom, and
    # one class reached from one object is one element
    seen = {}
    for _ in range(300):
        src = rng.randrange(0, 3)
        cur, edges = src, []
        for _ in range(rng.randrange(0, 6)):
            sym = rng.choice(by_src[cur])
            edges.append(sym)
            cur = edge_dr(sym)[1]
        path = TypedPath(src, tuple(edges))
        cls = src, table.trace(2, _descent(2, src) + path.edges)
        elem = eval_path(path, C2)
        if cls in seen:
            assert seen[cls] == elem
        else:
            seen[cls] = elem
    # distinct classes name distinct elements
    assert len(set(map(lambda e: (e.tup, e.pmap), seen.values()))) == len(seen)
