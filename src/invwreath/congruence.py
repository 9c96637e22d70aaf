"""Coset-style enumeration of presented monoids, semigroups and categories.

The engine builds the right Cayley graph of the presented structure: nodes
are classes of words (or typed paths), edges are right multiplication by a
generator.  Every relation is traced at every node; traces that end at
distinct nodes queue a coincidence, which is processed to a fixpoint by a
union-find merge that unions the rows.  Nodes are defined breadth-first:
each node, in creation order, first has all relations traced (filling
missing transitions along the way) and then has its remaining row entries
filled with fresh nodes.  On completion the alive-node count is the
cardinality of the presented structure.

HLT is sensitive to the order of the relations, so the engine fixes its
own.  Each relation is written with its longer side first (of two equal
lengths, the one with the smaller letter ids), a relation listed twice,
either way round, is traced once, and each source object's relations are
traced short first: by the longer side's length, then the total length,
then the letter ids.  Short relations such as ``e_j x = x`` then identify
paths before the long ones define them, and the table does not depend on
how a presentation lists its relations.

The Python engine, ``_Engine``, is _hlt.c written again in Python,
function for function.  Each node first reads the distinct prefixes of
its relations' sides once, and only a relation whose sides do not end at
one defined node is walked again and filled.

Native engine.  Where a C compiler is on ``PATH`` (``cc``, ``gcc`` or
``clang``), runs go to _hlt.c, shipped in the package, compiled once and
loaded through ``ctypes`` at the first enumeration in a process.  Its
semantics are the engine's below, node for node (live nodes in creation
order; each relation walked and filled, the ``u`` side first; a node
merged away is processed no further; merges off a stack keep the smaller
index; the budget counts node indices), so every ``CongruenceTable``
field is the same.  A complete table comes back flat, its rows packed in
class order, each of its arrays copied out of C at once.  The library
also walks a complete table breadth-first for generation
(``walk_visits``), in the order of a Python walk that is its reference
and its fallback.  The library is built once per source hash into
``$XDG_CACHE_HOME/invwreath`` (by default ``~/.cache/invwreath``), under a
temporary name and then renamed; where that cannot be written, a process
builds its own in a temporary directory.  The Python engine runs where
no compiler is found or the library does not build or load, and the
tests take it as the reference.  Ctrl-C is served only when a native run
returns, and the node budget bounds each run.

One typed engine serves every flavor, with one root per run: object 0
for a monoid or semigroup, whose every generator goes ``0 -> 0``, and
the cap for a category.  Nodes carry their target objects, generators
go between objects, and the budget bounds the nodes of the one root.
Each generator has a column within its source object, in alphabet order,
and a row holds exactly the columns of its node's target object, from
the engine to the returned table; relations are sorted and oriented on
alphabet ids, then rewritten to columns.  At ``omega-mi``/c2 cap 6, 18
of the 69 letters leave the widest object.

For semigroup presentations the same run is performed over all words
including the empty one; since no relation side is empty, the root class
stays a singleton and is excluded from the reported size.

A category run is rooted at its cap ``C`` alone and reports the hom-sets
``(C, n)``; ``verify`` reads each lower hom-set ``(m, n)`` from the classes
that ``C`` reaches through ``ρ_{C-1} ⋯ ρ_m``, and says why the counts at
the cap need no wider build.
"""

from __future__ import annotations

import os
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain
from pathlib import Path

from .base import InternalInconsistency
from .presentations import Presentation
from .words import edge_dr, path_text

__all__ = [
    "UnsupportedFlavorError",
    "CongruenceTable",
    "enumerate_congruence",
    "walk_visits",
    "node_budget",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 50_000


class UnsupportedFlavorError(ValueError):
    """Completeness enumeration is not available for this flavor."""


class _BudgetExceeded(Exception):
    pass


@dataclass
class CongruenceTable:
    """Outcome of one enumeration run.

    On completion the compressed right Cayley graph is attached, flat:
    class ``c`` ends at object ``objects[c]``, and its row, one entry per
    generator leaving that object, is ``entries[starts[c]:]``, so
    ``entries[starts[c] + k]`` is the class it reaches by the generator in
    column ``k`` of that object, every entry defined.  The rows are packed
    in class order.  ``columns[m]`` maps the symbols of the generators
    leaving object ``m``, in alphabet order, to their columns 0, 1, ....
    ``gen_index`` maps alphabet symbols to their ids in alphabet order, and
    ``root`` is the one start object, whose identity is class 0: 0 for a
    flat flavor, which every generator leaves, and the cap for a category.
    """

    status: str                       # "complete" | "budget-exceeded"
    size: int | None = None           # monoid/semigroup class count
    hom_sizes: dict | None = None     # category: (cap, tgt) -> class count
    nodes_created: int = 0
    entries: array | None = None      # array("i")
    starts: array | None = None       # array("q"), one per class
    root: int | None = None
    gen_index: dict | None = None
    columns: list | None = None
    objects: array | None = None      # array("i"), one per class

    def trace(self, start_object: int, word) -> int:
        """Class reached from the identity at ``start_object`` by reading
        ``word`` (a sequence of alphabet symbols).  Raises ``ValueError``
        when ``start_object`` has no root, or when ``word`` is not a path
        from there: a transition is missing or a symbol is outside the
        alphabet, and when the table is not complete."""
        if self.status != "complete":
            raise ValueError(f"cannot trace on a {self.status} table")
        if start_object != self.root:
            raise ValueError(f"no root at object {start_object}")
        cur = 0
        columns, objects, entries, starts = self.columns, self.objects, self.entries, self.starts
        try:
            for sym in word:
                cur = entries[starts[cur] + columns[objects[cur]][sym]]
        except KeyError:
            if sym not in self.gen_index:
                raise ValueError(f"{sym!r} is not in the alphabet") from None
            raise ValueError("the word is not a path from the start object") from None
        return cur


class _Engine:
    """Table plus union-find over local generator columns: _hlt.c's engine
    written again in Python, function for function.

    Every node carries its target object, and its row has one column per
    generator leaving it: ``targets[m][k]`` is where the generator in
    column ``k`` of object ``m`` goes.  Relation sides are well-typed
    paths, so a walk reads and defines only columns of the row it stands
    on.  Node 0 is reserved, with no row, and 0 means "undefined"; a
    merged node's row becomes ``None``.  The one root's part of the table
    has at most ``budget`` nodes.
    """

    def __init__(self, targets, budget: int):
        self.targets = targets
        self.budget = budget
        self.rows: list = [None]
        self.parent: list[int] = [0]
        self.robj: list[int] = [-1]

    def new_node(self, r: int) -> int:
        idx = len(self.rows)
        if idx > self.budget:
            raise _BudgetExceeded
        self.rows.append([0] * len(self.targets[r]))
        self.parent.append(idx)
        self.robj.append(r)
        return idx

    def find(self, a: int) -> int:
        parent = self.parent
        root = a
        while parent[root] != root:
            root = parent[root]
        while parent[a] != root:
            parent[a], a = root, parent[a]
        return root

    def merge(self, a: int, b: int):
        """Union classes, keeping the smaller index; union rows, queueing
        secondary coincidences until stable."""
        rows, parent, find = self.rows, self.parent, self.find
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            if self.robj[a] != self.robj[b]:
                raise InternalInconsistency("attempt to merge nodes of different types")
            parent[b] = a
            row_b = rows[b]
            rows[b] = None
            row_a = rows[a]
            for x, t in enumerate(row_b):
                if t:
                    s = row_a[x]
                    if not s:
                        row_a[x] = t
                    elif s != t:
                        queue.append((s, t))

    def walk(self, a: int, w) -> tuple[int, int]:
        """Follow ``w`` from the live node ``a`` as far as it is defined:
        the node reached and the letters read.  Each entry read is written
        back as its class."""
        rows, parent = self.rows, self.parent
        for i, x in enumerate(w):
            row = rows[a]
            t = row[x]
            if not t:
                return a, i
            if parent[t] != t:
                t = row[x] = self.find(t)
            a = t
        return a, len(w)

    def relation(self, idx: int, u, v) -> bool:
        """Make ``u = v`` hold at the live node ``idx``: walk both sides,
        then deduce a missing last letter, merge the two ends, or define
        the first missing entry, the ``u`` side first, and go on from the
        fresh node.  Returns whether ``idx`` was merged into an earlier
        node."""
        rows, parent = self.rows, self.parent
        lu, lv = len(u), len(v)
        a, i = self.walk(idx, u)
        b, j = self.walk(idx, v)
        while True:
            if i == lu:
                if j == lv:
                    if a == b:
                        return False
                    self.merge(a, b)
                    return parent[idx] != idx
                if j == lv - 1:
                    rows[b][v[j]] = a
                    return False
            elif j == lv and i == lu - 1:
                rows[a][u[i]] = b
                return False
            node, gen = (a, u[i]) if i < lu else (b, v[j])
            fresh = rows[node][gen] = self.new_node(self.targets[self.robj[node]][gen])
            # the one new entry extends whichever sides stopped at it
            if i < lu and a == node and u[i] == gen:
                a, i = fresh, i + 1
            if j < lv and b == node and v[j] == gen:
                b, j = fresh, j + 1

    def run(self, rels_by_src: dict, root: int):
        """The root at object ``root``, then nodes in creation order.  A
        node first reads the distinct prefixes of its object's relation
        sides (``_prefixes``) into ``ends``, each one letter past a shorter
        one; a relation whose two sides end at one defined node holds for
        good, and the others go to ``relation`` until one merges the node
        away.  A node not merged away has its empty entries filled with
        fresh nodes."""
        rows, parent, robj, targets, find = self.rows, self.parent, self.robj, self.targets, self.find
        prefixes = {m: _prefixes(rels) for m, rels in rels_by_src.items()}
        self.new_node(root)
        idx = 1
        while idx < len(rows):
            if parent[idx] == idx:
                steps, rels = prefixes.get(robj[idx], ((), ()))
                ends = [idx]
                for k, x in steps:
                    t = ends[k]
                    if t:
                        t = rows[t][x]
                        if t and parent[t] != t:
                            t = find(t)
                    ends.append(t)
                for u, v, pu, pv in rels:
                    if (ends[pu] != ends[pv] or not ends[pu]) and self.relation(idx, u, v):
                        break
                else:
                    row = rows[idx]
                    for col, r in enumerate(targets[robj[idx]]):
                        if not row[col]:
                            row[col] = self.new_node(r)
            idx += 1

    def compressed(self):
        """The table as ``CongruenceTable`` holds it: the alive nodes' rows
        in creation order, rewritten in class numbers and packed into
        ``entries``, where each starts, and their objects.  ``parent``,
        dead by now, takes each node's class number, and the kept rows and
        objects move down in ``rows`` and ``robj``.  A merged node's parent
        is an earlier node, so one pass in creation order numbers every
        node.  The root, node 1, is the least node, which no merge moves:
        class 0."""
        parent, rows, robj = self.parent, self.rows, self.robj
        kept = 0
        for i in range(1, len(parent)):
            if parent[i] == i:
                parent[i] = kept
                rows[kept] = rows[i]
                robj[kept] = robj[i]
                kept += 1
            else:
                parent[i] = parent[parent[i]]
        entries, starts = array("i"), array("q")
        for row in rows[:kept]:
            starts.append(len(entries))
            entries.extend(map(parent.__getitem__, row))
        return entries, starts, array("i", robj[:kept])


def _prefixes(rels):
    """The distinct prefixes of the relation sides ``rels``, numbered from
    the empty prefix 0 as they are first met, as _hlt.c's ``prefixes``
    numbers them.  Returns ``steps``, per prefix past the empty one its
    one-letter-shorter prefix and its letter, and per relation ``(u, v)``
    the tuple ``(u, v, pu, pv)`` of its sides and the prefixes they end
    at."""
    child: dict[tuple, int] = {}
    steps, relations = [], []
    for u, v in rels:
        sides = []
        for side in (u, v):
            k = 0
            for x in side:
                if (k, x) not in child:
                    steps.append((k, x))
                    child[k, x] = len(steps)
                k = child[k, x]
            sides.append(k)
        relations.append((u, v, *sides))
    return steps, relations


def _python_run(targets, rels_by_src, root: int, budget: int):
    """A run of the Python engine: the nodes it defined, and the table's
    ``entries``, ``starts`` and ``objects``, or ``None`` when it ran out of
    budget."""
    eng = _Engine(targets, budget)
    try:
        eng.run(rels_by_src, root)
    except _BudgetExceeded:
        return len(eng.rows) - 1, None
    return len(eng.parent) - 1, eng.compressed()


def walk_visits(table: CongruenceTable, walks):
    """Breadth-first walks of the complete ``table``, one per list of
    ``walks``, from its start classes, in one FIFO queue: the walks go
    together, frontier by frontier, each with its own set of the classes
    it has seen.  A class is visited once per walk that reaches it: as a
    start, or else from the earliest visit, through its first column, that
    leads to it.  Returns four ``array("i")``: per
    visit its class, the visit it came from (``~k`` for the ``k``-th start
    of all the walks), the column (-1 for a start) and the walk.  They
    stay arrays, at 16 bytes a visit."""
    if table.status != "complete":
        raise ValueError(f"cannot walk a {table.status} table")
    if not all(0 <= c < len(table.objects) for c in chain.from_iterable(walks)):
        raise ValueError("a start class is not a class of the table")
    lib = _native()
    args = table.entries, table.starts, table.objects, array("i", map(len, table.columns)), walks
    return _python_walk(*args) if lib is None else _native_walk(lib, *args)


def _python_walk(entries, starts, objects, widths, walks):
    """``walk_visits`` in Python: the reference of the native walk, and the
    walk where it does not build."""
    classes, parents, columns, walk = [], [], [], []
    seen = [bytearray(len(objects)) for _ in walks]
    for k, (w, c) in enumerate((w, c) for w, begin in enumerate(walks) for c in begin):
        if not seen[w][c]:
            seen[w][c] = 1
            classes.append(c)
            parents.append(~k)
            columns.append(-1)
            walk.append(w)
    # the lists grow while they are read
    for v, (c, w) in enumerate(zip(classes, walk)):
        done, at = seen[w], starts[c]
        for x, t in enumerate(entries[at:at + widths[objects[c]]]):
            if not done[t]:
                done[t] = 1
                classes.append(t)
                parents.append(v)
                columns.append(x)
                walk.append(w)
    return tuple(array("i", visits) for visits in (classes, parents, columns, walk))


# The outcomes of ``hlt_run`` in _hlt.c other than a complete run, and
# the compilers tried, in order.
_BUDGET, _MISTYPED, _NOMEM = 1, 2, 3
_COMPILERS = ("cc", "gcc", "clang")
_CFLAGS = ("-O2", "-shared", "-fPIC")
_INT_MAX = 2**31 - 1


@cache
def _native():
    """The native library, whose runs ``_native_run`` and walks
    ``_native_walk`` make, or ``None`` when no C compiler on ``PATH``
    builds _hlt.c or the library does not load.  Built and loaded at the
    first enumeration in a process."""
    import ctypes
    import subprocess

    try:
        lib = _load_library()
    except (OSError, subprocess.SubprocessError):
        return None
    if lib is None:
        return None
    lib.hlt_run.restype = ctypes.c_int
    lib.hlt_run.argtypes = ([ctypes.c_int] + [ctypes.c_void_p] * 4 + [ctypes.c_int] * 2
                            + [ctypes.POINTER(ctypes.c_int)] * 2
                            + [ctypes.POINTER(ctypes.c_int64)]
                            + [ctypes.POINTER(ctypes.c_void_p)] * 3)
    lib.hlt_walk.restype = ctypes.c_int
    lib.hlt_walk.argtypes = ([ctypes.c_int] + [ctypes.c_void_p] * 4 + [ctypes.c_int]
                             + [ctypes.c_void_p] * 2 + [ctypes.POINTER(ctypes.c_int)]
                             + [ctypes.POINTER(ctypes.c_void_p)] * 4)
    lib.hlt_free.restype = None
    lib.hlt_free.argtypes = [ctypes.c_void_p]
    return lib


def _load_library():
    """The library built from _hlt.c: read from the cache when a process
    has built this source before, else compiled into the cache, or for
    this process alone into a temporary directory when the cache cannot
    be written.  ``None`` when no compiler is on ``PATH``."""
    import ctypes
    import platform
    import shutil
    import tempfile
    import zlib

    source = Path(__file__).with_name("_hlt.c").read_bytes()
    compiler = next(filter(None, map(shutil.which, _COMPILERS)), None)
    if compiler is None:
        return None
    # two checksums, not hashlib, whose OpenSSL would add about 3.5 MB to
    # the peak RSS of every process that enumerates
    built = source + " ".join((platform.machine(),) + _CFLAGS).encode()
    name = f"_hlt-{zlib.crc32(built):08x}{zlib.adler32(built):08x}.so"
    try:
        cache = os.environ.get("XDG_CACHE_HOME", "")
        path = (Path(cache) if os.path.isabs(cache) else Path.home() / ".cache") / "invwreath" / name
        if not path.is_file():
            _compile(compiler, source, path)
        return ctypes.CDLL(str(path))
    except (OSError, RuntimeError):     # RuntimeError: no home directory
        pass
    with tempfile.TemporaryDirectory(prefix="invwreath-", ignore_cleanup_errors=True) as tmp:
        path = Path(tmp) / name
        _compile(compiler, source, path)
        return ctypes.CDLL(str(path))


def _compile(compiler: str, source: bytes, path: Path):
    """Compile the C ``source`` into the library ``path``, written under a
    temporary name beside it and then renamed, so that no process loads a
    half-written file."""
    import subprocess
    import tempfile

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f"{path.name}.", dir=path.parent)
    os.close(fd)
    try:
        subprocess.run([compiler, *_CFLAGS, "-x", "c", "-", "-o", tmp], input=source,
                       capture_output=True, check=True, timeout=300)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _native_run(lib, targets, rels_by_src, root: int, budget: int):
    """A run of the native engine, with the inputs and outcome of
    ``_python_run``.  The relations go to C flattened as _hlt.c says, and
    the budget clamped to C's int, past any table that fits in memory.
    The table comes back packed, each of its three arrays copied out of C
    at once, and the C arrays are freed before this returns."""
    import ctypes

    width = array("i", map(len, targets))
    target = array("i", chain.from_iterable(targets))
    rel_start, rel = array("i", [0]), array("i")
    for m in range(len(targets)):
        for u, v in rels_by_src.get(m, ()):
            rel.extend((len(u), len(v), *u, *v))
        rel_start.append(len(rel))
    nodes, classes, size = ctypes.c_int(), ctypes.c_int(), ctypes.c_int64()
    objects, starts, cells = ctypes.c_void_p(), ctypes.c_void_p(), ctypes.c_void_p()
    status = lib.hlt_run(len(targets), *(a.buffer_info()[0] for a in (width, target, rel_start, rel)),
                         root, min(budget, _INT_MAX - 1), ctypes.byref(nodes),
                         ctypes.byref(classes), ctypes.byref(size), ctypes.byref(objects),
                         ctypes.byref(starts), ctypes.byref(cells))
    if status == _BUDGET:
        return nodes.value, None
    if status == _MISTYPED:
        raise InternalInconsistency("attempt to merge nodes of different types")
    if status == _NOMEM:
        raise MemoryError("the enumeration table does not fit in memory")
    return nodes.value, _take(lib, (cells, size.value, "i"), (starts, classes.value, "q"),
                              (objects, classes.value, "i"))


def _native_walk(lib, entries, starts, objects, widths, walks):
    """``walk_visits`` in C."""
    import ctypes

    nstarts = array("i", map(len, walks))
    begin = array("i", chain.from_iterable(walks))
    count = ctypes.c_int()
    out = [ctypes.c_void_p() for _ in range(4)]
    table = (a.buffer_info()[0] for a in (entries, starts, objects, widths))
    status = lib.hlt_walk(len(objects), *table, len(walks), nstarts.buffer_info()[0],
                          begin.buffer_info()[0], ctypes.byref(count), *map(ctypes.byref, out))
    if status == _NOMEM:
        raise MemoryError("the walk of the table does not fit in memory")
    return _take(lib, *((pointer, count.value, "i") for pointer in out))


def _take(lib, *arrays):
    """The C ``arrays``, each ``(pointer, count, fmt)``, copied into
    ``array``s of the type ``fmt``; each is freed before this returns."""
    import ctypes

    try:
        out = []
        for pointer, count, fmt in arrays:
            copy = array(fmt)
            if count:
                size = count * copy.itemsize
                copy.frombytes((ctypes.c_ubyte * size).from_address(pointer.value))
            out.append(copy)
        return tuple(out)
    finally:
        for pointer, _, _ in arrays:
            lib.hlt_free(pointer)


def _trace_order(rels):
    """The relations ``rels`` as a run traces them: each once, oriented
    and sorted as the module docstring says."""
    oriented = {(u, v) if (-len(u), u) <= (-len(v), v) else (v, u) for u, v in rels}
    return sorted(oriented, key=lambda rel: (len(rel[0]), len(rel[0]) + len(rel[1]), rel))


def node_budget(budget: int | None) -> int:
    """The node budget of a run: ``budget``, or ``DEFAULT_BUDGET`` for
    ``None``."""
    if budget is None:
        return DEFAULT_BUDGET
    if budget <= 0:
        raise ValueError(f"node budget must be positive, got {budget}")
    return budget


def enumerate_congruence(p: Presentation, budget: int | None = None) -> CongruenceTable:
    """Enumerate the structure presented by ``p``.

    Monoid and semigroup flavors return a total class count.  The category
    flavor is rooted at ``p.cap`` and returns the counts of the hom-sets
    out of it.  The two sides of a category relation must be paths with
    one source and one target, or the run raises
    ``InternalInconsistency``.  ``budget`` bounds the nodes of the run;
    ``None`` picks ``DEFAULT_BUDGET``.  Tensor flavors have no
    completeness enumeration.
    """
    if p.flavor == "tensor":
        raise UnsupportedFlavorError(
            "tensor congruences have no completeness enumeration here")
    category = p.flavor == "category"
    budget = node_budget(budget)

    if category:
        dr = [edge_dr(sym) for sym in p.alphabet]
        root = p.cap
        # ``Path`` checks that each side's edges compose; the engine
        # defines a transition wherever a trace is missing one, which is
        # only sound when the two sides also share their ends
        for lhs, rhs in p.relations:
            if not (lhs.src == rhs.src and lhs.tgt == rhs.tgt):
                raise InternalInconsistency(
                    f"relation {path_text(lhs)} = {path_text(rhs)} does not have "
                    f"one source and one target")
        sides = [(lhs.src, lhs.edges, rhs.edges) for lhs, rhs in p.relations]
    else:
        # one object: every generator is an endomorphism of 0
        dr = [(0, 0)] * len(p.alphabet)
        root = 0
        sides = [(0, lhs, rhs) for lhs, rhs in p.relations]
    gen_index = {sym: k for k, sym in enumerate(p.alphabet)}
    rels_by_src: dict[int, list] = {}
    for src, lhs, rhs in sides:
        rels_by_src.setdefault(src, []).append(
            tuple(tuple(gen_index[s] for s in side) for side in (lhs, rhs)))
    # each generator's column within its source object, in alphabet
    # order; the relations are ordered on generator ids, then rewritten
    nobj = 1 + max([root, *rels_by_src] + [max(d, r) for d, r in dr])
    columns = [{} for _ in range(nobj)]
    targets = [[] for _ in range(nobj)]
    for sym, (d, r) in zip(p.alphabet, dr):
        columns[d][sym] = len(targets[d])
        targets[d].append(r)
    local = [columns[d][sym] for sym, (d, _) in zip(p.alphabet, dr)]
    rels_by_src = {src: tuple(tuple(tuple(map(local.__getitem__, side)) for side in rel)
                              for rel in _trace_order(rels))
                   for src, rels in rels_by_src.items()}

    lib = _native()
    nodes, table = (_python_run(targets, rels_by_src, root, budget) if lib is None
                    else _native_run(lib, targets, rels_by_src, root, budget))
    if table is None:
        return CongruenceTable("budget-exceeded", nodes_created=nodes)
    entries, starts, objects = table
    done = CongruenceTable("complete", nodes_created=nodes, entries=entries, starts=starts,
                           gen_index=gen_index, columns=columns, objects=objects, root=root)
    if category:
        done.hom_sizes = {(root, n): k for n, k in Counter(objects).items()}
    elif p.flavor == "semigroup":
        # the empty word's class, the root's class 0, is no element: no
        # transition may lead into it
        if 0 in entries:
            raise InternalInconsistency("empty-word class was touched in a semigroup run")
        done.size = len(objects) - 1
    else:
        done.size = len(objects)
    return done
