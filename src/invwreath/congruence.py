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

Relation traces run as kernels: plain functions, one per source object
and per chunk of at most 64 relations.  Each chunk is compiled once per
process into a factory, and each run binds it to its own table.  A
kernel follows the distinct prefixes of its relations' sides once per
node into local variables, each one letter past a shorter prefix, and a
relation holds when its two sides end at one defined node.  Node 0 is a
sink whose row is all 0, and 0 means "undefined"; a merged node's row
becomes the sink's, so the walk needs no branch and reads 0 past an
undefined or merged node.  A relation that seems not to hold goes to
``fix``.  A live end is current, since a class changes only by a merge,
which kills it; a side without one resumes from its live
one-letter-shorter prefix end, or else from the node.  Where the sides
stop, ``fix`` deduces a missing last transition, merges the two ends, or
defines the first missing entry and carries on from the fresh node.
Reading changes no state except to write a merged target's class back
into its row, so the nodes defined and the merges made are those of
filling every trace.

One typed engine serves every flavor, with one root per run: object 0
for a monoid or semigroup, whose every generator goes ``0 -> 0``, and
the cap for a category.  Nodes carry their target objects, generators
go between objects, and the budget bounds the nodes of the one root.
Each generator has a column within its source object, in alphabet order,
and a row holds exactly the columns of its node's target object, from
the engine to the returned table; relations are sorted and oriented on
alphabet ids, then rewritten to columns, and the sink's row is as wide
as the widest.  At ``omega-mi``/c2 cap 6, 18 of the 69 letters leave the
widest object.

For semigroup presentations the same run is performed over all words
including the empty one; since no relation side is empty, the root class
stays a singleton and is excluded from the reported size.

A category run is rooted at its cap ``C`` alone and reports the hom-sets
``(C, n)``; ``verify`` reads each lower hom-set ``(m, n)`` from the classes
that ``C`` reaches through ``ρ_{C-1} ⋯ ρ_m``, and says why the counts at
the cap need no wider build.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter

from .base import InternalInconsistency
from .presentations import Presentation
from .words import edge_dr, path_text

__all__ = [
    "UnsupportedFlavorError",
    "CongruenceTable",
    "enumerate_congruence",
    "node_budget",
    "DEFAULT_MONOID_BUDGET",
    "DEFAULT_CATEGORY_BUDGET",
]

DEFAULT_MONOID_BUDGET = 50_000
DEFAULT_CATEGORY_BUDGET = 20_000


class UnsupportedFlavorError(ValueError):
    """Completeness enumeration is not available for this flavor."""


class _BudgetExceeded(Exception):
    pass


@dataclass
class CongruenceTable:
    """Outcome of one enumeration run.

    On completion the compressed right Cayley graph is attached: class
    ``c`` ends at object ``objects[c]``, and ``transitions[c][k]`` is the
    class it reaches by the generator in column ``k`` of that object, every
    entry defined.  ``columns[m]`` maps the symbols of the generators
    leaving object ``m``, in alphabet order, to their columns 0, 1, ....
    ``gen_index`` maps alphabet symbols to their ids in alphabet order, and
    ``root`` is the one start object, whose identity is class 0: 0 for a
    flat flavor, which every generator leaves, and the cap for a category.
    """

    status: str                       # "complete" | "budget-exceeded"
    size: int | None = None           # monoid/semigroup class count
    hom_sizes: dict | None = None     # category: (cap, tgt) -> class count
    nodes_created: int = 0
    transitions: list | None = None
    root: int | None = None
    gen_index: dict | None = None
    columns: list | None = None
    objects: list | None = None

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
        columns, objects, rows = self.columns, self.objects, self.transitions
        try:
            for sym in word:
                cur = rows[cur][columns[objects[cur]][sym]]
        except KeyError:
            if sym not in self.gen_index:
                raise ValueError(f"{sym!r} is not in the alphabet") from None
            raise ValueError("the word is not a path from the start object") from None
        return cur


class _Engine:
    """Table plus union-find over local generator columns.

    Every node carries its target object, and its row has one column per
    generator leaving it: ``targets[m][k]`` is where the generator in
    column ``k`` of object ``m`` goes.  Relation sides are well-typed
    paths, so a trace reads and defines only columns of the row it stands
    on.  The one root's part of the table has at most ``budget`` nodes;
    node 0 is the sink (see the module docstring), outside the budget.
    """

    def __init__(self, targets, budget: int):
        self.targets = targets
        self.budget = budget
        # a tuple, so that no write can reach the sink's row
        self.sink = (0,) * max(map(len, targets))
        self.rows: list = [self.sink]
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
            rows[b] = self.sink
            row_a = rows[a]
            for x, t in enumerate(row_b):
                if t:
                    s = row_a[x]
                    if not s:
                        row_a[x] = t
                    elif s != t:
                        queue.append((s, t))

    def walk(self, a: int, i: int, w) -> tuple[int, int]:
        """Follow ``w`` from the live node ``a`` at letter ``i`` as far as
        it is defined: the class reached and the letters read.  A merged
        target met on the way is written back as its class."""
        rows, parent = self.rows, self.parent
        for i in range(i, len(w)):
            row = rows[a]
            t = row[w[i]]
            if not t:
                return a, i
            if parent[t] != t:
                t = row[w[i]] = self.find(t)
            a = t
        return a, len(w)

    def fix(self, idx: int, u, v, a: int, b: int, pa: int, pb: int) -> bool:
        """Make ``u = v`` hold at the live node ``idx``, from what a
        kernel read as the ends ``a``, ``b`` of its sides and ``pa``,
        ``pb`` of their one-letter-shorter prefixes (see the module
        docstring).  Returns whether ``idx`` was merged into an earlier
        node."""
        rows, parent = self.rows, self.parent
        lu, lv = len(u), len(v)
        # each side as far as it is defined: u[:i] reaches a, v[:j] reaches b
        if a and parent[a] == a:
            i = lu
        elif pa and parent[pa] == pa:
            a, i = pa, lu - 1
            t = rows[pa][u[i]]
            if t:
                a, i = t if parent[t] == t else self.walk(pa, i, u)[0], lu
        else:
            a, i = self.walk(idx, 0, u)
        if b and parent[b] == b:
            j = lv
        elif pb and parent[pb] == pb:
            b, j = pb, lv - 1
            t = rows[pb][v[j]]
            if t:
                b, j = t if parent[t] == t else self.walk(pb, j, v)[0], lv
        else:
            b, j = self.walk(idx, 0, v)
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
        """The root at object ``root``, then nodes in creation order: run
        the kernels of the relations whose source is the node's target,
        then fill the node's remaining row entries with fresh nodes.  A
        kernel returns true when a fix merged the node into an earlier,
        fully processed one."""
        rows, parent, robj, targets = self.rows, self.parent, self.robj, self.targets
        self.new_node(root)
        kernels = [[] for _ in targets]
        for src, rels in rels_by_src.items():
            for k in range(0, len(rels), _KERNEL_RELATIONS):
                kernels[src].append(_kernel(rels[k:k + _KERNEL_RELATIONS], rows, self.fix))
        idx = 1
        while idx < len(rows):
            if parent[idx] == idx:
                for kernel in kernels[robj[idx]]:
                    if kernel(idx):
                        break
                else:
                    row = rows[idx]
                    for col, r in enumerate(targets[robj[idx]]):
                        if not row[col]:
                            row[col] = self.new_node(r)
            idx += 1

    def compressed(self):
        """The alive nodes' rows in creation order, rewritten in class
        numbers, and their objects, compressed in place: ``parent``, dead by
        now, takes each node's class number, and the kept rows and objects
        move down in ``rows`` and ``robj``.  A merged node's parent is an
        earlier node, so one pass in creation order numbers every node.  The
        root, node 1, is the least node, which no merge moves: class 0."""
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
        del rows[kept:], robj[kept:]
        for row in rows:
            row[:] = map(parent.__getitem__, row)
        # copied, so that the table keeps none of the run's spare slots
        return rows[:], robj[:]


# Relations per kernel.  Compiling one kernel for all of ``r-sing-in``
# n=5's 410 relations peaks at about 7.6 MB, one of 64 at about 1.2 MB.
# Smaller kernels also run faster: with chunks of 512 relations the three
# ``singular-semigroup`` benchmark cells took 1.3-1.6 times as long to
# enumerate, even with every kernel already compiled.
_KERNEL_RELATIONS = 64


def _kernel(rels, rows, fix):
    """The kernel of the relations ``rels`` (a tuple) for one run: the
    compiled factory of ``_factory``, bound to the run's ``rows`` and
    ``fix``."""
    make, values = _factory(rels)
    return make(rows, fix, *values)


# A factory of 64 relations retains about 30 kB, so 128 of them cap the
# cache at about 4 MB.
@lru_cache(maxsize=128)
def _factory(rels):
    """The compiled kernel factory of the relations ``rels`` and the
    arguments it takes after ``rows`` and ``fix``.  Its kernel is a
    function of a live node ``e0`` that follows the sides' distinct
    prefixes (``_prefixes``) into local variables ``e<k>``, then passes
    each relation whose sides do not end at one defined node to ``fix``,
    and returns true as soon as ``fix`` does.  The source holds only ints
    and local names: the itemgetters and words come in as arguments of
    the factory.  Nothing here belongs to a run, so the factory is
    compiled once per process for each chunk of relations, and a cached
    one keeps no finished run's table alive."""
    index, groups = _prefixes(rels)
    names, values, local = ["rows", "fix"], [], {}

    def name(value, prefix):
        if value not in local:
            local[value] = f"{prefix}{len(local)}"
            names.append(local[value])
            values.append(value)
        return local[value]

    body = []
    for par, lo, letters in groups:
        if len(letters) == 1:
            body.append(f"e{lo} = rows[e{par}][{letters[0]}]")
        else:
            ends = ", ".join(f"e{lo + k}" for k in range(len(letters)))
            body.append(f"{ends} = {name(itemgetter(*letters), 'g')}(rows[e{par}])")
    for u, v in rels:
        eu, ev = f"e{index[u]}", f"e{index[v]}"
        # an empty side ends at the live node itself and needs no prefix
        pu, pv = (f"e{index[w[:-1]]}" if w else "0" for w in (u, v))
        body.append(f"if ({eu} != {ev} or not {eu}) and fix(e0, {name(u, 'w')}, "
                    f"{name(v, 'w')}, {eu}, {ev}, {pu}, {pv}): return True")
    source = (f"def make({', '.join(names)}):\n def kernel(e0):\n  "
              + "\n  ".join(body) + "\n return kernel\n")
    namespace = {}
    exec(source, namespace)
    # popped, so that a factory dropped from the cache does not wait in a
    # function <-> globals cycle for a full collection
    return namespace.pop("make"), tuple(values)


def _prefixes(rels):
    """The distinct prefixes of the relation sides ``rels``, numbered
    breadth-first from the empty prefix 0, so that the one-letter
    extensions of each prefix have consecutive numbers.  Returns
    ``index``, each prefix's number, and ``groups``: per prefix with
    extensions, in order, its number, its first extension's number and
    the extensions' letters."""
    extensions: dict[tuple, list] = {(): []}
    for rel in rels:
        for side in rel:
            for k in range(len(side)):
                if side[:k + 1] not in extensions:
                    extensions[side[:k + 1]] = []
                    extensions[side[:k]].append(side[k])
    index = {(): 0}
    groups, order = [], [()]
    for pre in order:           # grows while it is read
        letters = extensions[pre]
        if letters:
            groups.append((index[pre], len(order), letters))
            for x in letters:
                index[pre + (x,)] = len(order)
                order.append(pre + (x,))
    return index, groups


def _trace_order(rels):
    """The relations ``rels`` as a run traces them: each once, oriented
    and sorted as the module docstring says."""
    oriented = {(u, v) if (-len(u), u) <= (-len(v), v) else (v, u) for u, v in rels}
    return sorted(oriented, key=lambda rel: (len(rel[0]), len(rel[0]) + len(rel[1]), rel))


def node_budget(flavor: str, budget: int | None) -> int:
    """The node budget of a run: ``budget``, or the flavor's default for
    ``None``."""
    if budget is None:
        return DEFAULT_CATEGORY_BUDGET if flavor == "category" else DEFAULT_MONOID_BUDGET
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
    ``None`` picks the flavor's default.  Tensor flavors have no
    completeness enumeration.
    """
    if p.flavor == "tensor":
        raise UnsupportedFlavorError(
            "tensor congruences have no completeness enumeration here")
    category = p.flavor == "category"
    budget = node_budget(p.flavor, budget)

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

    eng = _Engine(targets, budget)
    try:
        eng.run(rels_by_src, root)
    except _BudgetExceeded:
        return CongruenceTable("budget-exceeded", nodes_created=len(eng.rows) - 1)

    table, objects = eng.compressed()
    done = CongruenceTable("complete", nodes_created=len(eng.parent) - 1,
                           transitions=table, gen_index=gen_index, columns=columns,
                           objects=objects, root=root)
    if category:
        done.hom_sizes = {}
        for n in objects:
            done.hom_sizes[root, n] = done.hom_sizes.get((root, n), 0) + 1
    elif p.flavor == "semigroup":
        # the empty word's class, the root's class 0, is no element: no
        # transition may lead into it
        if any(0 in row for row in table):
            raise InternalInconsistency("empty-word class was touched in a semigroup run")
        done.size = len(table) - 1
    else:
        done.size = len(table)
    return done
