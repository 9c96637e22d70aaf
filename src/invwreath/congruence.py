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

A trace is checked before anything is filled: both sides of ``u = v`` are
followed through the table in two plain loops, and when both are defined
to the end and meet, the relation already holds and the trace is done.
Most traces end there.  Only a trace with an undefined entry or two
different ends goes on to the fill step, which deduces a missing last
transition, merges the two ends, or defines the first missing entry and
traces again.  The check changes no state, so the nodes defined and the
merges made are those of filling every trace.

One typed engine serves every flavor.  Nodes carry source and target
objects, generators go between objects, and each source object is the
root of its own part of the table with its own node budget.  A monoid or
semigroup run uses the single object 0: every generator goes ``0 -> 0``
and there is one root, so the per-root budget is the whole budget.

For semigroup presentations the same run is performed over all words
including the empty one; since no relation side is empty, the root class
stays a singleton and is excluded from the reported size.

For category presentations the table is truncated at a bound: transitions
through objects above the bound are left undefined and relation traces
blocked by the bound are skipped.  Counts can therefore only be too
coarse, never too fine; callers compare against a brute-force target and
widen the bound if needed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import InternalInconsistency
from .presentations import Presentation, build
from .words import edge_dr

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

_UNDEF = -1


class UnsupportedFlavorError(ValueError):
    """Completeness enumeration is not available for this flavor."""


class _BudgetExceeded(Exception):
    pass


@dataclass
class CongruenceTable:
    """Outcome of one enumeration run.

    On completion the compressed right Cayley graph is attached:
    ``transitions[c][g]`` is the class reached from class ``c`` by
    generator ``g`` (``-1`` where truncated, category flavor only), and
    ``roots`` maps each start object to its identity class (flat flavors
    use the single key 0).  ``gen_index`` maps alphabet symbols to ``g``.
    """

    flavor: str
    status: str                       # "complete" | "budget-exceeded"
    size: int | None = None           # monoid/semigroup class count
    hom_sizes: dict | None = None     # category: (src, tgt) -> class count
    nodes_created: int = 0
    empty_class_untouched: bool | None = None
    bound: int | None = None
    transitions: list | None = None
    roots: dict | None = None
    gen_index: dict | None = None

    def trace(self, start_object: int, word) -> int:
        """Class reached from the identity at ``start_object`` by reading
        ``word`` (a sequence of alphabet symbols)."""
        cur = self.roots[start_object]
        for sym in word:
            cur = self.transitions[cur][self.gen_index[sym]]
            if cur < 0:
                raise ValueError("trace leaves the truncated table")
        return cur


class _Engine:
    """Table plus union-find over integer generator ids.

    Every node carries its ``(source, target)`` objects and every generator
    goes between two objects; ``dr[g]`` names them.  A transition is only
    defined where the node's target is the generator's source and the
    generator's target is within ``bound``.  Each source object roots its
    own part of the table, with at most ``budget`` nodes.
    """

    def __init__(self, dr, bound: int, budget: int, roots: int):
        self.dr = dr
        self.ngens = len(dr)
        self.bound = bound
        self.budget = budget
        self.created = [0] * roots
        self.rows: list[list[int] | None] = []
        self.parent: list[int] = []
        self.dobj: list[int] = []
        self.robj: list[int] = []

    def new_node(self, d: int, r: int) -> int:
        if self.created[d] >= self.budget:
            raise _BudgetExceeded
        self.created[d] += 1
        idx = len(self.rows)
        self.rows.append([_UNDEF] * self.ngens)
        self.parent.append(idx)
        self.dobj.append(d)
        self.robj.append(r)
        return idx

    def define(self, node: int, gen: int) -> int | None:
        """A fresh target for ``node`` by ``gen``, or ``None`` where the
        transition is ill-typed or leaves the bound."""
        d, r = self.dr[gen]
        if d != self.robj[node] or r > self.bound:
            return None
        return self.new_node(self.dobj[node], r)

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
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            if self.dobj[a] != self.dobj[b] or self.robj[a] != self.robj[b]:
                raise InternalInconsistency("attempt to merge nodes of different types")
            self.parent[b] = a
            row_b = self.rows[b]
            self.rows[b] = None
            row_a = self.rows[a]
            for x in range(self.ngens):
                t = row_b[x]
                if t != _UNDEF:
                    if row_a[x] == _UNDEF:
                        row_a[x] = t
                    else:
                        queue.append((row_a[x], t))

    def scan(self, p: int, word) -> tuple[int, int]:
        """Follow ``word`` from ``p`` through defined entries; return the
        last node reached and how many letters were consumed."""
        rows, parent = self.rows, self.parent
        cur = p
        for k, x in enumerate(word):
            t = rows[cur][x]
            if t == _UNDEF:
                return cur, k
            cur = t if parent[t] == t else self.find(t)
        return cur, len(word)

    def fill(self, p: int, u, v):
        """Trace the relation ``u = v`` at ``p``: deduce the final
        transition when only it is missing, merge completed endpoints, and
        otherwise fill the first missing slot with a fresh node and rescan.
        A trace blocked by the typing or the bound is abandoned."""
        while True:
            p = self.find(p)
            a, i = self.scan(p, u)
            b, j = self.scan(p, v)
            if i == len(u) and j == len(v):
                if a != b:
                    self.merge(a, b)
                return
            if i == len(u) and j == len(v) - 1:
                self.rows[b][v[j]] = a
                return
            if j == len(v) and i == len(u) - 1:
                self.rows[a][u[i]] = b
                return
            node, gen = (a, u[i]) if i < len(u) else (b, v[j])
            fresh = self.define(node, gen)
            if fresh is None:
                return
            self.rows[node][gen] = fresh

    def run(self, rels_by_src: dict):
        """One root per source object, then nodes in creation order: trace
        every relation whose source is the node's target, then fill the
        node's remaining defined row entries with fresh nodes."""
        rows, parent, find = self.rows, self.parent, self.find
        for m in range(len(self.created)):
            self.new_node(m, m)
        # the generators leaving each object within the bound, with targets
        leaving = [[(gen, r) for gen, (d, r) in enumerate(self.dr) if d == obj and r <= self.bound]
                   for obj in range(self.bound + 1)]
        idx = 0
        while idx < len(rows):
            if parent[idx] != idx:
                idx += 1
                continue
            for u, v in rels_by_src.get(self.robj[idx], ()):
                # most relations already hold: check inline, ``find`` only
                # past a merged node, and fill only what does not hold
                a = idx
                for x in u:
                    t = rows[a][x]
                    if t == _UNDEF:
                        break
                    a = t if parent[t] == t else find(t)
                else:
                    b = idx
                    for x in v:
                        t = rows[b][x]
                        if t == _UNDEF:
                            break
                        b = t if parent[t] == t else find(t)
                    else:
                        if a == b:
                            continue
                self.fill(idx, u, v)
                if parent[idx] != idx:
                    # the class was folded into an earlier, fully processed node
                    break
            else:
                row = rows[idx]
                for gen, r in leaving[self.robj[idx]]:
                    if row[gen] == _UNDEF:
                        row[gen] = self.new_node(self.dobj[idx], r)
            idx += 1

    def compressed(self):
        """Alive classes renumbered consecutively, with their rows."""
        alive = [i for i in range(len(self.rows)) if self.parent[i] == i]
        renumber = {node: k for k, node in enumerate(alive)}
        table = [
            [renumber[self.find(t)] if t != _UNDEF else _UNDEF
             for t in self.rows[node]]
            for node in alive
        ]
        return renumber, table


def node_budget(flavor: str, budget: int | None) -> int:
    """The per-root node budget of a run: ``budget``, or the flavor's
    default for ``None``."""
    if budget is None:
        return DEFAULT_CATEGORY_BUDGET if flavor == "category" else DEFAULT_MONOID_BUDGET
    if budget <= 0:
        raise ValueError(f"node budget must be positive, got {budget}")
    return budget


def enumerate_congruence(p: Presentation, budget: int | None = None,
                         headroom: int = 2) -> CongruenceTable:
    """Enumerate the structure presented by ``p``.

    Monoid and semigroup flavors return a total class count; the category
    flavor returns per-hom-set counts for objects up to the cap, computed
    with excursions allowed ``headroom`` objects above it.  ``budget``
    bounds the nodes per source object; ``None`` picks the flavor's
    default.  Tensor flavors have no completeness enumeration.
    """
    if p.flavor == "tensor":
        raise UnsupportedFlavorError(
            "tensor congruences have no completeness enumeration here")
    category = p.flavor == "category"
    budget = node_budget(p.flavor, budget)

    if category:
        bound = p.cap + headroom
        run = build(p.kind, p.base, cap=bound)
        dr = [edge_dr(sym) for sym in run.alphabet]
        roots = p.cap + 1
        sides = [(lhs.src, lhs.edges, rhs.edges) for lhs, rhs in run.relations]
    else:
        # one object: every generator is an endomorphism of 0
        run, bound, roots = p, 0, 1
        dr = [(0, 0)] * len(p.alphabet)
        sides = [(0, lhs, rhs) for lhs, rhs in p.relations]
    gen_index = {sym: k for k, sym in enumerate(run.alphabet)}
    rels_by_src: dict[int, list] = {}
    for src, lhs, rhs in sides:
        rels_by_src.setdefault(src, []).append(
            (tuple(gen_index[s] for s in lhs), tuple(gen_index[s] for s in rhs)))

    eng = _Engine(dr, bound, budget, roots)
    reported_bound = bound if category else None
    try:
        eng.run(rels_by_src)
    except _BudgetExceeded:
        return CongruenceTable(p.flavor, "budget-exceeded",
                               nodes_created=len(eng.rows), bound=reported_bound)

    renumber, table = eng.compressed()      # keyed by the alive nodes, in order
    done = CongruenceTable(p.flavor, "complete", nodes_created=len(eng.rows),
                           bound=reported_bound, transitions=table, gen_index=gen_index,
                           roots={m: renumber[eng.find(m)] for m in range(roots)})
    if category:
        # nodes above the cap only exist to close relation traces; their
        # counts are truncation artifacts and are not reported
        done.hom_sizes = {}
        for i in renumber:
            if eng.robj[i] <= p.cap:
                key = (eng.dobj[i], eng.robj[i])
                done.hom_sizes[key] = done.hom_sizes.get(key, 0) + 1
    elif p.flavor == "semigroup":
        # the empty word's node 0 must stay its own class (class 0) and
        # no transition may lead into it
        if eng.find(0) != 0 or any(0 in row for row in table):
            raise InternalInconsistency("empty-word class was touched in a semigroup run")
        done.size = len(table) - 1
        done.empty_class_untouched = True
    else:
        done.size = len(table)
    return done
