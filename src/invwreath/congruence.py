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

Each relation trace is checked before anything is filled.  The distinct
prefixes of all relation sides from one object are followed once per
node, each one letter past a shorter prefix, and a relation holds when
its two sides end defined in one class.  Most traces end there.  An
earlier fill at the node may have defined or merged what a side reaches,
so a relation that seems not to hold is followed again from its longest
live prefixes.  Only one that still does not hold goes on to the fill
step, which starts where the trace stopped: it deduces a missing last
transition, merges the two ends, or defines the first missing entry and
carries on from the fresh node.  The check changes no state except to
write a merged target's class back into the row it was read from, so the
nodes defined and the merges made are those of filling every trace.

One typed engine serves every flavor.  Nodes carry source and target
objects, generators go between objects, and each source object is the
root of its own part of the table with its own node budget.  A monoid or
semigroup run uses the single object 0: every generator goes ``0 -> 0``
and there is one root, so the per-root budget is the whole budget.

For semigroup presentations the same run is performed over all words
including the empty one; since no relation side is empty, the root class
stays a singleton and is excluded from the reported size.

For category presentations the run enumerates the presentation built at
``cap + headroom``, with a root only at each object up to the cap, and
reports the hom-sets within the cap.  Soundness maps each such hom-set of
the presented category into the target, and generation on the cap-level
alphabet, whose paths are paths of the wider build too, makes that map
onto.  So each count is at least the target's, never below it, and a
count equal to the brute-force target, even at headroom 0, is a proof;
callers widen the headroom only where a count is above the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

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
    generator ``g`` (``-1`` where ``g`` does not leave the class's target
    object, category flavor only), and
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
        ``word`` (a sequence of alphabet symbols).  Raises ``ValueError``
        when ``word`` is not a path from there: a transition is missing or
        a symbol is outside the alphabet."""
        cur = self.roots[start_object]
        try:
            for sym in word:
                cur = self.transitions[cur][self.gen_index[sym]]
                if cur < 0:
                    raise ValueError("the word is not a path from the start object")
        except KeyError as exc:
            raise ValueError(f"{exc.args[0]!r} is not in the alphabet") from None
        return cur


class _Engine:
    """Table plus union-find over integer generator ids.

    Every node carries its ``(source, target)`` objects and every generator
    goes between two objects; ``dr[g]`` names them.  Relation sides are
    well-typed paths, so a trace only defines a transition where the
    node's target is the generator's source.  Each source object roots its
    own part of the table, with at most ``budget`` nodes.
    """

    def __init__(self, dr, budget: int, roots: int):
        self.dr = dr
        self.ngens = len(dr)
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
            for x, t in enumerate(row_b):
                if t != _UNDEF:
                    s = row_a[x]
                    if s == _UNDEF:
                        row_a[x] = t
                    elif s != t:
                        queue.append((s, t))

    def fill(self, u, a: int, i: int, v, b: int, j: int):
        """Make the relation ``u = v`` hold, given where its sides stop:
        ``u[:i]`` leads to the class ``a`` and ``v[:j]`` to ``b``, each at
        an undefined entry or at the end of its side.  Deduce the final
        transition when only it is missing, merge completed endpoints, and
        otherwise fill the first missing slot with a fresh node.  A fresh
        node has an empty row, so the traces stop at it again."""
        rows, dr = self.rows, self.dr
        while True:
            if i == len(u) and j == len(v):
                if a != b:
                    self.merge(a, b)
                return
            if i == len(u) and j == len(v) - 1:
                rows[b][v[j]] = a
                return
            if j == len(v) and i == len(u) - 1:
                rows[a][u[i]] = b
                return
            node, gen = (a, u[i]) if i < len(u) else (b, v[j])
            fresh = rows[node][gen] = self.new_node(self.dobj[node], dr[gen][1])
            # the one new entry extends whichever traces stopped at it
            if i < len(u) and a == node and u[i] == gen:
                a, i = fresh, i + 1
            if j < len(v) and b == node and v[j] == gen:
                b, j = fresh, j + 1

    def follow(self, ends, steps, k: int) -> tuple[int, int]:
        """The class that the longest defined prefix of prefix ``k``
        reaches, and that prefix's index.  An end that is undefined (a
        fill may since have defined it) or merged is followed again from
        its longest prefix whose end is live, and what that reaches is
        kept in ``ends``."""
        rows, parent = self.rows, self.parent
        chain = []
        a = ends[k]
        while a == _UNDEF or parent[a] != a:
            chain.append(k)
            k = steps[k - 1][0]
            a = ends[k]
        for c in reversed(chain):
            row = rows[a]
            x = steps[c - 1][1]
            t = row[x]
            if t == _UNDEF:
                break
            if parent[t] != t:
                t = row[x] = self.find(t)
            a = ends[c] = t
            k = c
        return a, k

    def run(self, rels_by_src: dict):
        """One root per source object, then nodes in creation order: trace
        every relation whose source is the node's target, then fill the
        node's remaining row entries with fresh nodes.

        The distinct prefixes of a source's relation sides are followed
        once per node, each one letter past a shorter prefix, into
        ``ends``.  A relation holds when both its ends are one class.  A
        fill can define entries and merge classes, which leaves later
        ``ends`` stale but never wrong: a defined end stays defined up to
        ``find``.  So a relation whose ends do not already meet is
        followed again from its longest live prefixes, and only one that
        still does not hold goes to ``fill``."""
        rows, parent, follow = self.rows, self.parent, self.follow
        for m in range(len(self.created)):
            self.new_node(m, m)
        nobj = 1 + max([len(self.created) - 1, *rels_by_src]
                       + [max(d, r) for d, r in self.dr])
        # the generators leaving each object, with their targets
        leaving = [[] for _ in range(nobj)]
        for gen, (d, r) in enumerate(self.dr):
            leaving[d].append((gen, r))
        traces = [None] * nobj
        for src, rels in rels_by_src.items():
            traces[src] = _prefixes(rels)
        idx = 0
        while idx < len(rows):
            if parent[idx] != idx:
                idx += 1
                continue
            trace = traces[self.robj[idx]]
            if trace is not None:
                steps, groups, length, sides = trace
                ends = [idx] + [_UNDEF] * len(steps)
                for par, lo, hi, letters in groups:
                    a = ends[par]
                    if a != _UNDEF:
                        if parent[a] != a:
                            a = follow(ends, steps, par)[0]
                        if hi - lo == 1:
                            ends[lo] = rows[a][letters]
                        else:
                            # merged targets stay as read; ``follow`` and
                            # the relation check look past them
                            ends[lo:hi] = letters(rows[a])
                for iu, iv, u, v in sides:
                    a, b = ends[iu], ends[iv]
                    if a == b and a != _UNDEF:
                        continue
                    ku, kv = iu, iv
                    if a == _UNDEF or parent[a] != a:
                        a, ku = follow(ends, steps, iu)
                    if b == _UNDEF or parent[b] != b:
                        b, kv = follow(ends, steps, iv)
                    if a == b and ku == iu and kv == iv:
                        continue
                    self.fill(u, a, length[ku], v, b, length[kv])
                    if parent[idx] != idx:
                        # the class was folded into an earlier, fully processed node
                        break
            if parent[idx] == idx:
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


def _prefixes(rels):
    """The distinct prefixes of the relation sides ``rels``, numbered
    breadth-first from the empty prefix 0, so that the one-letter
    extensions of each prefix have consecutive numbers.  Returns

    - ``steps``: per prefix ``k >= 1`` at ``k - 1``, the number of the
      prefix one letter shorter and the last letter;
    - ``groups``: per prefix with extensions, in order, its number, the
      range ``lo:hi`` of its extensions' numbers, and their letters: the
      letter itself for one extension, else an ``itemgetter`` of them;
    - ``length``: each prefix's length;
    - ``sides``: per relation ``(u, v)``, the numbers of ``u`` and ``v``
      and the two words.
    """
    extensions: dict[tuple, list] = {(): []}
    for rel in rels:
        for side in rel:
            for k in range(len(side)):
                if side[:k + 1] not in extensions:
                    extensions[side[:k + 1]] = []
                    extensions[side[:k]].append(side[k])
    index = {(): 0}
    steps, groups, order = [], [], [()]
    for pre in order:           # grows while it is read
        letters = extensions[pre]
        if not letters:
            continue
        lo = len(steps) + 1
        for x in letters:
            index[pre + (x,)] = len(steps) + 1
            steps.append((index[pre], x))
            order.append(pre + (x,))
        groups.append((index[pre], lo, len(steps) + 1,
                       itemgetter(*letters) if len(letters) > 1 else letters[0]))
    return (steps, groups, [len(pre) for pre in order],
            [(index[u], index[v], u, v) for u, v in rels])


def node_budget(flavor: str, budget: int | None) -> int:
    """The per-root node budget of a run: ``budget``, or the flavor's
    default for ``None``."""
    if budget is None:
        return DEFAULT_CATEGORY_BUDGET if flavor == "category" else DEFAULT_MONOID_BUDGET
    if budget <= 0:
        raise ValueError(f"node budget must be positive, got {budget}")
    return budget


def enumerate_congruence(p: Presentation, budget: int | None = None,
                         headroom: int = 0) -> CongruenceTable:
    """Enumerate the structure presented by ``p``.

    Monoid and semigroup flavors return a total class count; the category
    flavor returns per-hom-set counts for objects up to the cap, from the
    presentation built at ``cap + headroom`` (see the module docstring for
    why headroom 0 can certify a count).  Every relation side must be a
    well-typed path from its source, or the run raises
    ``InternalInconsistency``.  ``budget`` bounds the nodes per source
    object; ``None`` picks the flavor's default.  Tensor flavors have no
    completeness enumeration.
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
        run, bound, roots = p, None, 1
        dr = [(0, 0)] * len(p.alphabet)
        sides = [(0, lhs, rhs) for lhs, rhs in p.relations]
    gen_index = {sym: k for k, sym in enumerate(run.alphabet)}
    rels_by_src: dict[int, list] = {}
    for src, lhs, rhs in sides:
        pair = tuple(tuple(gen_index[s] for s in side) for side in (lhs, rhs))
        # the engine defines a transition wherever a trace is missing one,
        # which is only sound along a well-typed path
        for side in pair:
            obj = src
            for g in side:
                if dr[g][0] != obj:
                    raise InternalInconsistency(
                        f"a relation side from object {src} is not a well-typed path")
                obj = dr[g][1]
        rels_by_src.setdefault(src, []).append(pair)

    eng = _Engine(dr, budget, roots)
    try:
        eng.run(rels_by_src)
    except _BudgetExceeded:
        return CongruenceTable(p.flavor, "budget-exceeded",
                               nodes_created=len(eng.rows), bound=bound)

    renumber, table = eng.compressed()      # keyed by the alive nodes, in order
    done = CongruenceTable(p.flavor, "complete", nodes_created=len(eng.rows),
                           bound=bound, transitions=table, gen_index=gen_index,
                           roots={m: renumber[eng.find(m)] for m in range(roots)})
    if category:
        # nodes above the cap belong to paths through wider objects; only
        # hom-sets within the cap are reported
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
