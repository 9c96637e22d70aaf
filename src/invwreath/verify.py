"""Per-instance verification that a built presentation presents its target:
relation soundness, generation with witnesses, and congruence enumeration
compared against brute-force cardinalities.

Soundness gives a well-defined map out of the presented structure;
generation makes it onto; equality of the finite sizes makes it a
bijection.  The three stages are reported separately and the verdict is
their conjunction, with budget exhaustion reported as inconclusive rather
than failure.  The category kind runs the same argument hom-set by
hom-set, so every enumerable kind goes through one pipeline.

A cell first checks the closed-form target against the node budget,
from the kind, base and level alone, so an oversized cell stops before
anything is built.  It then builds the presentation and runs soundness,
the enumeration, and generation.  A complete table is the right Cayley
graph of the presented structure, so generation walks it breadth-first
from its starts: each class's image is its parent's image times one
generator image.  Only when the table is incomplete does generation close
the generator images under composition instead, by ``base._close``.
Either way it keeps no word but a spanning tree (``base._Tree``): per
codomain, a dict from each image's codes to the visit of a class, or the
closure element, that first held it, and per such holder the holder of
its parent's image and the letter.  Both give the same breadth-first witness words.
``canonical_word`` reads one at a time from ``_close``'s tree of the kind
built at the element's own level, and the normal forms read theirs from
``_close`` too, so the program has one source of witness words.
Generation multiplies code strings (``wreath.encode_key``): each
generator image is a translate table on code points
(``wreath.right_action``), so a product is one ``str.translate``.  The
target is streamed as code strings (``wreath.enumerate_codes``) and
looked up in its codomain's dict, and an element is decoded to its plain
form only when it is missing.  No product is validated; the docstring of
``check_generation`` says why that is sound.  Last the sizes are compared.

Soundness runs on the same codes, with the same letter actions: each
relation side is evaluated from the identity at its source, one
``str.translate`` per letter, and the two sides' codes are compared.
Only a relation whose sides differ is evaluated again as elements over
the presentation's own base, to word the failure; the docstring of
``check_soundness`` says when else the evaluator is used.

The category kind differs only in its target, a count per hom-set.  It is
counted from the build at its own cap ``C``, and a count above the target
fails, as a flat one does.  No wider build is needed.  The argument uses
only relations that ``omega-mi`` has for each ``k < C``: ``λ_k ρ_k = 1_k``,
``ρ_k λ_k = e_{k+1}``, ``g λ_k = λ_k g⁺`` and ``ρ_k g = g⁺ ρ_k``.

- Push each ``λ`` left and each ``ρ`` right, turn each valley ``ρ_k λ_k``
  into ``e_{k+1}``, and raise the peak by ``λ_k ρ_k = 1_k``.  Every path
  ``m -> n`` within the cap is then ``Λ_m w P_n``, with
  ``Λ_m = λ_m ⋯ λ_{C-1}``, ``P_n = ρ_{C-1} ⋯ ρ_n`` and ``w`` a word over
  the level-``C`` letters of ``r-min``.
- ``Λ_m P_m = 1_m`` and ``P_m Λ_m = e_{m+1} ⋯ e_C =: E_m``, so
  ``Λ_m w P_n = Λ_m (E_m w E_n) P_n``.
- If two such paths are one element, ``E_m w E_n`` and ``E_m w' E_n`` are
  equal in ``M ≀ I_C``, so ``r-min`` at level ``C`` identifies them, and
  the build identifies the two paths.
- So no hom-set count exceeds the target, and soundness and generation
  make it equal.

The table is enumerated from the cap ``C`` alone, and the hom-sets out of
the lower objects are read from it.  ``Λ_m P_m = 1_m`` makes ``q ↦ P_m q``
one to one on the paths out of ``m``: if ``P_m q = P_m q'``, then
``q = Λ_m P_m q = Λ_m P_m q' = q'``.  So the paths ``m -> n`` are as many as
the classes at ``n`` that the class of ``P_m`` reaches.  Generation walks
those classes from the class of ``P_m``, with the identity at ``m`` as its
image, and the hom-set ``(m, n)`` is counted as the classes at ``n`` that
this walk visits, so each orbit is traversed once.  The argument
needs ``λ_k ρ_k = i_k`` among the relations for every ``k < C``; when one
is missing, the lower counts are not counted, the cell is inconclusive at
best, and its note names the missing relation.  A count out of ``C``
above its target still fails the cell.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, islice, takewhile

from . import wreath, words
from .base import BasePresentation, InternalInconsistency, _close, _Tree, adjoin_zero, builtin
from .congruence import CongruenceTable, enumerate_congruence, node_budget, walk_visits
from .presentations import FLAVOR_SYNTAX, KIND, Presentation, build, check_level
from .words import (Path, eval_path, eval_term, hat_edge, hat_path, lam, path_text, rho, term_text,
                    x_mn_decompose)
from .wreath import WreathElement

__all__ = [
    "StageReport",
    "GenerationResult",
    "VerificationReport",
    "check_soundness",
    "check_generation",
    "canonical_word",
    "enumerate_target",
    "target_size",
    "over_budget",
    "verify_presentation",
    "verify_category",
    "verify_tensor",
]


@dataclass
class StageReport:
    ok: bool
    detail: str = ""


@dataclass
class GenerationResult:
    """What generation reached: ``covered`` of the ``target`` elements, and
    the least element missed.  It keeps no witness word: ``coded`` rebuilds
    the words from the spanning tree on first read.  ``orbits`` has, per
    walk of a complete table, the classes it visited per object, and is
    ``None`` when generation closed the images instead."""
    covered: int
    target: int
    width: int = field(repr=False)                 # of the codes
    reached: _Tree = field(repr=False)
    missing_example: WreathElement | None = None
    orbits: list[Counter] | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.covered == self.target

    @cached_property
    def coded(self) -> dict:
        """``(codes, n)`` -> word, in the order generation reached them,
        rebuilt from the spanning tree on first read."""
        return self.reached.words()

    @cached_property
    def witness(self) -> dict:
        """Plain form -> word, decoded on first read, in ``coded``'s order."""
        return {wreath.decode_key(self.width, c): word for c, word in self.coded.items()}


@dataclass
class VerificationReport:
    kind: str
    monoid: str
    n: int | None
    soundness: StageReport | None = None
    generation: tuple[int, int] | None = None      # (covered, target)
    enumerated_size: object = None
    target_size: object = None
    verdict: str = "fail"                          # pass | fail | inconclusive
    notes: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "monoid": self.monoid,
            "n": self.n,
            "soundness": None if self.soundness is None else
                ("pass" if self.soundness.ok else f"fail: {self.soundness.detail}"),
            "verdict": self.verdict,
        }
        if self.generation is not None:
            out["generation"] = {"covered": self.generation[0], "target": self.generation[1]}
        if self.enumerated_size is not None:
            out["enumerated_size"] = _jsonable(self.enumerated_size)
        if self.target_size is not None:
            out["target_size"] = _jsonable(self.target_size)
        if self.notes:
            out["notes"] = {k: _jsonable(v) for k, v in self.notes.items()}
        return out


def _jsonable(v):
    if isinstance(v, dict):
        return {f"{k[0]},{k[1]}" if isinstance(k, tuple) else str(k): _jsonable(x)
                for k, x in v.items()}
    return v


def check_soundness(p: Presentation) -> StageReport:
    """Evaluate every relation; report the first counterexample.

    A flat or category side is evaluated on code strings, as generation
    multiplies: from the identity at the side's source, each letter applies
    the translate table that ``_generators`` gives it, and the two sides'
    final ``(codes, n)`` pairs are compared.  A plain kind is checked over
    the trivial base its target has; its letters carry identity labels, so
    the answer is the one over its own base.  A relation is evaluated again
    by its flavor's evaluator (``FLAVOR_SYNTAX``) in two cases: when its
    sides differ, to word the failure with the elements over the
    presentation's own base; and when a side has a letter outside the
    alphabet, or one whose domain is not where the side has got to, so
    that an ill-typed side raises the evaluator's ``CompositionError``.  A
    tensor side is a term, evaluated by ``eval_term``."""
    p.base.require_evaluation()
    syntax = FLAVOR_SYNTAX[p.flavor]
    coded = None if p.flavor == "tensor" else _coded_value(p)
    for idx, (lhs, rhs) in enumerate(p.relations):
        if coded is not None:
            sides = coded(lhs), coded(rhs)
            if None not in sides and sides[0] == sides[1]:
                continue
        left = syntax.eval(lhs, p.base, p.n)
        right = syntax.eval(rhs, p.base, p.n)
        if left != right:
            return StageReport(
                False,
                f"relation {idx}: {syntax.text(lhs)} evaluates to {left.to_json()} "
                f"but {syntax.text(rhs)} evaluates to {right.to_json()}")
        if coded is not None and None not in sides:
            raise InternalInconsistency(
                f"relation {idx} holds as elements but not on position codes")
    return StageReport(True, f"{len(p.relations)} relations sound")


def _coded_value(p: Presentation):
    """The function from a flat word or a path of ``p`` to its ``(codes,
    n)`` pair over the target's base, or to ``None`` at a letter outside
    the alphabet or off its domain."""
    monoid = _target_of(p)[0].require_evaluation()
    width = monoid.size + 1
    acts = dict(_generators(p)[1])
    category = p.flavor == "category"
    identities = {}
    no_letter = (None, None, None)

    def value(side):
        src, letters = (side.src, side.edges) if category else (p.n, side)
        start = identities.get(src)
        if start is None:
            start = identities[src] = wreath.encode_key(width, wreath.identity_key(monoid, src))
        codes, n = start
        for sym in letters:
            dom, act, cod = acts.get(sym, no_letter)
            if dom != n:
                return None
            codes = codes.translate(act)
            n = cod
        return codes, n

    return value


def _target(kind: str, base: BasePresentation, level: int):
    """Base presentation, ``wreath`` variant and objects of the structure
    ``kind`` presents at ``level``: every object up to the cap for the
    category kind, the one object ``n`` for a flat kind.  Its hom-sets are
    the pairs of these objects.  Plain-map kinds target unlabelled partial
    bijections, over the trivial base."""
    row = KIND.get(kind)
    if row is None or row.variant is None:
        raise ValueError(f"no enumerable target for kind {kind!r}")
    objects = range(level + 1) if row.level == "cap" else (level,)
    return builtin("trivial") if row.plain else base, row.variant, objects


def _target_of(p: Presentation):
    """``_target`` of a built presentation, with its hom-sets ``(m, n)``
    listed in place of its objects."""
    base, variant, objects = _target(p.kind, p.base, p.n if p.cap is None else p.cap)
    return base, variant, [(m, n) for m in objects for n in objects]


def enumerate_target(p: Presentation) -> set:
    """Brute-force element set of the structure the kind presents."""
    base, variant, homs = _target_of(p)
    monoid = base.require_evaluation()
    return {elem for m, n in homs
            for elem in wreath.enumerate_wreath(monoid, m, n, variant)}


def _hom_targets(p: Presentation) -> dict:
    """Closed-form size of the target's part in each hom-set."""
    base, variant, homs = _target_of(p)
    monoid = base.require_evaluation()
    return {(m, n): wreath.count_wreath(monoid, m, n, variant) for m, n in homs}


def target_size(p: Presentation) -> int:
    """Closed-form size of the same set."""
    return sum(_hom_targets(p).values())


# the need is summed exactly up to here, so a report names it
_EXACT_NEED = 10 ** 12


def over_budget(kind: str, base: BasePresentation, level: int, budget: int | None):
    """``None`` when the closed-form target of ``kind`` at ``level`` fits
    in the enumeration's node budget, else the pair of its need and that
    budget.  Each class needs a node of its own, and a semigroup run one
    more for the empty word.  ``level`` is the flat kind's ``n`` or the
    category's cap, and nothing is built.

    The run's one root is ``level`` itself, for the category kind too,
    and its size is summed rank by rank, stopping once the sum
    passes both the budget and ``_EXACT_NEED``, so a huge level costs a few
    terms, not a sum of big integers, and its need reads ``more than``."""
    base, variant, objects = _target(kind, base, level)
    flavor = KIND[kind].flavor
    budget = node_budget(budget)
    monoid = base.require_evaluation()
    limit = max(budget, _EXACT_NEED)
    need = 1 if flavor == "semigroup" else 0
    for term in chain.from_iterable(
            wreath.rank_counts(monoid, level, n, variant) for n in objects):
        need += term
        if need > limit:
            break
    if need <= budget:
        return None
    return (f"more than {limit}" if need > limit else need), budget


def _generators(p: Presentation):
    """What generation closes, on code strings over the target's base
    (``wreath.encode_key``): the seeds, which are the generator images for
    a semigroup kind and the identity at each object otherwise, each with
    its word; and per letter, in alphabet order, its image's domain size,
    its translate table (``wreath.right_action``) and its codomain size.
    They are built once per presentation and kept with it, so a cell's
    soundness and generation read one build of the letters' tables."""
    if "generators" not in p._memo:
        tgt_base, _, homs = _target_of(p)
        tgt_monoid = tgt_base.require_evaluation()
        z = adjoin_zero(tgt_monoid).table
        keys = [(sym, words.sym_image(sym, tgt_base, p.n).key) for sym in p.alphabet]
        if p.flavor == "semigroup":
            seeds = [(wreath.encode_key(len(z), g), (sym,)) for sym, g in keys]
        else:
            seeds = [(wreath.encode_key(len(z), wreath.identity_key(tgt_monoid, m)), ())
                     for m, n in homs if m == n]
        gens = [(sym, (len(g[0]), wreath.right_action(z, g), g[2]))
                for sym, g in keys]
        p._memo["generators"] = seeds, gens
    return p._memo["generators"]


def check_generation(p: Presentation, table: CongruenceTable | None = None) -> GenerationResult:
    """Reach the structure's elements from the generator images, with one
    witness word per element, and compare with the brute-force target.

    With a complete ``table`` the elements are reached by walking it, one
    product per class that a walk visits: one walk for a flat kind, and
    for the category kind one per object ``m``, from the class of ``P_m``.
    Each walk's classes, counted per object, are the result's ``orbits``,
    from which ``verify`` reads the category's lower hom-set counts (see
    the module docstring).  Otherwise they are reached by closing the
    generator images under composition.  Both visit in the same
    breadth-first order, with letters in alphabet order, so they give the
    same witness words.  Both keep a spanning tree (``_Tree``) and no word,
    and look the target up in its per-codomain dicts; the words are built
    only when the result's ``coded`` or ``witness`` is read.

    Everything runs on code strings (``wreath.encode_key``): each letter
    acts by a translate table, so a product is one ``str.translate``.
    The products are not validated, and need not be: a verdict of ``pass``
    needs ``covered == target == classes``, where a category's classes are
    the visits its counts are read from.  The walk makes one product per
    visit, so at most ``classes`` distinct images, and ``covered`` of them
    are target elements; when all three agree, the images are exactly the
    target's elements, each reached once.

    The target's codes are what is checked.  They are streamed hom-set by
    hom-set (``wreath.enumerate_codes``), never held as a set, and each
    string is looked up among the images reached in its codomain; each code
    must be 0 or have both an image and a label, the code strings must
    strictly increase within a hom-set, and the total must match the
    closed form, or the run raises ``InternalInconsistency``.  The missing
    example is the smallest element not reached, by ``sort_key``, the
    earlier hom-set on a tie; only elements not reached are decoded."""
    tgt_base, variant, homs = _target_of(p)
    tgt_monoid = tgt_base.require_evaluation()
    width = tgt_monoid.size + 1
    seeds, gens = _generators(p)
    if table is not None and table.status == "complete":
        if p.flavor == "semigroup":
            # the empty word's class is no element: start one letter in
            walks = [[table.trace(0, (sym,)) for sym in p.alphabet]]
        elif p.flavor == "category":
            # object m from the class of P_m (see the module docstring)
            walks = [[table.trace(p.cap, _descent(p.cap, m))] for m in range(p.cap + 1)]
        else:
            walks = [[0]]               # the root's class, the identity
        reached, orbits = _walk(table, walks, seeds, gens)
    else:
        reached, orbits = _close(seeds, gens), None
    # a repeated element shows as a code string that does not increase.
    # Plain forms of two hom-sets that tie on ``sort_key`` share the domain
    # size, so the earlier hom-set's, with the smaller codomain, is smaller
    found = covered = 0
    missing = None
    for m, n in homs:
        # codes with an image and no label, or a label and no image
        stray = {chr(c) for c in range(1, (n + 1) * width) if c < width or not c % width}
        into = reached.held.get(n, ())
        last = None
        for codes in wreath.enumerate_codes(tgt_monoid, m, n, variant):
            if not stray.isdisjoint(codes):
                raise InternalInconsistency(
                    f"target codes {tuple(map(ord, codes))} of hom-set ({m}, {n}) "
                    f"have support off the domain")
            if last is not None and codes <= last:
                raise InternalInconsistency(
                    f"target enumeration of hom-set ({m}, {n}) repeats or is out of order")
            last = codes
            found += 1
            if codes in into:
                covered += 1
            else:
                key = wreath.decode_key(width, (codes, n))
                if missing is None or key < missing:
                    missing = key
    tgt = target_size(p)
    if found != tgt:
        raise InternalInconsistency(
            f"target enumeration ({found}) disagrees with the closed form ({tgt})")
    return GenerationResult(covered, found, width, reached,
                            None if missing is None else wreath.from_key(missing), orbits)


def _walk(table: CongruenceTable, walks, seeds, gens):
    """``_close`` over a complete table: one breadth-first walk over the
    classes per list of ``walks``, from its start classes, which are the
    classes of the next ``seeds``, with one product per class reached.
    Only the letters of ``gens`` that leave a class's object are followed.
    A category table has one walk per object, from the class of ``P_m``;
    these walks reach nested sets of classes, so a class is visited once
    per walk that reaches it, with another image each time.  The walks go
    together, frontier by frontier, in the visit order of
    ``congruence.walk_visits``, so the images are reached in the order
    that ``_close`` reaches them.  Returns the spanning tree and, per walk,
    the classes it visited per object: the category's lower hom-set
    counts (see the module docstring).

    No word is kept.  Per codomain, a dict maps each code string to its
    first holder: the seed that gave it, or the number of the visit whose
    product first reached it.  As in ``_close``, only a visit that holds
    its image is numbered, with the holder of its parent's image and the
    letter, so its word is that holder's word plus the letter.  A visit's
    image is its parent visit's image times the letter of its column, one
    ``str.translate``.  Each visit's image and holder are kept until the
    walk ends, in two lists beside the four visit arrays: a new image is
    the very string its dict holds, so only an image reached again, as in
    a table of the wrong structure, is a string of its own."""
    held = {}
    # per object, the letter, action and codomain's dict of each letter of
    # ``gens`` that leaves it, by column
    leaving = [[(letter, act, held.setdefault(cod, {}))
                for letter, (_, act, cod) in gens if letter in cols]
               for cols in table.columns]
    for k, ((codes, n), _) in enumerate(seeds):
        held.setdefault(n, {}).setdefault(codes, ~k)
    classes, parents, columns, walk = walk_visits(table, walks)
    objects = table.objects
    # per visit, its image and that image's holder; the starts come first
    images, holders = [], []
    for p in takewhile((0).__gt__, parents):
        codes, n = seeds[~p][0]
        images.append(codes)
        holders.append(held[n][codes])
    parent, letters = [], []
    cur = -1
    for p, col in islice(zip(parents, columns), len(images), None):
        if p != cur:
            cur = p
            codes, holder, out = images[p], holders[p], leaving[objects[classes[p]]]
        letter, act, into = out[col]
        b = codes.translate(act)
        h = into.get(b)
        if h is None:
            h = into[b] = len(parent)
            parent.append(holder)
            letters.append(letter)
        images.append(b)
        holders.append(h)
    orbits = [Counter() for _ in walks]
    if len(table.columns) == 1:     # every class is at object 0
        for w, orbit in enumerate(orbits):
            orbit[0] = walk.count(w)
    else:
        for (w, m), count in Counter(zip(walk, map(objects.__getitem__, classes))).items():
            orbits[w][m] = count
    return _Tree(held, parent, letters, [word for _, word in seeds]), orbits


def _descent(cap: int, m: int):
    """``P_m = ρ_{cap-1} ⋯ ρ_m``, the path from ``cap`` down to ``m``."""
    return tuple(rho(k) for k in range(cap - 1, m - 1, -1))


def _category_counts(p: Presentation, table: CongruenceTable, orbits: list[Counter]):
    """The counts of the category build ``p`` from its complete ``table``,
    rooted at the cap ``C``, and ``None``: ``(C, n)`` as the table has
    it, and ``(m, n)`` for ``m < C`` as the classes at ``n`` that the
    class of ``P_m`` reaches, which generation's walk from it visited
    (``orbits[m]``; see the module docstring).  When a relation
    ``λ_k ρ_k = i_k`` with ``k < C`` is missing from ``p``, the lower
    counts prove nothing: the counts out of ``C`` alone, and the first
    missing relation in place of ``None``."""
    cap = p.cap
    counts = {(cap, n): table.hom_sizes.get((cap, n), 0) for n in range(cap + 1)}
    for k in range(cap):
        rel = (Path(k, (lam(k), rho(k))), Path(k, ()))
        if rel not in p.relations and rel[::-1] not in p.relations:
            return counts, rel
    counts.update(((m, n), orbits[m][n]) for m in range(cap) for n in range(cap + 1))
    return dict(sorted(counts.items())), None


@lru_cache(maxsize=16)
def _witnesses(kind: str, base: BasePresentation, level: int) -> _Tree:
    """The spanning tree of ``kind`` built at ``level``, by the closure
    that generation falls back to."""
    return _close(*_generators(build(kind, base, **{KIND[kind].level: level})))


def canonical_word(elem: WreathElement, kind: str, base: BasePresentation):
    """The word, path or term over ``kind``'s alphabet that generation
    keeps for ``elem``: its breadth-first witness in the kind built at the
    element's own level, which is the domain for a flat kind and the larger
    end for the category kind, whose witness edges make a path from the
    domain.  A plain kind presents unlabelled maps, so it reads ``elem``
    over the trivial base, as its target does.  A tensor kind's term is
    the realization of the category kind's path.  An element the kind does
    not present raises ``ValueError``, and so does a level whose target
    is above the default node budget (``over_budget``), before anything is
    closed.  The spanning trees of the last few builds are kept, and one
    word is read from a tree per call."""
    row = KIND.get(kind)
    if row is None:
        raise ValueError(f"unknown kind {kind!r}")
    if row.plain:
        base = builtin("trivial")
    if row.flavor == "tensor":
        return hat_path(canonical_word(elem, "omega-mi", base))
    level = max(elem.dom_size, elem.cod_size) if row.level == "cap" else elem.dom_size
    over = over_budget(kind, base, level, None)
    if over:
        needs, nodes = over
        raise ValueError(f"the witness words of kind {kind} at {row.level}={level} need "
                         f"{needs} nodes, above the default node budget of {nodes}")
    tree = _witnesses(kind, base, level)
    try:
        word = tree.word(*wreath.encode_key(base.require_evaluation().size + 1, elem.key))
    except ValueError:
        word = None
    if word is None:
        raise ValueError(f"kind {kind} presents no element {elem.to_json()}")
    return Path(elem.dom_size, word) if row.flavor == "category" else word


def verify_presentation(kind: str, base: BasePresentation, n: int,
                        budget: int | None = None) -> VerificationReport:
    """Verify one flat (monoid or semigroup) kind at level ``n``: the
    enumerated class count must equal the target's size."""
    check_level(kind, n)
    return _verify_cell(kind, base, n, budget)


def verify_category(cap: int, base: BasePresentation, budget: int | None = None,
                    seed: int = 0) -> VerificationReport:
    """Verify the category kind up to object ``cap``, one hom-set count per
    pair of objects, from the build at ``cap`` (see the module docstring).
    ``seed`` is ignored."""
    check_level("omega-mi", cap=cap)
    return _verify_cell("omega-mi", base, cap, budget)


def _verify_cell(kind: str, base: BasePresentation, level: int,
                 budget: int | None) -> VerificationReport:
    """The one pipeline: the budget check, then build, soundness,
    enumeration, generation and the size comparison.  A flat count is one
    number and a category count one per hom-set; a count above the target
    fails, and one below it is an ``InternalInconsistency``."""
    base.require_evaluation()
    row = KIND[kind]
    category = row.flavor == "category"
    report = VerificationReport(kind, base.name or "custom", level)
    over = over_budget(kind, base, level, budget)
    if over:
        needs, nodes = over
        report.verdict = "inconclusive"
        report.notes["enumeration"] = (
            f"stopped before generation: the target needs {needs} nodes under one root, "
            f"above the node budget of {nodes}")
        return report
    p = build(kind, base, **{row.level: level})
    report.soundness = check_soundness(p)
    if not report.soundness.ok:
        return report
    table = enumerate_congruence(p, budget)
    gen = check_generation(p, table)
    report.generation = (gen.covered, gen.target)
    report.target_size = tgt = _hom_targets(p) if category else gen.target
    if not gen.ok:
        report.notes["generation"] = f"missing {gen.missing_example.to_json()}"
        return report
    if table.status != "complete":
        report.verdict = "inconclusive"
        report.notes["enumeration"] = f"budget exhausted after {table.nodes_created} nodes"
        return report
    if category:
        got, gap = _category_counts(p, table, gen.orbits)
        above = any(got[key] > tgt[key] for key in got)
        below = any(got[key] < tgt[key] for key in got)
    else:
        got, gap = table.size, None
        above, below = got > tgt, got < tgt
    report.enumerated_size = got
    if below:
        raise InternalInconsistency(f"enumerated {got} classes below the sound target {tgt}")
    if gap is not None:
        report.notes["enumeration"] = (
            f"hom-sets out of the objects below {level} not counted: "
            f"{path_text(gap[0])} = {path_text(gap[1])} is not a relation")
    if not above:
        report.verdict = "pass" if gap is None else "inconclusive"
    return report


_HAT_CAP = 3
"""The cap of the ``omega-mi`` build that ``verify_tensor`` links to a
tensor kind by ``hat``, a functor: ``hat_path`` of a path is the composite
of its edges' ``hat_edge`` terms (the identity term for no edge),
``eval_term`` of a composite is the ``wreath.compose`` of its parts, and
``eval_path`` folds the same products from the identity.  So ``hat``
agrees with ``eval_path`` on every path up to the cap if and only if it
does on every edge, and then a category relation's image under ``hat``
holds if and only if the relation does: the build's soundness."""


def verify_tensor(base: BasePresentation, kind: str = "xi-mi") -> VerificationReport:
    """Four checks of a tensor kind, each with its count in ``notes``:
    its relations' soundness, ``hat`` on every edge of ``omega-mi`` at
    ``_HAT_CAP`` (``hat_edges``), the padded edges' decompositions
    (``decompositions``) and that build's soundness (``shadow_relations``).
    A failure is named under ``hat``, ``decompose`` or ``shadow``.  The
    unlabelled kind presents the plain category, so ``omega-mi`` is built
    over the trivial base."""
    base.require_evaluation()
    p = build(kind, base)
    report = VerificationReport(kind, base.name or "custom", None)
    report.soundness = check_soundness(p)
    if not report.soundness.ok:
        return report

    if KIND[kind].plain:
        base = builtin("trivial")
    omega = build("omega-mi", base, cap=_HAT_CAP)
    for sym in omega.alphabet:
        edge = Path(words.edge_dr(sym)[0], (sym,))
        if eval_term(hat_edge(sym), base) != eval_path(edge, base):
            report.notes["hat"] = f"edge {path_text(edge)} not realized"
            return report
    report.notes["hat_edges"] = len(omega.alphabet)

    pads = [(m, n) for m in range(5) for n in range(5 - m)]
    for sym in p.alphabet:
        for m, n in pads:
            term, path = x_mn_decompose(sym, m, n)
            if eval_term(term, base) != eval_path(path, base):
                report.notes["decompose"] = f"{term_text(term)} != {path_text(path)}"
                return report
    report.notes["decompositions"] = len(p.alphabet) * len(pads)

    shadow = check_soundness(omega)
    if not shadow.ok:
        report.notes["shadow"] = shadow.detail
        return report
    report.notes["shadow_relations"] = len(omega.relations)
    report.verdict = "pass"
    return report
