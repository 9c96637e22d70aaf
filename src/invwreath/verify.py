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
from the roots: each class's image is its parent's image times one
generator image.  Only when the table is incomplete does generation close
the generator images under composition instead.  Either way the witness
words are the same breadth-first words, and ``canonical_word`` reads its
words from that closure too, with the kind built at the element's own
level, so the program has one source of witness words.  Generation
multiplies position codes (``wreath.right_action``): each generator image
is a lookup table on codes, so a product is one ``map``.  The target is
streamed as codes (``wreath.enumerate_codes``), and an element is decoded
to its plain form only when it is missing.  No product is validated; the
docstring of ``check_generation`` says why that is sound.  Last the sizes
are compared.

The category kind differs in three places only: its target is a count per
hom-set; its report carries the headroom the counts were taken at; and a
count above the target does not fail.  At a headroom ``h`` the cell builds
the presentation at ``cap + h``, checks its soundness too, and enumerates it
with roots only up to the cap, counting the hom-sets within the cap; a
wider build that is unsound fails the cell.  Soundness maps each counted
hom-set of the wider presented category into the target, and generation
on the cap-level alphabet, whose paths are paths of the wider build too,
makes that map onto.  So each count at any headroom is at least the
target's, and one equal to it, even at headroom 0, is a proof.  A run
starts at headroom 0, where the table is smallest, and a count above the
target re-enumerates one step wider, up to a maximal headroom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain

from . import wreath, words
from .base import BasePresentation, InternalInconsistency, adjoin_zero, builtin, closure
from .congruence import CongruenceTable, enumerate_congruence, node_budget
from .presentations import FLAVOR_SYNTAX, KIND, Presentation, build, check_level
from .words import Path, eval_path, eval_term, hat_path, path_text, term_text, x_mn_decompose
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
    covered: int
    target: int
    coded: dict = field(repr=False)                # (codes, n) -> word
    width: int = field(repr=False)                 # of the codes
    missing_example: WreathElement | None = None

    @property
    def ok(self) -> bool:
        return self.covered == self.target

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
    """Evaluate every relation; report the first counterexample."""
    p.base.require_evaluation()
    syntax = FLAVOR_SYNTAX[p.flavor]
    for idx, (lhs, rhs) in enumerate(p.relations):
        left = syntax.eval(lhs, p.base, p.n)
        right = syntax.eval(rhs, p.base, p.n)
        if left != right:
            return StageReport(
                False,
                f"relation {idx}: {syntax.text(lhs)} evaluates to {left.to_json()} "
                f"but {syntax.text(rhs)} evaluates to {right.to_json()}")
    return StageReport(True, f"{len(p.relations)} relations sound")


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
            for elem in wreath.enumerate_wreath(monoid, m, n, variant, cap=max(m, n))}


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


def _over_budget(kind: str, base: BasePresentation, level: int, budget: int | None,
                 report: VerificationReport) -> bool:
    """Mark ``report`` inconclusive when the closed-form target alone needs
    more nodes under one root than the enumeration's budget allows: each
    class needs a node of its own, and a semigroup run one more for the
    empty word.  ``level`` is the flat kind's ``n`` or the category's cap,
    and nothing is built.

    The largest root is ``level`` itself, as ``hom_count`` grows with the
    domain, and its size is summed rank by rank, stopping once the sum
    passes both the budget and ``_EXACT_NEED``, so a huge level costs a few
    terms, not a sum of big integers."""
    base, variant, objects = _target(kind, base, level)
    flavor = KIND[kind].flavor
    budget = node_budget(flavor, budget)
    monoid = base.require_evaluation()
    limit = max(budget, _EXACT_NEED)
    need = 1 if flavor == "semigroup" else 0
    for term in chain.from_iterable(
            wreath.rank_counts(monoid, level, n, variant) for n in objects):
        need += term
        if need > limit:
            break
    if need <= budget:
        return False
    report.verdict = "inconclusive"
    needs = f"more than {limit}" if need > limit else need
    report.notes["enumeration"] = (
        f"stopped before generation: the target needs {needs} nodes under one root, "
        f"above the node budget of {budget}")
    return True


def _generators(p: Presentation):
    """What generation closes, on position codes over the target's base
    (``wreath.encode_key``): the seeds, which are the generator images for
    a semigroup kind and the identity at each object otherwise, each with
    its word; per letter, in alphabet order, its image's domain size, its
    action on codes (``wreath.right_action``) and its codomain size; and
    the product, ``None`` off a letter's domain."""
    tgt_base, _, homs = _target_of(p)
    tgt_monoid = tgt_base.require_evaluation()
    z = adjoin_zero(tgt_monoid).table
    keys = [(sym, words.sym_image(sym, tgt_base, p.n).key) for sym in p.alphabet]
    if p.flavor == "semigroup":
        seeds = [(wreath.encode_key(len(z), g), (sym,)) for sym, g in keys]
    else:
        seeds = [(wreath.encode_key(len(z), wreath.identity_key(tgt_monoid, m)), ())
                 for m, n in homs if m == n]
    gens = [(sym, (len(g[0]), wreath.right_action(z, g).__getitem__, g[2])) for sym, g in keys]
    return seeds, gens, _act


def _act(a, g):
    """The pair ``a`` times a letter's image ``g`` on codes, or ``None``
    when ``a``'s codomain is not ``g``'s domain."""
    codes, n = a
    dom, act, cod = g
    return (tuple(map(act, codes)), cod) if n == dom else None


def check_generation(p: Presentation, table: CongruenceTable | None = None) -> GenerationResult:
    """Reach the structure's elements from the generator images, keeping
    one witness word per element, and compare with the brute-force target.

    With a complete ``table`` the elements are reached by walking it, one
    product per class; otherwise by closing the generator images under
    composition.  Both visit in the same breadth-first order, with letters
    in alphabet order, so they give the same witness words.

    Everything runs on position codes (``wreath.encode_key``): each letter
    acts by a lookup table, so a product is one ``map`` over the codes.
    The products are not validated, and need not be: a verdict of ``pass``
    needs ``covered == target == classes``.  The walk makes one product per
    class, so at most ``classes`` distinct images, and ``covered`` of them
    are target elements; when all three agree, the images are exactly the
    target's elements, each reached once.

    The target's codes are what is checked.  They are streamed hom-set by
    hom-set (``wreath.enumerate_codes``), never held as a set; each code
    must be 0 or have both an image and a label, the code tuples must
    strictly increase within a hom-set, and the total must match the
    closed form, or the run raises ``InternalInconsistency``.  The missing
    example is the smallest element not reached, by ``sort_key``, the
    earlier hom-set on a tie; only elements not reached are decoded."""
    tgt_base, variant, homs = _target_of(p)
    tgt_monoid = tgt_base.require_evaluation()
    width = tgt_monoid.size + 1
    seeds, gens, mul = _generators(p)
    if table is not None and table.status == "complete":
        if p.flavor == "semigroup":
            # the empty word's class is no element: start one letter in
            starts = [table.trace(0, (sym,)) for sym in p.alphabet]
        else:
            starts = list(table.roots.values())     # one per object, in order
        witness = _walk(table, starts, seeds, gens)
    else:
        witness = closure(seeds, gens, mul)
    # a repeated element shows as a code tuple that does not increase.
    # Plain forms of two hom-sets that tie on ``sort_key`` share the domain
    # size, so the earlier hom-set's, with the smaller codomain, is smaller
    found = covered = 0
    missing = None
    for m, n in homs:
        # codes with an image and no label, or a label and no image
        stray = {c for c in range(1, (n + 1) * width) if c < width or not c % width}
        last = None
        for codes in wreath.enumerate_codes(tgt_monoid, m, n, variant, cap=max(m, n)):
            if not stray.isdisjoint(codes):
                raise InternalInconsistency(
                    f"target codes {codes} of hom-set ({m}, {n}) have support off the domain")
            if last is not None and codes <= last:
                raise InternalInconsistency(
                    f"target enumeration of hom-set ({m}, {n}) repeats or is out of order")
            last = codes
            found += 1
            if (codes, n) in witness:
                covered += 1
            else:
                key = wreath.decode_key(width, (codes, n))
                if missing is None or key < missing:
                    missing = key
    tgt = target_size(p)
    if found != tgt:
        raise InternalInconsistency(
            f"target enumeration ({found}) disagrees with the closed form ({tgt})")
    return GenerationResult(covered, found, witness, width,
                            None if missing is None else wreath.from_key(missing))


def _walk(table: CongruenceTable, starts, seeds, gens) -> dict:
    """``base.closure`` over a complete table: breadth-first over the
    classes from ``starts`` (the classes of ``seeds``), one product per
    class reached.  A class whose image is new takes its parent's word plus
    one letter; a class whose image is already known adds no witness, and
    neither do its children's images, which its first holder has added.
    Only the letters of ``gens`` that leave a class's object are followed,
    so a category table is walked within the cap."""
    # per object, the column, letter, action and codomain of each letter
    # of ``gens`` that leaves it
    leaving = [[(cols[letter], letter, act, cod) for letter, (_, act, cod) in gens
                if letter in cols]
               for cols in table.columns]
    image = [None] * len(table.transitions)     # per class
    queue = []
    witness = {}
    for c, (elt, word) in zip(starts, seeds):
        if image[c] is None:
            image[c] = elt
            queue.append(c)
        witness.setdefault(elt, word)
    for c in queue:         # grows while it is read
        a = image[c]
        codes = a[0]
        row = table.transitions[c]
        for col, letter, act, cod in leaving[table.objects[c]]:
            t = row[col]
            if image[t] is not None:
                continue
            b = image[t] = (tuple(map(act, codes)), cod)
            queue.append(t)
            if b not in witness:
                witness[b] = witness[a] + (letter,)
    return witness


@lru_cache(maxsize=16)
def _witnesses(kind: str, base: BasePresentation, level: int) -> dict:
    """The witness words of ``kind`` built at ``level``, by the closure
    that generation falls back to, keyed by position codes."""
    return closure(*_generators(build(kind, base, **{KIND[kind].level: level})))


def canonical_word(elem: WreathElement, kind: str, base: BasePresentation):
    """The word, path or term over ``kind``'s alphabet that generation
    keeps for ``elem``: its breadth-first witness in the kind built at the
    element's own level, which is the domain for a flat kind and the larger
    end for the category kind, whose witness edges make a path from the
    domain.  A plain kind presents unlabelled maps, so it reads ``elem``
    over the trivial base, as its target does.  A tensor kind's term is
    the realization of the category kind's path.  An element the kind does
    not present raises ``ValueError``.  The witnesses of the last few
    builds are kept."""
    row = KIND.get(kind)
    if row is None:
        raise ValueError(f"unknown kind {kind!r}")
    if row.plain:
        base = builtin("trivial")
    if row.flavor == "tensor":
        return hat_path(canonical_word(elem, "omega-mi", base))
    level = max(elem.dom_size, elem.cod_size) if row.level == "cap" else elem.dom_size
    try:
        coded = wreath.encode_key(base.require_evaluation().size + 1, elem.key)
    except ValueError:
        coded = None
    word = _witnesses(kind, base, level).get(coded)
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
                    headroom: int = 0, max_headroom: int = 4,
                    seed: int = 0) -> VerificationReport:
    """Verify the category kind up to object ``cap``, one hom-set count per
    pair of objects.  The enumeration starts at ``headroom`` and widens on
    a count above the target up to ``max_headroom`` (see the module
    docstring).  ``seed`` is ignored."""
    if cap < 1:
        raise ValueError("object cap must be at least 1")
    if headroom < 0:
        raise ValueError(f"headroom must be at least 0, got {headroom}")
    return _verify_cell("omega-mi", base, cap, budget, headroom, max_headroom)


def _verify_cell(kind: str, base: BasePresentation, level: int, budget: int | None,
                 headroom: int = 0, max_headroom: int = 0) -> VerificationReport:
    """The one pipeline: the budget check, then build, soundness,
    enumeration, generation and the size comparison.  A flat count is one
    number and a count above the target fails; a category count is one per
    hom-set, and a count above the target re-enumerates one headroom wider,
    up to ``max_headroom``, and then the cell is inconclusive.  Each wider
    build is checked for soundness before it is counted from.  A count
    below the target is an ``InternalInconsistency``."""
    base.require_evaluation()
    row = KIND[kind]
    category = row.flavor == "category"
    report = VerificationReport(kind, base.name or "custom", level)
    if _over_budget(kind, base, level, budget, report):
        return report
    p = build(kind, base, **{row.level: level})
    report.soundness = check_soundness(p)
    if not report.soundness.ok:
        return report
    gen = None
    while True:
        wide = p
        if headroom:
            # the counts come from the wider build, so it must be sound too
            wide = build(kind, base, cap=level + headroom)
            sound = check_soundness(wide)
            if not sound.ok:
                report.soundness = StageReport(
                    False, f"at headroom {headroom}, cap {level + headroom}: {sound.detail}")
                report.notes["headroom"] = headroom
                return report
        table = enumerate_congruence(wide, budget, cap=level if category else None)
        if gen is None:
            gen = check_generation(p, table)
            report.generation = (gen.covered, gen.target)
            report.target_size = tgt = _hom_targets(p) if category else gen.target
            if not gen.ok:
                report.notes["generation"] = f"missing {gen.missing_example.to_json()}"
                return report
        if table.status != "complete":
            report.verdict = "inconclusive"
            report.notes["enumeration"] = (f"budget exhausted at headroom {headroom}"
                                           if category else
                                           f"budget exhausted after {table.nodes_created} nodes")
            return report
        if category:
            got = {key: table.hom_sizes.get(key, 0) for key in tgt}
            below = any(got[key] < tgt[key] for key in tgt)
            report.notes["headroom"] = headroom
        else:
            got, below = table.size, table.size < tgt
        report.enumerated_size = got
        if below:
            raise InternalInconsistency(f"enumerated {got} classes below the sound target {tgt}")
        if got == tgt:
            report.verdict = "pass"
            return report
        if not category:
            return report           # the verdict stays "fail"
        if headroom >= max_headroom:
            report.verdict = "inconclusive"
            report.notes["enumeration"] = f"counts above target at maximal headroom {headroom}"
            return report
        headroom += 1


def verify_tensor(base: BasePresentation, levels: int = 3, samples: int = 200,
                  seed: int = 0, kind: str = "xi-mi") -> VerificationReport:
    """Property-level checks for a tensor kind: relation soundness, the
    edgewise realization of random paths, padded-edge decompositions, and
    the semantic shadow of the category relations.

    The unlabelled kind presents the plain category, so its path digraph
    and shadows are taken over the trivial base."""
    base.require_evaluation()
    p = build(kind, base)
    report = VerificationReport(kind, base.name or "custom", None)
    report.soundness = check_soundness(p)
    if not report.soundness.ok:
        return report

    if KIND[kind].plain:
        base = builtin("trivial")
    omega = build("omega-mi", base, cap=levels)
    rng = random.Random(seed)
    edges_by_src: dict[int, list] = {}
    for sym in omega.alphabet:
        d, _ = words.edge_dr(sym)
        edges_by_src.setdefault(d, []).append(sym)

    for _ in range(samples):
        src = rng.randrange(0, levels + 1)
        edges = []
        cur = src
        for _ in range(rng.randrange(0, 6)):
            options = edges_by_src.get(cur)
            if not options:
                break
            sym = rng.choice(options)
            edges.append(sym)
            cur = words.edge_dr(sym)[1]
        path = Path(src, tuple(edges))
        if eval_term(hat_path(path), base) != eval_path(path, base):
            report.notes["hat"] = f"path {path_text(path)} not realized"
            return report
    report.notes["hat_paths"] = samples

    checked = 0
    for sym in p.alphabet:
        for m in range(0, 5):
            for n in range(0, 5 - m):
                term, path = x_mn_decompose(sym, m, n)
                if eval_term(term, base) != eval_path(path, base):
                    report.notes["decompose"] = f"{term_text(term)} != {path_text(path)}"
                    return report
                checked += 1
    report.notes["decompositions"] = checked

    shadows = 0
    for lhs, rhs in omega.relations:
        if eval_term(hat_path(lhs), base) != eval_term(hat_path(rhs), base):
            report.notes["shadow"] = f"{path_text(lhs)} vs {path_text(rhs)}"
            return report
        shadows += 1
    report.notes["shadow_relations"] = shadows
    report.verdict = "pass"
    return report
