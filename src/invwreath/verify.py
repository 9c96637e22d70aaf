"""Per-instance verification that a built presentation presents its target:
relation soundness, generation with witnesses, and congruence enumeration
compared against brute-force cardinalities.

Soundness gives a well-defined map out of the presented structure;
generation makes it onto; equality of the finite sizes makes it a
bijection.  The three stages are reported separately and the verdict is
their conjunction, with budget exhaustion reported as inconclusive rather
than failure.

A cell first checks the closed-form target against the node budget,
from the kind, base and level alone, so an oversized cell stops before
anything is built.  It then builds the presentation and runs soundness,
the enumeration, and generation.  A complete table is the right Cayley
graph of the presented structure, so generation walks it breadth-first
from the roots: each class's image is its parent's image times one
generator image.  Only when the table is incomplete does generation close
the generator images under composition instead.  Either way the witness
words are the same breadth-first words.  Generation composes plain forms
(``wreath.compose_keys``) and validates none of its products; the
docstring of ``check_generation`` says why that is sound.

The category kind counts hom-set by hom-set, enumerating the presentation
built at ``cap + headroom``, and a count equal to the target certifies the
hom-set.  Soundness maps each counted hom-set into the target, and
generation on the cap-level alphabet makes that map onto, so each count
at any headroom is at least the target's.  So a run starts at headroom 0,
where the table is smallest, and a count above the target re-enumerates
one step wider, up to a maximal headroom.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from operator import truth

from . import wreath, words
from .base import BasePresentation, InternalInconsistency, adjoin_zero, builtin, closure
from .congruence import CongruenceTable, enumerate_congruence, node_budget
from .presentations import FLAVOR_SYNTAX, KIND_FLAVOR, Presentation, build, check_level
from .words import (
    Path,
    e_,
    eval_path,
    eval_term,
    hat_path,
    leveled_word,
    path_text,
    term_text,
    x_mn_decompose,
)
from .wreath import WreathElement

__all__ = [
    "StageReport",
    "GenerationResult",
    "VerificationReport",
    "check_soundness",
    "check_generation",
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
    witness: dict                                  # plain form -> word
    missing_example: WreathElement | None = None

    @property
    def ok(self) -> bool:
        return self.covered == self.target


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


_TARGET_VARIANT = {
    "r-in": "full", "r-in-popova": "full", "r-min": "full", "r-min-small": "full",
    "omega-mi": "full",
    "r-sing-in": "singular-monoid",
    "r-sing-tuples": "singular-tuples",
    "r-m-sing-in": "singular-monoid",
}


def _target_base(kind: str, base: BasePresentation) -> BasePresentation:
    """Plain-map kinds target unlabelled partial bijections, over the
    trivial base."""
    return builtin("trivial") if kind in ("r-in", "r-in-popova", "r-sing-in") else base


def _target(p: Presentation):
    """Base presentation, ``wreath`` variant and hom-sets ``(m, n)`` of the
    structure the kind presents: every pair of levels up to the cap for
    the category kind, the one pair ``(n, n)`` for a flat kind."""
    if p.kind not in _TARGET_VARIANT:
        raise ValueError(f"no enumerable target for kind {p.kind!r}")
    objects = range(p.cap + 1) if p.flavor == "category" else (p.n,)
    homs = [(m, n) for m in objects for n in objects]
    return _target_base(p.kind, p.base), _TARGET_VARIANT[p.kind], homs


def enumerate_target(p: Presentation) -> set:
    """Brute-force element set of the structure the kind presents."""
    base, variant, homs = _target(p)
    monoid = base.require_evaluation()
    return {elem for m, n in homs
            for elem in wreath.enumerate_wreath(monoid, m, n, variant, cap=max(m, n))}


def _root_sizes(p: Presentation) -> dict:
    """Closed-form size of the target's part under each start object."""
    base, variant, homs = _target(p)
    monoid = base.require_evaluation()
    sizes: dict[int, int] = {}
    for m, n in homs:
        sizes[m] = sizes.get(m, 0) + wreath.count_wreath(monoid, m, n, variant)
    return sizes


def target_size(p: Presentation) -> int:
    """Closed-form size of the same set."""
    return sum(_root_sizes(p).values())


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
    if kind not in _TARGET_VARIANT:
        raise ValueError(f"no enumerable target for kind {kind!r}")
    flavor = KIND_FLAVOR[kind]
    budget = node_budget(flavor, budget)
    monoid = _target_base(kind, base).require_evaluation()
    cods = range(level + 1) if flavor == "category" else (level,)
    limit = max(budget, _EXACT_NEED)
    need = 1 if flavor == "semigroup" else 0
    for term in chain.from_iterable(
            wreath.rank_counts(monoid, level, n, _TARGET_VARIANT[kind]) for n in cods):
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


def check_generation(p: Presentation, table: CongruenceTable | None = None) -> GenerationResult:
    """Reach the structure's elements from the generator images, keeping
    one witness word per element, and compare with the brute-force target.

    With a complete ``table`` the elements are reached by walking it, one
    product per class; otherwise by closing the generator images under
    composition.  Both visit in the same breadth-first order, with letters
    in alphabet order, so they give the same witness words.

    Everything runs on plain forms (``wreath.compose_keys``), and
    ``witness`` is keyed by them.  The products are not validated, and
    need not be: a verdict of ``pass`` needs ``covered == target ==
    classes``.  The walk makes one product per class, so at most
    ``classes`` distinct images, and ``covered`` of them are target keys;
    when all three agree, the images are exactly the target's keys, each
    reached once.

    The target's keys are what is checked.  They are streamed hom-set by
    hom-set, never held as a set; each must have its support equal to
    its domain, they must strictly increase within a hom-set, and the
    total must match the closed form, or the run raises
    ``InternalInconsistency``.  The missing example is the smallest
    element not reached, by ``sort_key``, the earlier hom-set on a tie."""
    tgt_base, variant, homs = _target(p)
    tgt_monoid = tgt_base.require_evaluation()
    mul = partial(wreath.compose_keys, adjoin_zero(tgt_monoid).table)
    gens = [(sym, words.sym_image(sym, tgt_base, p.n).key) for sym in p.alphabet]
    if p.flavor == "semigroup":
        seeds = [(g, (sym,)) for sym, g in gens]
    else:
        # the identity at each object
        seeds = [(wreath.identity_key(tgt_monoid, m), ()) for m, n in homs if m == n]
    if table is not None and table.status == "complete":
        if p.flavor == "semigroup":
            # the empty word's class is no element: start one letter in
            empty = table.transitions[table.roots[0]]
            starts = [empty[table.gen_index[sym]] for sym in p.alphabet]
        else:
            starts = list(table.roots.values())     # one per object, in order
        witness = _walk(table, starts, seeds, gens, mul)
    else:
        witness = closure(seeds, gens, mul)
    # a repeated key shows as a key that does not increase.  Keys of two
    # hom-sets that tie on ``sort_key`` share the domain size, so the
    # earlier hom-set's, with the smaller codomain, is the smaller key
    found = covered = 0
    missing = None
    for m, n in homs:
        last = None
        for key in wreath.enumerate_keys(tgt_monoid, m, n, variant, cap=max(m, n)):
            images, entries, _ = key
            if list(map(truth, images)) != list(map(truth, entries)):
                raise InternalInconsistency(
                    f"target key {key} has its support off its domain")
            if last is not None and key <= last:
                raise InternalInconsistency(
                    f"target enumeration of hom-set ({m}, {n}) repeats or is out of order")
            last = key
            found += 1
            if key in witness:
                covered += 1
            elif missing is None or key < missing:
                missing = key
    tgt = target_size(p)
    if found != tgt:
        raise InternalInconsistency(
            f"target enumeration ({found}) disagrees with the closed form ({tgt})")
    return GenerationResult(covered, found, witness,
                            None if missing is None else wreath.from_key(missing))


def _walk(table: CongruenceTable, starts, seeds, gens, mul) -> dict:
    """``base.closure`` over a complete table: breadth-first over the
    classes from ``starts`` (the classes of ``seeds``), one ``mul`` per
    class reached.  A class whose image is new takes its parent's word plus
    one letter; a class whose image is already known adds no witness, and
    neither do its children's images, which its first holder has added.
    Only the letters of ``gens`` are followed, so a category table is
    walked within the cap."""
    cols = [table.gen_index[letter] for letter, _ in gens]
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
        row = table.transitions[c]
        for col, (letter, g) in zip(cols, gens):
            t = row[col]
            if t < 0 or image[t] is not None:
                continue
            b = image[t] = mul(a, g)
            queue.append(t)
            if b not in witness:
                witness[b] = witness[a] + (letter,)
    return witness


def verify_presentation(kind: str, base: BasePresentation, n: int,
                        budget: int | None = None) -> VerificationReport:
    """Run soundness, generation and congruence enumeration for one flat
    (monoid or semigroup) kind and compare sizes."""
    check_level(kind, n)
    base.require_evaluation()
    report = VerificationReport(kind, base.name or "custom", n)
    if _over_budget(kind, base, n, budget, report):
        return report
    p = build(kind, base, n=n)
    report.soundness = check_soundness(p)
    if not report.soundness.ok:
        return report
    table = enumerate_congruence(p, budget)
    gen = check_generation(p, table)
    report.generation = (gen.covered, gen.target)
    report.target_size = tgt = gen.target
    if not gen.ok:
        report.notes["generation"] = f"missing {gen.missing_example.to_json()}"
        return report
    if table.status != "complete":
        report.verdict = "inconclusive"
        report.notes["enumeration"] = f"budget exhausted after {table.nodes_created} nodes"
        return report
    report.enumerated_size = table.size
    if table.size < tgt:
        raise InternalInconsistency(
            f"enumerated {table.size} classes below the sound target {tgt}")
    report.verdict = "pass" if table.size == tgt else "fail"
    return report


def verify_category(cap: int, base: BasePresentation, budget: int | None = None,
                    headroom: int = 0, max_headroom: int = 4,
                    seed: int = 0) -> VerificationReport:
    """Structural checks plus typed enumeration of the category kind, one
    hom-set count per pair of objects up to the cap.

    The enumeration runs on the presentation built at ``cap + headroom``.
    Soundness maps each counted hom-set into the target, and generation on
    the cap-level alphabet makes that map onto, so each count at any
    headroom is at least the target's.  So counts equal to the target are
    a proof at any headroom, 0 included.  A count above it
    re-enumerates from scratch one headroom wider, up to ``max_headroom``,
    and then the cell is inconclusive; a count below it is an
    ``InternalInconsistency``."""
    monoid = base.require_evaluation()
    if cap < 1:
        raise ValueError("object cap must be at least 1")
    report = VerificationReport("omega-mi", base.name or "custom", cap)
    if _over_budget("omega-mi", base, cap, budget, report):
        return report
    p = build("omega-mi", base, cap=cap)
    report.soundness = check_soundness(p)
    if not report.soundness.ok:
        return report

    m0 = adjoin_zero(monoid)
    # inclusion-then-projection is the identity, semantically, and the
    # presentation carries both sandwich relations
    rel_set = {(lhs.src, tuple(lhs.edges), tuple(rhs.edges)) for lhs, rhs in p.relations}
    for k in range(cap):
        composite = wreath.compose(m0, words.sym_image(words.lam(k), base),
                                   words.sym_image(words.rho(k), base))
        if composite != wreath.identity_element(monoid, k):
            report.soundness = StageReport(False, f"inclusion/projection broken at {k}")
            return report
        if (k, (words.lam(k), words.rho(k)), ()) not in rel_set:
            report.soundness = StageReport(False, f"missing sandwich relation at {k}")
            return report
        if (k + 1, (words.rho(k), words.lam(k)), (e_(k + 1, k + 1),)) not in rel_set:
            report.soundness = StageReport(False, f"missing reverse sandwich at {k}")
            return report
    report.notes["sandwich_checks"] = 3 * cap

    # squeezing a random endo word between top-slot omissions restricts to
    # the level below; check the canonical witness round-trips
    rng = random.Random(seed)
    samples = 0
    for level in range(1, min(cap, 2) + 1):
        syms = list(build("r-min", base, n=level).alphabet)
        for _ in range(10):
            word = tuple(rng.choice(syms) for _ in range(rng.randrange(0, 5)))
            if not _sandwich_witness_ok(leveled_word(word, level), level - 1, base):
                report.soundness = StageReport(False, "sandwich witness failed")
                return report
            samples += 1
    report.notes["sandwich_witnesses"] = samples

    table = enumerate_congruence(p, budget, headroom=headroom)
    gen = check_generation(p, table)
    report.generation = (gen.covered, gen.target)
    if not gen.ok:
        return report

    _, _, homs = _target(p)
    expected = {(m, n): wreath.hom_count(monoid, m, n) for m, n in homs}
    report.target_size = expected
    h = headroom
    while True:
        if table.status != "complete":
            report.verdict = "inconclusive"
            report.notes["enumeration"] = f"budget exhausted at headroom {h}"
            return report
        got = {key: table.hom_sizes.get(key, 0) for key in expected}
        report.enumerated_size = got
        report.notes["headroom"] = h
        if any(got[key] < expected[key] for key in expected):
            raise InternalInconsistency("hom-set count below the sound target")
        if got == expected:
            report.verdict = "pass"
            return report
        if h >= max_headroom:
            report.verdict = "inconclusive"
            report.notes["enumeration"] = f"counts above target at maximal headroom {h}"
            return report
        h += 1
        table = enumerate_congruence(p, budget, headroom=h)


def _sandwich_witness_ok(u, k: int, base: BasePresentation) -> bool:
    """For an endo word ``u`` at level ``k+1``, squeeze it between
    omissions of the top slot, factor the restriction at level ``k``
    canonically, push the factorization one level up, and compare."""
    e_top = (e_(k + 1, k + 1),)
    squeezed = eval_path(Path(k + 1, e_top + u + e_top), base)
    inner = wreath.from_key((squeezed.pmap.images[:k], squeezed.tup.entries[:k], k))
    v = words.canonical_word(inner, "r-min", base)
    back = eval_path(Path(k + 1, e_top + leveled_word(v, k + 1) + e_top), base)
    return back == squeezed


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

    if kind == "xi-i":
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
