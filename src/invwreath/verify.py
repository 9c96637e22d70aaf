"""Per-instance verification that a built presentation presents its target:
relation soundness, generation with witnesses, and congruence enumeration
compared against brute-force cardinalities.

Soundness gives a well-defined map out of the presented structure;
generation makes it onto; equality of the finite sizes makes it a
bijection.  The three stages are reported separately and the verdict is
their conjunction, with budget exhaustion reported as inconclusive rather
than failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from . import wreath, words
from .base import BasePresentation, InternalInconsistency, MTuple, adjoin_zero, builtin, closure
from .congruence import enumerate_congruence, node_budget
from .pperm import PartialBijection
from .presentations import FLAVOR_SYNTAX, Presentation, build
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
    witness: dict
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


def _typed_mul(m0):
    """Composition of labelled partial bijections, ``None`` where the
    levels do not match.  ``wreath.compose`` is looked up per call, so a
    wrapper installed on it sees every product."""
    def mul(a, g):
        if a.cod_size != g.dom_size:
            return None
        return wreath.compose(m0, a, g)
    return mul


_TARGET_VARIANT = {
    "r-in": "full", "r-in-popova": "full", "r-min": "full", "r-min-small": "full",
    "omega-mi": "full",
    "r-sing-in": "singular-monoid",
    "r-sing-tuples": "singular-tuples",
    "r-m-sing-in": "singular-monoid",
}


def _target(p: Presentation):
    """Base presentation, ``wreath`` variant and hom-sets ``(m, n)`` of the
    structure the kind presents: every pair of levels up to the cap for
    the category kind, the one pair ``(n, n)`` for a flat kind.  Plain-map
    kinds target unlabelled partial bijections, over the trivial base."""
    if p.kind not in _TARGET_VARIANT:
        raise ValueError(f"no enumerable target for kind {p.kind!r}")
    objects = range(p.cap + 1) if p.flavor == "category" else (p.n,)
    homs = [(m, n) for m in objects for n in objects]
    base = builtin("trivial") if p.kind in ("r-in", "r-in-popova", "r-sing-in") else p.base
    return base, _TARGET_VARIANT[p.kind], homs


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


def _over_budget(p: Presentation, budget: int | None, report: VerificationReport) -> bool:
    """Mark ``report`` inconclusive when the closed-form target alone needs
    more nodes under one root than the enumeration's budget allows: each
    class needs a node of its own, and a semigroup run one more for the
    empty word."""
    budget = node_budget(p.flavor, budget)
    need = max(_root_sizes(p).values()) + (1 if p.flavor == "semigroup" else 0)
    if need <= budget:
        return False
    report.verdict = "inconclusive"
    report.notes["enumeration"] = (
        f"stopped before generation: the target needs {need} nodes under one root, "
        f"above the node budget of {budget}")
    return True


def check_generation(p: Presentation) -> GenerationResult:
    """Close the generator images under composition and compare with the
    brute-force target, keeping one witness word per element reached."""
    tgt_base, _, homs = _target(p)
    tgt_monoid = tgt_base.require_evaluation()
    m0 = adjoin_zero(tgt_monoid)
    images = [(sym, words.sym_image(sym, tgt_base, p.n)) for sym in p.alphabet]
    if p.flavor == "semigroup":
        seeds = [(g, (sym,)) for sym, g in images]
    else:
        # the identity at each object
        seeds = [(wreath.identity_element(tgt_monoid, m), ()) for m, n in homs if m == n]
    witness = closure(seeds, images, _typed_mul(m0))
    target = enumerate_target(p)
    missing = [t for t in target if t not in witness]
    missing.sort(key=lambda e: e.sort_key())
    return GenerationResult(len(target) - len(missing), len(target), witness,
                            missing[0] if missing else None)


def _generation_stage(p: Presentation, report: VerificationReport) -> GenerationResult:
    """Generation into ``report``, with the brute-force target checked
    against the closed form."""
    gen = check_generation(p)
    report.generation = (gen.covered, gen.target)
    tgt = target_size(p)
    if gen.target != tgt:
        raise InternalInconsistency(
            f"target enumeration ({gen.target}) disagrees with the closed form ({tgt})")
    return gen


def verify_presentation(kind: str, base: BasePresentation, n: int,
                        budget: int | None = None) -> VerificationReport:
    """Run soundness, generation and congruence enumeration for one flat
    (monoid or semigroup) kind and compare sizes."""
    p = build(kind, base, n=n)
    report = VerificationReport(kind, base.name or "custom", n)
    report.soundness = check_soundness(p)
    if not report.soundness.ok or _over_budget(p, budget, report):
        return report
    gen = _generation_stage(p, report)
    report.target_size = tgt = gen.target
    if not gen.ok:
        report.notes["generation"] = f"missing {gen.missing_example.to_json()}"
        return report
    table = enumerate_congruence(p, budget)
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
                    headroom: int = 2, max_headroom: int = 4,
                    seed: int = 0) -> VerificationReport:
    """Structural checks plus typed enumeration of the category kind, one
    hom-set count per pair of objects up to the cap."""
    monoid = base.require_evaluation()
    if cap < 1:
        raise ValueError("object cap must be at least 1")
    p = build("omega-mi", base, cap=cap)
    report = VerificationReport("omega-mi", base.name or "custom", cap)
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

    if _over_budget(p, budget, report) or not _generation_stage(p, report).ok:
        return report

    _, _, homs = _target(p)
    expected = {(m, n): wreath.hom_count(monoid, m, n) for m, n in homs}
    report.target_size = expected
    h = headroom
    while True:
        table = enumerate_congruence(p, budget, headroom=h)
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


def _sandwich_witness_ok(u, k: int, base: BasePresentation) -> bool:
    """For an endo word ``u`` at level ``k+1``, squeeze it between
    omissions of the top slot, factor the restriction at level ``k``
    canonically, push the factorization one level up, and compare."""
    e_top = (e_(k + 1, k + 1),)
    squeezed = eval_path(Path(k + 1, e_top + u + e_top), base)
    inner = WreathElement(
        MTuple(squeezed.tup.entries[:k]),
        PartialBijection(k, k, squeezed.pmap.images[:k]))
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
