"""Builders for the generator-and-relation presentations of the wreath
structures, parameterized by the base presentation and a level or object cap.

Kinds and flavors:

    r-in            monoid     swap/omit alphabet at one level
    r-in-popova     monoid     swaps plus a single omission
    r-min           monoid     swap/omit plus one slot alphabet per position
    r-min-small     monoid     swaps, one omission, bare base letters
    omega-mi        category   r-min at every level plus inclusion/projection
                               commutation
    xi-i            tensor     the three untyped edges
    xi-mi           tensor     the three edges plus the base letters
    r-sing-in       semigroup  transfer alphabet
    r-sing-tuples   semigroup  omissions plus pinned slot letters
    r-m-sing-in     semigroup  union of the two singular alphabets

Instantiation policy, fixed for reproducible output: schemas are emitted in
the order listed per kind; index tuples run lexicographically over all
values for which every mentioned symbol is well formed, plus any stated
constraint; chained equalities ``a = b = c`` contribute the adjacent pairs
``(a, b)`` and ``(b, c)``; a schema whose two sides swap under exchanging a
symmetric index pair is instantiated once per unordered choice.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

from .base import BasePresentation
from .words import (
    Path,
    Sym,
    TIdent,
    bx,
    compose_chain,
    e_,
    eval_path,
    eval_term,
    eval_word,
    f_,
    lam,
    leveled_word,
    lift_word_i,
    lift_word_ij,
    parse_monoid_word,
    parse_path,
    parse_term,
    path_text,
    pe,
    plus_word,
    rho,
    s_,
    tcompose,
    tedge,
    term_text,
    token,
    ttensor,
    TX,
    TU,
    TUBAR,
    word_text,
    x_,
    xc,
)

__all__ = [
    "KINDS",
    "KIND_FLAVOR",
    "FlavorSyntax",
    "FLAVOR_SYNTAX",
    "Presentation",
    "build",
    "check_level",
    "emit_text",
    "emit_json",
]

KIND_FLAVOR = {
    "r-in": "monoid",
    "r-in-popova": "monoid",
    "r-min": "monoid",
    "r-min-small": "monoid",
    "omega-mi": "category",
    "xi-i": "tensor",
    "xi-mi": "tensor",
    "r-sing-in": "semigroup",
    "r-sing-tuples": "semigroup",
    "r-m-sing-in": "semigroup",
}

KINDS = tuple(KIND_FLAVOR)


@dataclass(frozen=True)
class FlavorSyntax:
    """How one flavor reads, evaluates and prints a relation side.

    ``eval(side, base, n)`` uses the level ``n`` for flat words only.
    ``tokens`` is the side as emitted in JSON.
    """

    parse: Callable
    eval: Callable
    text: Callable
    tokens: Callable


# eval looks its function up per call, so a wrapper installed on the
# module attribute sees every evaluation
_FLAT = FlavorSyntax(
    parse_monoid_word,
    lambda word, base, n: eval_word(word, base, n),
    word_text,
    lambda word: [token(s) for s in word])

FLAVOR_SYNTAX = {
    "monoid": _FLAT,
    "semigroup": _FLAT,
    "category": FlavorSyntax(
        parse_path,
        lambda path, base, n: eval_path(path, base),
        path_text,
        lambda path: [token(s) for s in path.edges] or [path_text(path)]),
    "tensor": FlavorSyntax(
        parse_term,
        lambda term, base, n: eval_term(term, base),
        term_text,
        term_text),
}


@dataclass(frozen=True)
class Presentation:
    kind: str
    flavor: str
    base: BasePresentation
    n: int | None
    cap: int | None
    alphabet: tuple[Sym, ...]
    relations: tuple


def build(kind: str, base: BasePresentation, n: int | None = None,
          cap: int | None = None) -> Presentation:
    """Instantiate a presentation kind at level ``n`` (monoid/semigroup
    kinds) or up to object ``cap`` (the category kind)."""
    check_level(kind, n, cap)
    flavor = KIND_FLAVOR[kind]
    alphabet, relations = _BUILDERS[kind](base, n, cap)
    return Presentation(kind, flavor, base, n if flavor in ("monoid", "semigroup") else None,
                        cap if kind == "omega-mi" else None,
                        tuple(alphabet), tuple(relations))


def check_level(kind: str, n: int | None = None, cap: int | None = None):
    """Raise ``ValueError`` unless ``build`` takes this kind and level."""
    if kind not in KIND_FLAVOR:
        raise ValueError(f"unknown presentation kind {kind!r}")
    flavor = KIND_FLAVOR[kind]
    if flavor in ("monoid", "semigroup"):
        if n is None:
            raise ValueError(f"kind {kind} needs a level n")
        floor = {"r-in": 0, "r-in-popova": 1, "r-min": 0, "r-min-small": 1}.get(kind, 2)
        if n < floor:
            raise ValueError(f"kind {kind} needs n >= {floor}")
    elif kind == "omega-mi":
        if cap is None or cap < 0:
            raise ValueError("the category kind needs an object cap >= 0")


# ---------------------------------------------------------------------------
# level-free monoid kinds

def _r_in_core(n):
    rels = []
    for i in range(1, n):                                     # swaps are involutions
        rels.append(((s_(i), s_(i)), ()))
    for i in range(1, n):                                     # distant swaps commute
        for j in range(i + 2, n):
            rels.append(((s_(i), s_(j)), (s_(j), s_(i))))
    for i in range(1, n - 1):                                 # braid
        rels.append(((s_(i), s_(i + 1), s_(i)), (s_(i + 1), s_(i), s_(i + 1))))
    return rels


def _omissions(n):
    rels = []
    for i in range(1, n + 1):                                 # omissions are idempotent
        rels.append(((e_(i), e_(i)), (e_(i),)))
    for i in range(1, n + 1):                                 # omissions commute
        for j in range(i + 1, n + 1):
            rels.append(((e_(i), e_(j)), (e_(j), e_(i))))
    return rels


def _r_in(base, n, cap):
    alphabet = [s_(i) for i in range(1, n)] + [e_(i) for i in range(1, n + 1)]
    rels = _r_in_core(n) + _omissions(n)
    for i in range(1, n):                                     # swap past an untouched omission
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                rels.append(((s_(i), e_(j)), (e_(j), s_(i))))
    for i in range(1, n):                                     # swap carries the omitted slot
        rels.append(((s_(i), e_(i)), (e_(i + 1), s_(i))))
    for i in range(1, n):                                     # swap dies under both omissions
        rels.append(((e_(i), e_(i + 1), s_(i)), (e_(i), e_(i + 1))))
    return alphabet, rels


def _popova_core(n):
    rels = _r_in_core(n)
    rels.append(((pe(), pe()), (pe(),)))
    if n >= 2:
        w = (pe(), s_(1), pe(), s_(1))
        rels.append((w, (pe(), s_(1), pe())))
        rels.append(((pe(), s_(1), pe()), (s_(1), pe(), s_(1), pe())))
    for i in range(2, n):
        rels.append(((pe(), s_(i)), (s_(i), pe())))
    return rels


def _r_in_popova(base, n, cap):
    alphabet = [s_(i) for i in range(1, n)] + [pe()]
    return alphabet, _popova_core(n)


def _r_min(base, n, cap):
    letters = base.alphabet
    alphabet, rels = _r_in(base, n, cap)
    alphabet += [x_(x, i) for i in range(1, n + 1) for x in letters]
    for (u, v) in base.relations:                             # base relations per slot
        for i in range(1, n + 1):
            rels.append((lift_word_i(u, i), lift_word_i(v, i)))
    for i in range(1, n + 1):                                 # distinct slots commute
        for j in range(i + 1, n + 1):
            for x in letters:
                for y in letters:
                    rels.append(((x_(x, i), x_(y, j)), (x_(y, j), x_(x, i))))
    for i in range(1, n):                                     # swap past an untouched slot
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                for x in letters:
                    rels.append(((s_(i), x_(x, j)), (x_(x, j), s_(i))))
    for i in range(1, n):                                     # swap moves the slot up
        for x in letters:
            rels.append(((s_(i), x_(x, i)), (x_(x, i + 1), s_(i))))
    for i in range(1, n + 1):                                 # omission past other slots
        for j in range(1, n + 1):
            if j != i:
                for x in letters:
                    rels.append(((e_(i), x_(x, j)), (x_(x, j), e_(i))))
    for i in range(1, n + 1):                                 # omission absorbs its own slot
        for x in letters:
            rels.append(((e_(i), x_(x, i)), (e_(i),)))
            rels.append(((e_(i),), (x_(x, i), e_(i))))
    return alphabet, rels


def _r_min_small(base, n, cap):
    letters = base.alphabet
    alphabet = [s_(i) for i in range(1, n)] + [pe()] + [bx(x) for x in letters]
    rels = _popova_core(n)
    for (u, v) in base.relations:                             # base relations verbatim
        rels.append((tuple(bx(x) for x in u), tuple(bx(x) for x in v)))
    for i in range(2, n):                                     # high swaps miss slot 1
        for x in letters:
            rels.append(((s_(i), bx(x)), (bx(x), s_(i))))
    if n >= 2:
        for x in letters:                                     # slot 1 and conjugated slot 2
            for y in letters:
                rels.append(((bx(x), s_(1), bx(y), s_(1)),
                             (s_(1), bx(y), s_(1), bx(x))))
        for x in letters:
            rels.append(((pe(), s_(1), bx(x), s_(1)),
                         (s_(1), bx(x), s_(1), pe())))
    for x in letters:                                         # omission absorbs slot 1
        rels.append(((pe(), bx(x)), (bx(x), pe())))
        rels.append(((bx(x), pe()), (pe(),)))
    return alphabet, rels


# ---------------------------------------------------------------------------
# category kind

def _omega_mi(base, n, cap):
    alphabet, rels, levels = [], [], []
    for k in range(cap + 1):                                  # r-min at every level
        gens, loops = _r_min(base, k, None)
        levels.append(leveled_word(gens, k))
        alphabet.extend(levels[k])
        for (u, v) in loops:
            rels.append((Path(k, leveled_word(u, k)), Path(k, leveled_word(v, k))))
    for k in range(cap):
        alphabet += [lam(k), rho(k)]
        rels.append((Path(k, (lam(k), rho(k))), Path(k, ())))  # the two sandwiches
        rels.append((Path(k + 1, (rho(k), lam(k))), Path(k + 1, (e_(k + 1, k + 1),))))
        for g in levels[k]:                                   # generators pass the inclusion
            rels.append((Path(k, (g, lam(k))), Path(k, (lam(k),) + plus_word((g,)))))
        for g in levels[k]:                                   # and the projection
            rels.append((Path(k + 1, (rho(k), g)), Path(k + 1, plus_word((g,)) + (rho(k),))))
    return alphabet, rels


# ---------------------------------------------------------------------------
# tensor kinds

def _word_chain(word, letters_to_edges):
    if not word:
        return TIdent(1)
    return compose_chain([letters_to_edges(x) for x in word])


def _xi_core():
    I = TIdent(1)
    X = tedge(TX)
    U = tedge(TU)
    Ub = tedge(TUBAR)
    XI = ttensor(X, I)
    IX = ttensor(I, X)
    rels = [
        (tcompose(X, X), TIdent(2)),
        (tcompose(tcompose(XI, IX), XI), tcompose(tcompose(IX, XI), IX)),
        (tcompose(Ub, U), TIdent(0)),
        (tcompose(X, ttensor(U, I)), ttensor(I, U)),
        (tcompose(ttensor(Ub, I), X), ttensor(I, Ub)),
    ]
    return rels


def _xi_i(base, n, cap):
    return [TX, TU, TUBAR], _xi_core()


def _xi_mi(base, n, cap):
    letters = base.alphabet
    alphabet = [TX, TU, TUBAR] + [bx(x) for x in letters]
    I = TIdent(1)
    X = tedge(TX)
    U = tedge(TU)
    Ub = tedge(TUBAR)
    rels = []
    for (u, v) in base.relations:                             # base relations as loops at 1
        rels.append((_word_chain(u, lambda c: tedge(bx(c))),
                     _word_chain(v, lambda c: tedge(bx(c)))))
    rels.extend(_xi_core())
    for x in letters:                                         # swap carries a label across
        xe = tedge(bx(x))
        rels.append((tcompose(X, ttensor(xe, I)), tcompose(ttensor(I, xe), X)))
    for x in letters:                                         # labels die against the caps
        rels.append((tcompose(tedge(bx(x)), U), U))
    for x in letters:
        rels.append((tcompose(Ub, tedge(bx(x))), Ub))
    return alphabet, rels


# ---------------------------------------------------------------------------
# singular kinds

def _ordered_pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]


def _r_sing_in(base, n, cap):
    alphabet = [f_(i, j) for i, j in _ordered_pairs(n)]
    rels = []
    for i, j in _ordered_pairs(n):                            # transfer is regular
        rels.append(((f_(i, j), f_(j, i), f_(i, j)), (f_(i, j),)))
    for i, j in _ordered_pairs(n):                            # cube equals square
        rels.append(((f_(i, j),) * 3, (f_(i, j),) * 2))
    for i in range(1, n + 1):                                 # squares agree across the pair
        for j in range(i + 1, n + 1):
            rels.append(((f_(i, j),) * 2, (f_(j, i),) * 2))
    pairs = _ordered_pairs(n)
    for a, (i, j) in enumerate(pairs):                        # disjoint transfers commute
        for (k, l) in pairs[a + 1:]:
            if {i, j} & {k, l}:
                continue
            rels.append(((f_(i, j), f_(k, l)), (f_(k, l), f_(i, j))))
    for i in range(1, n + 1):                                 # projections at i agree
        for j in range(1, n + 1):
            if j == i:
                continue
            for k in range(j + 1, n + 1):
                if k == i:
                    continue
                rels.append(((f_(i, j), f_(j, i)), (f_(i, k), f_(k, i))))
    for i, j in _ordered_pairs(n):                            # sliding a shared slot
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            rels.append(((f_(i, j), f_(i, k)), (f_(j, k), f_(i, j))))
            rels.append(((f_(j, k), f_(i, j)), (f_(i, k), f_(j, k))))
    for i in range(1, n + 1):                                 # three-cycles match transposed
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                rels.append(((f_(k, i), f_(i, j), f_(j, k)),
                             (f_(k, j), f_(j, i), f_(i, k))))
    for i, j in _ordered_pairs(n):                            # cycle then move elsewhere
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for l in range(1, n + 1):
                if l in (i, j, k):
                    continue
                rels.append(((f_(k, i), f_(i, j), f_(j, k), f_(k, l)),
                             (f_(k, l), f_(l, i), f_(i, j), f_(j, l))))
    return alphabet, rels


def _r_sing_tuples(base, n, cap):
    letters = base.alphabet
    alphabet = [e_(i) for i in range(1, n + 1)]
    alphabet += [xc(x, i, j) for i in range(1, n + 1)
                 for j in range(1, n + 1) if j != i for x in letters]
    rels = _omissions(n)
    for (u, v) in base.relations:                             # base relations, pinned
        for i, j in _ordered_pairs(n):
            rels.append((lift_word_ij(u, i, j), lift_word_ij(v, i, j)))
    for i, j in _ordered_pairs(n):                            # untouched omission slides and re-pins
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for x in letters:
                rels.append(((xc(x, i, j), e_(k)), (e_(k), xc(x, i, j))))
                rels.append(((e_(k), xc(x, i, j)), (e_(j), xc(x, i, k))))
    for i, j in _ordered_pairs(n):                            # pinned slot absorbs its omission
        for x in letters:
            rels.append(((xc(x, i, j), e_(j)), (e_(j), xc(x, i, j))))
            rels.append(((e_(j), xc(x, i, j)), (xc(x, i, j),)))
    for i, j in _ordered_pairs(n):                            # omitting the labelled slot
        for x in letters:
            rels.append(((xc(x, i, j), e_(i)), (e_(i), xc(x, i, j))))
            rels.append(((e_(i), xc(x, i, j)), (e_(i), e_(j))))
    for i in range(1, n + 1):                                 # same pin, different slots commute
        for j in range(i + 1, n + 1):
            for k in range(1, n + 1):
                if k in (i, j):
                    continue
                for x in letters:
                    for y in letters:
                        rels.append(((xc(x, i, k), xc(y, j, k)),
                                     (xc(y, j, k), xc(x, i, k))))
    return alphabet, rels


def _r_m_sing_in(base, n, cap):
    letters = base.alphabet
    f_alpha, f_rels = _r_sing_in(base, n, cap)
    t_alpha, t_rels = _r_sing_tuples(base, n, cap)
    alphabet = f_alpha + t_alpha
    rels = list(f_rels) + list(t_rels)
    for i, j in _ordered_pairs(n):                            # transfer and back omits i
        rels.append(((f_(i, j), f_(j, i)), (e_(i),)))
    for i, j in _ordered_pairs(n):                            # label crosses its own transfer
        for x in letters:
            rels.append(((f_(i, j), xc(x, i, j)), (xc(x, j, i), f_(i, j))))
    for i, j in _ordered_pairs(n):                            # label at the moved slot
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for x in letters:
                rels.append(((f_(i, j), xc(x, i, k)), (xc(x, j, k), f_(i, j))))
    for i, j in _ordered_pairs(n):                            # pin at the dead slot
        for k in range(1, n + 1):
            # k must differ from i (the pinned letter needs k != i) but k = j
            # is meaningful and included
            if k == i:
                continue
            for x in letters:
                rels.append(((f_(i, j), xc(x, k, i)), (xc(x, k, i), e_(j))))
    for i, j in _ordered_pairs(n):                            # label rides into the transfer
        for k in range(1, n + 1):
            # k must differ from j; this covers distinct i,j,k as well as k = i
            if k == j:
                continue
            for x in letters:
                rels.append(((f_(i, j), xc(x, j, k)), (f_(i, j), f_(k, j))))
    for i, j in _ordered_pairs(n):                            # pin at the target slot
        for k in range(1, n + 1):
            if k in (i, j):
                continue
            for x in letters:
                rels.append(((f_(i, j), xc(x, k, j)), (xc(x, k, i), f_(i, j))))
    for i, j in _ordered_pairs(n):                            # fully disjoint
        for k, l in _ordered_pairs(n):
            if {i, j} & {k, l}:
                continue
            for x in letters:
                rels.append(((f_(i, j), xc(x, k, l)), (xc(x, k, l), f_(i, j))))
    return alphabet, rels


_BUILDERS = {
    "r-in": _r_in,
    "r-in-popova": _r_in_popova,
    "r-min": _r_min,
    "r-min-small": _r_min_small,
    "omega-mi": _omega_mi,
    "xi-i": _xi_i,
    "xi-mi": _xi_mi,
    "r-sing-in": _r_sing_in,
    "r-sing-tuples": _r_sing_tuples,
    "r-m-sing-in": _r_m_sing_in,
}


# ---------------------------------------------------------------------------
# emission

def emit_text(p: Presentation) -> str:
    """One relation per line, ``lhs = rhs``, after a short comment header."""
    text = FLAVOR_SYNTAX[p.flavor].text
    lines = []
    scope = f"n: {p.n}" if p.n is not None else (f"cap: {p.cap}" if p.cap is not None else "cap: none")
    lines.append(f"# kind: {p.kind}  flavor: {p.flavor}  {scope}  monoid: {p.base.name or 'custom'}")
    lines.append("# generators: " + (" ".join(token(s) for s in p.alphabet) or "(none)"))
    for lhs, rhs in p.relations:
        lines.append(f"{text(lhs)} = {text(rhs)}")
    return "\n".join(lines) + "\n"


def emit_json(p: Presentation) -> str:
    tokens = FLAVOR_SYNTAX[p.flavor].tokens
    obj = {
        "kind": p.kind,
        "flavor": p.flavor,
        "n": p.n,
        "cap": p.cap,
        "monoid": p.base.name or "custom",
        "alphabet": [token(s) for s in p.alphabet],
        "relations": [
            [tokens(lhs), tokens(rhs)]
            for lhs, rhs in p.relations
        ],
    }
    return json.dumps(obj, indent=2) + "\n"
